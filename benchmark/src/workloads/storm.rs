//! `storm_open_loop`: the only concurrent workload.
//!
//! One LUP warehouse with eight large query processors and the span
//! recorder on. A step is one `run_workload_open_loop` at a base rate of
//! 1, 2, 4 or 8 queries/s, each releasing the same number of arrivals
//! (diurnal swing 0.4 over 40 s, a ×4 burst for 5 s every 15 s, Zipf 1.2
//! over the ten queries), followed by `spans()` +
//! `amada_obs::query_latencies` for the step. Open loop: an arrival is
//! sent at its scheduled virtual instant whatever the backlog, and its
//! latency counts from that instant, exactly, in virtual time — the
//! generator cannot run late. Eight instances contend for one key-value
//! read lane and the queue, so queueing, not service time, sets the tail.
//!
//! A timed iteration is the 4 q/s step, the one the end-to-end metrics
//! report. The sweep over all four rates, which only the virtual clock
//! cares about and which therefore repeats exactly, runs once after the
//! clock stops: timed, it would leave the host clock a handful of
//! repetitions per step.

use crate::harness::{Bench, Cloud, Observed, Virtual};
use crate::host::{Call, Recorder};
use crate::inputs::{Inputs, Scale};
use crate::stats::nearest_rank;
use amada_cloud::{InstanceType, SimDuration};
use amada_core::{ArrivalProcess, Pool, Warehouse, WarehouseConfig};
use amada_index::Strategy;

/// Base arrival rates of the four steps, queries per second.
pub const RATES: [f64; 4] = [1.0, 2.0, 4.0, 8.0];
/// Position in [`RATES`] of the step the end-to-end metrics report.
pub const REFERENCE_STEP: usize = 2;
/// A rate is sustained when p95 latency stays within this many virtual ms.
pub const LATENCY_LIMIT_MS: f64 = 3000.0;

pub struct StormOpenLoop {
    inputs: Inputs,
    warehouse: Warehouse,
}

/// Virtual-clock outcome of one step.
#[derive(Debug, Clone, PartialEq)]
struct Step {
    virt: Virtual,
    cloud: Cloud,
    p95_ms: f64,
    /// p90 over the last `storm_tail` arrivals: a backlog that is still
    /// growing when the step ends shows here first.
    tail_p90_ms: f64,
    spans_per_arrival: f64,
}

impl StormOpenLoop {
    fn process(&self, step: usize) -> ArrivalProcess {
        ArrivalProcess {
            // A constant per step, not `--seed`: with a few hundred arrivals
            // the latencies of two schedules differ by tens of percent (a
            // backlog is chaotic in its schedule), which would drown every
            // virtual-clock metric. The seed varies the corpus underneath.
            seed: (step as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407),
            arrivals: self.inputs.scale.storm_arrivals,
            base_rate_per_sec: RATES[step],
            diurnal_amplitude: 0.4,
            diurnal_period: SimDuration::from_secs(40),
            burst_every: SimDuration::from_secs(15),
            burst_len: SimDuration::from_secs(5),
            burst_factor: 4.0,
            zipf_exponent: 1.2,
        }
    }

    fn step(&mut self, step: usize, rec: &mut Recorder, obs: &mut Observed) -> Step {
        let process = self.process(step);
        let w = &mut self.warehouse;
        let before = w.world().snapshot();
        let span_base = w.world().obs.span_count();
        let (report, run_ns) = rec.call((Call::RunWorkload, None), || {
            w.run_workload_open_loop(&self.inputs.queries, &process)
        });
        let (latencies, extract_ns) = rec.call((Call::LatencyExtract, None), || {
            let spans = w.spans();
            amada_obs::query_latencies(&spans[span_base..])
        });
        // The op call is the whole step, latency extraction included.
        rec.op_samples.push((0, run_ns + extract_ns));

        let (step, _) = rec.off_clock(|| {
            let arrivals = process.arrivals as u64;
            let answered = (report.executions.len() as u64).min(latencies.len() as u64);
            obs.check(
                arrivals,
                arrivals.saturating_sub(answered),
                "arrival without a response",
            );
            for exec in &report.executions {
                obs.note_execution(&self.inputs, exec, None);
            }
            // Arrival names are `{query}#{seq}`: order by release.
            let mut by_seq: Vec<(u64, f64)> = latencies
                .iter()
                .map(|(name, d)| {
                    let seq = name.rsplit('#').next().and_then(|s| s.parse().ok());
                    (seq.unwrap_or(u64::MAX), d.micros() as f64 / 1e3)
                })
                .collect();
            by_seq.sort_by_key(|(seq, _)| *seq);
            let all_ms: Vec<f64> = by_seq.iter().map(|(_, ms)| *ms).collect();
            let tail = &all_ms[all_ms.len().saturating_sub(self.inputs.scale.storm_tail)..];
            let cloud = Cloud::since(w.world(), &before);
            obs.work.note_cloud(&cloud);
            let step = Step {
                virt: Virtual {
                    makespan_us: report.total_time.micros(),
                    latencies_us: latencies.iter().map(|(_, d)| d.micros()).collect(),
                    cost_pico: cloud.total_pico(),
                    ops: arrivals,
                },
                cloud,
                p95_ms: nearest_rank(&all_ms, 0.95),
                tail_p90_ms: nearest_rank(tail, 0.90),
                spans_per_arrival: (w.world().obs.span_count() - span_base) as f64
                    / arrivals as f64,
            };
            // Freeing a thousand result sets is the harness's cost.
            drop((report, latencies));
            step
        });
        step
    }
}

impl Bench for StormOpenLoop {
    fn min_iterations(_: &Scale) -> usize {
        5
    }

    fn setup(inputs: Inputs) -> Self {
        let mut cfg = WarehouseConfig::with_strategy(Strategy::Lup);
        cfg.query_pool = Pool::new(8, InstanceType::Large);
        cfg.host.record = true;
        let mut warehouse = Warehouse::new(cfg);
        warehouse.upload_documents(inputs.documents());
        warehouse.build_index();
        let mut bench = StormOpenLoop { inputs, warehouse };
        // Warm-up: the reference step, observed by nobody.
        let mut rec = Recorder::new(false);
        rec.begin_iteration();
        bench.step(REFERENCE_STEP, &mut rec, &mut Observed::new());
        bench
    }

    fn ops_per_iteration(&self) -> f64 {
        self.inputs.scale.storm_arrivals as f64
    }

    fn iterate(&mut self, rec: &mut Recorder, obs: &mut Observed) {
        // Every iteration must repeat the reference step bit for bit.
        let reference = self.step(REFERENCE_STEP, rec, obs);
        obs.window_or_compare(reference.virt, reference.cloud);
    }

    fn finish(mut self, obs: &mut Observed) -> Inputs {
        // The rate sweep, observed by the checks and the virtual clock
        // only: its work is not the timed phase's.
        let timed_work = obs.work.clone();
        let mut rec = Recorder::new(false);
        rec.begin_iteration();
        let steps: Vec<Step> = (0..RATES.len())
            .map(|i| self.step(i, &mut rec, obs))
            .collect();
        obs.work = timed_work;
        let same = steps[REFERENCE_STEP].virt == obs.virt;
        obs.check(
            1,
            u64::from(!same),
            "the sweep's 4 q/s step differs from the timed one",
        );
        // The highest rate that meets the limit with no growing backlog,
        // all lower rates meeting it too.
        let sustained = steps
            .iter()
            .take_while(|s| s.p95_ms <= LATENCY_LIMIT_MS && s.tail_p90_ms <= LATENCY_LIMIT_MS)
            .count();
        let max_rate = if sustained == 0 {
            0.0
        } else {
            RATES[sustained - 1]
        };
        obs.extras
            .insert("core.storm.max_rate_qps".into(), max_rate);
        for (rate, s) in RATES.iter().zip(&steps) {
            obs.extras
                .insert(format!("core.storm.virt_p95_ms.r{rate}"), s.p95_ms);
        }
        obs.extras.insert(
            "cloud.obs.spans_per_op".into(),
            steps[REFERENCE_STEP].spans_per_arrival,
        );
        let w = &self.warehouse;
        obs.extras.insert(
            "core.index_bytes_per_corpus_byte".into(),
            w.world().kv.stats().stored_bytes() as f64 / w.corpus_bytes() as f64,
        );
        self.inputs
    }
}

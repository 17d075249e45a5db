//! The part every workload shares: repeated set-up, the timed loop, what a
//! run observes on both clocks, and the end-to-end metrics made from it.

use crate::host::{host_ns, Recorder};
use crate::inputs::{canonical, Inputs, Scale};
use crate::spec::Workload;
use crate::stats::{geomean, nearest_rank, steady, STEADY_PERCENTILE};
use amada_cloud::{CostReport, CostSnapshot, SimDuration, World};
use amada_core::{IndexBuildReport, QueryExecution, DEAD_LETTER_QUEUE};
use amada_index::{CacheStats, ExtractCache, Strategy};
use std::collections::BTreeMap;
use std::time::Instant;

/// One invocation: which workload, on which inputs, for how long.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    /// How long the timed phase measures, in seconds.
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// Position of a strategy in `Strategy::ALL` (the per-strategy tables).
pub fn strategy_index(s: Strategy) -> usize {
    Strategy::ALL
        .iter()
        .position(|x| *x == s)
        .expect("workloads only use the paper's four strategies")
}

/// Virtual-clock results of a fixed amount of work (the *window*: one
/// iteration, or the first rounds of the churn). Exact and repeatable:
/// they depend on the seed, never on how many iterations the host fits
/// into `--seconds`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Virtual {
    pub makespan_us: u64,
    /// Virtual latency of each op in the window, microseconds.
    pub latencies_us: Vec<u64>,
    /// All-service charges of the window, picodollars.
    pub cost_pico: u128,
    /// Ops the window performed (the `$ per 1k ops` denominator).
    pub ops: u64,
}

impl Virtual {
    pub fn push_latency(&mut self, d: SimDuration) {
        self.latencies_us.push(d.micros());
    }
}

/// Exact service-side counts between two points of one world.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cloud {
    pub service_calls: u64,
    pub kv_put_units: u64,
    pub kv_get_units: u64,
    pub kv_throttled: u64,
    pub sqs_redelivered: u64,
    pub s3_gets: u64,
    pub s3_puts: u64,
    pub sqs_requests: u64,
    /// Charges by service, picodollars: kv, s3, ec2, sqs, egress.
    pub cost_pico: [u128; 5],
}

/// `CostReport` as picodollars in the order of [`Cloud::cost_pico`].
pub fn cost_parts(c: &CostReport) -> [u128; 5] {
    [c.kv, c.s3, c.ec2, c.sqs, c.egress].map(|m| m.pico())
}

impl Cloud {
    /// Everything `world` did since `before` (`CostSnapshot::default()`
    /// for a world's whole life).
    pub fn since(world: &World, before: &CostSnapshot) -> Cloud {
        let (s3, kv, sqs) = (world.s3.stats(), world.kv.stats(), world.sqs.stats());
        let (s3b, kvb, sqsb) = (&before.s3, &before.kv, &before.sqs);
        let s3_gets = s3.get_requests - s3b.get_requests;
        let s3_puts = s3.put_requests - s3b.put_requests;
        let s3_other =
            (s3.delete_requests - s3b.delete_requests) + (s3.scan_requests - s3b.scan_requests);
        let sqs_requests = sqs.requests - sqsb.requests;
        Cloud {
            service_calls: s3_gets
                + s3_puts
                + s3_other
                + (kv.api_requests - kvb.api_requests)
                + sqs_requests,
            kv_put_units: kv.put_ops - kvb.put_ops,
            kv_get_units: kv.get_ops - kvb.get_ops,
            kv_throttled: kv.throttled - kvb.throttled,
            sqs_redelivered: sqs.redelivered - sqsb.redelivered,
            s3_gets,
            s3_puts,
            sqs_requests,
            cost_pico: cost_parts(&world.cost_since(before)),
        }
    }

    pub fn total_pico(&self) -> u128 {
        self.cost_pico.iter().sum()
    }
}

impl std::ops::AddAssign for Cloud {
    fn add_assign(&mut self, o: Cloud) {
        self.service_calls += o.service_calls;
        self.kv_put_units += o.kv_put_units;
        self.kv_get_units += o.kv_get_units;
        self.kv_throttled += o.kv_throttled;
        self.sqs_redelivered += o.sqs_redelivered;
        self.s3_gets += o.s3_gets;
        self.s3_puts += o.s3_puts;
        self.sqs_requests += o.sqs_requests;
        for (a, b) in self.cost_pico.iter_mut().zip(o.cost_pico) {
            *a += b;
        }
    }
}

/// Units of work the program did for each layer during the timed phase,
/// read from its public reports and counters. Multiplied by the replayed
/// unit costs they say how much of the host time each layer explains.
#[derive(Debug, Clone, Default)]
pub struct Work {
    pub parsed_docs: f64,
    /// Entries extracted / items written, by `Strategy::ALL` position.
    pub extracted_entries: [f64; 4],
    pub items_written: [f64; 4],
    pub keys_deleted: f64,
    /// Indexed executions by (strategy, query position).
    pub lookups: [Vec<f64>; 4],
    /// Documents fetched and evaluated, and executions, by query position.
    pub docs_evaluated: Vec<f64>,
    pub executions: Vec<f64>,
    pub s3_gets: f64,
    pub s3_puts: f64,
    pub sqs_requests: f64,
    pub service_calls: f64,
}

impl Work {
    fn new(queries: usize) -> Work {
        Work {
            lookups: std::array::from_fn(|_| vec![0.0; queries]),
            docs_evaluated: vec![0.0; queries],
            executions: vec![0.0; queries],
            ..Work::default()
        }
    }

    pub fn note_cloud(&mut self, c: &Cloud) {
        self.s3_gets += c.s3_gets as f64;
        self.s3_puts += c.s3_puts as f64;
        self.sqs_requests += c.sqs_requests as f64;
        self.service_calls += c.service_calls as f64;
    }
}

/// What a run observes besides host time.
pub struct Observed {
    /// Index of the timed iteration in progress.
    pub iteration: usize,
    pub virt: Virtual,
    /// Service counts of the window.
    pub cloud: Cloud,
    /// Workload-specific per-layer values of the window, by metric name.
    pub extras: BTreeMap<String, f64>,
    pub work: Work,
    pub cache_before: CacheStats,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Observed {
    #[allow(clippy::new_without_default)]
    pub fn new() -> Observed {
        let queries = amada_xmark::workload_texts().len();
        Observed {
            iteration: 0,
            virt: Virtual::default(),
            cloud: Cloud::default(),
            extras: BTreeMap::new(),
            work: Work::new(queries),
            cache_before: ExtractCache::shared().stats(),
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
        }
    }

    /// Counts `n` attempted operations of which `bad` failed; `what` says
    /// how, once per kind of failure.
    pub fn check(&mut self, n: u64, bad: u64, what: &str) {
        self.attempted += n;
        self.failed += bad;
        if bad > 0 && !self.notes.iter().any(|m| m.starts_with(what)) {
            self.notes
                .push(format!("{what} (first in iteration {})", self.iteration));
        }
    }

    /// An iteration whose work is identical every time must repeat its
    /// virtual-clock results bit for bit: the first iteration defines the
    /// window, every later one is compared with it.
    pub fn window_or_compare(&mut self, virt: Virtual, cloud: Cloud) {
        if self.iteration == 0 {
            self.virt = virt;
            self.cloud = cloud;
        } else {
            let same = virt == self.virt && cloud == self.cloud;
            self.check(
                1,
                u64::from(!same),
                "virtual clock differs between identical iterations",
            );
        }
    }

    /// One index build: every document indexed, none dead-lettered; and
    /// the work it did for the extract, encode and store layers.
    pub fn note_build(
        &mut self,
        world: &World,
        report: &IndexBuildReport,
        expected_docs: u64,
        cache: CacheStats,
        cache_before: CacheStats,
    ) {
        let dead = world.sqs.len(DEAD_LETTER_QUEUE).unwrap_or(usize::MAX) as u64;
        let missing = expected_docs.abs_diff(report.documents);
        self.check(
            expected_docs,
            (missing + dead).min(expected_docs),
            "documents not indexed or dead-lettered",
        );
        let s = strategy_index(report.strategy);
        let docs = report.documents.max(1) as f64;
        let extracted = (cache.extract_misses - cache_before.extract_misses) as f64;
        self.work.parsed_docs += (cache.parse_misses - cache_before.parse_misses) as f64;
        self.work.extracted_entries[s] += report.entries as f64 * (extracted / docs).min(1.0);
        self.work.items_written[s] += report.items as f64;
        self.work.keys_deleted += report.retracted_items as f64;
    }

    /// One query execution: its answer against the oracle's, and the work
    /// it did for the look-up and evaluation layers.
    pub fn note_execution(
        &mut self,
        inputs: &Inputs,
        exec: &QueryExecution,
        oracle: Option<&[Vec<String>]>,
    ) {
        let Some(q) = inputs.query_index(&exec.name) else {
            self.check(1, 1, "execution of an unknown query");
            return;
        };
        let expected = &oracle.unwrap_or(&inputs.oracle)[q];
        let wrong = canonical(&exec.results) != *expected;
        self.check(1, u64::from(wrong), "answer differs from the oracle");
        if let Some(s) = exec.strategy {
            self.work.lookups[strategy_index(s)][q] += 1.0;
        }
        self.work.docs_evaluated[q] += exec.docs_fetched as f64;
        self.work.executions[q] += 1.0;
    }
}

/// One workload: what set-up builds, what an iteration does on the clock,
/// and the last checks after the clock stops.
pub trait Bench: Sized {
    /// Iterations run even when `--seconds` is already spent; peak memory
    /// is read after exactly this many.
    fn min_iterations(scale: &Scale) -> usize;
    /// Everything before the first timed iteration: builds and the
    /// untimed warm-up.
    fn setup(inputs: Inputs) -> Self;
    /// Ops one iteration performs.
    fn ops_per_iteration(&self) -> f64;
    fn iterate(&mut self, rec: &mut Recorder, obs: &mut Observed);
    /// Checks that need the final state; hands the inputs on to replay.
    fn finish(self, obs: &mut Observed) -> Inputs;
}

/// Everything one run measured.
pub struct Measured {
    pub config: RunConfig,
    pub inputs: Inputs,
    pub corpus_hash: u64,
    pub setup_s: Vec<f64>,
    pub rec: Recorder,
    pub ops_per_iteration: f64,
    pub obs: Observed,
    pub cache_delta: CacheStats,
    pub peak_rss_mb: f64,
    pub timed_phase_s: f64,
}

/// A set-up is repeated beyond `Scale::setup_reps` only while all
/// repetitions together took less than this many seconds.
const SETUP_BUDGET_S: f64 = 3.0;

/// Runs one workload: set-up (repeated), the timed loop, the final checks.
pub fn measure<B: Bench>(config: &RunConfig) -> Measured {
    let scale = config.scale;
    let mut setup_s: Vec<f64> = Vec::new();
    let mut state: Option<B> = None;
    // At least `setup_reps` whole set-ups; a cheap one is repeated further
    // (its timing is the noisiest) while that stays a small part of the run.
    while setup_s.len() < scale.setup_reps.max(1)
        || (setup_s.len() < scale.setup_reps_max && setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        // Each set-up starts from nothing: the previous one's warehouses
        // are dropped and the process-wide parse cache is emptied, both
        // off the set-up clock.
        drop(state.take());
        ExtractCache::shared().clear();
        let start = host_ns();
        let inputs = Inputs::generate(config.seed, scale);
        state = Some(B::setup(inputs));
        setup_s.push((host_ns() - start) as f64 / 1e9);
    }
    let mut state = state.expect("set-up ran at least once");

    let mut rec = Recorder::new(config.trace);
    let mut obs = Observed::new();
    let ops_per_iteration = state.ops_per_iteration();
    let phase = Instant::now();
    let mut peak_rss_mb = 0.0;
    loop {
        rec.begin_iteration();
        state.iterate(&mut rec, &mut obs);
        rec.end_iteration();
        obs.iteration += 1;
        // Peak memory of set-up and the iterations every run makes: the
        // warehouses keep growing with the work done on them, and how many
        // more iterations the host fits into `--seconds` must not show.
        if obs.iteration == B::min_iterations(&scale) {
            peak_rss_mb = crate::host::peak_rss_mb().unwrap_or(0.0);
        }
        // Stop at the iteration boundary nearest to `--seconds` of wall
        // time, the answer checks inside the iterations included.
        let spent = phase.elapsed().as_secs_f64();
        let mean = spent / obs.iteration as f64;
        if obs.iteration >= B::min_iterations(&scale) && spent + mean / 2.0 >= config.seconds {
            break;
        }
    }
    let timed_phase_s = phase.elapsed().as_secs_f64();
    let after = ExtractCache::shared().stats();
    let before = obs.cache_before;
    let cache_delta = CacheStats {
        parse_hits: after.parse_hits - before.parse_hits,
        parse_misses: after.parse_misses - before.parse_misses,
        extract_hits: after.extract_hits - before.extract_hits,
        extract_misses: after.extract_misses - before.extract_misses,
    };
    let inputs = state.finish(&mut obs);
    Measured {
        config: config.clone(),
        corpus_hash: inputs.corpus_hash(),
        inputs,
        setup_s,
        rec,
        ops_per_iteration,
        obs,
        cache_delta,
        peak_rss_mb,
        timed_phase_s,
    }
}

/// A reported number: value and unit, plus how many samples stand behind
/// it where that is not one.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

pub type Metrics = BTreeMap<String, Metric>;

impl Measured {
    /// On-clock seconds of each timed iteration.
    pub fn iteration_s(&self) -> Vec<f64> {
        self.rec
            .iterations
            .iter()
            .map(|it| it.on_clock_ns as f64 / 1e9)
            .collect()
    }

    /// Throughput and op time on the host clock with every op class taken
    /// at nearest-rank percentile `p` of its samples: ops per iteration
    /// over the summed class times (the classes together are an
    /// iteration), and the geometric mean of the class times, which a
    /// cheap class moves as much as a dear one.
    pub fn host_rates(&self, p: f64) -> (f64, f64) {
        let class_ms = self.rec.class_ms(p);
        let iteration_s = class_ms.iter().sum::<f64>() / 1e3;
        (self.ops_per_iteration / iteration_s, geomean(&class_ms))
    }

    /// Share of the iterations' on-clock time the op calls cover.
    pub fn op_coverage(&self) -> f64 {
        let ops: u64 = self.rec.op_samples.iter().map(|(_, ns)| ns).sum();
        let on_clock: u64 = self.rec.iterations.iter().map(|it| it.on_clock_ns).sum();
        ops as f64 / on_clock.max(1) as f64
    }

    /// The end-to-end metrics, by the names `spec::END_TO_END` lists.
    pub fn end_to_end(&self) -> Metrics {
        let iterations = self.rec.iterations.len();
        let virt = &self.obs.virt;
        let lat_ms: Vec<f64> = virt
            .latencies_us
            .iter()
            .map(|us| *us as f64 / 1e3)
            .collect();
        let mut m = Metrics::new();
        let mut put = |name: &str, value: f64, unit: &'static str, samples: usize| {
            m.insert(
                name.to_string(),
                Metric {
                    value,
                    unit,
                    samples,
                },
            );
        };
        put("setup_s", steady(&self.setup_s), "s", self.setup_s.len());
        let (ops_per_s, op_ms) = self.host_rates(STEADY_PERCENTILE);
        put("host_ops_per_s", ops_per_s, "ops/s", iterations);
        put("host_op_ms", op_ms, "ms", self.rec.op_samples.len());
        put("host_peak_rss_mb", self.peak_rss_mb, "MB", 1);
        put("virt_makespan_s", virt.makespan_us as f64 / 1e6, "s", 1);
        put(
            "virt_op_p95_ms",
            nearest_rank(&lat_ms, 0.95),
            "ms",
            lat_ms.len(),
        );
        put(
            "virt_usd_per_1k_ops",
            virt.cost_pico as f64 / 1e12 / virt.ops.max(1) as f64 * 1000.0,
            "usd",
            virt.ops as usize,
        );
        m
    }

    /// Host milliseconds per iteration of the calls `pick` selects (lower
    /// decile over iterations).
    pub fn call_ms(&self, pick: impl Fn(crate::host::Key) -> bool) -> f64 {
        let per_iteration: Vec<f64> = self
            .rec
            .iterations
            .iter()
            .map(|it| it.ns_of(&pick) as f64 / 1e6)
            .collect();
        steady(&per_iteration)
    }

    /// On-clock time of traced and of untraced iterations, seconds, the
    /// lower decile of each (trace mode alternates them).
    pub fn traced_vs_untraced_s(&self) -> (f64, f64) {
        let pick = |traced: bool| {
            let v: Vec<f64> = self
                .rec
                .iterations
                .iter()
                .filter(|it| it.traced == traced)
                .map(|it| it.on_clock_ns as f64 / 1e9)
                .collect();
            steady(&v)
        };
        (pick(true), pick(false))
    }
}

//! One run of one workload, from configuration to the printed result.

use crate::harness::{measure, Metrics, RunConfig};
use crate::host::provenance;
use crate::json::Value;
use crate::replay::{per_layer, Replay};
use crate::spec::Workload;
use crate::workloads::{
    churn::ChurnMixed,
    ingest::IngestCold,
    query::{QueryIndexed, QueryScan},
    storm::StormOpenLoop,
};
use std::time::Instant;

/// What a run printed: the contract's result plus where it came from.
pub struct RunReport {
    pub workload: Workload,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (tracing off) or per-layer metrics (tracing on).
    pub metrics: Metrics,
    /// Provenance: commit, toolchain, cores, threads, seed, corpus bytes
    /// and hash, iteration and sample counts, wall time, failure notes.
    pub info: Value,
    /// Chrome trace of the host spans (tracing on).
    pub chrome_trace: Option<String>,
}

/// Runs `config.workload` in this process.
pub fn run(config: &RunConfig) -> RunReport {
    let wall = Instant::now();
    let m = match config.workload {
        Workload::IngestCold => measure::<IngestCold>(config),
        Workload::QueryIndexed => measure::<QueryIndexed>(config),
        Workload::QueryScan => measure::<QueryScan>(config),
        Workload::ChurnMixed => measure::<ChurnMixed>(config),
        Workload::StormOpenLoop => measure::<StormOpenLoop>(config),
    };
    let metrics = if config.trace {
        per_layer(&m, &Replay::measure(&m.inputs))
    } else {
        m.end_to_end()
    };
    let mut info = provenance();
    info.extend([
        ("workload", Value::str(config.workload.name())),
        ("scale", Value::str(config.scale.name)),
        ("seed", Value::Str(config.seed.to_string())),
        ("seconds", Value::Num(config.seconds)),
        ("trace", Value::Bool(config.trace)),
        ("corpus_documents", Value::Num(m.inputs.corpus.len() as f64)),
        ("corpus_bytes", Value::Num(m.inputs.corpus_bytes as f64)),
        ("corpus_hash", Value::Str(format!("{:016x}", m.corpus_hash))),
        ("setup_repetitions", Value::Num(m.setup_s.len() as f64)),
        ("iterations", Value::Num(m.rec.iterations.len() as f64)),
        ("ops_per_iteration", Value::Num(m.ops_per_iteration)),
        ("op_samples", Value::Num(m.rec.op_samples.len() as f64)),
        ("op_coverage", Value::Num(m.op_coverage())),
        // The same host metrics had they been taken at the fastest
        // repetition, the lower decile (the one reported), the lower
        // quartile or the median: how far the host disturbed the run.
        (
            "host_rates_by_percentile",
            Value::obj(
                [("min", 0.0), ("p10", 0.1), ("p25", 0.25), ("p50", 0.5)].map(|(name, q)| {
                    let (ops_per_s, op_ms) = m.host_rates(q);
                    (
                        name,
                        Value::obj([
                            ("host_ops_per_s", Value::Num(ops_per_s)),
                            ("host_op_ms", Value::Num(op_ms)),
                        ]),
                    )
                }),
            ),
        ),
        ("timed_phase_s", Value::Num(m.timed_phase_s)),
        (
            "iteration_s",
            Value::Arr(m.iteration_s().into_iter().map(Value::Num).collect()),
        ),
        (
            "setup_s",
            Value::Arr(m.setup_s.iter().copied().map(Value::Num).collect()),
        ),
        ("wall_s", Value::Num(wall.elapsed().as_secs_f64())),
        (
            "samples",
            Value::obj(
                metrics
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::Num(v.samples as f64))),
            ),
        ),
        (
            "notes",
            Value::Arr(m.obs.notes.iter().map(|n| Value::str(n.as_str())).collect()),
        ),
    ]);
    RunReport {
        workload: config.workload,
        attempted: m.obs.attempted.max(1),
        failed: m.obs.failed,
        metrics,
        info: Value::obj(info),
        chrome_trace: config
            .trace
            .then(|| m.rec.chrome_trace(config.workload.name())),
    }
}

impl RunReport {
    /// Outputs are correct when no operation failed and every metric is a
    /// number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.values().all(|m| m.value.is_finite())
    }

    /// The result object: exactly `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn result(&self) -> Value {
        Value::obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "metrics",
                Value::obj(self.metrics.iter().map(|(name, m)| {
                    (
                        name.clone(),
                        Value::obj([("value", Value::Num(m.value)), ("unit", Value::str(m.unit))]),
                    )
                })),
            ),
        ])
    }

    /// Prints every metric by name with its unit and the samples behind
    /// it, the provenance, and — last line — the result object.
    pub fn print(&self) {
        println!("# {}", self.workload.name());
        for (name, m) in &self.metrics {
            println!("{name:<46} {:>16.6} {:<7} n={}", m.value, m.unit, m.samples);
        }
        println!(
            "# failed {} of {} attempted; correct = {}",
            self.failed,
            self.attempted,
            self.correct()
        );
        println!("#info {}", self.info.render());
        println!("{}", self.result().render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::Scale;
    use crate::spec::{per_layer_names, END_TO_END, SHARES};

    fn quick(workload: Workload, seed: u64, trace: bool) -> RunReport {
        run(&RunConfig {
            workload,
            seed,
            seconds: 0.0,
            trace,
            scale: Scale::QUICK,
        })
    }

    /// One test on purpose: warehouses in one process share the parse
    /// cache, so runs over different corpora must not overlap in time.
    #[test]
    fn quick_runs_are_correct_complete_and_repeatable() {
        for workload in Workload::ALL {
            let first = quick(workload, 7, false);
            let again = quick(workload, 7, false);
            assert!(
                first.correct(),
                "{}: {}",
                workload.name(),
                first.info.render()
            );
            assert!(first.attempted >= 1 && first.failed == 0);
            let names: Vec<&str> = first.metrics.keys().map(String::as_str).collect();
            let mut expected: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
            expected.sort_unstable();
            assert_eq!(names, expected, "every end-to-end metric, nothing else");
            for (name, m) in &first.metrics {
                assert!(
                    m.value > 0.0,
                    "{name} of {} must never be 0",
                    workload.name()
                );
                if name.starts_with("virt_") {
                    assert_eq!(
                        m.value, again.metrics[name].value,
                        "{name} must repeat exactly"
                    );
                }
            }
            amada_obs::validate_json(&first.result().render()).unwrap();
            amada_obs::validate_json(&first.info.render()).unwrap();
            assert_eq!(first.info.get("corpus_hash"), again.info.get("corpus_hash"));
            let other = quick(workload, 8, false);
            assert_ne!(first.info.get("corpus_hash"), other.info.get("corpus_hash"));
            assert!(other.correct());

            let traced = quick(workload, 7, true);
            assert!(
                traced.correct(),
                "{}: {}",
                workload.name(),
                traced.info.render()
            );
            let names: Vec<&String> = traced.metrics.keys().collect();
            let mut expected: Vec<String> = per_layer_names().into_iter().map(|(n, _)| n).collect();
            expected.sort_unstable();
            assert_eq!(
                names,
                expected.iter().collect::<Vec<_>>(),
                "every per-layer metric"
            );
            let shares: f64 = SHARES.iter().map(|s| traced.metrics[*s].value).sum();
            assert!((shares - 1.0).abs() < 1e-9, "shares sum to {shares}");
            amada_obs::validate_json(&traced.result().render()).unwrap();
            amada_obs::validate_json(traced.chrome_trace.as_deref().unwrap()).unwrap();
        }
    }
}

//! The artifact registry: the one place that knows which artifacts exist.
//!
//! [`ARTIFACTS`] has one row per artifact — name, title, whether `all`
//! includes it, and how it runs. Everything `repro` does
//! with an artifact is derived from its row: selection ([`select`]),
//! which artifacts share an expensive suite ([`Run`]), the printed title,
//! `--help` ([`usage`]) and the `BENCH_<artifact>.json` report
//! ([`bench_json`]). Adding an artifact is one row here plus its module
//! under [`crate::experiments`].

use crate::experiments::*;
use crate::Scale;
use std::sync::OnceLock;
use std::time::Instant;

/// What running an artifact returns: the text `repro` prints under the
/// title, and the headline numbers its `BENCH_<artifact>.json` carries
/// (computed from the rows the experiment built; empty where the table
/// itself is the whole result).
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// The rendered tables.
    pub body: String,
    /// `(name, value)` in a fixed order.
    pub numbers: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// An outcome that is only its rendered text.
    pub fn text(body: impl ToString) -> Outcome {
        Outcome {
            body: body.to_string(),
            numbers: Vec::new(),
        }
    }

    /// The headline number called `name`.
    pub fn number(&self, name: &str) -> Option<f64> {
        self.numbers.iter().find(|(n, _)| *n == name).map(|n| n.1)
    }
}

/// How an artifact runs: from the scale alone, or from a suite that
/// several artifacts read and one [`run`] builds once.
pub enum Run {
    /// Self-contained.
    Alone(fn(&Scale) -> Outcome),
    /// Reads the per-strategy index builds.
    Indexing(fn(&indexing::IndexingSuite) -> Outcome),
    /// Reads the query × strategy × instance matrix.
    Querying(fn(&querying::QuerySuite) -> Outcome),
    /// Reads the SimpleDB-vs-DynamoDB grid.
    Comparison(fn(&comparison::ComparisonSuite) -> Outcome),
}

/// One registry row.
pub struct Artifact {
    /// What the command line calls it.
    pub name: &'static str,
    /// Printed as `== title ==` above the body, and as the artifact's
    /// line of `--help`.
    pub title: &'static str,
    /// Whether `all` includes it. `all` is the byte-comparable reference
    /// run (`repro_output.txt`): `fault` stays out because its output
    /// depends on `AMADA_FAULT_SEED`, the later beyond-the-paper
    /// experiments so that `all` stays comparable with the runs published
    /// before them.
    pub in_all: bool,
    /// How it runs.
    pub run: Run,
}

/// Every artifact, in `all` order.
pub const ARTIFACTS: &[Artifact] = &[
    Artifact {
        name: "table4",
        title: "Table 4 - indexing times using 8 large (L) instances",
        in_all: true,
        run: Run::Indexing(|s| Outcome::text(indexing::table4(s))),
    },
    Artifact {
        name: "fig7",
        title: "Figure 7 - indexing time vs. data size (8 large instances)",
        in_all: true,
        run: Run::Alone(|s| Outcome::text(indexing::fig7(s))),
    },
    Artifact {
        name: "fig8",
        title: "Figure 8 - index size and monthly storage cost",
        in_all: true,
        run: Run::Indexing(|s| Outcome::text(indexing::fig8(s))),
    },
    Artifact {
        name: "table5",
        title: "Table 5 - query processing details (doc IDs from index)",
        in_all: true,
        run: Run::Querying(|s| Outcome::text(querying::table5(s))),
    },
    Artifact {
        name: "fig9",
        title: "Figure 9 - response times and phase decomposition",
        in_all: true,
        run: Run::Querying(|s| Outcome::text(querying::fig9(s))),
    },
    Artifact {
        name: "fig10",
        title: "Figure 10 - impact of using multiple EC2 instances (workload x16)",
        in_all: true,
        run: Run::Alone(|s| Outcome::text(scaling::fig10(s))),
    },
    Artifact {
        name: "table6",
        title: "Table 6 - indexing costs by service",
        in_all: true,
        run: Run::Indexing(|s| Outcome::text(indexing::table6(s))),
    },
    Artifact {
        name: "fig11",
        title: "Figure 11 - query processing costs",
        in_all: true,
        run: Run::Querying(|s| Outcome::text(querying::fig11(s))),
    },
    Artifact {
        name: "fig12",
        title: "Figure 12 - workload evaluation cost details (XL instance)",
        in_all: true,
        run: Run::Querying(|s| Outcome::text(querying::fig12(s))),
    },
    Artifact {
        name: "fig13",
        title: "Figure 13 - index cost amortization (single L instance)",
        in_all: true,
        run: Run::Alone(|s| Outcome::text(amortize::fig13(s))),
    },
    Artifact {
        name: "table7",
        title: "Table 7 - indexing comparison vs. [8] (SimpleDB)",
        in_all: true,
        run: Run::Comparison(|s| Outcome::text(comparison::table7(s))),
    },
    Artifact {
        name: "table8",
        title: "Table 8 - query processing comparison vs. [8] (SimpleDB)",
        in_all: true,
        run: Run::Comparison(|s| Outcome::text(comparison::table8(s))),
    },
    Artifact {
        name: "ablation",
        title: "Ablation - binary ID encoding and write batching (beyond the paper)",
        in_all: true,
        run: Run::Alone(|s| Outcome::text(ablation::ablation(s))),
    },
    Artifact {
        name: "trace",
        title:
            "Trace - recorded pipeline, Chrome trace export and span roll-ups (beyond the paper)",
        in_all: true,
        run: Run::Alone(trace::trace),
    },
    Artifact {
        name: "fault",
        title: "Fault injection - the pipeline under transient faults (beyond the paper)",
        in_all: false,
        run: Run::Alone(|s| Outcome::text(fault::fault(s))),
    },
    Artifact {
        name: "churn",
        title: "Churn - index maintenance vs. query savings by update rate (beyond the paper)",
        in_all: false,
        run: Run::Alone(churn::churn),
    },
];

/// Resolves command-line names to an ordered set of artifacts: first
/// mention decides the position, repeats are dropped, and `all` expands
/// in place to every [`Artifact::in_all`] row.
pub fn select<'a>(
    names: impl IntoIterator<Item = &'a str>,
) -> Result<Vec<&'static Artifact>, String> {
    let mut selected: Vec<&'static Artifact> = Vec::new();
    for name in names {
        let named: Vec<&'static Artifact> = ARTIFACTS
            .iter()
            .filter(|a| a.name == name || (name == "all" && a.in_all))
            .collect();
        if named.is_empty() {
            return Err(format!("unknown artifact '{name}'"));
        }
        for a in named {
            if !selected.iter().any(|s| s.name == a.name) {
                selected.push(a);
            }
        }
    }
    Ok(selected)
}

/// One artifact, run.
pub struct Computed {
    /// Its registry row.
    pub artifact: &'static Artifact,
    /// What it returned.
    pub outcome: Outcome,
    /// Host wall-clock seconds it took, including building — or waiting
    /// for — the suite it reads.
    pub wall_seconds: f64,
}

/// The suites of one [`run`]: each is built only if a selected artifact
/// reads it, and then once — by the reader that gets there first, while
/// the lock makes any other wait for the result.
#[derive(Default)]
struct Suites {
    indexing: OnceLock<indexing::IndexingSuite>,
    querying: OnceLock<querying::QuerySuite>,
    comparison: OnceLock<comparison::ComparisonSuite>,
}

impl Artifact {
    fn outcome(&self, scale: &Scale, suites: &Suites) -> Outcome {
        match self.run {
            Run::Alone(f) => f(scale),
            Run::Indexing(f) => f(suites
                .indexing
                .get_or_init(|| indexing::indexing_suite(scale))),
            Run::Querying(f) => f(suites.querying.get_or_init(|| querying::query_suite(scale))),
            Run::Comparison(f) => f(suites
                .comparison
                .get_or_init(|| comparison::comparison_suite(scale))),
        }
    }
}

/// Runs a selection, one host task per artifact (`par_run` caps the
/// workers at `AMADA_THREADS`, so 1 makes this a plain sequential loop);
/// results come back in selection order. Host threading never touches
/// virtual time, so the bodies are those of a sequential run.
pub fn run(scale: &Scale, selected: &[&'static Artifact]) -> Vec<Computed> {
    let suites = Suites::default();
    let tasks = selected
        .iter()
        .map(|&artifact| {
            let suites = &suites;
            move || {
                let start = Instant::now();
                let outcome = artifact.outcome(scale, suites);
                Computed {
                    artifact,
                    outcome,
                    wall_seconds: start.elapsed().as_secs_f64(),
                }
            }
        })
        .collect();
    amada_par::par_run(tasks)
}

/// The `--help` text.
pub fn usage() -> String {
    let mut text = String::from(
        "repro - regenerate the paper's tables and figures\n\n\
         usage: repro <artifact>... [--scale F] [--docs N] [--doc-bytes B] [--repeats R]\n\
         \x20      repro check [--seed N[,N...]] [--cases M] [--billing-every K]\n\n\
         artifacts:\n",
    );
    for a in ARTIFACTS {
        let note = if a.in_all { "" } else { " (not in `all`)" };
        text.push_str(&format!("  {:<9} {}{note}\n", a.name, a.title));
    }
    text.push_str("  all       every artifact above not marked otherwise, in this order\n");
    text
}

/// The `BENCH_<artifact>.json` report of one computed artifact: scale,
/// host threads, wall seconds, the process-wide extraction-cache counters
/// at the time of writing, and the artifact's headline numbers.
/// Hand-rolled (the build environment has no serde) and validated.
pub fn bench_json(computed: &Computed, scale: &Scale, threads: usize) -> String {
    // JSON has no NaN or infinity.
    let num = |v: f64| {
        if v.is_finite() {
            v.to_string()
        } else {
            "null".to_string()
        }
    };
    let cache = amada_index::ExtractCache::shared().stats();
    let numbers: Vec<String> = computed
        .outcome
        .numbers
        .iter()
        .map(|(name, value)| format!("\"{name}\": {}", num(*value)))
        .collect();
    let json = format!(
        "{{\n  \"schema\": \"amada-bench-artifact/1\",\n  \"artifact\": \"{}\",\n  \
         \"threads\": {threads},\n  \
         \"scale\": {{ \"docs\": {}, \"doc_bytes\": {}, \"workload_repeats\": {} }},\n  \
         \"wall_seconds\": {:.6},\n  \
         \"cache\": {{ \"parse_hits\": {}, \"parse_misses\": {}, \"extract_hits\": {}, \
         \"extract_misses\": {}, \"hit_rate\": {} }},\n  \
         \"numbers\": {{ {} }}\n}}\n",
        computed.artifact.name,
        scale.docs,
        scale.doc_bytes,
        scale.workload_repeats,
        computed.wall_seconds,
        cache.parse_hits,
        cache.parse_misses,
        cache.extract_hits,
        cache.extract_misses,
        num(cache.hit_rate().unwrap_or(f64::NAN)),
        numbers.join(", "),
    );
    amada_obs::validate_json(&json).expect("the report writer emits well-formed JSON");
    json
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(selected: &[&Artifact]) -> Vec<&'static str> {
        selected.iter().map(|a| a.name).collect()
    }

    #[test]
    fn names_are_unique_and_all_is_not_one_of_them() {
        for (i, a) in ARTIFACTS.iter().enumerate() {
            assert_ne!(a.name, "all");
            assert!(
                ARTIFACTS[..i].iter().all(|b| b.name != a.name),
                "{}",
                a.name
            );
        }
    }

    #[test]
    fn selection_is_an_ordered_set_and_all_expands_in_place() {
        // Repeats used to panic ("every artifact computed").
        assert_eq!(names(&select(["table4", "table4"]).unwrap()), ["table4"]);
        assert_eq!(
            names(&select(["fig9", "table5", "fig9"]).unwrap()),
            ["fig9", "table5"]
        );
        // `all` beside another name used to be "unknown artifact 'all'".
        let all = select(["all"]).unwrap();
        assert_eq!(all.len(), ARTIFACTS.iter().filter(|a| a.in_all).count());
        assert!(all.iter().all(|a| a.in_all));
        assert_eq!(names(&select(["all", "table4"]).unwrap()), names(&all));
        let churn_first = names(&select(["churn", "all", "churn"]).unwrap());
        assert_eq!(churn_first[0], "churn");
        assert_eq!(churn_first[1..], names(&all)[..]);
        assert_eq!(
            select(["table4", "perf"]).err().unwrap(),
            "unknown artifact 'perf'"
        );
    }

    #[test]
    fn a_suite_is_built_once_and_only_when_read() {
        let mut scale = Scale::tiny();
        scale.docs = 24;
        let suites = Suites::default();
        let readers = select(["table4", "fig8", "table6"]).unwrap();
        // Three readers racing for the suite: the lock admits one builder.
        let bodies = amada_par::par_run(
            readers
                .iter()
                .map(|a| || a.outcome(&scale, &suites).body)
                .collect(),
        );
        assert!(bodies.iter().all(|b| !b.is_empty()));
        assert!(suites.indexing.get().is_some());
        assert!(suites.querying.get().is_none());
        assert!(suites.comparison.get().is_none());
        // Every suite variant has more than one reader to share it.
        for shared in [
            |r: &Run| matches!(r, Run::Indexing(_)),
            |r: &Run| matches!(r, Run::Querying(_)),
            |r: &Run| matches!(r, Run::Comparison(_)),
        ] {
            assert!(ARTIFACTS.iter().filter(|a| shared(&a.run)).count() > 1);
        }
    }

    #[test]
    fn a_shared_suite_run_comes_back_in_selection_order() {
        let mut scale = Scale::tiny();
        scale.docs = 24;
        let selected = select(["table6", "fig13", "table4"]).unwrap();
        let computed = run(&scale, &selected);
        let got: Vec<&str> = computed.iter().map(|c| c.artifact.name).collect();
        assert_eq!(got, ["table6", "fig13", "table4"]);
        assert!(computed[2].outcome.body.starts_with("Indexing strategy"));
    }

    #[test]
    fn help_lists_exactly_the_registry() {
        let usage = usage();
        let listed: Vec<&str> = usage
            .lines()
            .filter(|l| l.starts_with("  ") && !l.starts_with("   "))
            .map(|l| l.split_whitespace().next().unwrap())
            .collect();
        let mut expected: Vec<&str> = ARTIFACTS.iter().map(|a| a.name).collect();
        expected.push("all");
        assert_eq!(listed, expected);
    }

    #[test]
    fn report_is_valid_json_even_for_numbers_json_cannot_hold() {
        let computed = Computed {
            artifact: &ARTIFACTS[0],
            outcome: Outcome {
                body: String::new(),
                numbers: vec![
                    ("whole", 3.0),
                    ("fraction", 0.25),
                    ("unbounded", f64::INFINITY),
                ],
            },
            wall_seconds: 0.5,
        };
        let json = bench_json(&computed, &Scale::tiny(), 2);
        assert!(json.contains("\"artifact\": \"table4\""));
        assert!(json.contains("\"whole\": 3, \"fraction\": 0.25, \"unbounded\": null"));
        assert_eq!(computed.outcome.number("fraction"), Some(0.25));
        assert_eq!(computed.outcome.number("absent"), None);
    }
}

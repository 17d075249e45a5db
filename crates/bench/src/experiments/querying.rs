//! Query experiments: Table 5 (look-up precision), Figure 9 (response
//! times and their decomposition), Figure 11 (per-query costs), Figure 12
//! (workload cost decomposition).

use crate::{corpus, strategy_warehouse, Scale, TextTable};
use amada_cloud::{CostReport, InstanceType};
use amada_core::{CostedQuery, Pool};
use amada_index::Strategy;
use amada_pattern::Query;
use std::collections::HashMap;

/// All per-query runs the querying artifacts read from: every query ×
/// {no-index, LU, LUP, LUI, 2LUPI} × {large, extra-large} query instance.
pub struct QuerySuite {
    /// The workload, in order.
    pub queries: Vec<Query>,
    /// `(query name, strategy, instance label)` → run; no strategy is the
    /// no-index baseline.
    pub runs: HashMap<(String, Option<Strategy>, &'static str), CostedQuery>,
}

const ITYPES: [InstanceType; 2] = [InstanceType::Large, InstanceType::ExtraLarge];

/// Runs the whole query matrix (the expensive part; every figure below
/// just renders a slice of it). One independent warehouse per strategy —
/// each owns its own simulated cloud and virtual clock — so the four run
/// concurrently across host threads; the per-query runs within a
/// warehouse stay sequential (they share its virtual timeline).
pub fn query_suite(scale: &Scale) -> QuerySuite {
    let docs = corpus(scale);
    let queries = crate::workload();
    type Runs = Vec<((String, Option<Strategy>, &'static str), CostedQuery)>;
    let per_strategy: Vec<Runs> = amada_par::par_run(
        Strategy::ALL
            .iter()
            .map(|&strategy| {
                let docs = &docs;
                let queries = &queries;
                move || {
                    let mut runs = Vec::new();
                    let (mut w, _) = strategy_warehouse(strategy, docs);
                    let name = |q: &Query| q.name.clone().expect("workload queries are named");
                    for itype in ITYPES {
                        w.set_query_pool(Pool::new(1, itype));
                        for q in queries {
                            let run = w.run_query(q);
                            runs.push(((name(q), Some(strategy), itype.label()), run));
                        }
                        // The no-index baseline is strategy-independent; run
                        // it once, piggybacking on the LU warehouse (the
                        // index is not touched).
                        if strategy == Strategy::Lu {
                            for q in queries {
                                let run = w.run_query_no_index(q);
                                runs.push(((name(q), None, itype.label()), run));
                            }
                        }
                    }
                    runs
                }
            })
            .collect(),
    );
    QuerySuite {
        queries,
        runs: per_strategy.into_iter().flatten().collect(),
    }
}

impl QuerySuite {
    fn names(&self) -> impl Iterator<Item = &str> {
        self.queries
            .iter()
            .map(|q| q.name.as_deref().expect("named"))
    }

    /// The indexed run for `(query, strategy, itype)`.
    pub fn run(&self, name: &str, s: Strategy, itype: &'static str) -> &CostedQuery {
        &self.runs[&(name.to_string(), Some(s), itype)]
    }

    /// The baseline run for `(query, itype)`.
    pub fn baseline(&self, name: &str, itype: &'static str) -> &CostedQuery {
        &self.runs[&(name.to_string(), None, itype)]
    }
}

/// Paper Table 5: per query, the number of document IDs retrieved from
/// the index under each strategy, the number of documents actually
/// containing results, and the result size.
pub fn table5(suite: &QuerySuite) -> TextTable {
    let mut t = TextTable::new([
        "Query",
        "LU",
        "LUP",
        "LUI",
        "2LUPI",
        "# Docs w. results",
        "Results size (KB)",
    ]);
    for name in suite.names() {
        let base = suite.baseline(name, "l");
        let mut cells = vec![name.to_string()];
        for s in Strategy::ALL {
            cells.push(suite.run(name, s, "l").exec.docs_from_index.to_string());
        }
        cells.push(base.exec.docs_with_results.to_string());
        cells.push(format!("{:.2}", base.exec.result_bytes as f64 / 1024.0));
        t.row(cells);
    }
    t
}

/// One row per query and instance type, one column for the no-index
/// baseline and one per strategy, each cell `cell(run)` — the shape
/// Figures 9a and 11 share.
fn per_query_table(suite: &QuerySuite, cell: impl Fn(&CostedQuery) -> String) -> TextTable {
    let mut t = TextTable::new(["Query", "Instance", "No index", "LU", "LUP", "LUI", "2LUPI"]);
    for name in suite.names() {
        for itype in ITYPES {
            let l = itype.label();
            let mut cells = vec![name.to_string(), l.to_uppercase()];
            cells.push(cell(suite.baseline(name, l)));
            for s in Strategy::ALL {
                cells.push(cell(suite.run(name, s, l)));
            }
            t.row(cells);
        }
    }
    t
}

/// Paper Figure 9a: response time per query, no-index and per strategy,
/// on large and extra-large instances — plus the 9b/9c decomposition
/// (look-up get / plan execution / transfer + evaluation).
pub fn fig9(suite: &QuerySuite) -> String {
    let mut out = String::new();
    let a = per_query_table(suite, |run| {
        format!("{:.3}s", run.exec.response_time.as_secs_f64())
    });
    out.push_str("Figure 9a — response time (s) per query and strategy\n");
    out.push_str(&a.to_string());
    for itype in ITYPES {
        let l = itype.label();
        let mut d = TextTable::new([
            "Query",
            "Strategy",
            "Lookup-Get (s)",
            "Plan exec (s)",
            "Transfer+eval (s)",
        ]);
        for name in suite.names() {
            for s in Strategy::ALL {
                let p = suite.run(name, s, l).exec.phases;
                d.row([
                    name.to_string(),
                    s.name().to_string(),
                    format!("{:.4}", p.lookup_get.as_secs_f64()),
                    format!("{:.4}", p.plan.as_secs_f64()),
                    format!("{:.4}", p.transfer_eval.as_secs_f64()),
                ]);
            }
        }
        out.push_str(&format!(
            "\nFigure 9{} — phase decomposition on {} instances\n",
            if l == "l" { 'b' } else { 'c' },
            l.to_uppercase()
        ));
        out.push_str(&d.to_string());
    }
    out
}

/// Paper Figure 11: monetary cost per query, no-index and per strategy,
/// on large and extra-large instances.
pub fn fig11(suite: &QuerySuite) -> TextTable {
    per_query_table(suite, |run| format!("${:.6}", run.cost.total().dollars()))
}

/// Sums a set of cost reports component-wise.
fn sum_costs<'a>(costs: impl Iterator<Item = &'a CostReport>) -> CostReport {
    let mut total = CostReport::default();
    for c in costs {
        total.s3 += c.s3;
        total.kv += c.kv;
        total.ec2 += c.ec2;
        total.sqs += c.sqs;
        total.egress += c.egress;
    }
    total
}

/// Paper Figure 12: the whole-workload cost on an extra-large instance,
/// decomposed across services (DynamoDB / S3 / EC2 / SQS / AWSDown), for
/// the no-index baseline and each strategy.
pub fn fig12(suite: &QuerySuite) -> TextTable {
    let mut t = TextTable::new([
        "Configuration",
        "DynamoDB",
        "S3",
        "EC2",
        "SQS",
        "AWSDown",
        "Total",
    ]);
    let render = |label: String, c: CostReport, t: &mut TextTable| {
        t.row([
            label,
            format!("${:.6}", c.kv.dollars()),
            format!("${:.6}", c.s3.dollars()),
            format!("${:.6}", c.ec2.dollars()),
            format!("${:.6}", c.sqs.dollars()),
            format!("${:.6}", c.egress.dollars()),
            format!("${:.6}", c.total().dollars()),
        ]);
    };
    let names: Vec<&str> = suite.names().collect();
    render(
        "No Index".into(),
        sum_costs(names.iter().map(|n| &suite.baseline(n, "xl").cost)),
        &mut t,
    );
    for s in Strategy::ALL {
        render(
            s.name().into(),
            sum_costs(names.iter().map(|n| &suite.run(n, s, "xl").cost)),
            &mut t,
        );
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn suite() -> QuerySuite {
        query_suite(&Scale::tiny())
    }

    #[test]
    fn query_matrix_shapes_match_paper() {
        let s = suite();
        // --- Table 5 invariants: LU ⊇ LUP ⊇ LUI = 2LUPI ⊇ with-results.
        for name in ["q1", "q2", "q3", "q4", "q5", "q6", "q7", "q8", "q9", "q10"] {
            let lu = s.run(name, Strategy::Lu, "l").exec.docs_from_index;
            let lup = s.run(name, Strategy::Lup, "l").exec.docs_from_index;
            let lui = s.run(name, Strategy::Lui, "l").exec.docs_from_index;
            let lupi = s.run(name, Strategy::TwoLupi, "l").exec.docs_from_index;
            let with = s.baseline(name, "l").exec.docs_with_results;
            assert!(lu >= lup, "{name}: LU {lu} >= LUP {lup}");
            assert!(lup >= lui, "{name}: LUP {lup} >= LUI {lui}");
            assert_eq!(lui, lupi, "{name}: LUI == 2LUPI");
            assert!(lui >= with, "{name}: LUI {lui} >= with-results {with}");
        }
        // LUI is exact (no false positives) on the single-pattern queries.
        for name in ["q1", "q2", "q3", "q5", "q6", "q7"] {
            let lui = s.run(name, Strategy::Lui, "l").exec.docs_from_index;
            let with = s.baseline(name, "l").exec.docs_with_results;
            assert_eq!(lui, with, "{name}: LUI exact");
        }

        // --- Figure 9: every index beats no-index; xl beats l.
        for name in ["q2", "q6", "q7"] {
            let base = s.baseline(name, "l").exec.response_time;
            for st in Strategy::ALL {
                let t = s.run(name, st, "l").exec.response_time;
                assert!(t < base, "{name}/{st}: {t} < {base}");
                let txl = s.run(name, st, "xl").exec.response_time;
                assert!(txl <= t, "{name}/{st}: xl {txl} <= l {t}");
            }
        }

        // --- Figure 11: indexing saves the overwhelming share of cost.
        // Egress is excluded from the comparison: the same results leave
        // the cloud either way, so that charge is identical and, at this
        // tiny test scale, would mask the effect the paper measures at
        // 40 GB (where it is comparatively small).
        let mut base_total = 0.0;
        let mut best_total = f64::MAX;
        for st in Strategy::ALL {
            let total: f64 = s
                .queries
                .iter()
                .map(|q| {
                    let c = &s.run(q.name.as_deref().unwrap(), st, "l").cost;
                    (c.total() - c.egress).dollars()
                })
                .sum();
            best_total = best_total.min(total);
        }
        for q in &s.queries {
            let c = &s.baseline(q.name.as_deref().unwrap(), "l").cost;
            base_total += (c.total() - c.egress).dollars();
        }
        // At this tiny scale (60 documents) the workload's candidate
        // fractions are far larger than at the paper's 20 000 documents,
        // so the achievable saving is bounded; the default-scale repro run
        // shows the paper's order-of-magnitude gap.
        assert!(
            best_total < 0.65 * base_total,
            "indexed {best_total} vs baseline {base_total}"
        );
        // Every strategy must nevertheless be strictly cheaper than the
        // scan for the whole workload.
        for st in Strategy::ALL {
            let total: f64 = s
                .queries
                .iter()
                .map(|q| {
                    let c = &s.run(q.name.as_deref().unwrap(), st, "l").cost;
                    (c.total() - c.egress).dollars()
                })
                .sum();
            assert!(total < base_total, "{st}: {total} vs {base_total}");
        }

        // --- Figure 12 rows render.
        assert_eq!(fig12(&s).len(), 5);
        assert_eq!(table5(&s).len(), 10);
        assert_eq!(fig11(&s).len(), 20);
        assert!(fig9(&s).contains("Figure 9a"));
    }
}

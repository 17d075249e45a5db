//! The fault experiment (beyond the paper's figures): the full pipeline —
//! upload, index build, query workload — under seeded transient-fault
//! injection, at increasing throttle rates.
//!
//! The paper's Section 3 argues the architecture tolerates module failure
//! because every task rides a visibility-leased queue message; Section 7
//! prices every service request. This experiment connects the two: faults
//! make the warehouse retry, renew and (rarely) redeliver, and since every
//! retry is a billed request, resilience shows up as measurable extra
//! dollars and seconds over the rate-0 row — which is itself bit-identical
//! to a run with no fault subsystem at all.
//!
//! Fully deterministic: one fault seed (`AMADA_FAULT_SEED`, default
//! `0xFA117`) fixes the entire schedule of throttles and backoff jitter,
//! so two runs with the same seed produce identical tables.

use crate::{build_warehouse, corpus, workload, Scale, TextTable};
use amada_cloud::{FaultConfig, Money, SimDuration};
use amada_core::{WarehouseConfig, DEAD_LETTER_QUEUE};
use amada_index::Strategy;

/// Default master seed for the experiment's fault schedule.
pub const DEFAULT_FAULT_SEED: u64 = 0xFA117;

/// Throttle rates exercised (0 = the faults-off identity row).
pub const RATES: [f64; 4] = [0.0, 0.01, 0.05, 0.1];

/// The fault seed: `AMADA_FAULT_SEED` when set, the default otherwise.
pub fn fault_seed() -> u64 {
    std::env::var("AMADA_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_FAULT_SEED)
}

/// One measured pipeline run at a throttle rate.
#[derive(Debug, Clone, Copy)]
pub struct FaultRow {
    /// Throttle probability applied to every billed S3 / index-store /
    /// SQS request.
    pub rate: f64,
    /// Indexing-phase wall-clock time.
    pub build_time: SimDuration,
    /// Indexing-phase charges.
    pub build_cost: Money,
    /// Workload wall-clock time.
    pub workload_time: SimDuration,
    /// Workload charges.
    pub workload_cost: Money,
    /// Throttled (billed, retried) requests across the whole run.
    pub throttled: u64,
    /// Visibility-lease renewals issued by module cores.
    pub renewals: u64,
    /// Messages redelivered after a lease expired.
    pub redelivered: u64,
    /// Messages parked on the dead-letter queue.
    pub dead_lettered: u64,
    /// Queries that completed (must equal the workload size at any rate).
    pub queries_done: usize,
}

/// Runs the pipeline once per rate in [`RATES`] with one fault seed.
pub fn fault_rows(scale: &Scale, seed: u64) -> Vec<FaultRow> {
    let docs = corpus(scale);
    let queries = workload();
    RATES
        .iter()
        .map(|&rate| {
            let mut cfg = WarehouseConfig::with_strategy(Strategy::Lup);
            cfg.faults = FaultConfig {
                seed,
                s3_rate: rate,
                kv_rate: rate,
                sqs_rate: rate,
            };
            // Short enough that an expired lease (crash/abandonment) is
            // redelivered within the run, long enough that healthy tasks
            // rarely renew.
            cfg.visibility = SimDuration::from_secs(60);
            let (mut w, build) = build_warehouse(cfg, &docs);
            let run = w.run_workload(&queries, scale.workload_repeats);
            FaultRow {
                rate,
                build_time: build.total_time,
                build_cost: build.cost.total(),
                workload_time: run.total_time,
                workload_cost: run.cost.total(),
                throttled: build.throttled_requests + run.throttled_requests,
                renewals: build.lease_renewals + run.lease_renewals,
                redelivered: build.redelivered + run.redelivered,
                dead_lettered: w
                    .world()
                    .sqs
                    .len(DEAD_LETTER_QUEUE)
                    .expect("warehouse provisions the dead-letter queue")
                    as u64,
                queries_done: run.executions.len(),
            }
        })
        .collect()
}

/// The fault experiment: pipeline time, cost and fault-handling counters
/// per throttle rate.
pub fn fault(scale: &Scale) -> TextTable {
    render(&fault_rows(scale, fault_seed()))
}

/// Renders already-computed rows.
pub fn render(rows: &[FaultRow]) -> TextTable {
    let mut t = TextTable::new([
        "Fault rate",
        "Build (s)",
        "Build ($)",
        "Workload (s)",
        "Workload ($)",
        "Throttled",
        "Renewals",
        "Redelivered",
        "Dead-lettered",
    ]);
    for r in rows {
        t.row([
            format!("{:.2}", r.rate),
            format!("{:.3}", r.build_time.as_secs_f64()),
            format!("${:.6}", r.build_cost.dollars()),
            format!("{:.3}", r.workload_time.as_secs_f64()),
            format!("${:.6}", r.workload_cost.dollars()),
            r.throttled.to_string(),
            r.renewals.to_string(),
            r.redelivered.to_string(),
            r.dead_lettered.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_cost_money_but_not_answers() {
        let scale = Scale::tiny();
        let rows = fault_rows(&scale, DEFAULT_FAULT_SEED);
        assert_eq!(rows.len(), RATES.len());
        let expected = workload().len() * scale.workload_repeats;
        let clean = &rows[0];
        assert_eq!(clean.throttled, 0, "rate 0 draws no faults");
        assert_eq!(clean.redelivered, 0);
        for r in &rows {
            assert_eq!(r.queries_done, expected, "rate {}", r.rate);
            assert_eq!(r.dead_lettered, 0, "no poison messages at rate {}", r.rate);
        }
        let worst = &rows[RATES.len() - 1];
        assert!(worst.throttled > 0, "10% faults must throttle something");
        // Every retry is billed: the faulty pipeline costs strictly more.
        let clean_total = clean.build_cost + clean.workload_cost;
        let worst_total = worst.build_cost + worst.workload_cost;
        assert!(
            worst_total > clean_total,
            "faults {worst_total} vs clean {clean_total}"
        );
        assert!(worst.build_time >= clean.build_time);
    }

    #[test]
    fn same_seed_same_schedule() {
        let scale = Scale::tiny();
        let a = render(&fault_rows(&scale, 7));
        let b = render(&fault_rows(&scale, 7));
        assert_eq!(a.to_string(), b.to_string());
    }
}

//! The elastic-scaling experiment (beyond the paper's figures): bursty
//! query traffic on a static pool floor, a static pool ceiling, and a
//! queue-depth autoscaled pool between the two.
//!
//! The paper provisions a fixed pool per experiment and bills
//! `VM$_h × t`; its conclusion points at elasticity as the cloud's real
//! promise. This experiment quantifies that: three bursts of the workload
//! released a fixed virtual gap apart, sized per [`Scale`] so that a
//! burst overwhelms one instance but a gap outlasts eight (see
//! [`profile`]). The static floor (1 instance) is
//! cheap but slow — bursts queue up behind it. The static ceiling
//! (8 instances) is fast but pays 8 instance-clocks through every idle
//! gap. The autoscaled pool samples the queue depth (each probe a billed
//! SQS request), grows into each burst — paying the modeled boot latency
//! — and drains back to the floor behind it, freezing each victim's
//! billing window at its last useful instant. It should land near the
//! ceiling's time at a fraction of its dollars; the tests pin both
//! inequalities, and the autoscaler's decisions are reported as scale
//! events.

use crate::{corpus, strategy_warehouse, Outcome, Scale, TextTable};
use amada_cloud::{InstanceType, Money, SimDuration};
use amada_core::{AutoscalePolicy, Pool, ScaleDirection, Warehouse};
use amada_index::Strategy;

/// Pool floor shared by the static-min and autoscaled rows.
pub const POOL_MIN: usize = 1;
/// Pool ceiling shared by the static-max and autoscaled rows.
pub const POOL_MAX: usize = 8;
/// Bursts released per run.
pub const BURSTS: usize = 3;

/// Burst shape and control-loop parameters for one run.
///
/// The experiment only separates the three rows when a burst saturates
/// the floor (per-burst work on one instance exceeds the gap) while the
/// gap still outlasts the ceiling's burst time plus the autoscaler's
/// boot and sampling latency. Per-query time differs by ~30x between
/// [`Scale::tiny`] and the default scale (fig. 10: ~0.1 s vs ~3.3 s on
/// a Large instance), so the shape is derived from the scale.
#[derive(Debug, Clone, Copy)]
pub struct ElasticProfile {
    /// Workload repeats per burst.
    pub repeats: usize,
    /// Gap between burst release instants.
    pub gap: SimDuration,
    /// The autoscaling policy under test.
    pub policy: AutoscalePolicy,
}

/// Burst profile for `scale`.
pub fn profile(scale: &Scale) -> ElasticProfile {
    if scale.workload_repeats >= 16 {
        // Default scale: ~3.3 s/query. A 160-query burst holds one
        // instance for ~9 minutes; a 150 s gap dwarfs the ceiling's
        // ~70 s burst time plus 8 s boot.
        ElasticProfile {
            repeats: scale.workload_repeats,
            gap: SimDuration::from_secs(150),
            policy: AutoscalePolicy {
                min: POOL_MIN,
                max: POOL_MAX,
                sample_interval: SimDuration::from_secs(5),
                backlog_per_instance: 4,
                boot_latency: SimDuration::from_secs(8),
            },
        }
    } else {
        // Tiny scale: ~0.1 s/query, so bursts are densified 16x and the
        // control loop compressed to keep the same ordering: a ~30 s
        // burst on the floor vs a 20 s gap vs ~4 s on the ceiling.
        ElasticProfile {
            repeats: scale.workload_repeats * 16,
            gap: SimDuration::from_secs(20),
            policy: AutoscalePolicy {
                min: POOL_MIN,
                max: POOL_MAX,
                sample_interval: SimDuration::from_secs(2),
                backlog_per_instance: 4,
                boot_latency: SimDuration::from_secs(3),
            },
        }
    }
}

/// One measured run of the burst workload.
#[derive(Debug, Clone)]
pub struct ElasticRow {
    /// Row label ("static 1", "static 8", "autoscaled 1-8").
    pub label: String,
    /// Workload wall-clock time.
    pub total_time: SimDuration,
    /// EC2 charges for the run.
    pub ec2: Money,
    /// SQS charges (includes the autoscaler's billed depth probes).
    pub sqs: Money,
    /// Total charges for the run.
    pub total: Money,
    /// Scale-out decisions.
    pub scale_out: usize,
    /// Scale-in decisions.
    pub scale_in: usize,
    /// Peak active pool size.
    pub peak_pool: usize,
    /// Instances launched during the run.
    pub launched: usize,
    /// Queries completed.
    pub queries_done: usize,
}

fn run_bursts(w: &mut Warehouse, label: &str, prof: &ElasticProfile) -> ElasticRow {
    let queries = crate::workload();
    let report = w.run_workload_bursts(&queries, prof.repeats, BURSTS, prof.gap);
    let out = report
        .scale_events
        .iter()
        .filter(|e| e.direction == ScaleDirection::Out)
        .count();
    let in_ = report.scale_events.len() - out;
    // Instances provisioned up-front: the configured pool, which
    // `elastic_rows` sets to the policy floor for the autoscaled row.
    let initial = w.config().query_pool.count;
    let peak = report.scale_events.iter().map(|e| e.pool_size).max();
    ElasticRow {
        label: label.to_string(),
        total_time: report.total_time,
        ec2: report.cost.ec2,
        sqs: report.cost.sqs,
        total: report.cost.total(),
        scale_out: out,
        scale_in: in_,
        peak_pool: peak.unwrap_or(initial),
        launched: out + initial,
        queries_done: report.executions.len(),
    }
}

/// Runs the three configurations over one shared index.
pub fn elastic_rows(scale: &Scale) -> Vec<ElasticRow> {
    let prof = profile(scale);
    let docs = corpus(scale);
    let (mut w, _) = strategy_warehouse(Strategy::Lup, &docs);
    let mut rows = Vec::new();

    w.set_query_pool(Pool::new(POOL_MIN, InstanceType::Large));
    rows.push(run_bursts(&mut w, &format!("static {POOL_MIN}"), &prof));

    w.set_query_pool(Pool::new(POOL_MAX, InstanceType::Large));
    rows.push(run_bursts(&mut w, &format!("static {POOL_MAX}"), &prof));

    w.set_query_pool(Pool::new(POOL_MIN, InstanceType::Large));
    w.set_query_autoscale(Some(prof.policy));
    rows.push(run_bursts(
        &mut w,
        &format!("autoscaled {POOL_MIN}-{POOL_MAX}"),
        &prof,
    ));
    w.set_query_autoscale(None);
    rows
}

/// The `repro scale` artifact; the headline numbers are the autoscaled
/// run's decisions.
pub fn elastic(scale: &Scale) -> Outcome {
    let rows = elastic_rows(scale);
    let autoscaled = rows.last().expect("three rows");
    Outcome {
        body: render(&rows).to_string(),
        numbers: vec![
            ("out_events", autoscaled.scale_out as f64),
            ("in_events", autoscaled.scale_in as f64),
            ("peak_pool", autoscaled.peak_pool as f64),
        ],
    }
}

/// Renders already-computed rows.
pub fn render(rows: &[ElasticRow]) -> TextTable {
    let mut t = TextTable::new([
        "Query pool",
        "Time (s)",
        "EC2 ($)",
        "SQS ($)",
        "Total ($)",
        "Scale-out",
        "Scale-in",
        "Peak pool",
        "Launched",
    ]);
    for r in rows {
        t.row([
            r.label.clone(),
            format!("{:.2}", r.total_time.as_secs_f64()),
            format!("${:.6}", r.ec2.dollars()),
            format!("${:.6}", r.sqs.dollars()),
            format!("${:.6}", r.total.dollars()),
            r.scale_out.to_string(),
            r.scale_in.to_string(),
            r.peak_pool.to_string(),
            r.launched.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn autoscaling_beats_the_floor_on_time_and_the_ceiling_on_dollars() {
        let scale = Scale::tiny();
        let rows = elastic_rows(&scale);
        assert_eq!(rows.len(), 3);
        let (floor, ceiling, auto_) = (&rows[0], &rows[1], &rows[2]);
        let expected = crate::workload().len() * profile(&scale).repeats * BURSTS;
        for r in &rows {
            assert_eq!(r.queries_done, expected, "{}", r.label);
        }
        // Static rows never scale.
        assert_eq!(floor.scale_out + floor.scale_in, 0);
        assert_eq!(ceiling.scale_out + ceiling.scale_in, 0);
        assert_eq!(floor.launched, POOL_MIN);
        assert_eq!(ceiling.launched, POOL_MAX);
        // The autoscaler reacted to the bursts and drained behind them.
        assert!(auto_.scale_out > 0, "bursts must trigger scale-out");
        assert!(auto_.scale_in > 0, "gaps must trigger scale-in");
        assert!(auto_.peak_pool > POOL_MIN);
        assert!(auto_.peak_pool <= POOL_MAX);
        assert_eq!(auto_.launched, POOL_MIN + auto_.scale_out);
        // The headline inequalities: elastic is faster than the floor and
        // cheaper than the ceiling.
        assert!(
            auto_.total_time < floor.total_time,
            "autoscaled {} vs static floor {}",
            auto_.total_time,
            floor.total_time
        );
        assert!(
            auto_.total < ceiling.total,
            "autoscaled {} vs static ceiling {}",
            auto_.total,
            ceiling.total
        );
        // Depth probes are billed: the autoscaled run pays more SQS than
        // the ceiling run moved the same messages for.
        assert!(auto_.sqs > Money::ZERO);
    }

    #[test]
    fn same_scale_same_table() {
        let scale = Scale::tiny();
        let a = render(&elastic_rows(&scale));
        let b = render(&elastic_rows(&scale));
        assert_eq!(a.to_string(), b.to_string());
    }
}

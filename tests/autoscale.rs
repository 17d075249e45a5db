//! The elastic-scaling layer's contract, end to end:
//!
//! 1. **Off by default** — the default configuration has no autoscaling;
//!    static-pool runs report no scale events.
//! 2. **Degenerate equivalence** — a `min == max` autoscaled pool
//!    executes the workload identically to a static pool of that size:
//!    same executions, same KV/S3/egress bills; the SQS bill differs by
//!    exactly the controller's billed depth probes, and EC2 can only get
//!    cheaper (drained victims freeze their windows early).
//! 3. **Exactly-once under drain** — a bursty autoscaled run completes
//!    every query exactly once with no redeliveries, and every scale-in
//!    victim is stopped with its billing window frozen.
//! 4. **Ledger fidelity** — per-instance billed windows sum exactly into
//!    the EC2 ledger, under both billing granularities, and the
//!    per-started-hour bill brackets the fractional one.
//! 5. **Observation only** — recording an elastic run changes nothing,
//!    and the spans carry the autoscaler's lane and decisions.

use amada::cloud::{BillingGranularity, Money, ServiceKind, SimDuration};
use amada::index::Strategy;
use amada::pattern::Query;
use amada::warehouse::{
    AutoscalePolicy, Pool, ScaleDirection, Warehouse, WarehouseConfig, WorkloadReport,
};
use amada::xmark::{generate_corpus, workload, CorpusConfig};

fn corpus() -> Vec<(String, String)> {
    let cfg = CorpusConfig {
        seed: 0x5CA1_AB1E,
        num_documents: 24,
        target_doc_bytes: 1100,
        ..Default::default()
    };
    generate_corpus(&cfg)
        .into_iter()
        .map(|d| (d.uri, d.xml))
        .collect()
}

fn queries() -> Vec<Query> {
    workload().into_iter().take(5).collect()
}

/// A compressed control loop for the tiny test corpus: queries take
/// fractions of a second, so sampling and boot shrink to match.
fn policy(min: usize, max: usize) -> AutoscalePolicy {
    AutoscalePolicy {
        min,
        max,
        sample_interval: SimDuration::from_secs(1),
        backlog_per_instance: 2,
        boot_latency: SimDuration::from_secs(2),
    }
}

/// Uploads and indexes the corpus under LUP with a static loader pool.
fn built(cfg: WarehouseConfig) -> Warehouse {
    let mut w = Warehouse::new(cfg);
    w.upload_documents(corpus());
    w.build_index();
    w
}

#[test]
fn autoscaling_is_off_by_default_and_static_runs_report_no_events() {
    let cfg = WarehouseConfig::with_strategy(Strategy::Lup);
    assert!(cfg.query_autoscale.is_none());
    assert_eq!(cfg.ec2_billing, BillingGranularity::Fractional);

    let mut w = Warehouse::new(cfg);
    w.upload_documents(corpus());
    w.build_index();
    let report = w.run_workload(&queries(), 1);
    assert!(report.scale_events.is_empty());
    assert_eq!(w.world().sqs.stats().depth_polls, 0);
}

#[test]
fn min_equals_max_elastic_pool_matches_the_static_pool() {
    let static_cfg = {
        let mut cfg = WarehouseConfig::with_strategy(Strategy::Lup);
        cfg.query_pool = Pool::new(2, cfg.query_pool.itype);
        cfg
    };
    let mut ws = built(static_cfg.clone());
    let rs = ws.run_workload(&queries(), 8);

    let mut wa = built(static_cfg);
    // The whole workload runs in about a virtual second on two
    // instances, so sample fast enough to land probes inside it.
    wa.set_query_autoscale(Some(AutoscalePolicy {
        sample_interval: SimDuration::from_micros(200_000),
        ..policy(2, 2)
    }));
    let ra = wa.run_workload(&queries(), 8);

    // Same work, same answers, same virtual timings per query.
    assert_eq!(
        format!("{:?}", rs.executions),
        format!("{:?}", ra.executions),
        "a min == max elastic pool must execute like the static pool"
    );
    // The pool never moved.
    assert!(ra.scale_events.is_empty());
    assert_eq!(rs.redelivered, 0);
    assert_eq!(ra.redelivered, 0);

    // Billing: storage tiers identical; the elastic run pays exactly its
    // depth probes on top of the static SQS bill; EC2 only gets cheaper
    // (workers that exit freeze their windows instead of riding to the
    // end of the phase).
    assert_eq!(rs.cost.kv, ra.cost.kv);
    assert_eq!(rs.cost.s3, ra.cost.s3);
    assert_eq!(rs.cost.egress, ra.cost.egress);
    let polls = wa.world().sqs.stats().depth_polls;
    assert!(polls > 0, "the controller must have sampled the queue");
    assert_eq!(
        ra.cost.sqs,
        rs.cost.sqs + wa.world().prices.qs_request * polls,
        "SQS delta must be exactly the billed depth probes"
    );
    assert!(
        ra.cost.ec2 <= rs.cost.ec2,
        "elastic EC2 {} must not exceed static EC2 {}",
        ra.cost.ec2,
        rs.cost.ec2
    );
}

/// A bursty elastic run on a shared warehouse: 3 bursts of the workload
/// x12, far enough apart that the pool drains back between them. Scale-in
/// only ever shows in a gap *between* bursts — once the last burst is
/// sent the queue closes and the members wind down by themselves — so a
/// burst must outlast the floor's first sample and two gaps must follow.
fn bursty(w: &mut Warehouse) -> WorkloadReport {
    w.set_query_pool(Pool::new(1, w.config().query_pool.itype));
    w.set_query_autoscale(Some(policy(1, 4)));
    w.run_workload_bursts(&queries(), 12, 3, SimDuration::from_secs(30))
}

#[test]
fn bursty_scale_in_is_graceful_and_exactly_once() {
    let mut w = built(WarehouseConfig::with_strategy(Strategy::Lup));
    let report = bursty(&mut w);

    // Every query ran exactly once per send: 5 queries x 12 repeats x 3
    // bursts, no lease expiries, no redeliveries, dead-letter empty.
    assert_eq!(report.executions.len(), queries().len() * 12 * 3);
    for q in queries() {
        let name = q.name.as_deref().unwrap().to_string();
        let runs = report.executions.iter().filter(|e| e.name == name).count();
        assert_eq!(runs, 36, "{name} must run exactly once per send");
    }
    assert_eq!(report.redelivered, 0, "draining never abandons a lease");

    // The bursts forced the pool out and the gap drained it back.
    let out: Vec<_> = report
        .scale_events
        .iter()
        .filter(|e| e.direction == ScaleDirection::Out)
        .collect();
    let drained: Vec<_> = report
        .scale_events
        .iter()
        .filter(|e| e.direction == ScaleDirection::In)
        .collect();
    assert!(!out.is_empty(), "bursts must trigger scale-out");
    assert!(!drained.is_empty(), "gaps must trigger scale-in");

    // Every victim is stopped with its window frozen at or before now —
    // the phase-end extension must not have resurrected it.
    let now = w.now();
    for e in &drained {
        assert!(
            w.world().ec2.is_stopped(e.instance),
            "scale-in victim {:?} must be stopped",
            e.instance
        );
        assert!(w.world().ec2.record(e.instance).end <= now);
    }

    // Per-instance billed windows sum exactly into the EC2 ledger.
    let world = w.world();
    let summed: Money = world
        .ec2
        .records()
        .iter()
        .map(|r| world.ec2.record_cost(r, &world.prices))
        .sum();
    assert_eq!(summed, world.ec2.total_cost(&world.prices));
    assert_eq!(summed, world.cost_report().ec2);
}

#[test]
fn started_hour_billing_brackets_fractional_end_to_end() {
    let run = |granularity: BillingGranularity| {
        let mut cfg = WarehouseConfig::with_strategy(Strategy::Lup);
        cfg.ec2_billing = granularity;
        let mut w = built(cfg);
        let report = bursty(&mut w);
        let instances = w.world().ec2.records().len();
        (report, instances)
    };
    let (frac, n_frac) = run(BillingGranularity::Fractional);
    let (hour, n_hour) = run(BillingGranularity::PerStartedHour);

    // Billing granularity is read at settlement, never by the scheduler.
    assert_eq!(n_frac, n_hour);
    assert_eq!(
        format!("{:?}", frac.executions),
        format!("{:?}", hour.executions),
        "granularity must not perturb the simulation"
    );
    assert_eq!(
        format!("{:?}", frac.scale_events),
        format!("{:?}", hour.scale_events)
    );

    // fractional <= per-started-hour <= fractional + 1h x instances.
    assert!(frac.cost.ec2 <= hour.cost.ec2);
    let hour_large = WarehouseConfig::with_strategy(Strategy::Lup)
        .prices
        .vm_hour_large;
    assert!(
        hour.cost.ec2 <= frac.cost.ec2 + hour_large * n_hour as u64,
        "started-hour {} vs fractional {} + {} instance-hours",
        hour.cost.ec2,
        frac.cost.ec2,
        n_hour
    );
}

#[test]
fn recording_an_elastic_run_is_observation_only() {
    let run = |record: bool| {
        let mut cfg = WarehouseConfig::with_strategy(Strategy::Lup);
        cfg.host.record = record;
        let mut w = built(cfg);
        let report = bursty(&mut w);
        let rendered = (
            format!("{:?}", report),
            format!("{:?}", w.world().cost_report()),
        );
        (w, rendered)
    };
    let (off_w, off) = run(false);
    let (on_w, on) = run(true);
    assert_eq!(off, on, "recorder-on elastic run diverged");
    assert_eq!(off_w.spans().len(), 0);

    // The recorded stream carries the autoscaler's decisions on its own
    // lane, the victims' drains, and the launched instances' boots.
    let spans = on_w.spans();
    let ops = |op: &str| {
        spans
            .iter()
            .filter(|s| s.service == ServiceKind::Actor && s.op == op)
            .count()
    };
    let report = &on.0;
    assert!(ops("scale-out") > 0, "scale-out decisions must be spanned");
    assert!(ops("scale-in") > 0, "scale-in decisions must be spanned");
    assert!(ops("boot") > 0, "booting instances must be spanned");
    assert!(spans
        .iter()
        .any(|s| s.ctx.actor.is_some_and(|a| a.kind == "autoscaler")));
    // Depth probes are billed SQS requests, so they appear as SQS spans
    // like any other request (ledger reconciliation depends on this).
    assert!(report.contains("scale_events"));
    let sqs_spans = spans
        .iter()
        .filter(|s| s.service == ServiceKind::Sqs)
        .count() as u64;
    assert_eq!(sqs_spans, on_w.world().sqs.stats().requests);
}

//! The sharded-index / open-loop-traffic experiment (`repro shard`,
//! beyond the paper's figures).
//!
//! The paper's Figure 10 shows DynamoDB provisioned throughput as the
//! indexing bottleneck; at query time the same table-level limit is what
//! a traffic storm saturates. This experiment drives one warehouse with
//! a seeded open-loop arrival process — bursty, diurnally modulated,
//! Zipf-skewed over the workload queries so a handful of hot index keys
//! absorb most look-ups — and measures, per shard configuration:
//!
//! * exact per-arrival virtual-latency percentiles (p50/p95/p99, from
//!   the recorded span envelope of each uniquely-named arrival), and
//! * dollars per 1 000 queries (all services, from the run's ledger).
//!
//! The single-table row queues every read behind one provisioned-rate
//! lane and saturates: arrivals keep coming open-loop, the backlog
//! grows, p99 explodes — and the stretched run bills *more* EC2 time,
//! so saturation costs more per query too. The sharded rows split the
//! same provisioned rate-per-shard across independent lanes; the
//! skew-aware plan additionally pins the hottest hash keys (measured
//! from the built index) to dedicated shards so the cold tail never
//! queues behind them. Billed capacity units are identical in every row
//! — sharding changes *where* requests wait, never what they cost in
//! Table 3 terms (pinned by `tests/sharding.rs`).

use crate::{build_warehouse, corpus, Outcome, Scale, TextTable};
use amada_cloud::{DynamoConfig, InstanceType, KvBackend, Money, ShardPlan, SimDuration};
use amada_core::{ArrivalProcess, Pool, Warehouse, WarehouseConfig};
use amada_index::{hottest_keys, lookup::query_paths, ExtractOptions, Strategy, TABLE_MAIN};
use amada_obs::LatencySummary;
use amada_pattern::Query;
use std::collections::{BTreeMap, BTreeSet};

/// Total shards in the sharded rows.
pub const SHARDS: usize = 4;
/// Hot keys pinned to dedicated shards in the skew-aware row.
pub const HOT_SHARDS: usize = 2;

/// Provisioned read units/sec — per table for the single row, per
/// *shard* for the sharded rows (each shard is an independently
/// provisioned partition, the real-DynamoDB semantics).
pub const READ_UNITS_PER_SEC: f64 = 12.0;
/// Query-processor instances (enough concurrency that the KV read lane,
/// not the pool, is the bottleneck).
pub const POOL: usize = 8;

/// The open-loop storm for `scale`: the arrival rate is chosen so the
/// hot-key read load exceeds one table-level lane but fits comfortably
/// within [`SHARDS`] per-shard lanes.
pub fn storm(scale: &Scale) -> ArrivalProcess {
    let arrivals = if scale.workload_repeats >= 16 {
        600
    } else {
        150
    };
    ArrivalProcess {
        seed: 0xA3ADA5EED,
        arrivals,
        base_rate_per_sec: 4.0,
        diurnal_amplitude: 0.4,
        diurnal_period: SimDuration::from_secs(40),
        burst_every: SimDuration::from_secs(15),
        burst_len: SimDuration::from_secs(5),
        burst_factor: 8.0,
        zipf_exponent: 1.2,
    }
}

/// One measured shard configuration.
#[derive(Debug, Clone)]
pub struct ShardRow {
    /// Row label ("single table", "hashed 4", …).
    pub label: String,
    /// Total shards serving each table.
    pub shards: usize,
    /// Arrivals completed (all of them — open-loop never drops).
    pub completed: usize,
    /// Median virtual latency.
    pub p50: SimDuration,
    /// 95th-percentile virtual latency.
    pub p95: SimDuration,
    /// 99th-percentile virtual latency.
    pub p99: SimDuration,
    /// Workload wall-clock (first send to last completion).
    pub total_time: SimDuration,
    /// All charges for the run.
    pub cost: Money,
    /// Dollars per 1 000 queries.
    pub per_1k: f64,
}

fn run_row(
    w: &mut Warehouse,
    label: &str,
    plan: Option<ShardPlan>,
    process: &ArrivalProcess,
) -> ShardRow {
    let shards = plan.as_ref().map(ShardPlan::shards).unwrap_or(1);
    w.set_shard_plan(plan);
    let span_base = w.spans().len();
    let queries = crate::workload();
    let report = w.run_workload_open_loop(&queries, process);
    let spans = w.spans();
    let lat = LatencySummary::from_spans(&spans[span_base..]);
    let dollars = report.cost.total().dollars();
    ShardRow {
        label: label.to_string(),
        shards,
        completed: report.executions.len(),
        p50: lat.p50,
        p95: lat.p95,
        p99: lat.p99,
        total_time: report.total_time,
        cost: report.cost.total(),
        per_1k: dollars / process.arrivals as f64 * 1000.0,
    }
}

/// Predicted read load per main-table hash key under the storm: each
/// workload query's Zipf share times the stored bytes its LUP look-up
/// fetches from each of its terminal keys. Both inputs are free and
/// deterministic — the built index (host-side peek) and the arrival
/// process's own rank weights — so the plan needs no profiling run.
fn storm_key_load(
    w: &mut Warehouse,
    queries: &[Query],
    process: &ArrivalProcess,
    opts: ExtractOptions,
) -> BTreeMap<String, u64> {
    let mut bytes: BTreeMap<String, u64> = BTreeMap::new();
    for (table, item) in w.engine_mut().world.kv.peek_all() {
        if table == TABLE_MAIN {
            *bytes.entry(item.hash_key.to_string()).or_default() += item.byte_size() as u64;
        }
    }
    // The same Zipf ranks the arrival process draws from (rank = position
    // in the workload, weight ∝ 1/(rank+1)^s).
    let weights: Vec<f64> = (0..queries.len())
        .map(|r| 1.0 / ((r + 1) as f64).powf(process.zipf_exponent))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut load: BTreeMap<String, u64> = BTreeMap::new();
    for (rank, q) in queries.iter().enumerate() {
        let share = weights[rank] / total;
        let keys: BTreeSet<String> = q
            .patterns
            .iter()
            .flat_map(|p| query_paths(p, opts))
            .map(|qp| qp.last().expect("query paths are non-empty").1.clone())
            .collect();
        for k in keys {
            let b = bytes.get(&k).copied().unwrap_or(0);
            *load.entry(k).or_default() += (share * b as f64 * 1000.0) as u64;
        }
    }
    load
}

/// Runs the storm against every shard configuration over one shared
/// warehouse and index.
pub fn shard_rows(scale: &Scale) -> Vec<ShardRow> {
    let storm = storm(scale);
    let docs = corpus(scale);
    let mut cfg = WarehouseConfig::with_strategy(Strategy::Lup);
    cfg.backend = KvBackend::Dynamo(DynamoConfig {
        read_units_per_sec: READ_UNITS_PER_SEC,
        ..DynamoConfig::default()
    });
    cfg.query_pool = Pool::new(POOL, InstanceType::Large);
    cfg.host.record = true;
    let extract = cfg.extract;
    let (mut w, _) = build_warehouse(cfg, &docs);
    let queries = crate::workload();
    let load = storm_key_load(&mut w, &queries, &storm, extract);
    let hot = hottest_keys(&load, HOT_SHARDS);

    let mut rows = Vec::new();
    rows.push(run_row(&mut w, "single table", None, &storm));
    rows.push(run_row(
        &mut w,
        &format!("hashed {SHARDS}"),
        Some(ShardPlan::hashed(SHARDS)),
        &storm,
    ));
    rows.push(run_row(
        &mut w,
        &format!("skew-aware {SHARDS}"),
        Some(ShardPlan::with_hot_keys(SHARDS - hot.len(), hot)),
        &storm,
    ));
    w.set_shard_plan(None);
    rows
}

/// The `repro shard` artifact; the headline numbers are the arrivals each
/// row completed and the p99 virtual latency (µs) and $/1k queries
/// (micro-dollars) of the single-table and the skew-aware rows.
pub fn shard(scale: &Scale) -> Outcome {
    let rows = shard_rows(scale);
    let (single, skew) = (&rows[0], rows.last().expect("three rows"));
    Outcome {
        body: render(&rows).to_string(),
        numbers: vec![
            ("arrivals", single.completed as f64),
            ("single_p99_us", single.p99.micros() as f64),
            ("skew_p99_us", skew.p99.micros() as f64),
            ("single_per_1k_udollars", single.per_1k * 1e6),
            ("skew_per_1k_udollars", skew.per_1k * 1e6),
        ],
    }
}

/// Renders already-computed rows.
pub fn render(rows: &[ShardRow]) -> TextTable {
    let mut t = TextTable::new([
        "Index store",
        "Shards",
        "Completed",
        "p50 (s)",
        "p95 (s)",
        "p99 (s)",
        "Time (s)",
        "Total ($)",
        "$/1k queries",
    ]);
    for r in rows {
        t.row([
            r.label.clone(),
            r.shards.to_string(),
            r.completed.to_string(),
            format!("{:.3}", r.p50.as_secs_f64()),
            format!("{:.3}", r.p95.as_secs_f64()),
            format!("{:.3}", r.p99.as_secs_f64()),
            format!("{:.2}", r.total_time.as_secs_f64()),
            format!("${:.6}", r.cost.dollars()),
            format!("${:.6}", r.per_1k),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skew_aware_sharding_survives_the_storm_the_single_table_cannot() {
        let scale = Scale::tiny();
        let rows = shard_rows(&scale);
        assert_eq!(rows.len(), 3);
        let (single, hashed, skew) = (&rows[0], &rows[1], &rows[2]);
        let arrivals = storm(&scale).arrivals;
        for r in &rows {
            assert_eq!(
                r.completed, arrivals,
                "{}: open-loop drops nothing",
                r.label
            );
        }
        assert_eq!(single.shards, 1);
        assert_eq!(hashed.shards, SHARDS);
        assert_eq!(skew.shards, SHARDS);
        // The headline: under the hot-key storm the skew-aware sharded
        // config completes with bounded p99 while the single table
        // saturates — strictly worse p99 at equal or higher $/1k.
        assert!(
            single.p99 > skew.p99,
            "single-table p99 {} must exceed skew-aware {}",
            single.p99,
            skew.p99
        );
        assert!(
            single.per_1k >= skew.per_1k,
            "saturation must not be cheaper: {} vs {}",
            single.per_1k,
            skew.per_1k
        );
        // Skew-awareness must beat blind hashing on tail latency: blind
        // hashing still lands the hottest key on one cold shard.
        assert!(
            skew.p99 <= hashed.p99,
            "skew-aware p99 {} vs hashed {}",
            skew.p99,
            hashed.p99
        );
    }

    #[test]
    fn same_scale_same_table() {
        let scale = Scale::tiny();
        let a = render(&shard_rows(&scale));
        let b = render(&shard_rows(&scale));
        assert_eq!(a.to_string(), b.to_string());
    }
}

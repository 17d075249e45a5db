//! What the benchmark measures, as data: the five workloads, the
//! end-to-end metrics with their regression bounds, and the per-layer
//! metrics with the end-to-end metric and workload each is predicted to
//! move. `BENCHMARK.json` at the repository root is generated from these
//! tables (`amada-benchmark spec`); a unit test keeps the two equal.

use crate::json::Value;

/// The timed phase of one run, in seconds (`run_seconds`).
pub const RUN_SECONDS: u32 = 15;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    IngestCold,
    QueryIndexed,
    QueryScan,
    ChurnMixed,
    StormOpenLoop,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::IngestCold,
        Workload::QueryIndexed,
        Workload::QueryScan,
        Workload::ChurnMixed,
        Workload::StormOpenLoop,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::IngestCold => "ingest_cold",
            Workload::QueryIndexed => "query_indexed",
            Workload::QueryScan => "query_scan",
            Workload::ChurnMixed => "churn_mixed",
            Workload::StormOpenLoop => "storm_open_loop",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists, in one line (the `why` of `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::IngestCold => "cold builds under all four strategies: the loader path (parse, extract, encode, batch_put, teardown) does all the work, the query path none",
            Workload::QueryIndexed => "ten queries x four strategies through run_query on a warm cache: look-up, decode, twig join, fetch and evaluate work, the loader does none",
            Workload::QueryScan => "the same queries with no index built: zero look-ups, whole-corpus fetch and evaluation; the bypass for every look-up or codec change",
            Workload::ChurnMixed => "replace, delete, re-upload, rebuild and query one live LUP warehouse: retraction, batch_delete, cache rebinding and incremental builds beside reads",
            Workload::StormOpenLoop => "open-loop arrivals at 1, 2, 4, 8 q/s on eight instances sharing one key-value read lane, recorder on: queueing, not service time, sets the tail",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric a user of the system would see, with its regression bound.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    pub definition: &'static str,
}

/// Host-clock metrics are lower deciles over repetitions of the same
/// work (`stats::steady` says why). Their bound is the contract's widest:
/// the shared two-core hosts the benchmark runs on disturb whole runs, and
/// the acceptance check measures that disturbance with ten runs a set.
/// Virtual-clock metrics repeat bit for bit at one seed; their bounds only
/// cover how far seeds differ (three times the interquartile spread
/// measured over seeds).
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        definition: "host time before the first timed iteration: corpus generation, parsing and oracle answers, set-up builds, warm-up; the whole set-up runs three to nine times, the fastest counts",
    },
    EndToEnd {
        name: "host_ops_per_s",
        unit: "ops/s",
        better: Better::Higher,
        bound: 0.25,
        definition: "ops per iteration / host time of an iteration's op calls, each op class (strategy x query, strategy, round, step) at the lower decile of its repetitions",
    },
    EndToEnd {
        name: "host_op_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        definition: "host time of one op call (one run_query / run_query_no_index, one strategy's build new-to-drop, one churn round, one storm step): geometric mean over the op classes of each class's lower decile, so a cheap class counts as much as a dear one",
    },
    EndToEnd {
        name: "host_peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        definition: "VmHWM of the workload's process after set-up and the iterations every run makes (2 cycles, 5 passes, 2 x 5 rounds, 5 steps), however many more fit into the run",
    },
    EndToEnd {
        name: "virt_makespan_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.10,
        definition: "virtual time of the window: sum of total_time over a cycle's four builds; sum of response_time over one pass; sum of build + workload total_time over an iteration's 5 churn rounds; total_time of the 4 q/s storm step",
    },
    EndToEnd {
        name: "virt_op_p95_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.20,
        definition: "nearest-rank p95 of the virtual latencies in the window: per-query response_time; per-arrival latency at 4 q/s; per-build total_time for ingest_cold (four builds: the slowest)",
    },
    EndToEnd {
        name: "virt_usd_per_1k_ops",
        unit: "usd",
        better: Better::Lower,
        bound: 0.10,
        definition: "all-service charges of the window (exact picodollars) per 1000 ops",
    },
];

/// A metric of one layer. `moves` names the end-to-end metric and the
/// workload (`*` = every workload) a change to the layer should move.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name; with `per_strategy` a `.lu`/`.lup`/`.lui`/`.2lupi`
    /// suffix is appended for each strategy.
    pub name: &'static str,
    pub per_strategy: bool,
    pub unit: &'static str,
    pub better: Better,
    /// How it is measured, from outside the program.
    pub how: &'static str,
    pub moves: &'static [(&'static str, &'static str)],
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    how: &'static str,
    moves: &'static [(&'static str, &'static str)],
) -> PerLayer {
    PerLayer {
        name,
        per_strategy: false,
        unit,
        better,
        how,
        moves,
    }
}

const fn by_strategy(
    name: &'static str,
    unit: &'static str,
    better: Better,
    how: &'static str,
    moves: &'static [(&'static str, &'static str)],
) -> PerLayer {
    PerLayer {
        per_strategy: true,
        ..layer(name, unit, better, how, moves)
    }
}

use Better::{Higher, Lower};

const INGEST: &[(&str, &str)] = &[("host_ops_per_s", "ingest_cold")];
const WRITES: &[(&str, &str)] = &[
    ("host_ops_per_s", "ingest_cold"),
    ("host_ops_per_s", "churn_mixed"),
];
const LOOKUP_HOST: &[(&str, &str)] = &[
    ("host_op_ms", "query_indexed"),
    ("host_ops_per_s", "storm_open_loop"),
];
const LOOKUP_VIRT: &[(&str, &str)] = &[
    ("virt_usd_per_1k_ops", "query_indexed"),
    ("virt_op_p95_ms", "query_indexed"),
    ("virt_op_p95_ms", "storm_open_loop"),
];
const EVAL: &[(&str, &str)] = &[
    ("host_ops_per_s", "query_scan"),
    ("host_op_ms", "query_indexed"),
];
const QUERIES: &[(&str, &str)] = &[
    ("host_op_ms", "query_indexed"),
    ("host_op_ms", "query_scan"),
];
const CHURN: &[(&str, &str)] = &[
    ("host_ops_per_s", "churn_mixed"),
    ("virt_usd_per_1k_ops", "churn_mixed"),
];
const STORM: &[(&str, &str)] = &[("host_ops_per_s", "storm_open_loop")];
const COST: &[(&str, &str)] = &[("virt_usd_per_1k_ops", "*")];
const OPS_ALL: &[(&str, &str)] = &[("host_ops_per_s", "*")];
const SIM: &[(&str, &str)] = &[
    ("host_ops_per_s", "storm_open_loop"),
    ("host_op_ms", "query_indexed"),
    ("host_op_ms", "query_scan"),
];

/// The per-layer table. Layers are the crates' modules. *Replay* means the
/// same inputs timed through the layer's public functions on scratch
/// instances, never on the measured warehouse; *direct* means a host span
/// around a public `Warehouse` call; *count* means an exact counter the
/// public reports and `stats()` expose. A `share` is the layer's work in
/// the timed phase (units observed × replayed unit cost) over the on-clock
/// time; the twelve shares sum to one by construction.
pub const PER_LAYER: &[PerLayer] = &[
    layer("xmark.gen.mb_per_s", "MB/s", Higher, "replay: generate_corpus", &[("setup_s", "*")]),
    layer("xml.parser.mb_per_s", "MB/s", Higher, "replay: Document::parse_str over the corpus", INGEST),
    layer("xml.parser.share", "share", Lower, "parse misses x replayed parse cost / effective prewarm threads", INGEST),
    by_strategy("index.strategy.extract_ns_per_entry", "ns", Lower, "replay: extract(doc, strategy, opts)", WRITES),
    by_strategy("index.strategy.entries_per_doc", "count", Lower, "count: entries extract() yields per document", &[("virt_usd_per_1k_ops", "ingest_cold"), ("host_ops_per_s", "ingest_cold")]),
    layer("index.strategy.extract_share", "share", Lower, "entries extracted x replayed cost / effective prewarm threads", WRITES),
    layer("index.parallel.prewarm_ms", "ms", Lower, "direct: Warehouse::prewarm() per iteration", INGEST),
    layer("par.prewarm_efficiency", "ratio", Higher, "replay: single-thread parse+extract / (threads x amada_index::prewarm on a scratch cache)", INGEST),
    layer("index.store.encode_ns_per_item", "ns", Lower, "replay: store::encode_entry with UuidGen::for_document, all four strategies", WRITES),
    layer("index.store.items_per_entry", "count", Lower, "count: items encode_entry yields per entry", WRITES),
    layer("index.store.encode_share", "share", Lower, "items written x replayed encode cost", WRITES),
    by_strategy("index.store.bytes_per_corpus_byte", "ratio", Lower, "count: raw + overhead bytes of the scratch index / corpus bytes (Figure 8)", &[("virt_usd_per_1k_ops", "ingest_cold"), ("host_peak_rss_mb", "ingest_cold")]),
    layer("index.cache.probe_ns", "ns", Lower, "replay: warm ExtractCache::extracted + parsed", QUERIES),
    layer("index.cache.hit_rate", "ratio", Higher, "count: ExtractCache::stats() delta over the timed phase", QUERIES),
    layer("index.cache.clear_ms", "ms", Lower, "direct: the harness's own cache clears per iteration (off the clock)", INGEST),
    by_strategy("index.lookup.host_us_per_query", "us", Lower, "replay: lookup_query on the scratch index, mean of the ten queries", LOOKUP_HOST),
    by_strategy("index.lookup.get_ops_per_query", "count", Lower, "count: QueryLookup::get_ops(), mean of the ten queries", LOOKUP_VIRT),
    by_strategy("index.lookup.candidates_per_result_doc", "ratio", Lower, "count: document IDs from the index / documents with results (Table 5)", LOOKUP_VIRT),
    layer("index.lookup.share", "share", Lower, "indexed executions x replayed look-up cost of that query and strategy", LOOKUP_HOST),
    layer("index.codec.decode_mids_per_s", "MIDs/s", Higher, "replay: store::decode_id_postings over the LUI items", &[("host_op_ms", "query_indexed")]),
    layer("index.loadutil.retract_ns_per_key", "ns", Lower, "replay: entry_item_keys + stale_keys + retract_keys", CHURN),
    layer("index.loadutil.retracted_items_per_round", "count", Lower, "count: retracted_items + index_items_removed per churn round", CHURN),
    layer("pattern.parser.us_per_query", "us", Lower, "replay: parse_query on each query's text", QUERIES),
    layer("pattern.twig.eval_us_per_doc", "us", Lower, "replay: evaluate_pattern_twig, all patterns of a query over one document", EVAL),
    layer("pattern.twig.eval_share", "share", Lower, "documents fetched x replayed evaluation cost of that query, plus its value join", EVAL),
    layer("pattern.valuejoin.us_per_query", "us", Lower, "replay: join_pattern_results", EVAL),
    layer("cloud.dynamodb.batch_put_ns_per_item", "ns", Lower, "replay: KvStore::batch_put with pre-encoded batches", &[("host_ops_per_s", "ingest_cold"), ("host_peak_rss_mb", "ingest_cold")]),
    layer("cloud.dynamodb.batch_get_ns_per_key", "ns", Lower, "replay: KvStore::batch_get over the stored hash keys", LOOKUP_HOST),
    layer("cloud.dynamodb.batch_delete_ns_per_key", "ns", Lower, "replay: KvStore::batch_delete", CHURN),
    layer("cloud.dynamodb.drop_ms", "ms", Lower, "replay: dropping the four scratch stores", &[("host_ops_per_s", "ingest_cold"), ("host_peak_rss_mb", "ingest_cold")]),
    layer("cloud.dynamodb.write_share", "share", Lower, "items written and keys deleted x replayed batch_put / batch_delete cost", WRITES),
    layer("cloud.s3.put_ns", "ns", Lower, "replay: S3::put", INGEST),
    layer("cloud.s3.get_ns", "ns", Lower, "replay: S3::get", &[("host_ops_per_s", "query_scan")]),
    layer("cloud.s3.share", "share", Lower, "S3 requests counted x replayed put / get cost", &[("host_ops_per_s", "query_scan")]),
    layer("cloud.sqs.roundtrip_ns", "ns", Lower, "replay: Sqs::send + receive + delete", STORM),
    layer("cloud.sqs.share", "share", Lower, "SQS requests counted x a third of the replayed round trip", STORM),
    layer("cloud.sim.ns_per_event", "ns", Lower, "replay: a bare Engine stepping no-op actors through a fixed schedule", SIM),
    layer("cloud.service_calls", "count", Lower, "count: S3 + key-value + SQS requests of the window", COST),
    layer("cloud.kv.put_units", "count", Lower, "count: billed write units of the window", COST),
    layer("cloud.kv.get_units", "count", Lower, "count: billed read units of the window", COST),
    layer("cloud.kv.throttled", "count", Lower, "count: throttled (retried) key-value requests of the window", COST),
    layer("cloud.sqs.redelivered", "count", Lower, "count: messages redelivered after a lease expired", COST),
    layer("cloud.cost.kv_usd", "usd", Lower, "count: CostReport.kv of the window (Figure 12)", COST),
    layer("cloud.cost.s3_usd", "usd", Lower, "count: CostReport.s3 of the window", COST),
    layer("cloud.cost.ec2_usd", "usd", Lower, "count: CostReport.ec2 of the window", COST),
    layer("cloud.cost.sqs_usd", "usd", Lower, "count: CostReport.sqs of the window", COST),
    layer("cloud.cost.egress_usd", "usd", Lower, "count: CostReport.egress of the window", COST),
    layer("cloud.obs.spans_per_op", "count", Lower, "count: recorder spans per arrival at 4 q/s", &[("host_ops_per_s", "storm_open_loop"), ("host_peak_rss_mb", "storm_open_loop")]),
    layer("cloud.obs.record_overhead_pct", "%", Lower, "replay: a pass of the ten queries on a scratch LUP warehouse with host.record on vs off", STORM),
    layer("obs.latency.extract_ms", "ms", Lower, "direct: spans() + query_latencies per iteration", STORM),
    layer("obs.latency.share", "share", Lower, "direct: the same, over the on-clock time", STORM),
    layer("core.warehouse.new_ms", "ms", Lower, "direct: Warehouse::new per iteration", INGEST),
    layer("core.warehouse.upload_ms", "ms", Lower, "direct: upload_documents per iteration", WRITES),
    by_strategy("core.warehouse.build_index_ms", "ms", Lower, "direct: build_index per iteration", WRITES),
    by_strategy("core.warehouse.drop_ms", "ms", Lower, "direct: dropping the warehouse per iteration", &[("host_ops_per_s", "ingest_cold"), ("host_peak_rss_mb", "ingest_cold")]),
    layer("core.warehouse.drop_share", "share", Lower, "direct: teardown over the on-clock time", INGEST),
    layer("core.warehouse.delete_documents_ms", "ms", Lower, "direct: delete_documents per iteration", CHURN),
    layer("core.warehouse.run_workload_ms", "ms", Lower, "direct: run_workload / run_workload_open_loop per iteration", &[("host_ops_per_s", "churn_mixed"), ("host_ops_per_s", "storm_open_loop")]),
    by_strategy("core.warehouse.run_query_ms", "ms", Lower, "direct: run_query per pass", &[("host_ops_per_s", "query_indexed"), ("host_op_ms", "query_indexed")]),
    layer("core.warehouse.run_query_no_index_ms", "ms", Lower, "direct: run_query_no_index per pass", &[("host_ops_per_s", "query_scan"), ("host_op_ms", "query_scan")]),
    layer("core.warehouse.op_p95_ms", "ms", Lower, "direct: p95 of the op call's host time; 0 under 200 samples (ten must lie beyond)", &[("host_op_ms", "*")]),
    layer("core.warehouse.op_samples", "count", Higher, "count: op calls timed", &[("host_op_ms", "*")]),
    layer("core.residual_ms", "ms", Lower, "direct spans per iteration - every replayed layer: engine heap, actors, queue models, per-call prewarm_parses, clones", SIM),
    layer("core.residual_share", "share", Lower, "the same, over the on-clock time", SIM),
    layer("core.host_ns_per_service_call", "ns", Lower, "residual / service calls of the timed phase", SIM),
    layer("core.harness_share", "share", Lower, "on-clock time no span covers (the harness itself); spans cover the rest", OPS_ALL),
    layer("core.iterations", "count", Higher, "count: timed iterations", OPS_ALL),
    layer("core.iteration_ms", "ms", Lower, "direct: on-clock time of an iteration, lower decile", OPS_ALL),
    layer("trace.overhead_pct", "%", Lower, "(traced - untraced iteration) / untraced, lower decile of each; trace mode alternates them", OPS_ALL),
    layer("core.build.virt_extract_s", "s", Lower, "count: IndexBuildReport.avg_extraction_time, summed over the window's builds (Table 4)", &[("virt_makespan_s", "ingest_cold")]),
    layer("core.build.virt_upload_s", "s", Lower, "count: IndexBuildReport.avg_upload_time, summed over the window's builds (Table 4)", &[("virt_makespan_s", "ingest_cold")]),
    layer("core.query.virt_lookup_ms", "ms", Lower, "count: QueryPhases.lookup_get, mean per query (Figure 9)", LOOKUP_VIRT),
    layer("core.query.virt_plan_ms", "ms", Lower, "count: QueryPhases.plan, mean per query", LOOKUP_VIRT),
    layer("core.query.virt_transfer_eval_ms", "ms", Lower, "count: QueryPhases.transfer_eval, mean per query", &[("virt_makespan_s", "query_scan"), ("virt_op_p95_ms", "query_indexed")]),
    layer("core.query.docs_fetched_per_query", "count", Lower, "count: QueryExecution.docs_fetched, mean per query", &[("virt_usd_per_1k_ops", "query_indexed"), ("host_op_ms", "query_indexed")]),
    layer("core.virt_op_p50_ms", "ms", Lower, "count: nearest-rank median of the window's virtual latencies (with a Zipf mix it sits between two queries' service times and jumps between seeds, so it is not gated)", &[("virt_op_p95_ms", "*")]),
    layer("core.index_bytes_per_corpus_byte", "ratio", Lower, "count: raw + overhead bytes of the measured index / corpus bytes; ingest sums the four strategies", &[("virt_usd_per_1k_ops", "ingest_cold"), ("virt_usd_per_1k_ops", "churn_mixed")]),
    layer("core.storm.max_rate_qps", "1/s", Higher, "count: highest of 1, 2, 4, 8 q/s whose p95 <= 3000 ms over all arrivals and p90 over the last 100, lower rates passing too", &[("virt_op_p95_ms", "storm_open_loop")]),
    layer("core.storm.virt_p95_ms.r1", "ms", Lower, "count: p95 per-arrival latency at 1 q/s", &[("virt_op_p95_ms", "storm_open_loop")]),
    layer("core.storm.virt_p95_ms.r2", "ms", Lower, "count: p95 per-arrival latency at 2 q/s", &[("virt_op_p95_ms", "storm_open_loop")]),
    layer("core.storm.virt_p95_ms.r4", "ms", Lower, "count: p95 per-arrival latency at 4 q/s", &[("virt_op_p95_ms", "storm_open_loop")]),
    layer("core.storm.virt_p95_ms.r8", "ms", Lower, "count: p95 per-arrival latency at 8 q/s", &[("virt_op_p95_ms", "storm_open_loop")]),
];

/// Metric-name suffixes of the four strategies, in `Strategy::ALL` order.
pub const STRATEGY_SUFFIXES: [&str; 4] = ["lu", "lup", "lui", "2lupi"];

/// Names of the shares that together account for an iteration.
pub const SHARES: [&str; 12] = [
    "xml.parser.share",
    "index.strategy.extract_share",
    "index.store.encode_share",
    "cloud.dynamodb.write_share",
    "index.lookup.share",
    "pattern.twig.eval_share",
    "cloud.s3.share",
    "cloud.sqs.share",
    "core.warehouse.drop_share",
    "obs.latency.share",
    "core.residual_share",
    "core.harness_share",
];

/// Every per-layer metric name with its row, per-strategy rows expanded.
pub fn per_layer_names() -> Vec<(String, &'static PerLayer)> {
    let mut out = Vec::new();
    for row in PER_LAYER {
        if row.per_strategy {
            for s in STRATEGY_SUFFIXES {
                out.push((format!("{}.{s}", row.name), row));
            }
        } else {
            out.push((row.name.to_string(), row));
        }
    }
    out
}

fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

/// Checks the tables against the benchmark contract: name and unit
/// charsets, counts, unique names, bounds, and that every per-layer row
/// names an end-to-end metric and a workload that exist.
pub fn validate() -> Result<(), String> {
    let mut seen = std::collections::BTreeSet::new();
    let mut name = |n: &str| {
        if !valid_name(n) {
            return Err(format!("bad name `{n}`"));
        }
        if !seen.insert(n.to_string()) {
            return Err(format!("name `{n}` used twice"));
        }
        Ok(())
    };
    if !(2..=8).contains(&Workload::ALL.len()) {
        return Err("2 to 8 workloads".into());
    }
    for w in Workload::ALL {
        name(w.name())?;
        if w.why().len() > 200 || w.why().contains('\n') {
            return Err(format!(
                "why of `{}` is not one line of at most 200",
                w.name()
            ));
        }
    }
    if !(1..=16).contains(&END_TO_END.len()) {
        return Err("1 to 16 end-to-end metrics".into());
    }
    for m in END_TO_END {
        name(m.name)?;
        if !valid_unit(m.unit) {
            return Err(format!("bad unit `{}` of `{}`", m.unit, m.name));
        }
        if !(m.bound > 0.0 && m.bound <= 0.25) {
            return Err(format!("bound of `{}` outside (0, 0.25]", m.name));
        }
    }
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s");
    if !setup.is_some_and(|m| m.unit == "s" && m.better == Better::Lower) {
        return Err("setup_s must be an end-to-end metric in s, lower is better".into());
    }
    let rows = per_layer_names();
    if !(1..=128).contains(&rows.len()) {
        return Err(format!(
            "{} per-layer metrics, 1 to 128 allowed",
            rows.len()
        ));
    }
    for (n, row) in &rows {
        name(n)?;
        if !valid_unit(row.unit) {
            return Err(format!("bad unit `{}` of `{n}`", row.unit));
        }
        if row.moves.is_empty() {
            return Err(format!("`{n}` predicts no end-to-end metric"));
        }
        for (metric, workload) in row.moves {
            if !END_TO_END.iter().any(|m| m.name == *metric) {
                return Err(format!("`{n}` names unknown end-to-end metric `{metric}`"));
            }
            if *workload != "*" && Workload::parse(workload).is_none() {
                return Err(format!("`{n}` names unknown workload `{workload}`"));
            }
        }
    }
    for share in SHARES {
        if !rows.iter().any(|(n, _)| n == share) {
            return Err(format!("share `{share}` is not a per-layer metric"));
        }
    }
    Ok(())
}

/// `BENCHMARK.json`, exactly the keys the contract names.
pub fn benchmark_json() -> Value {
    let strs = |items: &[&str]| Value::Arr(items.iter().map(|s| Value::str(*s)).collect());
    Value::obj([
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Value::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Value::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| {
                        Value::obj([("name", Value::str(w.name())), ("why", Value::str(w.why()))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.name())),
                            ("bound", Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                per_layer_names()
                    .into_iter()
                    .map(|(name, row)| {
                        Value::obj([
                            ("name", Value::Str(name)),
                            ("unit", Value::str(row.unit)),
                            ("better", Value::str(row.better.name())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tables_meet_the_contract() {
        validate().unwrap();
        assert!(per_layer_names().len() <= 128);
        assert!(END_TO_END.len() <= 16);
    }

    #[test]
    fn the_validator_rejects_bad_names_and_units() {
        assert!(valid_name("core.warehouse.drop_ms.2lupi"));
        assert!(!valid_name(""));
        assert!(!valid_name(".leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("µs"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("ops/s") && valid_unit("%") && valid_unit("1/s"));
        assert!(!valid_unit("virtual s") && !valid_unit("") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn benchmark_json_is_generated_from_the_tables() {
        let generated = benchmark_json().render_pretty();
        amada_obs::validate_json(&generated).unwrap();
        assert!(generated.len() <= 64 * 1024);
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed, generated,
            "regenerate with `amada-benchmark spec > BENCHMARK.json`"
        );
    }
}

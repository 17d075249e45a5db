//! Per-layer numbers, measured from outside the program.
//!
//! The benchmark may not put spans inside the crates it measures, so each
//! layer's cost comes from a timed *replay*: the run's own inputs pushed
//! through the layer's public functions on scratch instances
//! (`DynamoDb::new`, `S3::new`, `Sqs::new`, `ExtractCache::default`, a
//! scratch index written with the same public calls the loader makes) —
//! never on the measured warehouse. Multiplying the replayed unit costs by
//! the units of work the measured run reported attributes its host time to
//! layers; what no layer explains is `core.residual`.
//!
//! Replay is single-threaded and runs after the timed phase.

use crate::harness::{strategy_index, Measured, Metric, Metrics, Work};
use crate::host::{host_ns, metric_name, Call};
use crate::inputs::Inputs;
use crate::spec::{per_layer_names, STRATEGY_SUFFIXES};
use crate::stats::{nearest_rank, steady, supported_percentile};
use amada_cloud::{
    Actor, DynamoConfig, DynamoDb, Engine, KvBackend, KvItem, KvStore, SimDuration, SimTime,
    StepResult, World, S3,
};
use amada_core::{Warehouse, WarehouseConfig};
use amada_index::{
    entry_item_keys, extract, lookup_query, retract_keys, stale_keys, store, ExtractCache,
    ExtractOptions, IndexEntry, Strategy, UuidGen, TABLE_MAIN,
};
use amada_pattern::{evaluate_pattern_twig, join_pattern_results, parse_query};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;

/// Runs `f` once; returns its result and host nanoseconds.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = host_ns();
    let out = f();
    (out, (host_ns() - start) as f64)
}

/// Host nanoseconds of `f`: the lower decile of `reps` runs (the fastest of up to ten).
fn steady_ns<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| timed(|| black_box(f())).1).collect();
    steady(&samples)
}

/// Replayed unit costs and exact counts of every layer.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    pub threads: usize,
    pub gen_mb_per_s: f64,
    pub parse_mb_per_s: f64,
    pub parse_ns_per_doc: f64,
    /// By `Strategy::ALL` position.
    pub extract_ns_per_entry: [f64; 4],
    pub entries_per_doc: [f64; 4],
    pub encode_ns_per_item: [f64; 4],
    pub put_ns_per_item: [f64; 4],
    pub index_bytes_per_corpus_byte: [f64; 4],
    pub lookup_us: [Vec<f64>; 4],
    pub get_ops_per_query: [f64; 4],
    pub candidates_per_result_doc: [f64; 4],
    /// Pooled over the four strategies.
    pub encode_ns_per_item_all: f64,
    pub items_per_entry: f64,
    pub put_ns_per_item_all: f64,
    pub get_ns_per_key: f64,
    pub delete_ns_per_key: f64,
    pub drop_ms: f64,
    pub retract_ns_per_key: f64,
    pub decode_mids_per_s: f64,
    pub parse_query_us: f64,
    /// By query position.
    pub eval_us_per_doc: Vec<f64>,
    pub join_us: Vec<f64>,
    pub s3_put_ns: f64,
    pub s3_get_ns: f64,
    pub sqs_roundtrip_ns: f64,
    pub sim_ns_per_event: f64,
    pub cache_probe_ns: f64,
    pub prewarm_efficiency: f64,
    pub record_overhead_pct: f64,
}

/// A no-op actor: wakes `left` more times, a millisecond apart.
struct Tick {
    left: u32,
}

impl Actor for Tick {
    fn step(&mut self, now: SimTime, _: &mut World) -> StepResult {
        if self.left == 0 {
            return StepResult::Done;
        }
        self.left -= 1;
        StepResult::NextAt(now + SimDuration::from_millis(1))
    }
}

impl Replay {
    pub fn measure(inputs: &Inputs) -> Replay {
        let mut r = Replay {
            threads: amada_par::num_threads(),
            ..Replay::default()
        };
        r.generator_and_parser(inputs);
        r.scratch_indexes(inputs);
        r.patterns(inputs);
        r.services(inputs);
        r.cache_and_prewarm(inputs);
        r.recorder(inputs);
        r
    }

    /// `xmark.gen`, `xml.parser`.
    fn generator_and_parser(&mut self, inputs: &Inputs) {
        let docs = inputs.corpus.len() as f64;
        let corpus_mb = inputs.corpus_bytes as f64 / 1e6;
        let cfg = Inputs::corpus_config(inputs.seed, &inputs.scale);
        let gen_ns = steady_ns(3, || amada_xmark::generate_corpus(&cfg));
        self.gen_mb_per_s = corpus_mb / (gen_ns / 1e9);
        let parse_ns = steady_ns(3, || {
            inputs
                .corpus
                .iter()
                .map(|(u, x)| crate::inputs::parse(u, x))
                .collect::<Vec<_>>()
        });
        self.parse_mb_per_s = corpus_mb / (parse_ns / 1e9);
        self.parse_ns_per_doc = parse_ns / docs;
    }

    /// `index.strategy`, `index.store`, `cloud.dynamodb`, `index.lookup`,
    /// `index.codec`, `index.loadutil`: one scratch index per strategy, written
    /// with the public calls the loader makes, then read, retracted and dropped.
    fn scratch_indexes(&mut self, inputs: &Inputs) {
        let opts = ExtractOptions::default();
        let docs = inputs.corpus.len() as f64;
        let query_docs = result_documents(inputs);
        let (mut encode_ns, mut items, mut entries, mut put_ns) = (0.0, 0.0, 0.0, 0.0);
        let (mut get_ns, mut got_keys, mut delete_ns, mut deleted_keys) = (0.0, 0.0, 0.0, 0.0);
        let (mut retract_ns, mut retracted_keys) = (0.0, 0.0);
        for (i, strategy) in Strategy::ALL.into_iter().enumerate() {
            let (per_doc, extract_ns): (Vec<Vec<IndexEntry>>, f64) = timed(|| {
                inputs
                    .parsed
                    .iter()
                    .map(|d| extract(d, strategy, opts))
                    .collect()
            });
            let n_entries = per_doc.iter().map(Vec::len).sum::<usize>() as f64;
            self.extract_ns_per_entry[i] = extract_ns / n_entries;
            self.entries_per_doc[i] = n_entries / docs;

            let mut kv = DynamoDb::new(DynamoConfig::default());
            let profile = kv.profile();
            let (per_table, enc_ns) = timed(|| {
                let mut per_table: BTreeMap<&'static str, Vec<KvItem>> = BTreeMap::new();
                for (doc, doc_entries) in inputs.parsed.iter().zip(&per_doc) {
                    let mut uuids = UuidGen::for_document(doc.uri());
                    for e in doc_entries {
                        per_table
                            .entry(e.table)
                            .or_default()
                            .extend(store::encode_entry(e, &profile, &mut uuids));
                    }
                }
                per_table
            });
            let n_items = per_table.values().map(Vec::len).sum::<usize>() as f64;
            self.encode_ns_per_item[i] = enc_ns / n_items;
            encode_ns += enc_ns;
            items += n_items;
            entries += n_entries;

            // Pre-chunked batches, so the clock sees `batch_put` alone.
            let mut batches: Vec<(&'static str, Vec<KvItem>)> = Vec::new();
            for (table, table_items) in per_table {
                kv.ensure_table(table);
                let mut table_items = table_items.into_iter().peekable();
                while table_items.peek().is_some() {
                    let batch = table_items.by_ref().take(profile.batch_put_limit).collect();
                    batches.push((table, batch));
                }
            }
            let (mut now, this_put_ns) = timed(|| {
                let mut now = SimTime::ZERO;
                for (table, batch) in batches {
                    now = kv
                        .batch_put(now, table, batch)
                        .expect("scratch store accepts puts");
                }
                now
            });
            self.put_ns_per_item[i] = this_put_ns / n_items;
            put_ns += this_put_ns;
            self.index_bytes_per_corpus_byte[i] =
                kv.stats().stored_bytes() as f64 / inputs.corpus_bytes as f64;

            // Look-ups: every query, three times.
            let mut get_ops = 0.0;
            let mut candidates = 0.0;
            for q in &inputs.queries {
                let mut found = None;
                let ns = steady_ns(3, || {
                    let out = lookup_query(&mut kv, now, strategy, opts, q)
                        .expect("scratch store answers look-ups");
                    found = Some((out.get_ops(), out.total_doc_ids, out.ready_at()));
                });
                let (ops, doc_ids, ready) = found.expect("the look-up ran");
                now = ready.max(now);
                self.lookup_us[i].push(ns / 1e3);
                get_ops += ops as f64;
                candidates += doc_ids as f64;
            }
            self.get_ops_per_query[i] = get_ops / inputs.queries.len() as f64;
            self.candidates_per_result_doc[i] = candidates / query_docs.max(1.0);

            // batch_get over every stored hash key; ID decoding (LUI).
            let stored = kv.peek_all();
            let mut keys: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
            for (table, item) in &stored {
                keys.entry(table.as_str())
                    .or_default()
                    .insert(&item.hash_key);
            }
            for (table, table_keys) in keys {
                let table_keys: Vec<String> = table_keys.into_iter().map(String::from).collect();
                for chunk in table_keys.chunks(profile.batch_get_limit) {
                    let ((_, ready), ns) = timed(|| {
                        kv.batch_get(now, table, chunk)
                            .expect("scratch store answers gets")
                    });
                    now = ready;
                    get_ns += ns;
                    got_keys += chunk.len() as f64;
                }
            }
            if strategy == Strategy::Lui {
                let postings: Vec<KvItem> = stored
                    .iter()
                    .filter(|(table, _)| table.as_str() == TABLE_MAIN)
                    .map(|(_, item)| item.clone())
                    .collect();
                let (lists, ns) = timed(|| store::decode_id_postings(&postings, &profile));
                let ids: usize = lists.values().map(|l| l.len()).sum();
                self.decode_mids_per_s = ids as f64 / 1e6 / (ns / 1e9);
            }
            drop(stored);

            // Retraction of the first tenth of the corpus through loadutil,
            // direct batch_delete of the second tenth.
            let tenth = (inputs.parsed.len() / 10).max(1);
            for (doc, doc_entries) in inputs.parsed.iter().zip(&per_doc).take(tenth) {
                let (n, ns) = timed(|| {
                    let old = entry_item_keys(doc_entries, &profile, doc.uri());
                    let stale = stale_keys(&old, &[]);
                    let (_, ready) =
                        retract_keys(&mut kv, now, &stale).expect("scratch store accepts deletes");
                    now = ready;
                    stale.len()
                });
                retract_ns += ns;
                retracted_keys += n as f64;
            }
            for (doc, doc_entries) in inputs.parsed.iter().zip(&per_doc).skip(tenth).take(tenth) {
                let mut per_table: BTreeMap<&'static str, Vec<(String, String)>> = BTreeMap::new();
                for (table, hash, range) in entry_item_keys(doc_entries, &profile, doc.uri()) {
                    per_table.entry(table).or_default().push((hash, range));
                }
                for (table, doc_keys) in per_table {
                    for chunk in doc_keys.chunks(profile.batch_put_limit) {
                        let (ready, ns) = timed(|| {
                            kv.batch_delete(now, table, chunk)
                                .expect("scratch store accepts deletes")
                        });
                        now = ready;
                        delete_ns += ns;
                        deleted_keys += chunk.len() as f64;
                    }
                }
            }
            // Teardown of a store still holding four fifths of the index.
            self.drop_ms += timed(move || drop(kv)).1 / 1e6;
        }
        self.encode_ns_per_item_all = encode_ns / items;
        self.items_per_entry = items / entries;
        self.put_ns_per_item_all = put_ns / items;
        self.get_ns_per_key = get_ns / got_keys;
        self.delete_ns_per_key = delete_ns / deleted_keys;
        self.retract_ns_per_key = retract_ns / retracted_keys;
    }

    /// `pattern.parser`, `pattern.twig`, `pattern.valuejoin`.
    fn patterns(&mut self, inputs: &Inputs) {
        let docs = inputs.corpus.len() as f64;
        let texts = amada_xmark::workload_texts();
        self.parse_query_us = steady_ns(50, || {
            for (_, text) in &texts {
                black_box(parse_query(text).expect("workload queries parse"));
            }
        }) / 1e3
            / texts.len() as f64;
        for q in &inputs.queries {
            let (per_pattern, eval_ns) = timed(|| {
                q.patterns
                    .iter()
                    .map(|p| {
                        inputs
                            .parsed
                            .iter()
                            .flat_map(|d| evaluate_pattern_twig(d, p).0)
                            .collect::<Vec<_>>()
                    })
                    .collect::<Vec<_>>()
            });
            self.eval_us_per_doc.push(eval_ns / 1e3 / docs);
            self.join_us
                .push(steady_ns(5, || join_pattern_results(q, &per_pattern)) / 1e3);
        }
    }

    /// `cloud.s3`, `cloud.sqs`, `cloud.sim`.
    fn services(&mut self, inputs: &Inputs) {
        let docs = inputs.corpus.len() as f64;
        let mut s3 = S3::new();
        s3.create_bucket("replay");
        let bodies: Vec<(&str, Vec<u8>)> = inputs
            .corpus
            .iter()
            .map(|(u, x)| (u.as_str(), x.clone().into_bytes()))
            .collect();
        let (_, ns) = timed(|| {
            for (uri, body) in bodies {
                s3.put(SimTime::ZERO, "replay", uri, body)
                    .expect("bucket exists");
            }
        });
        self.s3_put_ns = ns / docs;
        self.s3_get_ns = steady_ns(20, || {
            for (uri, _) in &inputs.corpus {
                black_box(s3.get(SimTime::ZERO, "replay", uri).expect("object exists"));
            }
        }) / docs;
        let mut sqs = amada_cloud::Sqs::new();
        sqs.create_queue("replay");
        let round_trips = 20_000;
        let (_, ns) = timed(|| {
            let mut now = SimTime::ZERO;
            for i in 0..round_trips {
                now = sqs
                    .send(now, "replay", format!("message {i}"))
                    .expect("queue exists");
                let (msg, t) = sqs
                    .receive(now, "replay", SimDuration::from_secs(30))
                    .expect("queue exists");
                let msg = msg.expect("the message just sent is visible");
                now = sqs.delete(t, "replay", msg.id).expect("queue exists");
            }
        });
        self.sqs_roundtrip_ns = ns / f64::from(round_trips);
        let (actors, steps) = (64u32, 2_000u32);
        let mut engine = Engine::new(World::new(KvBackend::default()));
        for _ in 0..actors {
            engine.spawn(Box::new(Tick { left: steps }), SimTime::ZERO);
        }
        let (_, ns) = timed(|| engine.run());
        self.sim_ns_per_event = ns / f64::from(actors * (steps + 1));
    }

    /// `index.cache`, `par`: warm probes, and the parallel prewarm against the
    /// single-threaded replay of the same work (LUP).
    fn cache_and_prewarm(&mut self, inputs: &Inputs) {
        let opts = ExtractOptions::default();
        let docs = inputs.corpus.len() as f64;
        let bytes: Vec<(String, Vec<u8>)> = inputs
            .corpus
            .iter()
            .map(|(u, x)| (u.clone(), x.clone().into_bytes()))
            .collect();
        let cache = ExtractCache::default();
        for (uri, body) in &bytes {
            cache.note_upload(uri, body);
            cache.extracted(uri, body, Strategy::Lup, opts);
        }
        self.cache_probe_ns = steady_ns(20, || {
            for (uri, body) in &bytes {
                black_box(cache.extracted(uri, body, Strategy::Lup, opts));
                black_box(cache.parsed(uri, body));
            }
        }) / (2.0 * docs);
        let cold = ExtractCache::default();
        for (uri, body) in &bytes {
            cold.note_upload(uri, body);
        }
        let (_, parallel_ns) =
            timed(|| amada_index::prewarm(&cold, &bytes, &[(Strategy::Lup, opts)]));
        let lup = strategy_index(Strategy::Lup);
        let single_ns = (self.parse_ns_per_doc
            + self.extract_ns_per_entry[lup] * self.entries_per_doc[lup])
            * docs;
        self.prewarm_efficiency = single_ns / (self.threads as f64 * parallel_ns);
    }

    /// `cloud.obs`: the recorder's cost on the query path.
    fn recorder(&mut self, inputs: &Inputs) {
        let mut pass_ns = [Vec::new(), Vec::new()];
        let mut pair: Vec<Warehouse> = [false, true]
            .into_iter()
            .map(|record| {
                let mut cfg = WarehouseConfig::with_strategy(Strategy::Lup);
                cfg.host.record = record;
                let mut w = Warehouse::new(cfg);
                w.upload_documents(inputs.documents());
                w.build_index();
                w
            })
            .collect();
        for pass in 0..4 {
            for (w, samples) in pair.iter_mut().zip(&mut pass_ns) {
                let (_, ns) = timed(|| {
                    for q in &inputs.queries {
                        black_box(w.run_query(q));
                    }
                });
                // The first pass warms both.
                if pass > 0 {
                    samples.push(ns);
                }
            }
        }
        let (off, on) = (steady(&pass_ns[0]), steady(&pass_ns[1]));
        self.record_overhead_pct = (on - off) / off * 100.0;
    }

    /// Host seconds each replayed layer explains of the timed phase, from
    /// the units of work the program reported.
    fn attribute(&self, work: &Work) -> [(&'static str, f64); 8] {
        // Parsing and extraction run inside the parallel prewarm.
        let lanes = (self.threads as f64 * self.prewarm_efficiency).max(1.0);
        let by_strategy = |units: &[f64; 4], cost: &[f64; 4]| -> f64 {
            units.iter().zip(cost).map(|(u, c)| u * c).sum()
        };
        let lookups: f64 = work
            .lookups
            .iter()
            .zip(&self.lookup_us)
            .flat_map(|(n, us)| n.iter().zip(us).map(|(n, us)| n * us * 1e3))
            .sum();
        let eval: f64 = (0..work.executions.len())
            .map(|q| {
                work.docs_evaluated[q] * self.eval_us_per_doc[q] * 1e3
                    + work.executions[q] * (self.join_us[q] + self.parse_query_us) * 1e3
            })
            .sum();
        [
            (
                "xml.parser.share",
                work.parsed_docs * self.parse_ns_per_doc / lanes,
            ),
            (
                "index.strategy.extract_share",
                by_strategy(&work.extracted_entries, &self.extract_ns_per_entry) / lanes,
            ),
            (
                "index.store.encode_share",
                by_strategy(&work.items_written, &self.encode_ns_per_item),
            ),
            (
                "cloud.dynamodb.write_share",
                by_strategy(&work.items_written, &self.put_ns_per_item)
                    + work.keys_deleted * self.delete_ns_per_key,
            ),
            ("index.lookup.share", lookups),
            ("pattern.twig.eval_share", eval),
            (
                "cloud.s3.share",
                work.s3_gets * self.s3_get_ns + work.s3_puts * self.s3_put_ns,
            ),
            (
                "cloud.sqs.share",
                work.sqs_requests * self.sqs_roundtrip_ns / 3.0,
            ),
        ]
        .map(|(name, ns)| (name, ns / 1e9))
    }
}

/// Documents with results, summed over the ten queries (Table 5's
/// denominator): the distinct URIs in each query's oracle answer.
fn result_documents(inputs: &Inputs) -> f64 {
    inputs
        .queries
        .iter()
        .map(|q| {
            let (results, _) = amada_pattern::evaluate_query_on_documents(q, inputs.parsed.iter());
            let docs: BTreeSet<&str> = results
                .iter()
                .flat_map(|t| t.uris.iter().map(|u| u.as_ref()))
                .collect();
            docs.len() as f64
        })
        .sum()
}

/// Every per-layer metric of a traced run, by the names `spec::PER_LAYER`
/// lists. A metric the workload has nothing to say about (a call it never
/// makes) is reported as 0.
pub fn per_layer(m: &Measured, r: &Replay) -> Metrics {
    /// Values by metric name, with the samples behind each.
    #[derive(Default)]
    struct Table(BTreeMap<String, (f64, usize)>);
    impl Table {
        fn put(&mut self, name: &str, value: f64) {
            self.put_n(name, value, 1);
        }
        fn put_n(&mut self, name: &str, value: f64, samples: usize) {
            self.0.insert(name.to_string(), (value, samples));
        }
        fn per_strategy(&mut self, name: &str, v: &[f64; 4]) {
            for (suffix, x) in STRATEGY_SUFFIXES.iter().zip(v) {
                self.put(&format!("{name}.{suffix}"), *x);
            }
        }
    }
    let mut t = Table::default();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    // Replayed unit costs and exact counts.
    t.put("xmark.gen.mb_per_s", r.gen_mb_per_s);
    t.put("xml.parser.mb_per_s", r.parse_mb_per_s);
    t.per_strategy(
        "index.strategy.extract_ns_per_entry",
        &r.extract_ns_per_entry,
    );
    t.per_strategy("index.strategy.entries_per_doc", &r.entries_per_doc);
    t.put("par.prewarm_efficiency", r.prewarm_efficiency);
    t.put("index.store.encode_ns_per_item", r.encode_ns_per_item_all);
    t.put("index.store.items_per_entry", r.items_per_entry);
    t.per_strategy(
        "index.store.bytes_per_corpus_byte",
        &r.index_bytes_per_corpus_byte,
    );
    t.put("index.cache.probe_ns", r.cache_probe_ns);
    let lookup_means: [f64; 4] = std::array::from_fn(|i| mean(&r.lookup_us[i]));
    t.per_strategy("index.lookup.host_us_per_query", &lookup_means);
    t.per_strategy("index.lookup.get_ops_per_query", &r.get_ops_per_query);
    t.per_strategy(
        "index.lookup.candidates_per_result_doc",
        &r.candidates_per_result_doc,
    );
    t.put("index.codec.decode_mids_per_s", r.decode_mids_per_s);
    t.put("index.loadutil.retract_ns_per_key", r.retract_ns_per_key);
    t.put("pattern.parser.us_per_query", r.parse_query_us);
    t.put("pattern.twig.eval_us_per_doc", mean(&r.eval_us_per_doc));
    t.put("pattern.valuejoin.us_per_query", mean(&r.join_us));
    t.put(
        "cloud.dynamodb.batch_put_ns_per_item",
        r.put_ns_per_item_all,
    );
    t.put("cloud.dynamodb.batch_get_ns_per_key", r.get_ns_per_key);
    t.put(
        "cloud.dynamodb.batch_delete_ns_per_key",
        r.delete_ns_per_key,
    );
    t.put("cloud.dynamodb.drop_ms", r.drop_ms);
    t.put("cloud.s3.put_ns", r.s3_put_ns);
    t.put("cloud.s3.get_ns", r.s3_get_ns);
    t.put("cloud.sqs.roundtrip_ns", r.sqs_roundtrip_ns);
    t.put("cloud.sim.ns_per_event", r.sim_ns_per_event);
    t.put("cloud.obs.record_overhead_pct", r.record_overhead_pct);

    // Exact counts of the window.
    let cloud = &m.obs.cloud;
    t.put("cloud.service_calls", cloud.service_calls as f64);
    t.put("cloud.kv.put_units", cloud.kv_put_units as f64);
    t.put("cloud.kv.get_units", cloud.kv_get_units as f64);
    t.put("cloud.kv.throttled", cloud.kv_throttled as f64);
    t.put("cloud.sqs.redelivered", cloud.sqs_redelivered as f64);
    for (name, pico) in ["kv", "s3", "ec2", "sqs", "egress"]
        .iter()
        .zip(cloud.cost_pico)
    {
        t.put(&format!("cloud.cost.{name}_usd"), pico as f64 / 1e12);
    }
    let cache = &m.cache_delta;
    let probes = cache.parse_hits + cache.parse_misses + cache.extract_hits + cache.extract_misses;
    t.put(
        "index.cache.hit_rate",
        (cache.parse_hits + cache.extract_hits) as f64 / probes.max(1) as f64,
    );

    // Direct spans: host milliseconds per iteration, lower decile.
    let iterations = &m.rec.iterations;
    for (call, strategies) in [
        (Call::New, false),
        (Call::Upload, false),
        (Call::Prewarm, false),
        (Call::BuildIndex, true),
        (Call::Drop, true),
        (Call::DeleteDocuments, false),
        (Call::RunWorkload, false),
        (Call::RunQuery, true),
        (Call::RunQueryNoIndex, false),
        (Call::LatencyExtract, false),
    ] {
        if strategies {
            for s in Strategy::ALL {
                t.put(
                    &metric_name((call, Some(s))),
                    m.call_ms(|k| k == (call, Some(s))),
                );
            }
        } else {
            t.put(&metric_name((call, None)), m.call_ms(|k| k.0 == call));
        }
    }
    let op_ms: Vec<f64> = m
        .rec
        .op_samples
        .iter()
        .map(|(_, ns)| *ns as f64 / 1e6)
        .collect();
    t.put(
        "core.warehouse.op_p95_ms",
        supported_percentile(&op_ms, 0.95).unwrap_or(0.0),
    );
    t.put_n("core.warehouse.op_samples", op_ms.len() as f64, op_ms.len());
    let iteration_ms: Vec<f64> = m.iteration_s().iter().map(|s| s * 1e3).collect();
    t.put_n("core.iterations", iterations.len() as f64, iterations.len());
    t.put_n("core.iteration_ms", steady(&iteration_ms), iterations.len());
    let (traced, untraced) = m.traced_vs_untraced_s();
    t.put(
        "trace.overhead_pct",
        if untraced > 0.0 {
            (traced - untraced) / untraced * 100.0
        } else {
            0.0
        },
    );

    // Shares of the timed phase: replayed layers, direct teardown and
    // latency extraction, the residual no layer explains, the harness.
    let on_clock: f64 = iterations
        .iter()
        .map(|it| it.on_clock_ns as f64 / 1e9)
        .sum();
    let covered: f64 = iterations
        .iter()
        .map(|it| it.covered_ns() as f64 / 1e9)
        .sum();
    let direct = |call: Call| -> f64 {
        iterations
            .iter()
            .map(|it| it.ns_of(|k| k.0 == call) as f64 / 1e9)
            .sum()
    };
    let (teardown, latency) = (direct(Call::Drop), direct(Call::LatencyExtract));
    let attributed = r.attribute(&m.obs.work);
    let explained: f64 = attributed.iter().map(|(_, s)| s).sum();
    let residual = covered - teardown - latency - explained;
    for (name, seconds) in attributed {
        t.put(name, seconds / on_clock);
    }
    t.put("core.warehouse.drop_share", teardown / on_clock);
    t.put("obs.latency.share", latency / on_clock);
    t.put("core.residual_share", residual / on_clock);
    t.put("core.harness_share", (on_clock - covered) / on_clock);
    t.put(
        "core.residual_ms",
        residual * 1e3 / iterations.len().max(1) as f64,
    );
    t.put(
        "core.host_ns_per_service_call",
        residual * 1e9 / m.obs.work.service_calls.max(1.0),
    );

    let lat_ms: Vec<f64> = m
        .obs
        .virt
        .latencies_us
        .iter()
        .map(|us| *us as f64 / 1e3)
        .collect();
    t.put_n(
        "core.virt_op_p50_ms",
        nearest_rank(&lat_ms, 0.50),
        lat_ms.len(),
    );

    // What the workload itself reported for its window.
    for (name, value) in &m.obs.extras {
        t.put(name, *value);
    }

    per_layer_names()
        .into_iter()
        .map(|(name, row)| {
            let (value, samples) = t.0.get(&name).copied().unwrap_or((0.0, 0));
            (
                name,
                Metric {
                    value,
                    unit: row.unit,
                    samples,
                },
            )
        })
        .collect()
}

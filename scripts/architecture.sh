#!/usr/bin/env bash
# The "One …" architecture rules: each design decision that was said twice
# and is now said once gets a rule that fails when the second copy comes
# back. Plain greps over the non-test source (`non_test_lines.sh --source`),
# every line a `test "$(… | grep -c …)" -eq N` so that any of them fails the
# rule under `bash -e` (a non-final `! grep` cannot).
#
#   scripts/architecture.sh                  every rule
#   scripts/architecture.sh one_strategy     the named rules only
#   bash -x scripts/architecture.sh <rule>   which line of a broken rule
set -euo pipefail
cd "$(dirname "$0")/.."

src=$(scripts/non_test_lines.sh --source)

# DynamoDB and SimpleDB are two services of one store: `KvBackend` names
# which one (its rates and latency are constants of the service's module),
# and `KvStore` is the one concrete store. A store trait, a service trait,
# a store generic over its service, a boxed store, amada-check's own
# backend enum or the tuning wrapper is a second description coming back.
# A table is provisioned where its store is made — `Warehouse::new` and
# `index_documents` — not at each use.
one_index_store() {
    test "$(grep -cE 'trait (KvStore|Service)\b' <<<"$src")" -eq 0
    test "$(grep -cE 'dyn KvStore|Store<|PhantomData|KvBackend::open' <<<"$src")" -eq 0
    test "$(grep -cE 'pub struct KvStore\b' <<<"$src")" -eq 1
    test "$(grep -E '^crates/check/src/' <<<"$src" | grep -cE 'enum Backend\b')" -eq 0
    test "$(grep -c 'TunedKvStore' <<<"$src")" -eq 0
    test "$(grep -cF 'ensure_table(' <<<"$src")" -eq 3
    test "$(grep -F '.ensure_table(' <<<"$src" | grep -cE '^crates/(core/src/warehouse|index/src/loadutil)\.rs:')" -eq 2
}

# Beside the hash key and the URI it shares, a stored item is one heap
# block the encoder writes an entry's values straight into: an owned value
# vector in the store or the encoder is the allocation-per-value item
# coming back, and the block is built and read in safe Rust.
one_block_per_stored_item() {
    test "$(grep -E '^crates/cloud/src/(kv|store)\.rs:' <<<"$src" | grep -cF 'Vec<KvValue>')" -eq 0
    test "$(sed -n '/fn encode_entry_into(/,/^}/p' crates/index/src/store.rs | grep -cF 'Vec<KvValue>')" -eq 0
    test "$(grep -cF 'fn encode_entry_into(' crates/index/src/store.rs)" -eq 1
    test "$(grep -cE '\bunsafe\b' <<<"$src")" -eq 0
}

# From `batch_get` to the result a URI is the `Arc<str>` the fetched items
# hold: a `String`-keyed candidate set or a per-row copy in the look-up, or
# owned URI vectors in the query core, is the clone-per-hop read path
# coming back.
shared_uris_on_the_read_path() {
    test "$(grep -E '^crates/index/src/(lookup|store)\.rs:' <<<"$src" | grep -cE 'BTreeSet<String>|BTreeMap<String|uri\.to_string\(\)')" -eq 0
    test "$(grep -E '^crates/core/src/actors\.rs:' <<<"$src" | grep -c 'Vec<Vec<String>>')" -eq 0
}

# One advisor, `advise`, ranks the paper's five flat layouts by deploying
# each on the sample and reading its bill. The old deployment-simulating
# advisor's names, the per-partition plan search, its budget and SLO
# knobs, the live re-advise and the attribution roll-up that fed it, a
# second advisor module, or a model of the warehouse beside the warehouse
# (its scenario, its tolerance, its own fetch clock, cost sums, index
# writes or look-ups) is the fork coming back.
one_advisor() {
    test "$(grep -cE 'advise_churn|StrategyEstimate' <<<"$src")" -eq 0
    test "$(grep -cE 'advise_adaptive|readvise|observed_families|AdaptiveAdvice|query_families|budget_per_month|response_slo' <<<"$src")" -eq 0
    test "$(grep -cE 'pub fn \w*(advise|recommend)' <<<"$src")" -eq 1
    test "$(grep -cE '^crates/core/src/lib\.rs:[0-9]+:(pub )?mod (adv|adaptive)' <<<"$src")" -eq 1
    test "$(grep -cE 'struct Scenario|ESTIMATE_TOLERANCE' <<<"$src")" -eq 0
    test "$(grep -E '^crates/core/src/adaptive\.rs:[0-9]+:' <<<"$src" | grep -cE 'fetch_timeline\(|CostModel|crate::cost|cost::|PRICES|write_entries\(|lookup_pattern_in\(')" -eq 0
}

# Both module cores embed one `Worker` whose `receive` is the only place a
# module queue is received from, every client's throttle handling is a
# `retry::Retry`, and every pool is the static one `run_pool` launches
# before the engine starts: backoff arithmetic or a retry budget read
# outside `retry.rs`, a second receive loop, an autoscale option (loader or
# query pool), its controller, drain signal, scale events, depth probe,
# mid-run spawn or burst sender, or the structural join is a copy coming
# back.
one_queue_worker_one_throttle_step() {
    core=$(grep -E '^crates/core/src/' <<<"$src")
    test "$(grep -vE '^crates/core/src/retry\.rs:' <<<"$core" | grep -cE 'max_attempts|\.backoff\(|backoff_linear\(')" -eq 0
    test "$(grep -E '^crates/core/src/actors\.rs:' <<<"$core" | grep -cF 'sqs.receive(')" -eq 1
    test "$(grep -cE 'loader_autoscale|structural_join|enum Backoff' <<<"$src")" -eq 0
    test "$(grep -cE 'AutoscaleController|AutoscalePolicy|DrainSignal|ScaleEvent|query_autoscale|spawn_actor|pending_spawns|depth_polls|run_workload_bursts' <<<"$src")" -eq 0
}

# Which items a document version stores, in which tables and batches, and
# which stale keys are deleted after them, is said once — by
# `amada_index::loadutil::plan_document`; the loader bursts its calls,
# `write_entries` issues them in sequence, `entry_item_keys` counts each
# entry's chunks with the plan's encoder and names the keys. An encoder
# call or a per-document key generator anywhere else in the warehouse's
# crates (amada-check's codec round-trip oracle re-derives on purpose), the
# poll-interval field, the per-query path-trie advisor or the XQuery front
# end is a copy coming back. (`mod summary` is amada-obs's span roll-up;
# only amada-index's is gone.)
one_document_write_plan() {
    warehouse=$(grep -v '^crates/check/' <<<"$src")
    test "$(grep -F 'encode_entry_into(' <<<"$warehouse" | grep -cvE '^crates/index/src/(store|loadutil)\.rs:')" -eq 0
    test "$(grep -F 'UuidGen::for_document' <<<"$warehouse" | grep -cvE '^crates/index/src/loadutil\.rs:')" -eq 0
    test "$(grep -E '^crates/core/src/actors\.rs:' <<<"$warehouse" | grep -cE 'UuidGen|encode_entry_into|into_batches|delete_batches')" -eq 0
    test "$(grep -c 'poll_interval:' <<<"$warehouse")" -eq 0
    test "$(grep -rlE 'PathSummary|StrategyHint|parse_xquery|mod xquery' crates examples README.md | wc -l)" -eq 0
    test "$(grep -c 'mod summary' crates/index/src/lib.rs)" -eq 0
}

# `benchmark/` is the one place host time is measured, and `repro` returns
# every experiment's numbers as a value: a process-wide counter in
# amada-bench, the kernel floors, or a `cargo bench` target is the second
# measurement system coming back.
one_measurement_path() {
    test "$(grep -E '^crates/bench/' <<<"$src" | grep -cE 'static .*Atomic')" -eq 0
    test "$(grep -c 'enforce_floors' <<<"$src")" -eq 0
    test "$(grep -cF '[[bench]]' crates/bench/Cargo.toml)" -eq 0
}

# A warehouse indexes every document under its one configured strategy,
# in the global tables, and an indexed query looks that strategy up with
# `lookup_query` — called once, by the query core; the no-index baseline
# scans. A routing plan, a per-prefix table, a migration between plans, a
# per-partition fan-out or its catalog is the mixed plan coming back.
one_strategy() {
    test "$(grep -cE 'MixedPlan|Placement|lookup_mixed|index_documents_mixed|merge_fan_out|apply_plan|routing_plan|partition_catalog|partition_of|fully_indexed|indexed_strategies' <<<"$src")" -eq 0
    test "$(grep -cE 'routed_entries|StrategyTables|partition_lookup_tables|fn partition_tables|resolve_plan|mixed_plan|pub fn lookup_pattern\(' <<<"$src")" -eq 0
    test "$(grep -E '^crates/core/src/actors\.rs:' <<<"$src" | grep -vE ':[0-9]+:[[:space:]]*//' | grep -c 'lookup_query(')" -eq 1
    test "$(grep -E '^crates/core/src/adaptive\.rs:' <<<"$src" | grep -c 'slowest')" -eq 0
}

# A range key names what its item is — document URI, entry table, entry
# key, chunk number — so a replaced document overwrites what it keeps and
# deletes only what it lost. A generator that steps (a field beside the
# URI's seed, a `&mut self` method), a generator the encoding loop holds
# mutably, or a key derived outside `store.rs` is the positional UUID
# stream coming back: one gained key would again shift every key after it.
range_keys_name_the_entry() {
    store=crates/index/src/store.rs
    test "$(sed -n '/^pub struct UuidGen/,/^}/p' $store | grep -cE '^ +[a-z_]+: ')" -eq 1
    test "$(sed -n '/^impl UuidGen/,/^}/p' $store | grep -c '&mut self')" -eq 0
    test "$(grep -v '^crates/check/' <<<"$src" | grep -c 'mut uuids')" -eq 0
    test "$(grep -E '(^|[^_a-z])range_key\([^)&]' <<<"$src" | grep -cvE "^$store:")" -eq 0
}

# Whether an item of a rebuilt document is written is decided once, in
# `plan_document`, a pure function of the version's write set and the one
# registry entry — the write sets of the versions the store may hold: the
# loader and the front end neither filter a batch, nor look into the
# store, nor compare values, and there is no second map from URI to what
# the store holds. No per-key record of stored values comes back: no value
# digest, no key list read off a write set, no replay flag, and no `&mut`
# into the plan. Its three callers outside `loadutil.rs` are the loader,
# the front end's delete (a plan of no entries) and the advisor's check
# that the store can hold a sample document (a plan against nothing held),
# which compares no values either.
a_rebuild_writes_what_changed() {
    core=$(grep -E '^crates/core/src/(actors|warehouse)\.rs:' <<<"$src" | grep -vE ':[0-9]+:[[:space:]]*//')
    test "$(grep -cE '(puts|batch(es)?|items)\.(retain|drain|iter\(\)\.filter)|kv\.peek|peek_all\(\)|== Some\(value\)' <<<"$core")" -eq 0
    test "$(grep -cE 'value(s)? *[!=]= |values\(\)' <<<"$core")" -eq 0
    test "$(grep -cE 'ValueId|placed_item_keys|attempted' <<<"$src")" -eq 0
    test "$(sed -n '/^pub fn plan_document(/,/^) ->/p' crates/index/src/loadutil.rs | grep -c '&mut')" -eq 0
    test "$(grep -cE 'Map<String, (Held|BTree(Set|Map)<ItemKey)' <<<"$src")" -eq 1
    test "$(grep -cE 'pending_load|fn retract_later' <<<"$src")" -eq 0
    callers=$(grep -F 'plan_document(' <<<"$src" | grep -vE ':[0-9]+:[[:space:]]*//' | grep -vE '^crates/index/src/loadutil\.rs:')
    test "$(grep -c . <<<"$callers")" -eq 3
    for caller in actors warehouse adaptive; do
        test "$(grep -c "^crates/core/src/$caller\.rs:" <<<"$callers")" -eq 1
    done
    test "$(grep -E '^crates/core/src/adaptive\.rs:' <<<"$src" | grep -cE '!= Some\(|contains_key\(|\.get\(\*?k\)')" -eq 0
}

# Each decision has one home: which keys a delete removes, in which
# batches, is the write plan's (batches are cut in `loadutil.rs` alone);
# an instance bills fractional hours (no second billing rule); the
# shrinker writes XML with amada-xml's one writer; and the paper's
# single-strategy look-up is the one `lookup_query`.
each_decision_once() {
    test "$(grep -F 'delete_batches' <<<"$src" | grep -cvE '^crates/index/src/loadutil\.rs:')" -eq 0
    test "$(grep -rlE 'BillingGranularity|set_granularity|ec2_billing' crates examples src tests | wc -l)" -eq 0
    test "$(grep -E '^crates/check/' <<<"$src" | grep -cE 'fn (write_skipping|serialize_without)')" -eq 0
    test "$(grep -c 'doc_partition' <<<"$src")" -eq 0
    test "$(grep -c 'fn lookup_query(' <<<"$src")" -eq 1
}

# Phase 3's clock — candidates dealt round-robin to the instance's cores,
# each core's reads back to back on its own connection, a document
# evaluated once it has arrived — is one function, run by the query
# processor over its GETs. A second
# caller, or a fetch sum divided by the core count, is the serial
# accounting coming back.
one_fetch_timeline() {
    test "$(grep -cF 'fn fetch_timeline' <<<"$src")" -eq 1
    callers=$(grep -F 'fetch_timeline(' <<<"$src" | grep -vF 'fn fetch_timeline' | grep -vE ':[0-9]+:[[:space:]]*//')
    test "$(grep -c . <<<"$callers")" -eq 1
    test "$(grep -c '^crates/core/src/actors\.rs:' <<<"$callers")" -eq 1
    test "$(grep -E '^crates/core/src/actors\.rs:' <<<"$src" | grep -cE '\bserial\b')" -eq 0
}

# A stored document version evaluates each pattern once on the host: the
# memo is the document's `ExtractCache` entry (`evaluated`), asked by the
# query core — the advisor's deployments included — and its miss runs the
# one evaluator built outside amada-pattern. An evaluation anywhere else —
# but the check crate's oracles, which evaluate on purpose — or a private
# memo is the second copy coming back.
one_eval_memo() {
    calls=$(grep -E 'TwigEvaluator::new|evaluate_pattern_twig\(' <<<"$src" | grep -vE '^crates/pattern/src/' | grep -vE ':[0-9]+:[[:space:]]*//')
    test "$(grep -cvE '^crates/(index/src/cache|check/src/oracles)\.rs:' <<<"$calls")" -eq 0
    test "$(grep -c '^crates/index/src/cache\.rs:' <<<"$calls")" -eq 1
    test "$(grep -rl 'EvalMemo' crates src examples tests | wc -l)" -eq 0
}

# A look-up over the very items the last look-up of its pattern read is
# computed once on the host: the memo is `ExtractCache`'s fourth
# (`looked_up`, `memoize_lookup`), asked by `lookup.rs` once every get has
# been issued and billed. A look-up memo outside `cache.rs`, a map, lock or
# static in `lookup.rs`, or a per-thread memo is the second copy coming
# back.
one_lookup_memo() {
    memo=$(grep -E 'struct LookupEntry|type LookupMemo|fn (looked_up|memoize_lookup)\(' <<<"$src")
    test "$(grep -cv '^crates/index/src/cache\.rs:' <<<"$memo")" -eq 0
    test "$(grep -c '^crates/index/src/cache\.rs:' <<<"$memo")" -eq 4
    test "$(grep -c 'thread_local!' <<<"$src")" -eq 0
    lookup=$(grep -E '^crates/index/src/lookup\.rs:' <<<"$src")
    test "$(grep -cE 'HashMap|BTreeMap|HashSet|Mutex|RwLock|OnceLock|[^'"'"']static ' <<<"$lookup")" -eq 0
    test "$(grep -cE '\.(looked_up|memoize_lookup)\(' <<<"$lookup")" -eq 2
}

# The query core reads its inputs where they already lie: a look-up walks
# each key's fetched items as per-document runs through the one run reader
# both backends share (`store.rs`: `PathList`, `read_ids`, which decodes a
# candidate's ID list into a buffer the twig join gallops over),
# and a joined row points at its tuples' `Arc<str>` cells, told apart by
# their digests. The look-up calling a collector, a second in-memory
# postings format (the cut block layer's names), a backend branch in the
# look-up, `String` cells, or cell bytes hashed in the join's emit loop is
# the per-query copy coming back.
read_in_place() {
    lookup=$(grep -E '^crates/index/src/lookup\.rs:' <<<"$src")
    test "$(grep -cE 'decode_id_lists\(|decode_id_postings\(|decode_path_lists\(|supports_binary' <<<"$lookup")" -eq 0
    test "$(grep -cE 'BlockList|BlockCursor|BLOCK_IDS|skip_varint' <<<"$src")" -eq 0
    test "$(grep -E '^crates/pattern/src/(eval|valuejoin)\.rs:' <<<"$src" | grep -cE 'columns: Vec<String>')" -eq 0
    test "$(sed -n '/Emit each distinct row once/,/^}/p' crates/pattern/src/valuejoin.rs | grep -cE '\.hash\(|build_hasher|hash_one')" -eq 0
}

# What does not change between a query's candidates is derived once: a
# memo probe compares its pattern structurally only until it adopts the
# memo's `Arc` (one structural `==` in `cache.rs`), a bucket's listing is
# sorted when a key came or went (`S3::list` sorts only inside the
# listing's fill), an object's ETag waits for its first reader (`Blob::new`
# hashes nothing), and the documents with results are counted over the
# rows' shared URIs. A second structural compare, a sort per listing, a
# hash per put or a string set in the query core is the per-candidate work
# coming back.
query_invariants_once() {
    test "$(grep -E '^crates/index/src/cache\.rs:' <<<"$src" | grep -cF '== *probe.pattern')" -eq 1
    list=$(sed -n '/^    pub fn list(/,/^    }/p' crates/cloud/src/s3.rs)
    test "$(grep -c 'sort' <<<"$list")" -eq 1
    test "$(sed -n '/get_or_insert_with(/,/^        })/p' <<<"$list" | grep -c 'sort')" -eq 1
    blob_new=$(sed -n '/^    pub fn new(bytes: Vec<u8>) -> Blob/,/^    }/p' crates/cloud/src/s3.rs)
    test "$(grep -c 'OnceLock::new()' <<<"$blob_new")" -eq 1
    test "$(grep -c 'content_hash' <<<"$blob_new")" -eq 0
    test "$(grep -E '^crates/core/src/actors\.rs:' <<<"$src" | grep -cF 'BTreeSet<&str>')" -eq 0
}

# A document version's items are encoded once, right after extraction,
# into the write set the cache keeps and the store shares: the cache holds
# no extracted entries, the planner reads keys, values and items off the
# write sets it is given instead of encoding them, and the warehouse hands
# the memo its store's profile. An entry vector in the cache, an encoder
# call in the planner or the DynamoDB-only forms in amada-core is the
# second copy of every stored value coming back.
one_write_set() {
    test "$(grep -E '^crates/index/src/cache\.rs:' <<<"$src" | grep -cF 'Vec<IndexEntry>')" -eq 0
    body=$(sed -n "/^pub fn plan_document(/,/^}/p" crates/index/src/loadutil.rs)
    test "$(grep -c "fn plan_document(" <<<"$body")" -eq 1
    test "$(grep -c 'held: &\[Arc<WriteSet>\]' <<<"$body")" -eq 1
    test "$(grep -cE 'encode_entry(_into)?\(|WriteSet::encode\(|UuidGen' <<<"$body")" -eq 0
    test "$(grep -E '^crates/core/' <<<"$src" | grep -cE '\.extracted\(|(parallel|amada_index)::prewarm\(')" -eq 0
}

# The paper's Table 3 is the one price table, a constant: prices are
# billing-only, and no caller re-prices, so a constructor, a `Default`, a
# table-typed field or parameter (a config field, the recorder's snapshot,
# a price-picking function pointer) or a getter for the recorder's table is
# a setting nobody changes coming back. The unmeasured Google Cloud and
# Windows Azure tables, or a provider label to tell tables apart, are the
# catalog coming back.
one_price_table() {
    test "$(grep -cF 'pub const PRICES: PriceTable' <<<"$src")" -eq 1
    test "$(grep -cE 'fn aws_singapore_2012|Default for PriceTable|fn prices\(' <<<"$src")" -eq 0
    test "$(grep -vF 'pub const PRICES: PriceTable' <<<"$src" | grep -cE ':\s*&?PriceTable\b|\(&?PriceTable\)')" -eq 0
    test "$(grep -rlE 'google_cloud_2012|windows_azure_2012|prices\.provider' crates examples src tests | wc -l)" -eq 0
    test "$(sed -n '/^pub struct PriceTable/,/^}/p' crates/cloud/src/pricing.rs | grep -c 'provider')" -eq 0
}

# Prices reach the bill and nothing else (the paper's Table 1 portability
# claim): the ledger, span bills, the cost formulas, the trace's EC2 lane
# and the span/ledger oracle name the table, and nothing that sets a
# virtual time or an answer does — not the service queues, the clock, the
# work model, the fetch clock or the actors. The file store, the queues
# and the key-value store name a price only as what a request bills.
prices_are_billing_only() {
    test "$(grep -E 'PRICES|PriceTable' <<<"$src" | grep -vcE '^crates/(cloud/src/(pricing|lib|ec2|sim|obs|s3|sqs|store)|core/src/cost|obs/src/trace|check/src/invariants)\.rs:')" -eq 0
    test "$(grep -E '^crates/(cloud/src/(service|clock|workmodel)|core/src/(fetch|actors))\.rs:' <<<"$src" | grep -cE 'PRICES|PriceTable')" -eq 0
    test "$(grep -E '^crates/cloud/src/(s3|sqs|store)\.rs:' <<<"$src" | grep -E 'PRICES|PriceTable|dir\.price|throttled_bill' | grep -vF 'use crate::pricing::PRICES;' | grep -vcE 'billed\((PRICES\.|dir\.price|throttled_bill)|price: PRICES\.|_requests, PRICES\.|throttled_bill: Money,|/// ')" -eq 0
}

# A key-value service serves every table on its one write lane and one
# read lane, as the paper provisions each table as one throughput lane: a
# shard plan, per-shard lanes, a skew-aware planner or a second `serve`
# call in the store is the partitioned store coming back (`ExtractCache`'s
# lock stripes, `shards` / `shard_of` in `cache.rs`, are not this).
one_kv_lane() {
    test "$(grep -cE 'ShardPlan|set_shard_plan|shard_plan|skew_aware_plan|key_frequencies|hottest_keys|shard_hint|by_shard' <<<"$src")" -eq 0
    test "$(grep -E '^crates/cloud/src/store\.rs:' <<<"$src" | grep -cF 'Vec<Lanes>')" -eq 0
    test "$(grep -E '^crates/cloud/src/store\.rs:' <<<"$src" | grep -cF '.serve(')" -eq 1
    test "$(grep -cE '^crates/[a-z]+/src/(lib|experiments/mod)\.rs:[0-9]+:(pub )?mod shard;' <<<"$src")" -eq 0
}

# A query reads each candidate whole with one GET and evaluates it on its
# instance. A fifth strategy filtering inside the file store, an object
# predicate, a scan request or its per-GB price is the storage-side fetch
# mode coming back; a static look-up plan restated beside `lookup.rs` is
# the old `explain` (what a query did is `CostedQuery`'s `Display`).
one_fetch_mode() {
    test "$(grep -cE 'LupPd|ObjectPredicate|ScanPredicate|fn scan\(|st_scan_gb|mod explain' <<<"$src")" -eq 0
}

# A value that every caller leaves at one setting is a constant of the
# module that uses it: the services' rates, a fault rate per service, the
# backoff bounds, the corpus variant mix, the loader pool and the per-ECU
# compute rates (the price table is `one_price_table`'s). A field for one of them is a
# setting nobody changes coming back. The host cache is reached one way,
# `ExtractCache::shared()`, a `&'static`: a handle alias or an `Arc` of it
# threaded through the warehouse and its cores is the second way back.
settings_in_use_are_constants() {
    test "$(grep -cE '(write|read)_(units|bytes)_per_sec|\b(s3|kv|sqs)_rate\b' <<<"$src")" -eq 0
    test "$(grep -cE '\b(base|max)_backoff\b|\b(restructured|sparse)_fraction\b' <<<"$src")" -eq 0
    test "$(grep -cE 'SimpleDbConfig|DocCache|Arc<ExtractCache>' <<<"$src")" -eq 0
    test "$(grep -cE '\bloader_pool\b|\bWorkModel\b|\b[a-z_]+_per_ecu_sec\b|world\.work\b|cfg\.prices\b' <<<"$src")" -eq 0
}

# What only the frozen benchmark (`benchmark/`) keeps alive — DESIGN.md
# lists it under "What only the benchmark keeps alive" — is named by no
# non-test program code outside the item's own module (and its crate's
# re-exports): `DynamoConfig`, `ExtractCache::{note_upload, extracted}`,
# `entry_item_keys` / `stale_keys` / `retract_keys`, `amada_index::prewarm`,
# `S3Stats::scan_requests`, `Warehouse::{prewarm, cache, cache_stats}` and
# `store::decode_id_postings`. A program caller is a second path through
# a surface that stays only for the benchmark's sake.
benchmark_only() {
    code=$(grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' <<<"$src")
    test "$(grep -E '\bDynamoConfig\b' <<<"$code" | grep -cvE '^crates/cloud/src/(dynamodb|lib)\.rs:')" -eq 0
    test "$(grep -E '\b(note_upload|extracted)\(' <<<"$code" | grep -cvE '^crates/index/src/cache\.rs:')" -eq 0
    test "$(grep -E '\b(entry_item_keys|stale_keys|retract_keys)\b' <<<"$code" | grep -cvE '^crates/index/src/(loadutil|lib)\.rs:')" -eq 0
    test "$(grep -E '\bprewarm\b' <<<"$code" | grep -E '\bprewarm\(|::prewarm\b|[{ ]prewarm[,}]' | grep -cvE '^crates/index/src/(parallel|lib)\.rs:|^crates/core/src/warehouse\.rs:')" -eq 0
    test "$(grep -E '^crates/core/src/warehouse\.rs:' <<<"$code" | grep -cE '\b(prewarm|cache|cache_stats)\(')" -eq 3
    test "$(grep -E '\b(cache|cache_stats)\(' <<<"$code" | grep -cvE '^crates/core/src/warehouse\.rs:')" -eq 0
    test "$(grep -E '\bscan_requests\b' <<<"$code" | grep -cvE '^crates/cloud/src/s3\.rs:')" -eq 0
    test "$(grep -E '\bdecode_id_postings\b' <<<"$code" | grep -cvE '^crates/index/src/store\.rs:')" -eq 0
}

rules=(
    one_index_store
    one_block_per_stored_item
    shared_uris_on_the_read_path
    one_advisor
    one_queue_worker_one_throttle_step
    one_document_write_plan
    one_measurement_path
    one_strategy
    range_keys_name_the_entry
    a_rebuild_writes_what_changed
    each_decision_once
    one_fetch_timeline
    one_eval_memo
    one_lookup_memo
    read_in_place
    query_invariants_once
    one_write_set
    one_price_table
    prices_are_billing_only
    one_kv_lane
    one_fetch_mode
    settings_in_use_are_constants
    benchmark_only
)
trap 'test $? -eq 0 || echo "architecture rule broken: $rule" >&2' EXIT
for rule in "${@:-${rules[@]}}"; do
    declare -F "$rule" >/dev/null || {
        echo "no such rule (rules: ${rules[*]})" >&2
        exit 2
    }
    echo "== $rule"
    "$rule"
done

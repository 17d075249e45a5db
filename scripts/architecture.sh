#!/usr/bin/env bash
# The "One …" architecture rules: each design decision that was said twice
# and is now said once gets a rule that fails when the second copy comes
# back. Plain greps over the non-test source (`non_test_lines.sh --source`),
# every line a `test "$(… | grep -c …)" -eq N` so that any of them fails the
# rule under `bash -e` (a non-final `! grep` cannot).
#
#   scripts/architecture.sh                  every rule
#   scripts/architecture.sh one_placement    the named rules only
#   bash -x scripts/architecture.sh <rule>   which line of a broken rule
set -euo pipefail
cd "$(dirname "$0")/.."

src=$(scripts/non_test_lines.sh --source)

# DynamoDB and SimpleDB are two descriptions of one store: a second
# `impl KvStore` outside tests, or the wrapper coming back, is a fork.
one_index_store() {
    test "$(grep -cE 'impl(<[^>]*>)? KvStore for' <<<"$src")" -eq 1
    test "$(grep -c 'TunedKvStore' <<<"$src")" -eq 0
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

# One estimator prices every layout from per-partition micro-executions.
# The deployment-simulating advisor's names, a second advisor module, or an
# advisor that stands up a warehouse per candidate is the fork coming back.
one_advisor() {
    test "$(grep -cE 'advise_churn|StrategyEstimate' <<<"$src")" -eq 0
    test "$(grep -cE '^crates/core/src/lib\.rs:[0-9]+:(pub )?mod (adv|adaptive)' <<<"$src")" -eq 1
    test "$(grep -E '^crates/core/src/adaptive\.rs:[0-9]+:' <<<"$src" | grep -vE ':[0-9]+:[[:space:]]*//' | grep -c 'Warehouse::new')" -eq 0
}

# Both module cores embed one `Worker` whose `receive` is the only place a
# module queue is received from, and every client's throttle handling is a
# `retry::Retry`: backoff arithmetic or a retry budget read outside
# `retry.rs`, a second receive loop, the loader-autoscale option or the
# structural join is a copy coming back.
one_queue_worker_one_throttle_step() {
    core=$(grep -E '^crates/core/src/' <<<"$src")
    test "$(grep -vE '^crates/core/src/retry\.rs:' <<<"$core" | grep -cE 'max_attempts|\.backoff\(|backoff_linear\(')" -eq 0
    test "$(grep -E '^crates/core/src/actors\.rs:' <<<"$core" | grep -cF 'sqs.receive(')" -eq 1
    test "$(grep -cE 'loader_autoscale|structural_join|enum Backoff' <<<"$src")" -eq 0
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

# Which strategy indexes a document, into which partition's tables, is one
# answer — `MixedPlan::placement` — and `Placement::table` alone names a
# partition's table. The plan is warehouse state (`apply_plan`), not a
# configuration field, and the per-pattern fan-out merge is
# `merge_fan_out`. Entries re-routed per entry, a table set handed to the
# look-up, a plan resolved from the configuration, the loader or the front
# end pairing `partition_of` with `strategy_of` by hand, or the advisor
# merging a fan-out itself is a copy coming back.
one_placement() {
    test "$(grep -cE 'routed_entries|StrategyTables|partition_lookup_tables|fn partition_tables|resolve_plan|mixed_plan|pub fn lookup_pattern\(' <<<"$src")" -eq 0
    test "$(grep -F 'partition_table(' <<<"$src" | grep -cvE '^crates/index/src/partition\.rs:')" -eq 0
    test "$(grep -cE 'strategy_of\([^)]*partition_of\(' <<<"$src")" -eq 0
    test "$(grep -E '^crates/core/src/(actors|warehouse)\.rs:' <<<"$src" | grep -cF 'strategy_of(')" -eq 0
    test "$(grep -cF 'fn merge_fan_out' <<<"$src")" -eq 1
    test "$(grep -E '^crates/core/src/adaptive\.rs:' <<<"$src" | grep -cE 'merge_fan_out\(')" -eq 1
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
# `plan_document`, against the one registry entry the front end recorded:
# the loader and the front end neither filter a batch, nor look into the
# store, nor compare values (the front end records them, `plan_document`
# alone reads them back), and there is no second map from URI to what the
# store holds.
a_rebuild_writes_what_changed() {
    core=$(grep -E '^crates/core/src/(actors|warehouse)\.rs:' <<<"$src" | grep -vE ':[0-9]+:[[:space:]]*//')
    test "$(grep -cE '(puts|batch(es)?|items)\.(retain|drain|iter\(\)\.filter)|kv\.peek|peek_all\(\)|ValueId::|== Some\(value\)' <<<"$core")" -eq 0
    test "$(grep -cE 'value(s)? *[!=]= ' <<<"$core")" -eq 0
    test "$(grep -F 'ValueId' <<<"$src" | grep -cvE '^crates/(index/src/(store|loadutil|lib)|core/src/warehouse)\.rs:')" -eq 0
    test "$(grep -cE 'Map<String, (Held|BTree(Set|Map)<ItemKey)' <<<"$src")" -eq 1
    test "$(grep -cE 'pending_load|fn retract_later' <<<"$src")" -eq 0
    test "$(grep -F 'plan_document(' <<<"$src" | grep -vE ':[0-9]+:[[:space:]]*//' | grep -cvE '^crates/index/src/loadutil\.rs:')" -eq 1
}

rules=(
    one_index_store
    one_block_per_stored_item
    shared_uris_on_the_read_path
    one_advisor
    one_queue_worker_one_throttle_step
    one_document_write_plan
    one_measurement_path
    one_placement
    range_keys_name_the_entry
    a_rebuild_writes_what_changed
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

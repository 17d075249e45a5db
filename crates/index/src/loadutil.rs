//! Writing extracted index entries into a key-value store — the storage
//! half of the indexing module. The documents are "batched … in order to
//! minimize the number of calls needed to load the index into DynamoDB"
//! (paper Section 8.1): items are grouped into maximal `batch_put` calls.
//!
//! [`plan_document`] is the one statement of what a document version asks
//! of the store — which items (those the store does not hold already), in
//! which of its [`Placement`]'s tables, cut into which calls, and which
//! stale keys of a replaced version go after them. The warehouse's loader
//! bursts the plan's calls concurrently; [`write_entries`] (the advisor's
//! micro-builds and, through [`crate::index_documents_mixed`], the oracles)
//! issues them one after another. [`placed_item_keys`] (the front end's
//! record of what a version left in the store) makes no item: a range key
//! names its entry and chunk, not a place in the item sequence, so the
//! replay cuts an entry's chunks and derives each key and [`ValueId`].

use crate::partition::Placement;
use crate::store::{encode_entry_into, Only, UuidGen, ValueId};
use crate::strategy::IndexEntry;
use amada_cloud::{KvError, KvItem, KvProfile, KvStore, SimTime};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

/// A full item primary key: `(table, hash_key, range_key)`.
pub type ItemKey = (&'static str, String, String);

/// Metrics of indexing one document (feed the work and cost models).
#[derive(Debug, Clone, Copy, Default)]
pub struct DocIndexing {
    /// Index entries extracted (`(key, document)` pairs).
    pub entries: u64,
    /// Store items written.
    pub items: u64,
    /// API batches issued.
    pub batches: u64,
}

/// What the index store holds for one URI until a rebuild of it completes.
#[derive(Debug, Default)]
pub struct Held {
    /// Every key it may hold, with the value it holds there *now* — `None`
    /// once a write that may or may not have landed has made that unknown.
    pub items: BTreeMap<ItemKey, Option<ValueId>>,
    /// A plan for the stored version has gone out to a loader: the store
    /// may also hold any key of *that* version, which only its bytes name.
    pub attempted: bool,
}

/// The index-store calls that bring one document's placement up to date,
/// each queue in issue order.
#[derive(Debug, Default)]
pub struct WritePlan {
    /// `batch_put` calls: the current version's items whose key is new or
    /// whose value changed, table by table.
    pub puts: VecDeque<(&'static str, Vec<KvItem>)>,
    /// `batch_delete` calls for what the store holds and the version does
    /// not, to issue once the puts have landed (every key stays readable).
    pub deletes: VecDeque<(&'static str, Vec<(String, String)>)>,
    /// Every table a call names — the placement's own, then the ones a
    /// previous placement stranded stale keys in. A write may be the first
    /// to name a table; ensuring it is a free, idempotent host-side call.
    pub tables: Vec<&'static str>,
    /// Items the store already holds, value and all: not made, not put.
    pub unchanged: u64,
}

impl WritePlan {
    /// Items the puts store.
    pub fn items(&self) -> u64 {
        self.puts.iter().map(|(_, batch)| batch.len() as u64).sum()
    }
}

/// Plans the index-store calls for one document version: the `entries`
/// its `placement`'s strategy extracted (`None`, and no entries, when the
/// plan indexes nothing for the document) against what the store `held`
/// for its URI.
///
/// Every entry's items are encoded, in entry order, into their table's
/// vector, each under the range key that names it, and the vectors are cut
/// into batches by moving: from here to the store an item is never cloned.
/// The tables keep the order in which the extraction first names them, the
/// strategy's own — 2LUPI writes `[path, id]` — and the placement names
/// each once, not once per entry. An item `held` records under its key with
/// its value is not made at all; any other held key the version has is put,
/// a held key no item claims is stale and deleted, and either's record is
/// voided — the call may or may not land before the record is next read (a
/// redelivered message plans the same calls). The deletes cover the
/// placement's own tables first, in that order, then — after a plan switch
/// — the previous one's, by name.
///
/// A plan is a promise the store keeps: an item `profile` would reject —
/// an entry key longer than its hash-key limit, say — is the typed error
/// here, before any call is issued.
pub fn plan_document(
    entries: &[IndexEntry],
    placement: Option<Placement<'_>>,
    profile: &KvProfile,
    uri: &str,
    held: Option<&mut Held>,
) -> Result<WritePlan, KvError> {
    // (table as extracted, table as placed, its items)
    let mut per_table: Vec<(&'static str, &'static str, Vec<KvItem>)> = Vec::new();
    let uuids = UuidGen::for_document(uri);
    let mut scratch = Vec::new();
    let mut plan = WritePlan::default();
    // What is held, by range key (one in each of two tables after a move
    // between partitions): what no item claims is stale.
    let mut unclaimed: HashMap<&str, Vec<(&'static str, &str, _)>> = HashMap::new();
    if let Some(held) = held {
        held.attempted = true;
        for ((table, hash, range), value) in &mut held.items {
            let named = unclaimed.entry(range).or_default();
            named.push((*table, hash.as_str(), value));
        }
    }
    // With nothing held every item is new, and none is asked about.
    let compare = !unclaimed.is_empty();
    for e in entries {
        let at = per_table
            .iter()
            .position(|(base, ..)| *base == e.table)
            .unwrap_or_else(|| {
                // Only a placement has entries; it names their table once.
                let table = placement.map_or(e.table, |p| p.table(e.table));
                // About an item per entry: sized once, the vector never
                // regrows among the document's blocks. Blocks refill the
                // buffers a regrowth frees there, but not exactly, and the
                // slivers left in a warehouse's heap cost the read path
                // 12 % (EXPERIMENTS.md, "Loader path").
                per_table.push((e.table, table, Vec::with_capacity(entries.len())));
                per_table.len() - 1
            });
        let (_, table, items) = &mut per_table[at];
        let mut changed = |range: &str, value| {
            let mine = |(t, h, _): &(_, &str, _)| t == table && **h == *e.key;
            let named = unclaimed.get_mut(range);
            let held = named.and_then(|n| Some(n.swap_remove(n.iter().position(mine)?)));
            let Some((.., known)) = held else { return true };
            let same = *known == Some(value);
            *known = same.then_some(value);
            plan.unchanged += u64::from(same);
            !same
        };
        let only = compare.then_some(&mut changed as Only<'_>);
        encode_entry_into(e, profile, &mut scratch, &uuids, items, only);
    }
    for (_, table, items) in per_table {
        items.iter().try_for_each(|item| profile.check(item))?;
        plan.tables.push(table);
        plan.puts
            .extend(into_batches(items, profile.batch_put_limit).map(|batch| (table, batch)));
    }
    let stale = unclaimed.into_iter().flat_map(|(range, held)| {
        held.into_iter().map(move |(table, hash, known)| {
            *known = None; // like a put, a delete may or may not land
            (table, hash.to_string(), range.to_string())
        })
    });
    // Batches are cut in key order, whatever order the map gave.
    let mut stale: Vec<ItemKey> = stale.collect();
    stale.sort_unstable();
    let mut deletes = delete_batches(stale, profile.batch_put_limit);
    let own = |table: &&'static str| plan.tables.iter().position(|t| t == table);
    deletes.sort_by_key(|(table, _)| own(table).unwrap_or(usize::MAX));
    for (table, _) in &deletes {
        if !plan.tables.contains(table) {
            plan.tables.push(table);
        }
    }
    plan.deletes = deletes.into();
    Ok(plan)
}

/// Stores pre-extracted entries under `placement`: [`plan_document`]'s
/// puts, issued one after another (each starts when the previous one is
/// acknowledged).
pub fn write_entries(
    store: &mut dyn KvStore,
    now: SimTime,
    placement: Placement<'_>,
    entries: &[IndexEntry],
    uri: &str,
) -> Result<(DocIndexing, SimTime), KvError> {
    let plan = plan_document(entries, Some(placement), &store.profile(), uri, None)?;
    let metrics = DocIndexing {
        entries: entries.len() as u64,
        items: plan.items(),
        batches: plan.puts.len() as u64,
    };
    for table in plan.tables {
        store.ensure_table(table);
    }
    let mut t = now;
    for (table, batch) in plan.puts {
        t = store.batch_put(t, table, batch)?;
    }
    Ok((metrics, t))
}

/// Splits `items` into batches of at most `limit`, moving every element
/// into an exact-size vector: nothing is cloned on the way to the store.
fn into_batches<T>(items: Vec<T>, limit: usize) -> impl Iterator<Item = Vec<T>> {
    let mut rest = items.into_iter();
    std::iter::from_fn(move || {
        let batch: Vec<T> = rest.by_ref().take(limit).collect();
        (!batch.is_empty()).then_some(batch)
    })
}

/// The `(table, hash_key, range_key)` item keys [`plan_document`]'s puts
/// store for these entries under the root placement — the global tables
/// they were extracted for — in entry order, derived *without* touching
/// the store or making an item.
/// Because a range key names (URI, table, key, chunk), the keys of any
/// version of a document can be reconstructed from its bytes alone;
/// stale-entry retraction is the set difference between an old and a new
/// version's keys — the keys the new version lost, no others.
pub fn entry_item_keys(entries: &[IndexEntry], profile: &KvProfile, uri: &str) -> Vec<ItemKey> {
    let held = placed_item_keys(entries, None, profile, uri);
    held.into_iter().map(|(key, _)| key).collect()
}

/// [`entry_item_keys`] under any placement (`None`: the root's), each key
/// with what its item stores: the same keys, in the tables the placement
/// names — each of the document's tables once, not once per key.
pub fn placed_item_keys(
    entries: &[IndexEntry],
    placement: Option<Placement<'_>>,
    profile: &KvProfile,
    uri: &str,
) -> Vec<(ItemKey, ValueId)> {
    let uuids = UuidGen::for_document(uri);
    let (mut scratch, mut unmade) = (Vec::new(), Vec::new());
    let mut keys = Vec::with_capacity(entries.len());
    let mut named: Vec<(&'static str, &'static str)> = Vec::new();
    for e in entries {
        let table = match named.iter().find(|(base, _)| *base == e.table) {
            Some(&(_, placed)) => placed,
            None => {
                named.push((e.table, placement.map_or(e.table, |p| p.table(e.table))));
                named[named.len() - 1].1
            }
        };
        let mut name = |range: &str, value| {
            keys.push(((table, e.key.to_string(), range.to_string()), value));
            false
        };
        let only: Only<'_> = &mut name;
        encode_entry_into(e, profile, &mut scratch, &uuids, &mut unmade, Some(only));
    }
    keys
}

/// Keys present in `old` but not in `new` — the items a replaced
/// document's previous version left behind, which retraction must delete.
pub fn stale_keys(old: &[ItemKey], new: &[ItemKey]) -> Vec<ItemKey> {
    let fresh: BTreeSet<&ItemKey> = new.iter().collect();
    let mut out: Vec<ItemKey> = old.iter().filter(|k| !fresh.contains(k)).cloned().collect();
    out.sort();
    out.dedup();
    out
}

/// Deletes the given item keys, grouped per table and chunked by the
/// backend's batch limit. Deletes of absent keys are idempotent successes
/// (billed at the backend's minimum), so calling this twice — or racing a
/// redelivered loader message — converges without tombstones. Returns the
/// number of batches issued and the virtual completion time.
pub fn retract_keys(
    store: &mut dyn KvStore,
    now: SimTime,
    keys: &[ItemKey],
) -> Result<(u64, SimTime), KvError> {
    let limit = store.profile().batch_put_limit;
    let mut batches = 0;
    let mut t = now;
    for (table, chunk) in delete_batches(keys.iter().cloned(), limit) {
        store.ensure_table(table);
        batches += 1;
        t = store.batch_delete(t, table, &chunk)?;
    }
    Ok((batches, t))
}

/// Groups item keys per table, in table-name order, and cuts each group
/// into `batch_delete` batches of at most `limit` keys.
pub fn delete_batches(
    keys: impl IntoIterator<Item = ItemKey>,
    limit: usize,
) -> Vec<(&'static str, Vec<(String, String)>)> {
    let mut per_table: BTreeMap<&'static str, Vec<(String, String)>> = BTreeMap::new();
    for (table, hash, range) in keys {
        per_table.entry(table).or_default().push((hash, range));
    }
    per_table
        .into_iter()
        .flat_map(|(table, keys)| into_batches(keys, limit).map(move |batch| (table, batch)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{extract, ExtractOptions, Strategy};
    use amada_cloud::{DynamoDb, SimpleDb};
    use amada_xml::Document;

    /// Extracts and stores one document's entries.
    fn index_document(
        store: &mut dyn KvStore,
        now: SimTime,
        doc: &Document,
        strategy: Strategy,
        opts: ExtractOptions,
    ) -> Result<(DocIndexing, SimTime), KvError> {
        let entries = extract(doc, strategy, opts);
        write_entries(store, now, Placement::root(strategy), &entries, doc.uri())
    }

    fn doc() -> Document {
        Document::parse_str(
            "d.xml",
            "<painting id=\"1854-1\"><name>The Lion Hunt</name><year>1854</year></painting>",
        )
        .unwrap()
    }

    #[test]
    fn indexing_writes_retrievable_items() {
        let mut store = DynamoDb::default();
        let (m, t) = index_document(
            &mut store,
            SimTime::ZERO,
            &doc(),
            Strategy::Lu,
            ExtractOptions::default(),
        )
        .unwrap();
        assert!(m.entries > 0);
        assert!(m.items >= m.entries);
        assert!(t > SimTime::ZERO);
        let (items, _) = store
            .get(SimTime::ZERO, crate::strategy::TABLE_MAIN, "ename")
            .unwrap();
        assert_eq!(items.len(), 1);
    }

    #[test]
    fn two_lupi_writes_both_tables() {
        let mut store = DynamoDb::default();
        index_document(
            &mut store,
            SimTime::ZERO,
            &doc(),
            Strategy::TwoLupi,
            ExtractOptions::default(),
        )
        .unwrap();
        let (p, _) = store
            .get(SimTime::ZERO, crate::strategy::TABLE_PATH, "ename")
            .unwrap();
        let (i, _) = store
            .get(SimTime::ZERO, crate::strategy::TABLE_ID, "ename")
            .unwrap();
        assert!(!p.is_empty());
        assert!(!i.is_empty());
    }

    #[test]
    fn batching_reduces_api_requests() {
        let mut store = DynamoDb::default();
        let (m, _) = index_document(
            &mut store,
            SimTime::ZERO,
            &doc(),
            Strategy::Lup,
            ExtractOptions::default(),
        )
        .unwrap();
        assert!(m.batches < m.items || m.items <= 1);
        assert_eq!(store.stats().api_requests, m.batches);
        assert!(store.stats().put_ops > 0);
    }

    /// The paper's four strategies and the pushdown variant.
    const FIVE: [Strategy; 5] = [
        Strategy::Lu,
        Strategy::Lup,
        Strategy::Lui,
        Strategy::TwoLupi,
        Strategy::LupPd,
    ];

    /// Enough distinct keys for several batches per table, and ID lists
    /// long enough to chunk under SimpleDB's 1 KB values.
    fn wide_doc(uri: &str, sections: usize) -> Document {
        let mut x = String::from("<catalog>");
        for i in 0..sections {
            x.push_str(&format!("<s{i} n=\"{i}\"><t>word{i} gold</t></s{i}>"));
        }
        for _ in 0..400 {
            x.push_str("<a>gold</a>");
        }
        x.push_str("</catalog>");
        Document::parse_str(uri, &x).unwrap()
    }

    /// The keys the puts store, sorted (the plan groups them by table,
    /// `entry_item_keys` lists them in entry order).
    fn put_keys(plan: &WritePlan) -> Vec<ItemKey> {
        let keys = plan.puts.iter().flat_map(|(table, batch)| {
            batch
                .iter()
                .map(|i| (*table, i.hash_key.to_string(), i.range_key().to_string()))
        });
        sorted(keys.collect())
    }

    /// A registry entry holding `keys`, their values unknown.
    fn held(keys: impl IntoIterator<Item = ItemKey>) -> Held {
        Held {
            items: keys.into_iter().map(|key| (key, None)).collect(),
            attempted: false,
        }
    }

    /// A registry entry as the front end records it from an indexed version.
    fn recorded(items: Vec<(ItemKey, ValueId)>) -> Held {
        Held {
            items: items.into_iter().map(|(k, v)| (k, Some(v))).collect(),
            attempted: false,
        }
    }

    fn sorted(mut keys: Vec<ItemKey>) -> Vec<ItemKey> {
        keys.sort();
        keys
    }

    fn delete_keys(plan: &WritePlan) -> Vec<ItemKey> {
        let keys = plan.deletes.iter().flat_map(|(table, batch)| {
            batch
                .iter()
                .map(|(hash, range)| (*table, hash.clone(), range.clone()))
        });
        keys.collect()
    }

    /// The tables a queue of calls names, in call order.
    fn call_tables<B>(calls: &VecDeque<(&'static str, B)>) -> Vec<&'static str> {
        let mut tables: Vec<&'static str> = calls.iter().map(|(table, _)| *table).collect();
        tables.dedup();
        tables
    }

    #[test]
    fn the_plan_is_what_write_entries_stores_and_entry_item_keys_names() {
        let d = wide_doc("wide.xml", 40);
        for strategy in FIVE {
            let stores: [Box<dyn KvStore>; 2] =
                [Box::<DynamoDb>::default(), Box::<SimpleDb>::default()];
            for mut store in stores {
                let profile = store.profile();
                let what = format!("{strategy} on {}", profile.name);
                let entries = extract(&d, strategy, ExtractOptions::default());
                let root = Some(Placement::root(strategy));
                let plan = plan_document(&entries, root, &profile, d.uri(), None).unwrap();
                assert!(plan.deletes.is_empty(), "{what}");
                // One table order, the strategy's own: 2LUPI is [path, id].
                assert_eq!(plan.tables, strategy.tables(), "{what}");
                assert_eq!(call_tables(&plan.puts), strategy.tables(), "{what}");
                // Maximal batches: only a table's last one may be short.
                for (i, (table, batch)) in plan.puts.iter().enumerate() {
                    let last_of_table = plan.puts.get(i + 1).is_none_or(|(t, _)| t != table);
                    assert!(batch.len() <= profile.batch_put_limit, "{what}");
                    assert!(
                        last_of_table || batch.len() == profile.batch_put_limit,
                        "{what}"
                    );
                }
                assert!(
                    plan.puts.len() > plan.tables.len(),
                    "{what}: several batches"
                );
                assert_eq!(
                    put_keys(&plan),
                    sorted(entry_item_keys(&entries, &profile, d.uri())),
                    "{what}"
                );
                let mut planned: Vec<(String, KvItem)> = plan
                    .puts
                    .iter()
                    .flat_map(|(table, batch)| batch.iter().map(|i| (table.to_string(), i.clone())))
                    .collect();
                planned.sort_by(|(ta, a), (tb, b)| {
                    (ta, &a.hash_key, a.range_key()).cmp(&(tb, &b.hash_key, b.range_key()))
                });
                let root = Placement::root(strategy);
                let (m, _) = write_entries(store.as_mut(), SimTime::ZERO, root, &entries, d.uri())
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                assert_eq!(store.peek_all(), planned, "{what}");
                assert_eq!(m.items, plan.items(), "{what}");
                assert_eq!(m.batches, plan.puts.len() as u64, "{what}");
                assert_eq!(store.stats().api_requests, m.batches, "{what}");
            }
        }
    }

    #[test]
    fn two_lupi_is_planned_path_table_first() {
        let d = doc();
        let entries = extract(&d, Strategy::TwoLupi, ExtractOptions::default());
        let profile = DynamoDb::default().profile();
        let root = Some(Placement::root(Strategy::TwoLupi));
        let plan = plan_document(&entries, root, &profile, d.uri(), None).unwrap();
        let path_then_id = [crate::strategy::TABLE_PATH, crate::strategy::TABLE_ID];
        assert_eq!(plan.tables, path_then_id);
        assert_eq!(call_tables(&plan.puts), path_then_id);
        // The same under a named partition's tables.
        let hot = Placement {
            strategy: Strategy::TwoLupi,
            partition: "hot",
        };
        let plan = plan_document(&entries, Some(hot), &profile, "hot/d.xml", None).unwrap();
        assert_eq!(plan.tables, ["amada-index-path@hot", "amada-index-id@hot"]);
        assert_eq!(call_tables(&plan.puts), plan.tables);
    }

    #[test]
    fn a_pending_retraction_is_planned_as_exactly_the_stale_keys_own_tables_first() {
        let opts = ExtractOptions::default();
        let v1 = wide_doc("d.xml", 60);
        let v2 = wide_doc("d.xml", 20);
        for profile in [DynamoDb::default().profile(), SimpleDb::default().profile()] {
            // The document is 2LUPI in the root tables now; its replaced
            // version was too, and before a plan switch it was LU in the
            // root's main table and LUP in a partition's.
            let new = extract(&v2, Strategy::TwoLupi, opts);
            let mut old =
                entry_item_keys(&extract(&v1, Strategy::TwoLupi, opts), &profile, "d.xml");
            old.extend(entry_item_keys(
                &extract(&v1, Strategy::Lu, opts),
                &profile,
                "d.xml",
            ));
            let hot = Placement {
                strategy: Strategy::Lup,
                partition: "hot",
            };
            let stranded = extract(&v1, hot.strategy, opts);
            let stranded = placed_item_keys(&stranded, Some(hot), &profile, "d.xml");
            old.extend(stranded.into_iter().map(|(key, _)| key));
            let mut pending = held(old.iter().cloned());

            let root = Some(Placement::root(Strategy::TwoLupi));
            let plan = plan_document(&new, root, &profile, "d.xml", Some(&mut pending)).unwrap();
            let fresh = entry_item_keys(&new, &profile, "d.xml");
            assert_eq!(
                put_keys(&plan),
                sorted(fresh.clone()),
                "{}: a key of unknown value is rewritten",
                profile.name
            );
            assert_eq!(plan.unchanged, 0, "{}", profile.name);
            let expected = stale_keys(&old, &fresh);
            assert!(
                expected.len() < old.len(),
                "{}: some keys survive",
                profile.name
            );
            let mut deleted = delete_keys(&plan);
            deleted.sort();
            assert_eq!(deleted, expected, "{}", profile.name);
            // Own tables in the strategy's order — not name order, which
            // would put the ID table first — then the stranded ones by name.
            let order = [
                crate::strategy::TABLE_PATH,
                crate::strategy::TABLE_ID,
                crate::strategy::TABLE_MAIN,
                "amada-index@hot",
            ];
            assert_eq!(call_tables(&plan.deletes), order, "{}", profile.name);
            assert_eq!(plan.tables, order, "{}", profile.name);
            assert!(plan
                .deletes
                .iter()
                .all(|(_, batch)| batch.len() <= profile.batch_put_limit));

            // Nothing pending that the new version does not hold: no deletes.
            let mut same = held(fresh.iter().cloned());
            let plan = plan_document(&new, root, &profile, "d.xml", Some(&mut same)).unwrap();
            assert!(plan.deletes.is_empty(), "{}", profile.name);
            assert_eq!(plan.tables, Strategy::TwoLupi.tables(), "{}", profile.name);
        }
    }

    #[test]
    fn a_placement_that_indexes_nothing_plans_no_puts_and_retracts_everything_pending() {
        let d = doc();
        let profile = DynamoDb::default().profile();
        let entries = extract(&d, Strategy::TwoLupi, ExtractOptions::default());
        let mut pending = recorded(placed_item_keys(&entries, None, &profile, d.uri()));
        let plan = plan_document(&[], None, &profile, d.uri(), Some(&mut pending)).unwrap();
        assert!(plan.puts.is_empty());
        assert_eq!(plan.items(), 0);
        // A delete that went out may have landed: no value is vouched for.
        assert!(pending.items.values().all(Option::is_none));
        assert_eq!(
            delete_keys(&plan),
            Vec::from_iter(pending.items.into_keys())
        );
        // No table is the placement's own: all are stranded, in name order.
        let id_then_path = [crate::strategy::TABLE_ID, crate::strategy::TABLE_PATH];
        assert_eq!(plan.tables, id_then_path);
        // And with nothing pending there is nothing to do at all.
        let idle = plan_document(&[], None, &profile, d.uri(), None).unwrap();
        assert!(idle.puts.is_empty() && idle.deletes.is_empty() && idle.tables.is_empty());
    }

    #[test]
    fn an_entry_the_store_limits_reject_is_a_typed_error_not_a_plan() {
        // A 3 KB element name: its entry key is over DynamoDB's 2 KB hash
        // key. SimpleDB's 1 KB limit rejects it too; a short name fits.
        let name = "n".repeat(3000);
        let long = Document::parse_str("d.xml", &format!("<r><{name}/></r>")).unwrap();
        for profile in [DynamoDb::default().profile(), SimpleDb::default().profile()] {
            for strategy in FIVE {
                let entries = extract(&long, strategy, ExtractOptions::default());
                let root = Some(Placement::root(strategy));
                let mut pending = held([(crate::strategy::TABLE_MAIN, "k".into(), "r".into())]);
                for pending in [None, Some(&mut pending)] {
                    assert_eq!(
                        plan_document(&entries, root, &profile, "d.xml", pending).err(),
                        Some(KvError::KeyTooLarge {
                            limit: profile.max_hash_key_bytes,
                            got: name.len() + 1,
                        }),
                        "{strategy} on {}",
                        profile.name
                    );
                }
                let mut store = DynamoDb::default();
                let written = write_entries(
                    &mut store,
                    SimTime::ZERO,
                    Placement::root(strategy),
                    &entries,
                    "d.xml",
                );
                assert!(written.is_err());
                assert!(store.peek_all().is_empty(), "{strategy}: nothing was put");
                let entries = extract(&doc(), strategy, ExtractOptions::default());
                assert!(plan_document(&entries, root, &profile, "d.xml", None).is_ok());
            }
        }
    }

    #[test]
    fn identical_versions_have_no_stale_keys() {
        let d = doc();
        let entries = extract(&d, Strategy::Lup, ExtractOptions::default());
        let p = DynamoDb::default().profile();
        let keys = entry_item_keys(&entries, &p, d.uri());
        assert!(stale_keys(&keys, &keys).is_empty());
    }

    #[test]
    fn retracting_stale_keys_matches_a_fresh_build_of_the_new_version() {
        let v1 = Document::parse_str(
            "d.xml",
            "<painting id=\"1854-1\"><name>The Lion Hunt</name><year>1854</year></painting>",
        )
        .unwrap();
        // The new version drops <year> and renames the painting.
        let v2 = Document::parse_str(
            "d.xml",
            "<painting id=\"1854-1\"><name>The Tiger Hunt</name></painting>",
        )
        .unwrap();
        let opts = ExtractOptions::default();
        for strategy in [
            Strategy::Lu,
            Strategy::Lup,
            Strategy::Lui,
            Strategy::TwoLupi,
        ] {
            // Churned store: index v1, overwrite with v2, retract stale keys.
            let mut churned = DynamoDb::default();
            let old = extract(&v1, strategy, opts);
            let new = extract(&v2, strategy, opts);
            let root = Placement::root(strategy);
            write_entries(&mut churned, SimTime::ZERO, root, &old, v1.uri()).unwrap();
            write_entries(&mut churned, SimTime::ZERO, root, &new, v2.uri()).unwrap();
            let p = churned.profile();
            let stale = stale_keys(
                &entry_item_keys(&old, &p, v1.uri()),
                &entry_item_keys(&new, &p, v2.uri()),
            );
            assert!(
                !stale.is_empty(),
                "{strategy:?} shrink must leave stale keys"
            );
            retract_keys(&mut churned, SimTime::ZERO, &stale).unwrap();
            // Fresh store: index only v2.
            let mut fresh = DynamoDb::default();
            write_entries(&mut fresh, SimTime::ZERO, root, &new, v2.uri()).unwrap();
            for t in strategy.tables() {
                fresh.ensure_table(t);
            }
            assert_eq!(
                churned.peek_all(),
                fresh.peek_all(),
                "{strategy:?} retraction must be byte-identical to a fresh build"
            );
        }
    }

    #[test]
    fn retraction_is_idempotent() {
        let mut store = DynamoDb::default();
        let d = doc();
        let entries = extract(&d, Strategy::Lu, ExtractOptions::default());
        let root = Placement::root(Strategy::Lu);
        write_entries(&mut store, SimTime::ZERO, root, &entries, d.uri()).unwrap();
        let keys = entry_item_keys(&entries, &store.profile(), d.uri());
        retract_keys(&mut store, SimTime::ZERO, &keys).unwrap();
        assert!(store.peek_all().is_empty());
        // Second pass deletes nothing but still succeeds (and still bills).
        let before = store.stats().put_ops;
        retract_keys(&mut store, SimTime::ZERO, &keys).unwrap();
        assert!(store.peek_all().is_empty());
        assert!(store.stats().put_ops > before);
    }

    #[test]
    fn simpledb_needs_more_items_for_lui() {
        // A frequent label and a frequent word, so per-key ID lists exceed
        // the 1 KB SimpleDB value cap and must chunk; DynamoDB stores each
        // list as one binary value.
        let big = {
            let mut x = String::from("<r>");
            for _ in 0..2000 {
                x.push_str("<a>gold</a>");
            }
            x.push_str("</r>");
            Document::parse_str("big.xml", &x).unwrap()
        };
        let mut ddb = DynamoDb::default();
        let mut sdb = SimpleDb::default();
        let (md, _) = index_document(
            &mut ddb,
            SimTime::ZERO,
            &big,
            Strategy::Lui,
            ExtractOptions::default(),
        )
        .unwrap();
        let (ms, t_s) = index_document(
            &mut sdb,
            SimTime::ZERO,
            &big,
            Strategy::Lui,
            ExtractOptions::default(),
        )
        .unwrap();
        // SimpleDB chunks the ID lists into many 1 KB string values…
        assert!(ms.items >= md.items, "items {} vs {}", ms.items, md.items);
        assert!(sdb.stats().put_ops > ddb.stats().put_ops);
        // …and, decisively for the paper's Table 7, is far slower to load:
        // the cost gap follows from the instance time this burns.
        let (_, t_d) = (md, {
            let mut ddb2 = DynamoDb::default();
            index_document(
                &mut ddb2,
                SimTime::ZERO,
                &big,
                Strategy::Lui,
                ExtractOptions::default(),
            )
            .unwrap()
            .1
        });
        assert!(
            t_s.micros() > 10 * t_d.micros(),
            "SimpleDB {} vs DynamoDB {}",
            t_s.as_secs_f64(),
            t_d.as_secs_f64()
        );
    }
}

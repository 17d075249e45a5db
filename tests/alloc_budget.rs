//! Allocation budgets of the two paths, counted by a counting global
//! allocator that also keeps the live heap bytes.
//!
//! The loader path: heap allocations per stored index item over a
//! `build_index` — extract, encode, `batch_put` and the simulator around
//! them (documents are parsed beforehand: parsing is upstream of this
//! path) — the live bytes per stored item that emptying the host cache
//! frees beyond its parses while the built warehouse still holds the items,
//! and heap frees per stored item when the built warehouse is dropped. The
//! read path: heap allocations of the ten workload queries
//! through `run_query` per strategy and through `run_query_no_index` —
//! look-up, decode, twig join, fetch, evaluate, value join and the
//! simulator around them — on the warehouse that build left, parse cache,
//! evaluation and look-up memos warm; and one query run 200 times must cost the
//! same every time.
//!
//! Who owns what (DESIGN.md §5l). Per stored item, at most three: the
//! entry's key (the cache keeps one per distinct key, shared with every
//! item), the item's block — range key and values in one — and one for
//! everything amortized over many items (tree nodes, batches, per-document
//! buffers). A stored value owns nothing. On top, what the extracted entry
//! owns until its document is encoded: the payload the values were encoded
//! from (the path list and each path; the ID list). LU's ε has none, so an
//! LU item costs at most three. The store and the cache's write set share
//! an item's block: the cache's own share of an item is its three
//! pointers. Teardown frees the item's share of the tree, and the block
//! with it once the cache no longer holds it: at most one and a half per
//! item.

use amada::index::{extract, PatternProbe, Payload, Strategy};
use amada::pattern::{join_pattern_results, Query, Tuple};
use amada::warehouse::{CostedQuery, Warehouse, WarehouseConfig, DOC_BUCKET};
use amada::xmark::{generate_corpus, workload, workload_query, CorpusConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a side effect only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: same layout, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// One test in this binary, so nothing else allocates while it counts.
#[test]
fn a_stored_item_costs_at_most_three_allocations_and_three_halves_of_a_free() {
    // Inline prewarm: the whole build runs on this thread.
    std::env::set_var("AMADA_THREADS", "1");
    let docs: Vec<(String, String)> = generate_corpus(&CorpusConfig {
        num_documents: 40,
        ..Default::default()
    })
    .into_iter()
    .map(|d| (d.uri, d.xml))
    .collect();
    for strategy in Strategy::ALL {
        let mut w = Warehouse::new(WarehouseConfig::with_strategy(strategy));
        w.upload_documents(docs.clone());
        w.cache().clear();
        w.prewarm_parses();
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let report = w.build_index();
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        // Buffers the extracted entries own until their document is
        // encoded: the payloads the stored values were encoded from.
        let cached: usize = docs
            .iter()
            .flat_map(|(uri, xml)| {
                let doc = amada::xml::Document::parse_str(uri.clone(), xml).expect("XMark parses");
                extract(&doc, strategy, w.config().extract)
            })
            .map(|entry| match entry.payload {
                Payload::Presence => 0,
                Payload::Paths(paths) => 1 + paths.len(),
                Payload::Ids(_) => 1,
            })
            .sum();
        let items = report.items as f64;
        let per_item = allocations as f64 / items;
        let values = cached as f64 / items;
        println!(
            "{strategy}: {allocations} allocations / {items} items = {per_item:.2} \
             (budget 3 + {values:.2})"
        );
        assert!(
            per_item <= 3.0 + values,
            "{strategy}: {per_item:.2} allocations per stored item over a 40-document build, \
             budget 3 + {values:.2} for the {cached} buffers its extracted entries own; items of \
             a range key, an attribute list, a value vector and a buffer per value spent \
             3.3 (LU) to 4.7 (LUP) more, the String-keyed, clone-per-hop loader path before \
             them 31.7 (LU), 35.1 (LUP), 38.1 (LUI) and 31.5 (2LUPI) on this corpus"
        );
        read_path_budget(&mut w, strategy);
        let before = FREES.load(Ordering::Relaxed);
        drop(w);
        let frees = FREES.load(Ordering::Relaxed) - before;
        let per_item = frees as f64 / items;
        println!("{strategy}: {frees} frees / {items} items = {per_item:.2} at teardown");
        assert!(
            per_item <= 1.5,
            "{strategy}: dropping the built warehouse frees {per_item:.2} buffers per stored \
             item, budget 1.5 — its share of the tree, and its block where the cache does not \
             hold it; the items this replaced freed 3.26 (LU) and 4.69 (LUP)"
        );
        // A second build of the corpus, on a cache of nothing else: its
        // store holds the cache's own blocks while the cache is emptied.
        let mut w = Warehouse::new(WarehouseConfig::with_strategy(strategy));
        w.cache().clear();
        w.upload_documents(docs.clone());
        let items = w.build_index().items as f64;
        cache_budget(&w, strategy, items);
    }
}

/// The live heap bytes emptying `w`'s host cache frees.
fn cleared_bytes(w: &Warehouse) -> i64 {
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    w.cache().clear();
    before - LIVE_BYTES.load(Ordering::Relaxed)
}

/// The memo's bytes per stored item: what emptying the cache frees right
/// after the build, while the warehouse still holds the items, less what
/// emptying a cache of the same documents' parses alone frees. The store
/// and the cache share each item's block, so this is the cache's own share
/// of an item — its three pointers and the write set's slack — and the
/// keys, which every document's items share.
fn cache_budget(w: &Warehouse, strategy: Strategy, items: f64) {
    // The measured bytes per item on this corpus, by `Strategy::ALL`
    // position; the extracted entries the memo held before it held write
    // sets cost 102.1, 200.4, 126.4 and 152.4.
    const MEASURED: [f64; 4] = [53.0, 53.0, 53.0, 50.5];
    let at = Strategy::ALL.iter().position(|s| *s == strategy);
    let measured = MEASURED[at.expect("one of the four")];
    let with_sets = cleared_bytes(w);
    w.prewarm_parses();
    let parses = cleared_bytes(w);
    let per_item = (with_sets - parses) as f64 / items;
    println!(
        "{strategy}: the memo holds {per_item:.1} bytes per stored item (measured {measured})"
    );
    assert!(
        per_item <= measured * 1.1,
        "{strategy}: emptying the cache beyond its parses frees {per_item:.1} bytes per stored \
         item, budget {:.1} — the {measured} measured plus a tenth; the extracted entries it \
         held before freed 102.1 (LU), 200.4 (LUP), 126.4 (LUI) and 152.4 (2LUPI) on this \
         corpus, and 103.4, 224.9, 147.7 and 174.6 on the benchmark's",
        measured * 1.1
    );
}

/// Heap allocations of `run` over the ten workload queries, after a
/// warm-up pass over the same queries.
fn ten_queries(w: &mut Warehouse, run: fn(&mut Warehouse, &Query) -> CostedQuery) -> u64 {
    let queries = workload();
    for q in &queries {
        run(w, q);
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for q in &queries {
        run(w, q);
    }
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// The read path's budget: the ten queries through `run_query` (and, on
/// the LU warehouse, `run_query_no_index`) allocate at most a tenth more
/// than they did once look-ups read the fetched items in place and joined
/// rows shared their tuples' cells — a per-document decoded copy or
/// per-row cells coming back fail it — and a query costs the same on an
/// old warehouse as on a new one.
fn read_path_budget(w: &mut Warehouse, strategy: Strategy) {
    // The measured totals on this corpus, by `Strategy::ALL` position; with
    // a decoded map per look-up key and copied result cells the queries
    // spent 1 845, 2 537, 4 338, 5 457 and 1 496 (no index), each query
    // evaluating its candidates afresh 3 619, 4 299, 6 082, 7 201 and
    // 3 228, and each look-up sorting and joining its fetched items afresh
    // (and the query's candidates sorted, not merged) 1 319, 1 531, 2 085,
    // 2 521 and 1 180.
    const MEASURED: [u64; 4] = [1_191, 1_403, 1_405, 1_805];
    const MEASURED_NO_INDEX: u64 = 1_055;
    let budget = |measured: u64| measured + measured / 10;
    let measured = MEASURED[Strategy::ALL
        .iter()
        .position(|s| *s == strategy)
        .expect("one of the four")];
    let indexed = ten_queries(w, Warehouse::run_query);
    println!("{strategy}: {indexed} allocations over the ten queries (measured {measured})");
    assert!(
        indexed <= budget(measured),
        "{strategy}: {indexed} allocations over the ten workload queries on a 40-document \
         warehouse, budget {} — the {measured} measured plus a tenth (LU 1 191, LUP 1 403, \
         LUI 1 405, 2LUPI 1 805, no index 1 055)",
        budget(measured)
    );
    if strategy != Strategy::Lu {
        return;
    }
    let scanned = ten_queries(w, Warehouse::run_query_no_index);
    println!("no index: {scanned} allocations over the ten queries (measured {MEASURED_NO_INDEX})");
    assert!(
        scanned <= budget(MEASURED_NO_INDEX),
        "no index: {scanned} allocations over the ten workload queries on a 40-document \
         warehouse, budget {} — the {MEASURED_NO_INDEX} measured plus a tenth",
        budget(MEASURED_NO_INDEX)
    );
    joined_rows_share_their_cells(w);
    // A query's host cost must not grow with the warehouse's age.
    let q = workload_query("q8").expect("a workload query");
    let mut one = || {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        w.run_query(&q);
        ALLOCATIONS.load(Ordering::Relaxed) - before
    };
    let first = one();
    let mut last = first;
    for _ in 1..200 {
        last = one();
    }
    assert_eq!(
        first, last,
        "the 1st and the 200th run of q8 on one warehouse must allocate the same number"
    );
}

/// What `join_pattern_results` may allocate besides its rows: its row
/// numbers, probe order and first-seen map, each grown a few times.
const JOIN_SCRATCH: u64 = 32;

/// A joined row points at its tuples' cells: over q2's memoized tuples,
/// `join_pattern_results` allocates at most a row's two vectors (URIs and
/// cells) per result row, plus a constant for its scratch.
fn joined_rows_share_their_cells(w: &Warehouse) {
    let q = workload_query("q2").expect("a workload query");
    let docs = w.world().s3.peek_all(DOC_BUCKET);
    let mut probes: Vec<PatternProbe> = q.patterns.iter().map(PatternProbe::new).collect();
    let memo: Vec<Vec<_>> = (probes.iter_mut())
        .map(|probe| {
            docs.iter()
                .map(|(uri, blob)| w.cache().evaluated(uri, blob, probe))
                .collect()
        })
        .collect();
    let per_pattern: Vec<Vec<&Tuple>> = (memo.iter())
        .map(|evaluated| evaluated.iter().flat_map(|e| &e.0).collect())
        .collect();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let rows = join_pattern_results(&q, &per_pattern);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    println!(
        "q2's join: {allocations} allocations for {} rows",
        rows.len()
    );
    assert!(rows.len() > 10, "q2 joins rows on this corpus");
    assert!(
        allocations <= 2 * rows.len() as u64 + JOIN_SCRATCH,
        "q2's join allocated {allocations} for {} rows: more than two per row plus {JOIN_SCRATCH} \
         means a cell is copied again",
        rows.len()
    );
}

//! Allocation budgets of the two paths, counted by a counting global
//! allocator.
//!
//! The loader path: heap allocations per stored index item over a
//! `build_index` — extract, encode, `batch_put` and the simulator around
//! them (documents are parsed beforehand: parsing is upstream of this
//! path) — and heap frees per stored item when the built warehouse is
//! dropped. The read path: heap allocations of the ten workload queries
//! through `run_query` per strategy and through `run_query_no_index` —
//! look-up, decode, twig join, fetch, evaluate, value join and the
//! simulator around them — on the warehouse that build left, parse cache
//! warm; and one query run 200 times must cost the same every time.
//!
//! Who owns what (DESIGN.md §5l). Per stored item, at most three: the
//! entry's key (shared with the item), the item's block — range key and
//! values in one — and one for everything amortized over many items (tree
//! nodes, batches, per-document buffers). A stored value owns nothing. On
//! top, what the cached entry owns: the payload the values were encoded
//! from (the path list and each path; the ID list). LU's ε has none, so
//! an LU item costs at most three. Teardown frees the block and the
//! item's share of the tree: at most one and a half per item.

use amada::index::{extract, Payload, Strategy};
use amada::pattern::Query;
use amada::warehouse::{CostedQuery, Warehouse, WarehouseConfig};
use amada::xmark::{generate_corpus, workload, workload_query, CorpusConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a side effect only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
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
        // Buffers the cached entries own: the payloads the stored values
        // were encoded from.
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
             budget 3 + {values:.2} for the {cached} buffers its cached entries own; items of \
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
             item, budget 1.5 — its block and its share of the tree; the items this replaced \
             freed 3.26 (LU) and 4.69 (LUP)"
        );
    }
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
/// the LU warehouse, `run_query_no_index`) allocate at most half of what
/// the String-keyed, clone-per-hop read path did, and a query costs the
/// same on an old warehouse as on a new one.
fn read_path_budget(w: &mut Warehouse, strategy: Strategy) {
    // The parent's totals on this corpus, by `Strategy::ALL` position.
    const PARENT: [u64; 4] = [16_146, 16_992, 23_732, 28_020];
    const PARENT_NO_INDEX: u64 = 19_303;
    let parent = PARENT[Strategy::ALL
        .iter()
        .position(|s| *s == strategy)
        .expect("one of the four")];
    let indexed = ten_queries(w, Warehouse::run_query);
    println!("{strategy}: {indexed} allocations over the ten queries (parent {parent})");
    assert!(
        2 * indexed <= parent,
        "{strategy}: {indexed} allocations over the ten workload queries on a 40-document \
         warehouse, budget {} — half of the {parent} the String-keyed read path spent \
         (LU 16 146, LUP 16 992, LUI 23 732, 2LUPI 28 020, no index 19 303)",
        parent / 2
    );
    if strategy != Strategy::Lu {
        return;
    }
    let scanned = ten_queries(w, Warehouse::run_query_no_index);
    println!("no index: {scanned} allocations over the ten queries (parent {PARENT_NO_INDEX})");
    assert!(
        2 * scanned <= PARENT_NO_INDEX,
        "no index: {scanned} allocations over the ten workload queries on a 40-document \
         warehouse, budget {} — half of the {PARENT_NO_INDEX} the String-keyed read path spent",
        PARENT_NO_INDEX / 2
    );
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

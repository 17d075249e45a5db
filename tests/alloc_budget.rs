//! The loader path's allocation budget: heap allocations per stored index
//! item over a `build_index` — extract, encode, `batch_put` and the
//! simulator around them (documents are parsed beforehand: parsing is
//! upstream of this path) — counted by a counting global allocator.
//!
//! Who owns what (DESIGN.md §5l). Per stored item, at most five: the
//! entry's key (shared with the item), the item's range key, its
//! attribute list and its value vector, and one for everything amortized
//! over many items (tree nodes, batches, per-document buffers). On top,
//! one buffer per value: the stored string or blob, and in the cached
//! entry the payload it was encoded from (the path list and each path;
//! the ID list). LU's ε owns none, so an LU item costs at most five.

use amada::index::{extract, Payload, Strategy};
use amada::warehouse::{Warehouse, WarehouseConfig};
use amada::xmark::{generate_corpus, CorpusConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a side effect only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
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
fn a_stored_item_costs_at_most_five_allocations_plus_its_values() {
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
        // Buffers the values own: in the store, one per non-empty value…
        let stored: usize = w
            .world()
            .kv
            .peek_all()
            .iter()
            .flat_map(|(_, item)| item.attrs.iter())
            .map(|(_, values)| values.iter().filter(|v| !v.is_empty()).count())
            .sum();
        // …and in the cached entries, the payloads they were encoded from.
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
        let values = (stored + cached) as f64 / items;
        println!(
            "{strategy}: {allocations} allocations / {items} items = {per_item:.2} \
             (budget 5 + {values:.2})"
        );
        assert!(
            per_item <= 5.0 + values,
            "{strategy}: {per_item:.2} allocations per stored item over a 40-document build, \
             budget 5 + {values:.2} for its values ({stored} stored, {cached} cached buffers); \
             the String-keyed, clone-per-hop loader path this replaced spent \
             31.7 (LU), 35.1 (LUP), 38.1 (LUI) and 31.5 (2LUPI) on this corpus"
        );
    }
}

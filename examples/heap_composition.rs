//! Where the live heap goes on the benchmark's corpus (500 documents of
//! about 8 KB, seed `0xA3ADA`), counted by a counting global allocator
//! (requested bytes: the allocator's own headers and free space are not in
//! it, so a process's RSS is larger).
//!
//! First the host cache's memo per strategy: each strategy built alone on
//! an empty cache, then what emptying the cache frees beyond its parses
//! while the warehouse still holds its items. Then the state of
//! `query_indexed`'s set-up — one warehouse per strategy, built, and a
//! warm-up pass of the ten queries — split into the cache's parses, the
//! rest of the cache (write sets, evaluations, look-ups, shared keys) and
//! the warehouses.
//!
//! ```text
//! cargo run --release --example heap_composition
//! ```

use amada::index::Strategy;
use amada::warehouse::{Warehouse, WarehouseConfig};
use amada::xmark::{generate_corpus, workload, CorpusConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

struct Counting;

static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a side effect only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: same layout, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn live() -> i64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// The live bytes emptying `w`'s host cache frees.
fn cleared(w: &Warehouse) -> i64 {
    let before = live();
    w.cache().clear();
    before - live()
}

fn mb(bytes: i64) -> f64 {
    bytes as f64 / 1e6
}

fn built(strategy: Strategy, docs: &[(String, String)]) -> (Warehouse, u64) {
    let mut w = Warehouse::new(WarehouseConfig::with_strategy(strategy));
    w.upload_documents(docs.iter().cloned());
    let items = w.build_index().items;
    (w, items)
}

fn main() {
    // One thread: the prewarm runs inline, as in the benchmark.
    std::env::set_var("AMADA_THREADS", "1");
    let docs: Vec<(String, String)> = generate_corpus(&CorpusConfig {
        seed: 0xA3ADA,
        num_documents: 500,
        target_doc_bytes: 8192,
    })
    .into_iter()
    .map(|d| (d.uri, d.xml))
    .collect();

    println!("== the memo per strategy, beyond the parses ==");
    for strategy in Strategy::ALL {
        let (w, items) = built(strategy, &docs);
        let with_sets = cleared(&w);
        w.prewarm_parses();
        let memo = with_sets - cleared(&w);
        println!(
            "{strategy}: {:.1} MB over {items} items = {:.1} B per item",
            mb(memo),
            memo as f64 / items as f64
        );
    }

    println!("== after query_indexed's set-up ==");
    let start = live();
    let mut warehouses: Vec<Warehouse> = Strategy::ALL.iter().map(|s| built(*s, &docs).0).collect();
    for w in &mut warehouses {
        for q in &workload() {
            w.run_query(q);
        }
    }
    let total = live() - start;
    let cache = cleared(&warehouses[0]);
    warehouses[0].prewarm_parses();
    let parses = cleared(&warehouses[0]);
    println!("live heap      {:6.1} MB", mb(total));
    println!("cache: parses  {:6.1} MB", mb(parses));
    println!("cache: rest    {:6.1} MB", mb(cache - parses));
    println!("warehouses     {:6.1} MB", mb(live() - start));
}

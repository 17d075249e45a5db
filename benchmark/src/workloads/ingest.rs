//! `ingest_cold`: the loader path does all the work, the query path none.
//!
//! A cycle builds the corpus from nothing under each of the paper's four
//! strategies: `Warehouse::new` → `upload_documents` → `prewarm` →
//! `build_index` → drop, default configuration. The parse cache is
//! emptied before each build, off the clock, so every build parses,
//! extracts, encodes and stores every document. This is `repro table4`,
//! the run the ROADMAP's "20× under the parse kernel" quotes.

use crate::harness::{Bench, Cloud, Observed, Virtual};
use crate::host::{Call, Recorder};
use crate::inputs::{Inputs, Scale};
use amada_cloud::CostSnapshot;
use amada_core::{Warehouse, WarehouseConfig};
use amada_index::{extract, ExtractOptions, Strategy};

pub struct IngestCold {
    inputs: Inputs,
    /// Entries each build reported, by strategy position, for the final
    /// check against a fresh extraction.
    reported_entries: [Vec<u64>; 4],
    /// Host milliseconds each cycle spent clearing the parse cache.
    clear_ms: Vec<f64>,
}

/// One strategy's build, every call on the clock. Returns the host
/// nanoseconds of the whole sequence and of the off-clock cache clear.
fn build_once(
    inputs: &Inputs,
    strategy: Strategy,
    rec: &mut Recorder,
    mut observe: impl FnMut(&Warehouse, &amada_core::IndexBuildReport, [amada_index::CacheStats; 2]),
) -> (u64, u64) {
    let (mut w, t_new) = rec.call((Call::New, None), || {
        Warehouse::new(WarehouseConfig::with_strategy(strategy))
    });
    let (_, t_upload) = rec.call((Call::Upload, None), || {
        w.upload_documents(inputs.documents())
    });
    let (_, t_clear) = rec.off_clock(|| w.cache().clear());
    let cache_before = w.cache_stats();
    let (_, t_prewarm) = rec.call((Call::Prewarm, None), || w.prewarm());
    let (report, t_build) = rec.call((Call::BuildIndex, Some(strategy)), || w.build_index());
    observe(&w, &report, [cache_before, w.cache_stats()]);
    let (_, t_drop) = rec.call((Call::Drop, Some(strategy)), move || drop(w));
    (t_new + t_upload + t_prewarm + t_build + t_drop, t_clear)
}

impl Bench for IngestCold {
    fn min_iterations(_: &Scale) -> usize {
        2
    }

    fn setup(inputs: Inputs) -> Self {
        // Warm-up: the largest of the four builds, which touches every
        // code path of a cycle and grows the heap to its working size. A
        // whole cycle would triple the set-up time of every run.
        let mut rec = Recorder::new(false);
        rec.begin_iteration();
        build_once(&inputs, Strategy::TwoLupi, &mut rec, |_, _, _| ());
        IngestCold {
            inputs,
            reported_entries: Default::default(),
            clear_ms: Vec::new(),
        }
    }

    fn ops_per_iteration(&self) -> f64 {
        (self.inputs.corpus.len() * Strategy::ALL.len()) as f64
    }

    fn iterate(&mut self, rec: &mut Recorder, obs: &mut Observed) {
        let docs = self.inputs.corpus.len() as u64;
        let mut virt = Virtual::default();
        let mut cloud = Cloud::default();
        let (mut index_bytes, mut virt_extract_us, mut virt_upload_us) = (0u64, 0u64, 0u64);
        let mut clear_ns = 0;
        for (i, strategy) in Strategy::ALL.into_iter().enumerate() {
            let (sequence_ns, t_clear) =
                build_once(&self.inputs, strategy, rec, |w, report, cache| {
                    obs.note_build(w.world(), report, docs, cache[1], cache[0]);
                    self.reported_entries[i].push(report.entries);
                    // A fresh world: everything since provisioning is this
                    // build's upload and indexing.
                    let c = Cloud::since(w.world(), &CostSnapshot::default());
                    obs.work.note_cloud(&c);
                    cloud += c;
                    virt.makespan_us += report.total_time.micros();
                    virt.push_latency(report.total_time);
                    virt.ops += report.documents;
                    index_bytes += report.index_raw_bytes + report.index_overhead_bytes;
                    virt_extract_us += report.avg_extraction_time.micros();
                    virt_upload_us += report.avg_upload_time.micros();
                });
            rec.op_samples.push((i as u32, sequence_ns));
            clear_ns += t_clear;
        }
        self.clear_ms.push(clear_ns as f64 / 1e6);
        virt.cost_pico = cloud.total_pico();
        if obs.iteration == 0 {
            let corpus = self.inputs.corpus_bytes as f64;
            let extras = [
                (
                    "core.index_bytes_per_corpus_byte",
                    index_bytes as f64 / corpus,
                ),
                ("core.build.virt_extract_s", virt_extract_us as f64 / 1e6),
                ("core.build.virt_upload_s", virt_upload_us as f64 / 1e6),
            ];
            obs.extras.extend(extras.map(|(k, v)| (k.to_string(), v)));
        }
        obs.window_or_compare(virt, cloud);
    }

    fn finish(self, obs: &mut Observed) -> Inputs {
        // Every build must have reported exactly the entries a fresh
        // extraction of the corpus yields.
        for (i, strategy) in Strategy::ALL.into_iter().enumerate() {
            let expected: u64 = self
                .inputs
                .parsed
                .iter()
                .map(|d| extract(d, strategy, ExtractOptions::default()).len() as u64)
                .sum();
            let wrong = self.reported_entries[i]
                .iter()
                .filter(|e| **e != expected)
                .count();
            obs.check(
                self.reported_entries[i].len() as u64,
                wrong as u64,
                "index entries differ from a fresh extraction",
            );
        }
        obs.extras.insert(
            "index.cache.clear_ms".into(),
            crate::stats::steady(&self.clear_ms),
        );
        self.inputs
    }
}

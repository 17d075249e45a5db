//! `churn_mixed`: writes beside reads on one live warehouse.
//!
//! An iteration starts from a fresh LUP warehouse holding the corpus
//! (built off the clock, parse cache emptied first) and runs
//! `churn_rounds` rounds on it. Round *r* re-uploads the documents round
//! *r−1* deleted (original bytes), replaces the next `churn_replace`
//! slots with freshly generated documents (a round seed), deletes the
//! `churn_delete` slots after those, calls `build_index()` and then
//! `run_workload(&queries, 1)`. Retraction key replay, `batch_delete`,
//! cache rebinding on changed bytes and incremental builds all run, and
//! the queries read the mutated index: a gain for bulk ingest that costs
//! the update path shows here and nowhere else.
//!
//! Every iteration does the same work, so round *r* of one iteration can
//! be compared with round *r* of the next: a round on a warehouse that has
//! lived longer costs more host time (all four calls grow with the rounds
//! behind them), and one long-lived warehouse would make the numbers
//! depend on how many rounds the host fits into the run.

use crate::harness::{Bench, Cloud, Observed, Virtual};
use crate::host::{Call, Recorder};
use crate::inputs::{oracle_answer, parse, Inputs, Scale};
use amada_core::{Warehouse, WarehouseConfig};
use amada_index::{ExtractCache, Strategy};
use amada_xml::Document;

pub struct ChurnMixed {
    inputs: Inputs,
    warehouse: Warehouse,
    /// The corpus as the harness believes it to be: the XML in each slot,
    /// `None` while the slot's document is deleted.
    current: Vec<Option<String>>,
    /// Oracle answers over the corpus as it stands after round *r*, by
    /// *r*. Every iteration goes through the same rounds, so the first
    /// one computes them and the later ones are checked against the same.
    oracles: Vec<Vec<Vec<String>>>,
    /// Slots the previous round deleted.
    deleted: Vec<usize>,
    /// Rounds this warehouse has been through.
    round: usize,
}

/// What the rounds of one iteration add up to.
#[derive(Default)]
struct Window {
    virt: Virtual,
    cloud: Cloud,
    retracted: u64,
    /// Virtual extract and upload time of the window's last build.
    last_build: (f64, f64),
}

/// A warehouse holding the corpus, indexed, and the harness's model of it.
fn fresh(inputs: &Inputs) -> (Warehouse, Vec<Option<String>>) {
    let mut warehouse = Warehouse::new(WarehouseConfig::with_strategy(Strategy::Lup));
    warehouse.upload_documents(inputs.documents());
    warehouse.build_index();
    let current = inputs.corpus.iter().map(|(_, x)| Some(x.clone())).collect();
    (warehouse, current)
}

/// A document bound for a slot: `(slot, uri, xml)`.
type SlotDoc = (usize, String, String);

fn as_upload(docs: &[SlotDoc]) -> impl Iterator<Item = (&str, &str)> {
    docs.iter().map(|(_, u, x)| (u.as_str(), x.as_str()))
}

impl ChurnMixed {
    fn slots(&self, offset: usize, count: usize) -> Vec<usize> {
        let stride = self.inputs.scale.churn_stride;
        let n = self.inputs.corpus.len();
        (0..count)
            .map(|j| (stride * self.round + offset + j) % n)
            .collect()
    }

    /// This round's inputs: documents to re-upload, replacements, and the
    /// slots to delete.
    fn prepare(&mut self) -> (Vec<SlotDoc>, Vec<SlotDoc>, Vec<usize>) {
        let scale = self.inputs.scale;
        let reuploads = std::mem::take(&mut self.deleted)
            .into_iter()
            .map(|slot| {
                let (uri, xml) = self.inputs.corpus[slot].clone();
                (slot, uri, xml)
            })
            .collect();
        let round_seed =
            self.inputs.seed ^ (self.round as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let round_cfg = Inputs::corpus_config(round_seed, &scale);
        let replacements = self
            .slots(0, scale.churn_replace)
            .into_iter()
            .map(|slot| {
                let d = amada_xmark::generate_document(&round_cfg, slot);
                (slot, d.uri, d.xml)
            })
            .collect();
        let deletes = self.slots(scale.churn_replace, scale.churn_delete);
        (reuploads, replacements, deletes)
    }

    fn round(&mut self, rec: &mut Recorder, obs: &mut Observed, window: &mut Window) {
        let ((reuploads, replacements, delete_slots), _) = rec.off_clock(|| self.prepare());
        let delete_uris: Vec<&str> = delete_slots
            .iter()
            .map(|slot| self.inputs.corpus[*slot].0.as_str())
            .collect();

        let w = &mut self.warehouse;
        let before = w.world().snapshot();
        let cache_before = w.cache_stats();
        let mut round_ns = 0;
        if !reuploads.is_empty() {
            round_ns += rec
                .call((Call::Upload, None), || {
                    w.upload_documents(as_upload(&reuploads))
                })
                .1;
        }
        round_ns += rec
            .call((Call::Upload, None), || {
                w.upload_documents(as_upload(&replacements))
            })
            .1;
        let (deleted, delete_ns) = rec.call((Call::DeleteDocuments, None), || {
            w.delete_documents(delete_uris.iter().copied())
        });
        let (build, build_ns) =
            rec.call((Call::BuildIndex, Some(Strategy::Lup)), || w.build_index());
        let (report, workload_ns) = rec.call((Call::RunWorkload, None), || {
            w.run_workload(&self.inputs.queries, 1)
        });
        // The op call is the whole round: until the changes are indexed
        // and the queries answered over them.
        rec.op_samples.push((
            self.round as u32,
            round_ns + delete_ns + build_ns + workload_ns,
        ));

        rec.off_clock(|| {
            // Bring the harness's model of the corpus up to date, then
            // check the round against the oracle over that corpus.
            let uploaded = (reuploads.len() + replacements.len()) as u64;
            for (slot, _, xml) in reuploads.into_iter().chain(replacements) {
                self.current[slot] = Some(xml);
            }
            for slot in &delete_slots {
                self.current[*slot] = None;
            }
            if self.oracles.len() == self.round {
                let live: Vec<Document> = self
                    .inputs
                    .corpus
                    .iter()
                    .zip(&self.current)
                    .filter_map(|((uri, _), xml)| Some(parse(uri, xml.as_ref()?)))
                    .collect();
                let answers = self.inputs.queries.iter();
                self.oracles
                    .push(answers.map(|q| oracle_answer(q, &live)).collect());
            }
            let oracle = &self.oracles[self.round];
            obs.note_build(w.world(), &build, uploaded, w.cache_stats(), cache_before);
            obs.work.keys_deleted += deleted.index_items_removed as f64;
            let asked = self.inputs.queries.len() as u64;
            let answered = report.executions.len() as u64;
            obs.check(
                asked,
                asked.saturating_sub(answered),
                "query without an answer",
            );
            for exec in &report.executions {
                obs.note_execution(&self.inputs, exec, Some(oracle));
            }
            let cloud = Cloud::since(w.world(), &before);
            obs.work.note_cloud(&cloud);
            window.cloud += cloud;
            window.virt.makespan_us += (build.total_time + report.total_time).micros();
            for exec in &report.executions {
                window.virt.push_latency(exec.response_time);
            }
            window.virt.cost_pico += cloud.total_pico();
            window.virt.ops += 1;
            window.retracted += build.retracted_items + deleted.index_items_removed;
            window.last_build = (
                build.avg_extraction_time.as_secs_f64(),
                build.avg_upload_time.as_secs_f64(),
            );
            drop(report);
        });
        self.deleted = delete_slots;
        self.round += 1;
    }
}

impl Bench for ChurnMixed {
    fn min_iterations(_: &Scale) -> usize {
        2
    }

    fn setup(inputs: Inputs) -> Self {
        let (warehouse, current) = fresh(&inputs);
        let mut bench = ChurnMixed {
            inputs,
            warehouse,
            current,
            oracles: Vec::new(),
            deleted: Vec::new(),
            round: 0,
        };
        // Warm-up round, observed by nobody.
        let mut rec = Recorder::new(false);
        rec.begin_iteration();
        bench.round(&mut rec, &mut Observed::new(), &mut Window::default());
        bench
    }

    fn ops_per_iteration(&self) -> f64 {
        self.inputs.scale.churn_rounds as f64
    }

    fn iterate(&mut self, rec: &mut Recorder, obs: &mut Observed) {
        // Start over, off the clock: an empty parse cache and a fresh
        // warehouse holding the corpus. The previous warehouse goes first:
        // built while it is still alive, the new one lands elsewhere in
        // the heap and its rounds run a quarter slower.
        rec.off_clock(|| {
            ExtractCache::shared().clear();
            self.current.clear();
            let empty = Warehouse::new(WarehouseConfig::with_strategy(Strategy::Lup));
            drop(std::mem::replace(&mut self.warehouse, empty));
            (self.warehouse, self.current) = fresh(&self.inputs);
            self.deleted.clear();
            self.round = 0;
        });
        let rounds = self.inputs.scale.churn_rounds;
        let mut window = Window::default();
        for _ in 0..rounds {
            self.round(rec, obs, &mut window);
        }
        if obs.iteration == 0 {
            let w = &self.warehouse;
            let extras = [
                (
                    "core.index_bytes_per_corpus_byte",
                    w.world().kv.stats().stored_bytes() as f64 / w.corpus_bytes() as f64,
                ),
                (
                    "index.loadutil.retracted_items_per_round",
                    window.retracted as f64 / rounds as f64,
                ),
                ("core.build.virt_extract_s", window.last_build.0),
                ("core.build.virt_upload_s", window.last_build.1),
            ];
            obs.extras.extend(extras.map(|(k, v)| (k.to_string(), v)));
        }
        obs.window_or_compare(window.virt, window.cloud);
    }

    fn finish(self, obs: &mut Observed) -> Inputs {
        // The churned index must be byte-identical to a fresh LUP build of
        // the corpus as it now stands.
        let mut fresh = Warehouse::new(WarehouseConfig::with_strategy(Strategy::Lup));
        let live = self
            .inputs
            .corpus
            .iter()
            .zip(&self.current)
            .filter_map(|((uri, _), xml)| Some((uri.as_str(), xml.as_ref()?.as_str())));
        fresh.upload_documents(live);
        fresh.build_index();
        let same = fresh.world().kv.peek_all() == self.warehouse.world().kv.peek_all();
        obs.check(
            1,
            u64::from(!same),
            "churned index differs from a fresh build",
        );
        self.inputs
    }
}

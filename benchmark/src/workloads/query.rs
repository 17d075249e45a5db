//! `query_indexed` and `query_scan`: the same query layer, used two ways.
//!
//! Indexed: one warehouse per strategy, built in set-up; a pass sends the
//! paper's ten queries through `run_query` on each (closed loop, one
//! client). Look-up → decode → twig → fetch → evaluate do the work on a
//! warm parse cache; LUP exercises path filtering, LUI and 2LUPI the ID
//! decode and holistic-join plan.
//!
//! Scan: one warehouse with the documents uploaded and **no index built**;
//! a pass sends the ten queries through `run_query_no_index`, which
//! fetches and evaluates the whole corpus. Zero index look-ups: the
//! bypass for every look-up or codec optimisation, the amplifier for
//! pattern evaluation, `S3::get` and per-query fixed overhead.

use crate::harness::{cost_parts, Bench, Cloud, Observed, Virtual};
use crate::host::{Call, Recorder};
use crate::inputs::{Inputs, Scale};
use amada_core::{CostedQuery, Warehouse, WarehouseConfig};
use amada_index::Strategy;

pub struct QueryBench<const INDEXED: bool> {
    inputs: Inputs,
    warehouses: Vec<Warehouse>,
}

pub type QueryIndexed = QueryBench<true>;
pub type QueryScan = QueryBench<false>;

impl<const INDEXED: bool> QueryBench<INDEXED> {
    fn run(w: &mut Warehouse, q: &amada_pattern::Query) -> CostedQuery {
        if INDEXED {
            w.run_query(q)
        } else {
            w.run_query_no_index(q)
        }
    }
}

impl<const INDEXED: bool> Bench for QueryBench<INDEXED> {
    fn min_iterations(_: &Scale) -> usize {
        5
    }

    fn setup(inputs: Inputs) -> Self {
        let strategies: &[Strategy] = if INDEXED {
            &Strategy::ALL
        } else {
            &[Strategy::Lu]
        };
        let mut warehouses: Vec<Warehouse> = strategies
            .iter()
            .map(|s| {
                let mut w = Warehouse::new(WarehouseConfig::with_strategy(*s));
                w.upload_documents(inputs.documents());
                if INDEXED {
                    w.build_index();
                }
                w
            })
            .collect();
        // Warm-up pass.
        for w in &mut warehouses {
            for q in &inputs.queries {
                Self::run(w, q);
            }
        }
        QueryBench { inputs, warehouses }
    }

    fn ops_per_iteration(&self) -> f64 {
        (self.warehouses.len() * self.inputs.queries.len()) as f64
    }

    fn iterate(&mut self, rec: &mut Recorder, obs: &mut Observed) {
        let mut virt = Virtual::default();
        let mut cloud = Cloud::default();
        let (mut lookup_us, mut plan_us, mut eval_us, mut fetched) = (0u64, 0u64, 0u64, 0u64);
        for (wi, w) in self.warehouses.iter_mut().enumerate() {
            let strategy = w.config().strategy;
            let key = if INDEXED {
                (Call::RunQuery, Some(strategy))
            } else {
                (Call::RunQueryNoIndex, None)
            };
            let before = w.world().snapshot();
            for (qi, q) in self.inputs.queries.iter().enumerate() {
                let (out, ns) = rec.call(key, || Self::run(w, q));
                let class = (wi * self.inputs.queries.len() + qi) as u32;
                rec.op_samples.push((class, ns));
                virt.makespan_us += out.exec.response_time.micros();
                virt.push_latency(out.exec.response_time);
                virt.cost_pico += cost_parts(&out.cost).iter().sum::<u128>();
                virt.ops += 1;
                lookup_us += out.exec.phases.lookup_get.micros();
                plan_us += out.exec.phases.plan.micros();
                eval_us += out.exec.phases.transfer_eval.micros();
                fetched += out.exec.docs_fetched as u64;
                // Checking the answer and freeing it is the harness's cost.
                rec.off_clock(|| {
                    obs.note_execution(&self.inputs, &out.exec, None);
                    drop(out);
                });
            }
            let c = Cloud::since(w.world(), &before);
            obs.work.note_cloud(&c);
            cloud += c;
        }
        if obs.iteration == 0 {
            let n = virt.ops as f64;
            let index_bytes: u64 = self
                .warehouses
                .iter()
                .map(|w| w.world().kv.stats().stored_bytes())
                .sum();
            let extras = [
                ("core.query.virt_lookup_ms", lookup_us as f64 / 1e3 / n),
                ("core.query.virt_plan_ms", plan_us as f64 / 1e3 / n),
                ("core.query.virt_transfer_eval_ms", eval_us as f64 / 1e3 / n),
                ("core.query.docs_fetched_per_query", fetched as f64 / n),
                (
                    "core.index_bytes_per_corpus_byte",
                    index_bytes as f64 / self.inputs.corpus_bytes as f64,
                ),
            ];
            obs.extras.extend(extras.map(|(k, v)| (k.to_string(), v)));
        }
        obs.window_or_compare(virt, cloud);
    }

    fn finish(self, _: &mut Observed) -> Inputs {
        self.inputs
    }
}

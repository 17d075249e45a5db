//! The reusable billing-invariant registry (oracle E).
//!
//! Two kinds of invariants live here:
//!
//! * [`ledger_matches_spans`] — the recorder's spans are an independent
//!   view of the same requests the billing counters meter; summing span
//!   charges per service must reproduce the ledger exactly (to within
//!   per-span rounding for the one volume-priced service). Lifted out of
//!   `tests/observability.rs` so the harness and the test suite share one
//!   implementation.
//! * [`billing_oracle`] — metamorphic invariances checked by running the
//!   same tiny warehouse pipeline under configuration changes that must
//!   not change the bill (recorder on/off, prewarm on/off, the host's
//!   evaluation memo cold or warm, explicit zero fault rates) or must not
//!   change billed index operations and answers (batching off).
//! * [`isolation_oracle`] — two live warehouses holding *different bytes
//!   under the same URIs*, stepped in lock-step on two threads, must each
//!   end up exactly where a warehouse with no neighbour does.

use crate::gen::Case;
use amada_cloud::{FaultConfig, KvItem, Money, ServiceKind, Span, World, PRICES};
use amada_core::{Warehouse, WarehouseConfig};
use amada_index::{ExtractCache, ExtractOptions};
use amada_pattern::Query;

/// Checks that per-service span charges reproduce the ledger.
///
/// Exact for the index store, S3 and SQS (per-request pricing); egress is
/// volume-priced, so each span rounds its own bytes to a picodollar while
/// the ledger rounds the total once — they may differ by at most one
/// picodollar per span.
pub fn ledger_matches_spans(spans: &[Span], world: &World) -> Result<(), String> {
    let p = &PRICES;
    let billed_for = |svc: ServiceKind| -> Money {
        spans
            .iter()
            .filter(|s| s.service == svc)
            .map(|s| s.billed)
            .sum()
    };

    let kv = world.kv.stats();
    let expected = p.idx_put * kv.put_ops + p.idx_get * kv.get_ops;
    if billed_for(ServiceKind::Kv) != expected {
        return Err(format!(
            "kv spans ({:?}) do not reconcile with the ledger ({expected:?})",
            billed_for(ServiceKind::Kv)
        ));
    }

    let s3 = world.s3.stats();
    let expected = p.st_put * s3.put_requests + p.st_get * s3.get_requests;
    if billed_for(ServiceKind::S3) != expected {
        return Err(format!(
            "s3 spans ({:?}) do not reconcile with the ledger ({expected:?})",
            billed_for(ServiceKind::S3)
        ));
    }

    let sqs = world.sqs.stats();
    let sqs_spans = spans
        .iter()
        .filter(|s| s.service == ServiceKind::Sqs)
        .count() as u64;
    if sqs_spans != sqs.requests {
        return Err(format!(
            "{sqs_spans} SQS spans for {} billed SQS requests",
            sqs.requests
        ));
    }
    let expected = p.qs_request * sqs.requests;
    if billed_for(ServiceKind::Sqs) != expected {
        return Err(format!(
            "sqs spans ({:?}) do not reconcile with the ledger ({expected:?})",
            billed_for(ServiceKind::Sqs)
        ));
    }

    let egress_spans = spans
        .iter()
        .filter(|s| s.service == ServiceKind::Egress)
        .count() as i128;
    let ledger_egress = p.egress_gb.per_gb(world.egress_bytes);
    let diff = billed_for(ServiceKind::Egress)
        .signed_diff(ledger_egress)
        .abs();
    if diff > egress_spans.max(1) {
        return Err(format!(
            "egress spans off the ledger by {diff} picodollars over {egress_spans} spans"
        ));
    }

    if billed_for(ServiceKind::Actor) != Money::ZERO {
        return Err("actor spans are phases and must carry no charges".to_string());
    }
    Ok(())
}

/// One pipeline run's observable output: the Debug renderings of every
/// report, which cover virtual times, bills, result tuples and counters.
fn run_pipeline(
    case: &Case,
    query: &Query,
    tweak: impl FnOnce(&mut WarehouseConfig),
) -> (Vec<String>, Vec<String>, Warehouse) {
    // Rotate the strategy with the case index so all four are exercised
    // across a seed's cases.
    let strategy = crate::case_strategy(case.index);
    let mut cfg = WarehouseConfig::with_strategy(strategy);
    cfg.extract = ExtractOptions {
        index_words: case.index_words,
    };
    tweak(&mut cfg);
    let mut w = Warehouse::new(cfg);
    w.upload_documents(case.docs.clone());
    let build = format!("{:?}", w.build_index());
    let costed = w.run_query(query);
    let answers = crate::oracles::canon_joined(&costed.exec.results);
    let renders = vec![
        build,
        format!("{costed:?}"),
        format!("{:?}", w.world().cost_report()),
    ];
    (renders, answers, w)
}

/// Runs the metamorphic billing invariances on one case.
pub fn billing_oracle(case: &Case, query: &Query) -> Result<(), String> {
    let (base, base_answers, base_w) = run_pipeline(case, query, |_| {});

    // Recording is observation-only — and while it is on, the spans must
    // reconcile with the ledger.
    let (recorded, _, recorded_w) = run_pipeline(case, query, |cfg| cfg.host.record = true);
    if recorded != base {
        return Err(diverged("recorder on vs off", &base, &recorded));
    }
    let spans = recorded_w.spans();
    if spans.is_empty() {
        return Err("recorder collected no spans".to_string());
    }
    ledger_matches_spans(&spans, recorded_w.world())?;

    // Host-side prewarm parallelism shapes only the wall clock.
    let (cold, _, _) = run_pipeline(case, query, |cfg| cfg.host.prewarm = false);
    if cold != base {
        return Err(diverged("prewarm off", &base, &cold));
    }

    // The runs above left the host's evaluation and look-up memos warm:
    // empty them.
    let (unmemoized, _, _) = run_pipeline(case, query, |_| ExtractCache::shared().clear());
    if unmemoized != base {
        return Err(diverged("host memos cold vs warm", &base, &unmemoized));
    }

    // An explicit zero-rate fault config is identical to the default.
    let (faultless, _, _) = run_pipeline(case, query, |cfg| {
        cfg.faults = FaultConfig {
            seed: case.seed ^ case.index as u64,
            rate: 0.0,
        }
    });
    if faultless != base {
        return Err(diverged("explicit zero fault rates", &base, &faultless));
    }

    // Batching off multiplies API round trips (timings legitimately shift)
    // but must not change billed capacity units — both backends bill per
    // item / attribute, not per request — nor, of course, the answers.
    let (_, unbatched_answers, unbatched_w) =
        run_pipeline(case, query, |cfg| cfg.kv_tuning.disable_batching = true);
    let (b, u) = (base_w.world().kv.stats(), unbatched_w.world().kv.stats());
    if (b.put_ops, b.get_ops) != (u.put_ops, u.get_ops) {
        return Err(format!(
            "batching off changed billed index ops: {}/{} puts, {}/{} gets",
            b.put_ops, u.put_ops, b.get_ops, u.get_ops
        ));
    }
    if base_answers != unbatched_answers {
        return Err(format!(
            "batching off changed answers: {base_answers:?} vs {unbatched_answers:?}"
        ));
    }
    Ok(())
}

/// The index contents and the canonical answers of one warehouse.
type Observed = (Vec<(String, KvItem)>, Vec<Vec<String>>);

/// Runs two warehouses on two threads over colliding URIs: neighbour `k`
/// uploads and indexes the corpus with every document's content moved
/// `k` URIs along, then replaces all of it with the content moved `k + 2`
/// along, rebuilds and answers `queries` — a barrier before every step,
/// so uploads, builds, retractions and queries of the two interleave on
/// the process-wide extraction cache. Each must hold the index of, and
/// answer like, a fresh warehouse given only its own final corpus.
pub fn isolation_oracle(
    docs: &[(String, String)],
    cfg: &WarehouseConfig,
    queries: &[Query],
) -> Result<(), String> {
    let corpus = |shift: usize| -> Vec<(String, String)> {
        (0..docs.len())
            .map(|i| (docs[i].0.clone(), docs[(i + shift) % docs.len()].1.clone()))
            .collect()
    };
    let observe = |w: &mut Warehouse| -> Observed {
        let answers = queries
            .iter()
            .map(|q| crate::oracles::canon_joined(&w.run_query(q).exec.results))
            .collect();
        (w.world().kv.peek_all(), answers)
    };
    let step = std::sync::Barrier::new(2);
    let neighbour = |k: usize| -> Observed {
        let mut w = Warehouse::new(cfg.clone());
        step.wait();
        w.upload_documents(corpus(k));
        step.wait();
        w.build_index();
        step.wait();
        w.upload_documents(corpus(k + 2));
        step.wait();
        w.build_index();
        step.wait();
        observe(&mut w)
    };
    let lived = std::thread::scope(|s| {
        let other = s.spawn(|| neighbour(1));
        [neighbour(0), other.join().expect("neighbour thread")]
    });
    for (k, lived) in lived.into_iter().enumerate() {
        let mut fresh = Warehouse::new(cfg.clone());
        fresh.upload_documents(corpus(k + 2));
        fresh.build_index();
        let alone = observe(&mut fresh);
        if lived.0 != alone.0 {
            return Err(format!(
                "warehouse {k}: index differs from a fresh build of its own corpus \
                 ({} items vs {})",
                lived.0.len(),
                alone.0.len()
            ));
        }
        if lived.1 != alone.1 {
            return Err(format!(
                "warehouse {k}: answers differ from a fresh build of its own corpus\n  \
                 alone:      {:?}\n  neighbours: {:?}",
                alone.1, lived.1
            ));
        }
    }
    Ok(())
}

fn diverged(what: &str, base: &[String], variant: &[String]) -> String {
    let mismatch = base
        .iter()
        .zip(variant)
        .find(|(a, b)| a != b)
        .map(|(a, b)| format!("\n  base:    {a}\n  variant: {b}"))
        .unwrap_or_default();
    format!("{what} changed the observable run{mismatch}")
}

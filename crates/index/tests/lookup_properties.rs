//! Property tests for the look-up planners: on random corpora and random
//! patterns over the XMark vocabulary,
//!
//! * candidate sets are contained as LU ⊇ LUP ⊇ LUI = 2LUPI (the paper's
//!   Table 5 invariant), and
//! * no strategy ever loses a document that actually matches
//!   (no false negatives — look-ups are conservative by design).
//!
//! Cases derive deterministically from `(fixed master seed, case index)`
//! via `amada-rng`, so failures reproduce exactly.

mod common;

use amada_cloud::{KvStore, SimTime};
use amada_index::{index_documents, lookup_pattern_in, ExtractOptions, Strategy as IndexStrategy};
use amada_pattern::eval::naive_has_match;
use amada_rng::StdRng;
use common::{corpus, gen_pattern};
use std::collections::BTreeSet;

#[test]
fn containment_and_no_false_negatives() {
    for case in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0x100C_0000 + case);
        let seed = rng.gen_range(0..8u64);
        let pattern = gen_pattern(&mut rng);
        let docs = corpus(seed);
        let opts = ExtractOptions::default();
        let mut per_strategy: Vec<BTreeSet<String>> = Vec::new();
        for s in IndexStrategy::ALL {
            let mut store = KvStore::default();
            index_documents(&mut store, &docs, s, opts);
            let out = lookup_pattern_in(&mut store, SimTime::ZERO, s, opts, &pattern).unwrap();
            per_strategy.push(out.uris.iter().map(|u| u.to_string()).collect());
        }
        let (lu, lup, lui, lupi) = (
            &per_strategy[0],
            &per_strategy[1],
            &per_strategy[2],
            &per_strategy[3],
        );
        assert!(lup.is_subset(lu), "case {case}: LUP ⊆ LU\n{pattern:?}");
        assert!(lui.is_subset(lup), "case {case}: LUI ⊆ LUP\n{pattern:?}");
        assert_eq!(lui, lupi, "case {case}: LUI = 2LUPI");
        // No false negatives anywhere.
        for d in &docs {
            if naive_has_match(d, &pattern) {
                for (s, set) in IndexStrategy::ALL.iter().zip(&per_strategy) {
                    assert!(
                        set.contains(d.uri()),
                        "case {case}: {s} dropped matching document {}\npattern {pattern:?}",
                        d.uri()
                    );
                }
            }
        }
    }
}

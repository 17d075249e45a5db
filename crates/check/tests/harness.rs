//! End-to-end tests for the differential harness itself.
//!
//! Two obligations: a clean sweep over several seeds (no false
//! positives), and a self-validation run with an injected strategy
//! mutation that the oracles must catch and shrink (no false
//! negatives).

use amada_check::{run_check, CheckConfig, Mutation};

#[test]
fn clean_sweep_over_three_seeds() {
    for seed in [1u64, 2, 3] {
        let mut cfg = CheckConfig::new(seed, 25);
        cfg.billing_every = 5;
        let outcome = run_check(&cfg);
        assert!(
            outcome.ok(),
            "seed {seed} produced a violation:\n{}",
            outcome.failure.unwrap()
        );
        assert_eq!(outcome.cases_passed, 25);
    }
}

#[test]
fn injected_mutation_is_caught_and_shrunk() {
    // Skipping LUP's data-path filter makes LUP a pure label
    // intersection, so any case whose document shares the query's labels
    // without the required structure breaks oracle A or B. Probe a few
    // seeds so the test does not hinge on one generator coincidence.
    let mut caught = None;
    for seed in 1u64..=6 {
        let mut cfg = CheckConfig::new(seed, 40);
        cfg.mutation = Mutation::SkipLupPathFilter;
        let outcome = run_check(&cfg);
        if let Some(repro) = outcome.failure {
            caught = Some((seed, repro));
            break;
        }
    }
    let (seed, repro) = caught.expect("SkipLupPathFilter must be caught within 6 seeds x 40 cases");
    assert_eq!(repro.mutation, Mutation::SkipLupPathFilter);
    // The shrinker must have produced a small, self-contained case.
    assert!(!repro.case.docs.is_empty());
    assert!(
        repro.case.docs.len() <= 2,
        "shrinker left {} documents",
        repro.case.docs.len()
    );
    let rendered = repro.to_string();
    assert!(rendered.contains("amada-check reproducer"), "{rendered}");
    assert!(rendered.contains("SkipLupPathFilter"), "{rendered}");
    assert!(
        rendered.contains(&format!("seed {seed} case")),
        "{rendered}"
    );
}

/// The first churn violation `mutation` produces within the seeds and
/// cases the harness spends on a churn mutation, shrunk.
fn caught_by_the_churn_oracle(mutation: Mutation) -> amada_check::Reproducer {
    let mut caught = None;
    for seed in 1u64..=6 {
        let mut cfg = CheckConfig::new(seed, 40);
        cfg.billing_every = 0;
        cfg.mutation = mutation;
        let outcome = run_check(&cfg);
        if let Some(repro) = outcome.failure {
            caught = Some(repro);
            break;
        }
    }
    let repro =
        caught.unwrap_or_else(|| panic!("{mutation:?} must be caught within 6 seeds x 40 cases"));
    assert_eq!(repro.violation.oracle, "churn");
    assert!(
        !repro.case.churn.is_empty(),
        "a churn violation needs churn operations"
    );
    let rendered = repro.to_string();
    assert!(rendered.contains("churn ("), "{rendered}");
    repro
}

#[test]
fn dropped_retractions_are_caught_by_the_churn_oracle() {
    // If the front end forgets pending retractions, any key-changing
    // re-upload leaves stale index entries behind; the churn oracle must
    // see the churned index diverge from a fresh build of the survivors.
    caught_by_the_churn_oracle(Mutation::DropRetractions);
}

#[test]
fn a_registry_that_vouches_for_every_kept_key_is_caught_by_the_churn_oracle() {
    // If the registry says the store already holds what a replaced
    // document now stores under the keys it kept, the loader writes none
    // of them and a changed path or ID list stays as it was: the churned
    // index holds bytes a fresh build does not. One document, replaced
    // once, is all it takes.
    let repro = caught_by_the_churn_oracle(Mutation::VouchForKeptKeys);
    assert!(repro.violation.detail.contains("missing (fresh only)"));
    assert!(
        repro.case.docs.len() <= 2,
        "shrinker left {} documents",
        repro.case.docs.len()
    );
}

//! # amada-check
//!
//! A seeded, shrinking differential / metamorphic correctness harness for
//! the warehouse (run as `repro check --seed N --cases M`).
//!
//! The paper's whole argument rests on an equivalence claim: all four
//! indexing strategies and the no-index scan return *identical* query
//! answers, differing only in time and dollars (Sections 5–8). This crate
//! turns that claim — and the store and billing contracts underneath it —
//! into machine-checked oracles over randomized corpora and queries:
//!
//! * **A — answers**: per strategy and backend profile, evaluating the
//!   query on the index's candidate documents returns exactly the
//!   no-index scan's answers.
//! * **B — containment**: candidate sets obey LU ⊇ LUP ⊇ LUI = 2LUPI
//!   (the paper's Table 5 invariant).
//! * **C — twig vs. naive**: the holistic twig join agrees with the
//!   naive backtracking evaluator on every document.
//! * **D — round-trip**: `encode_entry` → backend items → `decode_*` is
//!   lossless for every extracted entry under both backend profiles.
//! * **E — billing** (sampled): the recorder's span charges reconcile
//!   with the ledger exactly, and the metamorphic invariances hold
//!   (recorder on/off, explicit zero fault rates, batching on/off).
//! * **F — churn**: when the case carries a churn script (re-uploads,
//!   deletes, delete-then-re-add), replaying it against a warehouse must
//!   converge — index bytes, file store, accounting and answers — to a
//!   fresh build of the surviving corpus.
//! * **G — isolation** (sampled with E): two warehouses holding different
//!   bytes under the same URIs, stepped in lock-step on two threads, each
//!   converge to what a warehouse with no neighbour holds and answers.
//!
//! On a violation the failing case is *shrunk* — fewer documents, fewer
//! churn operations, smaller documents, smaller query — and printed as a
//! self-contained reproducer.

pub mod gen;
pub mod invariants;
pub mod oracles;
pub mod shrink;

use amada_index::Strategy;

pub use gen::{final_docs, generate_case, Case, ChurnOp};
pub use oracles::{check_case, Violation};
pub use shrink::{shrink_case, Reproducer};

/// The strategy a case exercises in warehouse-level oracles (billing,
/// churn): rotates through the four with the case index.
pub fn case_strategy(index: usize) -> Strategy {
    Strategy::ALL[index % Strategy::ALL.len()]
}

/// A deliberate bug injected into the look-up path, used to validate that
/// the harness actually catches (and shrinks) strategy-equivalence bugs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mutation {
    /// No injected bug: check the real implementation.
    #[default]
    None,
    /// LUP without the data-path filter: candidates are every URI owning
    /// the terminal key of each query path, skipping `data_path_matches`.
    /// Breaks the containment oracle (LUP ⊄ LU) whenever a document has a
    /// path's terminal label but lacks an inner label.
    SkipLupPathFilter,
    /// The front end forgets every pending retraction before each index
    /// build: stale entries from replaced documents are never deleted.
    /// Breaks the churn oracle (churned index ≠ fresh build) on any
    /// key-changing re-upload.
    DropRetractions,
    /// The registry vouches for the stored version alone: before each
    /// index build every pending entry holds just that version's write
    /// set, as if the store held it, so the loader rewrites none of its
    /// items and deletes no key only an earlier version has. Breaks the
    /// churn oracle on any re-upload that changes a value under a key it
    /// keeps (a path list, an ID list).
    VouchForKeptKeys,
}

/// Harness configuration for one seed.
#[derive(Debug, Clone, Copy)]
pub struct CheckConfig {
    /// Master seed; every case derives from `(seed, case index)`.
    pub seed: u64,
    /// Number of cases to run.
    pub cases: usize,
    /// Run the (heavier) billing and isolation oracles on every Nth case;
    /// 0 disables them.
    pub billing_every: usize,
    /// Injected bug, for harness self-validation.
    pub mutation: Mutation,
}

impl CheckConfig {
    /// The default configuration for a seed.
    pub fn new(seed: u64, cases: usize) -> CheckConfig {
        CheckConfig {
            seed,
            cases,
            billing_every: 10,
            mutation: Mutation::None,
        }
    }
}

/// Outcome of a seed's run: how many cases passed, and the shrunk
/// reproducer of the first violation (if any).
#[derive(Debug)]
pub struct CheckOutcome {
    /// Cases that passed before the run stopped.
    pub cases_passed: usize,
    /// The first violation, shrunk; `None` when every case passed.
    pub failure: Option<Reproducer>,
}

impl CheckOutcome {
    /// True when every case passed.
    pub fn ok(&self) -> bool {
        self.failure.is_none()
    }
}

/// Runs `cfg.cases` seeded cases, stopping at (and shrinking) the first
/// violation.
pub fn run_check(cfg: &CheckConfig) -> CheckOutcome {
    for index in 0..cfg.cases {
        let case = generate_case(cfg.seed, index);
        let billing = cfg.billing_every > 0 && index % cfg.billing_every == 0;
        if check_case(&case, cfg.mutation, billing).is_err() {
            let reproducer = shrink_case(&case, cfg.mutation, billing);
            return CheckOutcome {
                cases_passed: index,
                failure: Some(reproducer),
            };
        }
    }
    CheckOutcome {
        cases_passed: cfg.cases,
        failure: None,
    }
}

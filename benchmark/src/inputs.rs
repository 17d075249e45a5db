//! The inputs every workload shares, derived from `--seed` alone: the XMark
//! corpus, the paper's ten queries and the oracle answers. The program
//! under test only ever receives these generated inputs.

use amada_pattern::{evaluate_query_on_documents, JoinedTuple, Query};
use amada_xmark::CorpusConfig;
use amada_xml::Document;

/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 0xA3ADA;

/// How much work a run does. `FULL` is what the metrics are defined at;
/// `QUICK` is the smoke scale of `--quick` and the unit tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    pub name: &'static str,
    pub documents: usize,
    pub doc_bytes: usize,
    /// Times the whole set-up is repeated at least, and at most (a cheap
    /// set-up is repeated more often); `setup_s` is the fastest.
    pub setup_reps: usize,
    pub setup_reps_max: usize,
    /// Arrivals per storm step.
    pub storm_arrivals: usize,
    /// Arrivals at the end of a step that must also meet the limit.
    pub storm_tail: usize,
    /// Churn rounds per iteration, each iteration on a fresh warehouse.
    pub churn_rounds: usize,
    /// Documents replaced / deleted per churn round, and the slot stride.
    pub churn_replace: usize,
    pub churn_delete: usize,
    pub churn_stride: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        name: "full",
        documents: 500,
        doc_bytes: 8192,
        setup_reps: 3,
        setup_reps_max: 9,
        storm_arrivals: 250,
        storm_tail: 100,
        churn_rounds: 5,
        churn_replace: 50,
        churn_delete: 10,
        churn_stride: 60,
    };
    pub const QUICK: Scale = Scale {
        name: "quick",
        documents: 40,
        doc_bytes: 2048,
        setup_reps: 1,
        setup_reps_max: 1,
        storm_arrivals: 40,
        storm_tail: 20,
        churn_rounds: 3,
        churn_replace: 5,
        churn_delete: 2,
        churn_stride: 7,
    };
}

/// Corpus, queries and oracle answers for one seed.
pub struct Inputs {
    pub seed: u64,
    pub scale: Scale,
    /// `(uri, xml)` in slot order; slot `i` holds `doc_uri(i)`.
    pub corpus: Vec<(String, String)>,
    pub corpus_bytes: u64,
    /// The same documents, parsed (by the harness, not the warehouse).
    pub parsed: Vec<Document>,
    pub queries: Vec<Query>,
    /// Canonical oracle answer of each query over the whole corpus.
    pub oracle: Vec<Vec<String>>,
}

impl Inputs {
    /// The generator configuration for `seed` (also used by the churn
    /// workload, with a round seed, for replacement documents).
    pub fn corpus_config(seed: u64, scale: &Scale) -> CorpusConfig {
        CorpusConfig {
            seed,
            num_documents: scale.documents,
            target_doc_bytes: scale.doc_bytes,
            ..CorpusConfig::default()
        }
    }

    pub fn generate(seed: u64, scale: Scale) -> Inputs {
        let corpus: Vec<(String, String)> =
            amada_xmark::generate_corpus(&Self::corpus_config(seed, &scale))
                .into_iter()
                .map(|d| (d.uri, d.xml))
                .collect();
        let parsed: Vec<Document> = corpus.iter().map(|(u, x)| parse(u, x)).collect();
        let queries = amada_xmark::workload();
        let oracle = queries.iter().map(|q| oracle_answer(q, &parsed)).collect();
        Inputs {
            seed,
            scale,
            corpus_bytes: corpus.iter().map(|(_, x)| x.len() as u64).sum(),
            corpus,
            parsed,
            queries,
            oracle,
        }
    }

    /// `(uri, xml)` pairs in the shape `Warehouse::upload_documents` takes.
    pub fn documents(&self) -> impl Iterator<Item = (&str, &str)> {
        self.corpus.iter().map(|(u, x)| (u.as_str(), x.as_str()))
    }

    /// The library's content hash over every URI's and document's content
    /// hash, in slot order: two runs saw the same corpus exactly when this
    /// agrees.
    pub fn corpus_hash(&self) -> u64 {
        let per_part: Vec<u8> = self
            .corpus
            .iter()
            .flat_map(|(uri, xml)| [uri, xml])
            .flat_map(|part| amada_index::content_hash(part.as_bytes()).to_le_bytes())
            .collect();
        amada_index::content_hash(&per_part)
    }

    /// Index of the query an execution name belongs to (`q3`, or the
    /// open-loop form `q3#17`).
    pub fn query_index(&self, execution_name: &str) -> Option<usize> {
        let base = execution_name.split('#').next().unwrap_or(execution_name);
        self.queries
            .iter()
            .position(|q| q.name.as_deref() == Some(base))
    }
}

/// Parses a generated document; the generator only emits well-formed XML.
pub fn parse(uri: &str, xml: &str) -> Document {
    Document::parse_str(uri, xml).expect("generated documents are well-formed")
}

/// The oracle: standard evaluation of `query` over `docs`, canonicalised.
pub fn oracle_answer<'a>(
    query: &Query,
    docs: impl IntoIterator<Item = &'a Document> + Clone,
) -> Vec<String> {
    canonical(&evaluate_query_on_documents(query, docs).0)
}

/// Sorted, multiplicity-preserving rendering of a result set: two result
/// sets are the same answer exactly when their renderings are equal.
pub fn canonical(results: &[JoinedTuple]) -> Vec<String> {
    let mut v: Vec<String> = results
        .iter()
        .map(|t| format!("{:?}|{:?}", t.uris, t.columns))
        .collect();
    v.sort_unstable();
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_decides_the_corpus() {
        let a = Inputs::generate(1, Scale::QUICK);
        let b = Inputs::generate(1, Scale::QUICK);
        let c = Inputs::generate(2, Scale::QUICK);
        assert_eq!(a.corpus_hash(), b.corpus_hash());
        assert_ne!(a.corpus_hash(), c.corpus_hash());
        assert_eq!(a.corpus.len(), Scale::QUICK.documents);
        assert_eq!(a.oracle.len(), a.queries.len());
        assert_eq!(a.query_index("q3#17"), Some(2));
        assert_eq!(a.query_index("nope"), None);
    }
}

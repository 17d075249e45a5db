//! Experiment scale: how big a corpus the reproduction runs on.

use amada_xmark::CorpusConfig;

/// Corpus scale parameters shared by every experiment.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Number of documents (paper: 20 000).
    pub docs: usize,
    /// Approximate bytes per document (paper: ~2 MB).
    pub doc_bytes: usize,
    /// Corpus seed.
    pub seed: u64,
    /// Workload repetitions for the Figure 10 experiment (paper: 16).
    pub workload_repeats: usize,
}

impl Scale {
    /// The default reproduction scale: 2 000 × ~8 KB documents (the byte
    /// regime where index payloads, not per-item constants, drive the
    /// strategy differences, as at the paper's 2 MB documents).
    pub fn default_scale() -> Scale {
        Scale {
            docs: 2000,
            doc_bytes: 8192,
            seed: 0xA3ADA,
            workload_repeats: 16,
        }
    }

    /// A tiny scale for unit/integration tests (seconds of wall time).
    pub fn tiny() -> Scale {
        Scale {
            docs: 60,
            doc_bytes: 1536,
            seed: 0xA3ADA,
            workload_repeats: 2,
        }
    }

    /// Multiplies the document count by `factor`.
    pub fn scaled(mut self, factor: f64) -> Scale {
        self.docs = ((self.docs as f64 * factor).round() as usize).max(8);
        self
    }

    /// The generator configuration for this scale.
    pub fn corpus_config(&self) -> CorpusConfig {
        CorpusConfig {
            seed: self.seed,
            num_documents: self.docs,
            target_doc_bytes: self.doc_bytes,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_multiplies_docs() {
        let s = Scale::default_scale().scaled(0.5);
        assert_eq!(s.docs, 1000);
        assert_eq!(Scale::default_scale().scaled(0.0001).docs, 8);
    }
}

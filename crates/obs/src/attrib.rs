//! Cost attribution: billed money decomposed by context tag.
//!
//! The span stream carries a [`Ctx`](amada_cloud::Ctx) on every event;
//! summing billed amounts over those tags yields the paper's Figure 12-style
//! decompositions (cost per warehouse phase, per service within a phase)
//! and the per-query / per-document views the paper's "who pays for
//! what" analysis needs. `BTreeMap`s keep iteration order deterministic
//! so reports are stable across runs.

use amada_cloud::{Money, Phase, ServiceKind, Span};
use std::collections::BTreeMap;

/// Billed money decomposed along the span context tags.
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    /// Total billed per warehouse phase.
    pub by_phase: BTreeMap<Phase, Money>,
    /// Total billed per (phase, service).
    pub by_phase_service: BTreeMap<(Phase, ServiceKind), Money>,
    /// Total billed per query name (spans tagged with a query).
    pub by_query: BTreeMap<String, Money>,
    /// Total billed per (query name, service).
    pub by_query_service: BTreeMap<(String, ServiceKind), Money>,
    /// Total billed per document URI (spans tagged with a document).
    pub by_doc: BTreeMap<String, Money>,
    /// Total billed across all spans.
    pub total: Money,
}

impl Attribution {
    /// Decomposes `spans` along every context axis at once.
    pub fn attribute(spans: &[Span]) -> Attribution {
        let mut a = Attribution::default();
        for s in spans {
            a.total += s.billed;
            *a.by_phase.entry(s.ctx.phase).or_default() += s.billed;
            *a.by_phase_service
                .entry((s.ctx.phase, s.service))
                .or_default() += s.billed;
            if let Some(q) = &s.ctx.query {
                *a.by_query.entry(q.to_string()).or_default() += s.billed;
                *a.by_query_service
                    .entry((q.to_string(), s.service))
                    .or_default() += s.billed;
            }
            if let Some(d) = &s.ctx.doc {
                *a.by_doc.entry(d.to_string()).or_default() += s.billed;
            }
        }
        a
    }

    /// Billed money for one phase (zero if no spans carried it).
    pub fn phase(&self, phase: Phase) -> Money {
        self.by_phase.get(&phase).copied().unwrap_or(Money::ZERO)
    }

    /// Billed money for one query (zero if unknown).
    pub fn query(&self, name: &str) -> Money {
        self.by_query.get(name).copied().unwrap_or(Money::ZERO)
    }

    /// The phase decomposition sums back to the total — attribution
    /// never loses or double-counts money (every span has exactly one
    /// phase). Used by reconciliation tests and debug assertions.
    pub fn phases_sum_to_total(&self) -> bool {
        self.by_phase.values().copied().sum::<Money>() == self.total
    }

    /// Renders the per-phase × per-service table as fixed-width text.
    pub fn render_by_phase(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{:<10}", "phase"));
        for svc in ServiceKind::ALL {
            out.push_str(&format!("  {:>14}", svc.label()));
        }
        out.push_str(&format!("  {:>14}\n", "total"));
        for phase in Phase::ALL {
            if self.phase(phase) == Money::ZERO && !self.by_phase.contains_key(&phase) {
                continue;
            }
            out.push_str(&format!("{:<10}", phase.label()));
            for svc in ServiceKind::ALL {
                let m = self
                    .by_phase_service
                    .get(&(phase, svc))
                    .copied()
                    .unwrap_or(Money::ZERO);
                // Money's Display ignores width specs; pad the string.
                out.push_str(&format!("  {:>14}", m.to_string()));
            }
            out.push_str(&format!("  {:>14}\n", self.phase(phase).to_string()));
        }
        out.push_str(&format!("total {}\n", self.total));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amada_cloud::{Ctx, SimTime};

    fn span(phase: Phase, service: ServiceKind, query: Option<&str>, pico: u128) -> Span {
        let ctx = Ctx {
            phase,
            query: query.map(|q| q.into()),
            doc: None,
            actor: None,
        };
        Span::new(service, "op", SimTime::ZERO, SimTime(1), &ctx).billed(Money::from_pico(pico))
    }

    #[test]
    fn decomposes_by_phase_and_query() {
        let spans = vec![
            span(Phase::Build, ServiceKind::Kv, None, 100),
            span(Phase::Build, ServiceKind::S3, None, 40),
            span(Phase::Query, ServiceKind::Kv, Some("q1"), 7),
            span(Phase::Query, ServiceKind::Kv, Some("q2"), 11),
            span(Phase::Query, ServiceKind::Sqs, Some("q1"), 3),
        ];
        let a = Attribution::attribute(&spans);
        assert_eq!(a.total, Money::from_pico(161));
        assert_eq!(a.phase(Phase::Build), Money::from_pico(140));
        assert_eq!(a.phase(Phase::Query), Money::from_pico(21));
        assert_eq!(a.phase(Phase::Upload), Money::ZERO);
        assert_eq!(a.query("q1"), Money::from_pico(10));
        assert_eq!(a.query("q2"), Money::from_pico(11));
        assert_eq!(
            a.by_phase_service[&(Phase::Build, ServiceKind::Kv)],
            Money::from_pico(100)
        );
        assert_eq!(
            a.by_query_service[&("q1".to_string(), ServiceKind::Sqs)],
            Money::from_pico(3)
        );
        assert!(a.phases_sum_to_total());
    }

    #[test]
    fn empty_attribution() {
        let a = Attribution::attribute(&[]);
        assert_eq!(a.total, Money::ZERO);
        assert!(a.by_phase.is_empty());
        assert!(a.phases_sum_to_total());
    }

    #[test]
    fn doc_tags_roll_up() {
        let ctx = Ctx {
            phase: Phase::Upload,
            query: None,
            doc: Some("doc-3.xml".into()),
            actor: None,
        };
        let spans = vec![
            Span::new(ServiceKind::S3, "put", SimTime::ZERO, SimTime(1), &ctx)
                .billed(Money::from_pico(9)),
            Span::new(ServiceKind::S3, "put", SimTime(1), SimTime(2), &ctx)
                .billed(Money::from_pico(9)),
        ];
        let a = Attribution::attribute(&spans);
        assert_eq!(a.by_doc["doc-3.xml"], Money::from_pico(18));
    }

    #[test]
    fn render_contains_phase_rows() {
        let spans = vec![span(Phase::Build, ServiceKind::Kv, None, 5)];
        let table = Attribution::attribute(&spans).render_by_phase();
        assert!(table.contains("build"));
        assert!(table.contains("kv"));
    }
}

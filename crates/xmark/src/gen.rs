//! Deterministic XMark-style document generator reproducing the paper's
//! corpus construction (Section 8.1): XMark documents generated "using the
//! split option provided by the data generator", plus the paper's two
//! heterogeneity transforms.
//!
//! ## Split fragments
//!
//! XMark's split option cuts the single auction site into many documents,
//! each holding a *fragment* — a run of items, of people, of auctions…
//! Documents are therefore **specialized**: an `item` query only concerns
//! the item documents, which is exactly what makes label look-ups
//! selective in the paper's Table 5. The generator assigns each document a
//! [`DocKind`] from a fixed 20-slot rotation (7× items, 5× people, 4× open
//! auctions, 3× closed auctions, 1× mixed site), shifted per 20-block so
//! kinds decorrelate from the structural variants.
//!
//! ## Heterogeneity transforms (paper Section 8.1)
//!
//! * a fraction of documents have their **path structure altered** while
//!   preserving labels (wrapper elements break parent–child query paths →
//!   LU returns them, LUP filters them out);
//! * another fraction is made **"more" heterogeneous** by rendering
//!   compulsory children optional (labels and root-to-leaf paths still
//!   occur somewhere, but not co-occurring under one node → LUP returns
//!   them, the LUI/2LUPI twig join filters them out).
//!
//! ## Value clustering
//!
//! Real split fragments are internally homogeneous (neighbouring items
//! share flavour). Each document draws *themes* — a default payment, a
//! home country, a "gold" topic flag, a business bias — so value and word
//! predicates are selective at document granularity, like the paper's.
//!
//! ## Cross-document references
//!
//! Entity identifiers (`person-D-K`, `item-D-K`, `auction-D-K`) live in a
//! corpus-global space; references are drawn from documents of the kind
//! that actually defines the entity, so value-join queries genuinely join
//! tuples from different documents.
//!
//! Generation is deterministic: document `i` depends only on
//! `(config.seed, i)`, so corpus prefixes are stable (used by Figure 7).

use crate::words::{gen_name_plain, gen_text, push_words};
use amada_rng::StdRng;

/// Corpus generation parameters.
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// Master seed; all randomness derives from `(seed, doc index)`.
    pub seed: u64,
    /// Number of documents in the corpus.
    pub num_documents: usize,
    /// Approximate size of each document in bytes.
    pub target_doc_bytes: usize,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            seed: 0xA3ADA,
            num_documents: 200,
            target_doc_bytes: 2048,
        }
    }
}

/// Which structural variant a document uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DocVariant {
    /// Plain XMark structure.
    Standard,
    /// Same labels, altered nesting (`info`, `terms`, `bidders`, `contact`
    /// wrappers).
    Restructured,
    /// Optional children dropped aggressively; co-occurrence broken.
    Sparse,
}

/// Which split fragment a document holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DocKind {
    /// A regions/items fragment.
    Items,
    /// A people fragment.
    People,
    /// An open-auctions fragment.
    OpenAuctions,
    /// A closed-auctions fragment.
    ClosedAuctions,
    /// A whole miniature site (all sections) — also the guaranteed target
    /// for every reference kind.
    Mixed,
}

impl DocKind {
    /// True when documents of this kind define `item-D-K` entities.
    pub fn has_items(self) -> bool {
        matches!(self, DocKind::Items | DocKind::Mixed)
    }

    /// True when documents of this kind define `person-D-K` entities.
    pub fn has_persons(self) -> bool {
        matches!(self, DocKind::People | DocKind::Mixed)
    }

    /// True when documents of this kind define `auction-D-K` entities.
    pub fn has_auctions(self) -> bool {
        matches!(self, DocKind::OpenAuctions | DocKind::Mixed)
    }
}

/// A generated document (not yet parsed).
#[derive(Debug, Clone)]
pub struct GeneratedDoc {
    /// Corpus-unique object name, e.g. `xmark00042.xml`.
    pub uri: String,
    /// The XML text.
    pub xml: String,
    /// Structural variant used.
    pub variant: DocVariant,
    /// Fragment kind.
    pub kind: DocKind,
}

/// Minimum entities per defining document; cross-document references only
/// target indices below these bounds so every reference resolves.
pub const MIN_PERSONS: usize = 2;
/// See [`MIN_PERSONS`].
pub const MIN_ITEMS: usize = 2;
/// See [`MIN_PERSONS`].
pub const MIN_AUCTIONS: usize = 1;

const REGIONS: &[&str] = &[
    "africa",
    "asia",
    "australia",
    "europe",
    "namerica",
    "samerica",
];
const COUNTRIES: &[&str] = &[
    "United-States",
    "France",
    "Germany",
    "Japan",
    "Brazil",
    "Kenya",
    "Australia",
];
const CITIES: &[&str] = &[
    "Paris", "Lyon", "Boston", "Tokyo", "Nairobi", "Sydney", "Recife",
];
const PAYMENTS: &[&str] = &["Cash", "Money-order", "Personal-check"];

/// The 20-slot kind rotation: 35 % items, 25 % people, 20 % open auctions,
/// 15 % closed auctions, 5 % mixed. Slot 6 is `Items` **by construction**:
/// workload query q1 targets `item-6-0`, and document 6 is also a
/// Standard variant (see [`variant_for`]).
const KIND_SLOTS: [DocKind; 20] = [
    DocKind::Items,
    DocKind::People,
    DocKind::OpenAuctions,
    DocKind::Items,
    DocKind::ClosedAuctions,
    DocKind::People,
    DocKind::Items,
    DocKind::OpenAuctions,
    DocKind::People,
    DocKind::Items,
    DocKind::Mixed,
    DocKind::OpenAuctions,
    DocKind::Items,
    DocKind::People,
    DocKind::ClosedAuctions,
    DocKind::Items,
    DocKind::OpenAuctions,
    DocKind::People,
    DocKind::Items,
    DocKind::ClosedAuctions,
];

/// Decides the kind of document `idx`. The slot rotates by one per
/// 20-block so kinds decorrelate from [`variant_for`]'s slots — except
/// document 6, pinned to `Items` for the q1 point query.
pub fn kind_for(idx: usize) -> DocKind {
    if idx == 6 {
        return DocKind::Items;
    }
    KIND_SLOTS[(idx + idx / 20) % 20]
}

/// Slots of every 20 whose documents have altered path structure
/// (variant B, 15 %).
const RESTRUCTURED_SLOTS: usize = 3;
/// Slots of every 20 after those whose documents have aggressively
/// optional children (variant C, 15 %).
const SPARSE_SLOTS: usize = 3;

/// Decides the variant of document `idx`. Variants are interleaved with a
/// period of 20 so every corpus prefix holds all three in the same
/// proportions.
pub fn variant_for(idx: usize) -> DocVariant {
    match idx % 20 {
        slot if slot < RESTRUCTURED_SLOTS => DocVariant::Restructured,
        slot if slot < RESTRUCTURED_SLOTS + SPARSE_SLOTS => DocVariant::Sparse,
        _ => DocVariant::Standard,
    }
}

/// The URI document `idx` is stored under.
pub fn doc_uri(idx: usize) -> String {
    format!("xmark{idx:05}.xml")
}

/// Per-document value themes (the clustering that keeps predicates
/// selective at document granularity).
#[derive(Debug, Clone)]
struct Themes {
    /// Most items in this document pay this way.
    default_payment: &'static str,
    /// Whether this document's item names are about "gold".
    gold_topic: bool,
    /// Persons' home country.
    home_country: &'static str,
    /// Probability a person here runs a business.
    business_bias: f64,
    /// Probability an auction here is of type Regular.
    regular_bias: f64,
}

impl Themes {
    fn draw(rng: &mut StdRng) -> Themes {
        Themes {
            // ~20 % of item documents are Creditcard-dominant (q2's target).
            default_payment: if rng.gen_bool(0.2) {
                "Creditcard"
            } else {
                PAYMENTS[rng.gen_range(0..PAYMENTS.len())]
            },
            // ~15 % of item documents are about gold (q3 / q10's word).
            gold_topic: rng.gen_bool(0.15),
            home_country: COUNTRIES[rng.gen_range(0..COUNTRIES.len())],
            business_bias: if rng.gen_bool(0.2) { 0.6 } else { 0.1 },
            regular_bias: if rng.gen_bool(0.7) { 0.9 } else { 0.3 },
        }
    }
}

/// Generates document `idx` of the corpus described by `cfg`.
pub fn generate_document(cfg: &CorpusConfig, idx: usize) -> GeneratedDoc {
    let variant = variant_for(idx);
    let kind = kind_for(idx);
    let mut rng =
        StdRng::seed_from_u64(cfg.seed.wrapping_mul(0x9E37_79B9).wrapping_add(idx as u64));
    let themes = Themes::draw(&mut rng);
    let g = Gen {
        cfg: cfg.clone(),
        doc: idx,
        variant,
        themes,
    };
    let target = cfg.target_doc_bytes;

    let mut x = String::with_capacity(target + 1024);
    x.push_str("<site>");
    match kind {
        DocKind::Items => {
            let n = (target / 340).max(MIN_ITEMS);
            g.items_section(&mut rng, n, &mut x);
        }
        DocKind::People => {
            let n = (target / 420).max(MIN_PERSONS);
            g.people_section(&mut rng, n, &mut x);
        }
        DocKind::OpenAuctions => {
            let n = (target / 460).max(MIN_AUCTIONS);
            g.open_section(&mut rng, n, &mut x);
        }
        DocKind::ClosedAuctions => {
            let n = (target / 320).max(1);
            g.closed_section(&mut rng, n, &mut x);
        }
        DocKind::Mixed => {
            let blocks = (target / 1500).max(1);
            g.items_section(&mut rng, blocks.max(MIN_ITEMS), &mut x);
            g.categories_section(&mut rng, 2, &mut x);
            g.people_section(&mut rng, blocks.max(MIN_PERSONS), &mut x);
            g.open_section(&mut rng, blocks.max(MIN_AUCTIONS), &mut x);
            g.closed_section(&mut rng, blocks.max(1), &mut x);
        }
    }
    x.push_str("</site>");
    GeneratedDoc {
        uri: doc_uri(idx),
        xml: x,
        variant,
        kind,
    }
}

/// Generates the whole corpus, using all host cores.
///
/// Document `i` is a pure function of `(cfg.seed, i)` (its generator is
/// seeded per document), so the parallel result is byte-identical to
/// [`generate_document`] over `0..n` in order — asserted by the
/// `parallel_generation_*` test.
pub fn generate_corpus(cfg: &CorpusConfig) -> Vec<GeneratedDoc> {
    let indices: Vec<usize> = (0..cfg.num_documents).collect();
    amada_par::par_map(&indices, |_, &i| generate_document(cfg, i))
}

struct Gen {
    cfg: CorpusConfig,
    doc: usize,
    variant: DocVariant,
    themes: Themes,
}

impl Gen {
    fn sparse(&self) -> bool {
        self.variant == DocVariant::Sparse
    }

    fn restructured(&self) -> bool {
        self.variant == DocVariant::Restructured
    }

    // -- cross-document references ---------------------------------------
    //
    // Rejection-sample a document of the kind that defines the entity;
    // `Mixed` documents guarantee termination (one per 20-slot cycle, and
    // tiny corpora fall back to the pinned Items document / document 0).

    fn ref_doc(&self, rng: &mut StdRng, accepts: impl Fn(DocKind) -> bool) -> Option<usize> {
        let n = self.cfg.num_documents.max(1);
        for _ in 0..64 {
            let d = rng.gen_range(0..n);
            if accepts(kind_for(d)) {
                return Some(d);
            }
        }
        (0..n).find(|&d| accepts(kind_for(d)))
    }

    fn person_ref(&self, rng: &mut StdRng) -> String {
        let d = self.ref_doc(rng, DocKind::has_persons).unwrap_or(1);
        format!("person-{d}-{}", rng.gen_range(0..MIN_PERSONS))
    }

    fn item_ref(&self, rng: &mut StdRng) -> String {
        let d = self.ref_doc(rng, DocKind::has_items).unwrap_or(6);
        format!("item-{d}-{}", rng.gen_range(0..MIN_ITEMS))
    }

    fn auction_ref(&self, rng: &mut StdRng) -> String {
        let d = self.ref_doc(rng, DocKind::has_auctions).unwrap_or(2);
        format!("auction-{d}-{}", rng.gen_range(0..MIN_AUCTIONS))
    }

    fn date(&self, rng: &mut StdRng) -> String {
        format!(
            "{:02}/{:02}/{}",
            rng.gen_range(1..=12),
            rng.gen_range(1..=28),
            rng.gen_range(1998..=2003)
        )
    }

    fn full_name(&self, rng: &mut StdRng) -> String {
        let mut s = String::new();
        push_words(rng, 2, &mut s);
        s
    }

    /// An item name under the document's topic theme.
    fn item_name(&self, rng: &mut StdRng) -> String {
        let mut name = gen_name_plain(rng);
        let p_gold = if self.themes.gold_topic { 0.6 } else { 0.005 };
        if rng.gen_bool(p_gold) {
            name.push_str(" gold");
        }
        if rng.gen_bool(0.03) {
            name.push_str(" dragon");
        }
        if rng.gen_bool(0.25) {
            name.push_str(" shipment");
        }
        name
    }

    // -- sections ----------------------------------------------------------

    fn items_section(&self, rng: &mut StdRng, n: usize, x: &mut String) {
        x.push_str("<regions>");
        let region = REGIONS[rng.gen_range(0..REGIONS.len())];
        x.push('<');
        x.push_str(region);
        x.push('>');
        for k in 0..n {
            self.item(rng, k, x);
        }
        x.push_str("</");
        x.push_str(region);
        x.push('>');
        x.push_str("</regions>");
    }

    fn categories_section(&self, rng: &mut StdRng, n: usize, x: &mut String) {
        x.push_str("<categories>");
        for k in 0..n {
            x.push_str(&format!("<category id=\"cat-{k}\">"));
            x.push_str(&format!("<name>{}</name>", gen_name_plain(rng)));
            x.push_str(&format!(
                "<description><text>{}</text></description>",
                gen_text(rng, 40)
            ));
            x.push_str("</category>");
        }
        x.push_str("</categories>");
    }

    fn people_section(&self, rng: &mut StdRng, n: usize, x: &mut String) {
        x.push_str("<people>");
        for k in 0..n {
            self.person(rng, k, x);
        }
        x.push_str("</people>");
    }

    fn open_section(&self, rng: &mut StdRng, n: usize, x: &mut String) {
        x.push_str("<open_auctions>");
        for k in 0..n {
            self.open_auction(rng, k, x);
        }
        x.push_str("</open_auctions>");
    }

    fn closed_section(&self, rng: &mut StdRng, n: usize, x: &mut String) {
        x.push_str("<closed_auctions>");
        for _ in 0..n {
            self.closed_auction(rng, x);
        }
        x.push_str("</closed_auctions>");
    }

    // -- entities ----------------------------------------------------------

    fn item(&self, rng: &mut StdRng, k: usize, x: &mut String) {
        let id = format!("item-{}-{k}", self.doc);
        let country = COUNTRIES[rng.gen_range(0..COUNTRIES.len())];
        x.push_str(&format!("<item id=\"{id}\">"));
        x.push_str(&format!("<location>{country}</location>"));
        x.push_str(&format!("<quantity>{}</quantity>", rng.gen_range(1..=3)));
        // In sparse documents, items carry either a name or a mailbox
        // (rarely both): root-to-leaf paths exist document-wide while twig
        // co-occurrence under a single item is broken.
        let name = self.item_name(rng);
        let (emit_name, emit_mailbox) = if self.sparse() {
            if rng.gen_bool(0.5) {
                (true, rng.gen_bool(0.1))
            } else {
                (rng.gen_bool(0.1), true)
            }
        } else {
            (true, rng.gen_bool(0.8))
        };
        let payment = if rng.gen_bool(0.85) {
            self.themes.default_payment
        } else {
            PAYMENTS[rng.gen_range(0..PAYMENTS.len())]
        };
        let name_and_payment = |rng: &mut StdRng, x: &mut String| {
            if emit_name {
                x.push_str(&format!("<name>{name}</name>"));
            }
            if !self.sparse() || rng.gen_bool(0.5) {
                x.push_str(&format!("<payment>{payment}</payment>"));
            }
        };
        if self.restructured() {
            // Variant B: name/payment move under an <info> wrapper;
            // labels survive, the child path item/name does not.
            x.push_str("<info>");
            name_and_payment(rng, x);
            x.push_str("</info>");
        } else {
            name_and_payment(rng, x);
        }
        if !self.sparse() || rng.gen_bool(0.3) {
            x.push_str(&format!(
                "<description><text>{}</text></description>",
                gen_text(rng, 80)
            ));
        }
        x.push_str("<shipping>Will ship internationally</shipping>");
        x.push_str(&format!(
            "<incategory category=\"cat-{}\"/>",
            rng.gen_range(0..10)
        ));
        if emit_mailbox {
            x.push_str("<mailbox><mail>");
            x.push_str(&format!("<from>{}</from>", self.full_name(rng)));
            x.push_str(&format!("<to>{}</to>", self.full_name(rng)));
            x.push_str(&format!("<date>{}</date>", self.date(rng)));
            x.push_str(&format!("<text>{}</text>", gen_text(rng, 40)));
            x.push_str("</mail></mailbox>");
        }
        x.push_str("</item>");
    }

    fn person(&self, rng: &mut StdRng, k: usize, x: &mut String) {
        let id = format!("person-{}-{k}", self.doc);
        x.push_str(&format!("<person id=\"{id}\">"));
        let name = self.full_name(rng);
        if self.restructured() {
            x.push_str(&format!("<info><name>{name}</name></info>"));
        } else {
            x.push_str(&format!("<name>{name}</name>"));
        }
        x.push_str(&format!(
            "<emailaddress>mailto:{}@example.org</emailaddress>",
            name.replace(' ', ".")
        ));
        if rng.gen_bool(0.5) {
            x.push_str(&format!(
                "<phone>+{} ({}) {}</phone>",
                rng.gen_range(1..99),
                rng.gen_range(100..999),
                rng.gen_range(1000000..9999999)
            ));
        }
        let emit_address = if self.sparse() {
            rng.gen_bool(0.25)
        } else {
            rng.gen_bool(0.7)
        };
        if emit_address {
            let country = if rng.gen_bool(0.9) {
                self.themes.home_country
            } else {
                COUNTRIES[rng.gen_range(0..COUNTRIES.len())]
            };
            let addr = format!(
                "<street>{} {} St</street><city>{}</city><country>{}</country><zipcode>{}</zipcode>",
                rng.gen_range(1..99),
                crate::words::VOCABULARY[rng.gen_range(0..crate::words::VOCABULARY.len())],
                CITIES[rng.gen_range(0..CITIES.len())],
                country,
                rng.gen_range(10000..99999)
            );
            if self.restructured() {
                x.push_str(&format!("<contact><address>{addr}</address></contact>"));
            } else {
                x.push_str(&format!("<address>{addr}</address>"));
            }
        }
        if rng.gen_bool(0.4) {
            x.push_str(&format!(
                "<creditcard>{} {} {} {}</creditcard>",
                rng.gen_range(1000..9999),
                rng.gen_range(1000..9999),
                rng.gen_range(1000..9999),
                rng.gen_range(1000..9999)
            ));
        }
        let emit_profile = if self.sparse() {
            rng.gen_bool(0.3)
        } else {
            rng.gen_bool(0.75)
        };
        if emit_profile {
            x.push_str(&format!(
                "<profile income=\"{}\">",
                rng.gen_range(20000..100000)
            ));
            x.push_str(&format!(
                "<interest category=\"cat-{}\"/>",
                rng.gen_range(0..10)
            ));
            if rng.gen_bool(0.5) {
                x.push_str("<education>Graduate School</education>");
            }
            x.push_str(&format!(
                "<business>{}</business>",
                if rng.gen_bool(self.themes.business_bias) {
                    "Yes"
                } else {
                    "No"
                }
            ));
            if rng.gen_bool(0.7) {
                x.push_str(&format!("<age>{}</age>", rng.gen_range(18..80)));
            }
            x.push_str("</profile>");
        }
        if rng.gen_bool(0.5) {
            x.push_str("<watches>");
            for _ in 0..rng.gen_range(1..=2) {
                x.push_str(&format!(
                    "<watch open_auction=\"{}\"/>",
                    self.auction_ref(rng)
                ));
            }
            x.push_str("</watches>");
        }
        x.push_str("</person>");
    }

    fn open_auction(&self, rng: &mut StdRng, k: usize, x: &mut String) {
        let id = format!("auction-{}-{k}", self.doc);
        x.push_str(&format!("<open_auction id=\"{id}\">"));
        let initial: f64 = rng.gen_range(5.0..100.0);
        let terms = format!(
            "<initial>{initial:.2}</initial>{}<current>{:.2}</current>",
            if rng.gen_bool(0.6) {
                format!("<reserve>{:.2}</reserve>", initial * 1.5)
            } else {
                String::new()
            },
            initial + rng.gen_range(0.0..200.0),
        );
        if self.restructured() {
            // Variant B: pricing fields move under <terms>.
            x.push_str(&format!("<terms>{terms}</terms>"));
        } else {
            x.push_str(&terms);
        }
        let n_bidders = if self.sparse() && rng.gen_bool(0.6) {
            0
        } else {
            rng.gen_range(0..=3)
        };
        let mut bidders = String::new();
        for _ in 0..n_bidders {
            bidders.push_str(&format!(
                "<bidder><date>{}</date><time>{:02}:{:02}:{:02}</time><personref person=\"{}\"/><increase>{:.2}</increase></bidder>",
                self.date(rng),
                rng.gen_range(0..24),
                rng.gen_range(0..60),
                rng.gen_range(0..60),
                self.person_ref(rng),
                rng.gen_range(1.5..60.0)
            ));
        }
        if self.restructured() && !bidders.is_empty() {
            x.push_str(&format!("<bidders>{bidders}</bidders>"));
        } else {
            x.push_str(&bidders);
        }
        x.push_str(&format!("<itemref item=\"{}\"/>", self.item_ref(rng)));
        x.push_str(&format!("<seller person=\"{}\"/>", self.person_ref(rng)));
        if !self.sparse() || rng.gen_bool(0.3) {
            x.push_str(&format!(
                "<annotation><author person=\"{}\"/><description><text>{}</text></description></annotation>",
                self.person_ref(rng),
                gen_text(rng, 60)
            ));
        }
        x.push_str("<quantity>1</quantity>");
        x.push_str(&format!(
            "<type>{}</type>",
            if rng.gen_bool(self.themes.regular_bias) {
                "Regular"
            } else {
                "Featured"
            }
        ));
        x.push_str(&format!(
            "<interval><start>{}</start><end>{}</end></interval>",
            self.date(rng),
            self.date(rng)
        ));
        x.push_str("</open_auction>");
    }

    fn closed_auction(&self, rng: &mut StdRng, x: &mut String) {
        x.push_str("<closed_auction>");
        x.push_str(&format!("<seller person=\"{}\"/>", self.person_ref(rng)));
        x.push_str(&format!("<buyer person=\"{}\"/>", self.person_ref(rng)));
        x.push_str(&format!("<itemref item=\"{}\"/>", self.item_ref(rng)));
        x.push_str(&format!("<price>{:.2}</price>", rng.gen_range(5.0..500.0)));
        x.push_str(&format!("<date>{}</date>", self.date(rng)));
        x.push_str("<quantity>1</quantity>");
        x.push_str(&format!(
            "<type>{}</type>",
            if rng.gen_bool(self.themes.regular_bias) {
                "Regular"
            } else {
                "Featured"
            }
        ));
        if !self.sparse() || rng.gen_bool(0.3) {
            x.push_str(&format!(
                "<annotation><author person=\"{}\"/><description><text>{}</text></description></annotation>",
                self.person_ref(rng),
                gen_text(rng, 40)
            ));
        }
        x.push_str("</closed_auction>");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amada_xml::Document;
    use std::collections::HashMap;

    fn small_cfg() -> CorpusConfig {
        CorpusConfig {
            num_documents: 40,
            target_doc_bytes: 1500,
            ..Default::default()
        }
    }

    #[test]
    fn documents_parse() {
        let cfg = small_cfg();
        for i in 0..cfg.num_documents {
            let d = generate_document(&cfg, i);
            let parsed = Document::parse_str(&d.uri, &d.xml)
                .unwrap_or_else(|e| panic!("doc {i} failed to parse: {e}\n{}", d.xml));
            assert_eq!(parsed.name(parsed.root()), Some("site"));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = small_cfg();
        let a = generate_document(&cfg, 7);
        let b = generate_document(&cfg, 7);
        assert_eq!(a.xml, b.xml);
    }

    #[test]
    fn parallel_generation_is_byte_identical_to_sequential() {
        let cfg = CorpusConfig {
            num_documents: 120,
            ..small_cfg()
        };
        let seq: Vec<GeneratedDoc> = (0..cfg.num_documents)
            .map(|i| generate_document(&cfg, i))
            .collect();
        let par = generate_corpus(&cfg);
        assert_eq!(seq.len(), par.len());
        for (s, p) in seq.iter().zip(&par) {
            assert_eq!(s.uri, p.uri);
            assert_eq!(s.xml, p.xml, "{} diverged under parallel generation", s.uri);
            assert_eq!(s.variant, p.variant);
            assert_eq!(s.kind, p.kind);
        }
    }

    #[test]
    fn prefixes_are_stable_under_corpus_growth() {
        let cfg = small_cfg();
        let all = generate_corpus(&cfg);
        let d5 = generate_document(&cfg, 5);
        assert_eq!(all[5].xml, d5.xml);
    }

    #[test]
    fn variants_appear_in_expected_proportions() {
        let mut counts = [0usize; 3];
        for i in 0..200 {
            match variant_for(i) {
                DocVariant::Restructured => counts[0] += 1,
                DocVariant::Sparse => counts[1] += 1,
                DocVariant::Standard => counts[2] += 1,
            }
        }
        assert_eq!(counts[0], 30); // 15 % of 200
        assert_eq!(counts[1], 30);
        assert_eq!(counts[2], 140);
    }

    #[test]
    fn kinds_follow_split_proportions() {
        let mut counts: HashMap<DocKind, usize> = HashMap::new();
        for i in 0..400 {
            *counts.entry(kind_for(i)).or_default() += 1;
        }
        // 35 / 25 / 20 / 15 / 5 % (±1 slot for the pinned document 6).
        assert!((135..=145).contains(&counts[&DocKind::Items]), "{counts:?}");
        assert!((95..=105).contains(&counts[&DocKind::People]), "{counts:?}");
        assert!(
            (75..=85).contains(&counts[&DocKind::OpenAuctions]),
            "{counts:?}"
        );
        assert!(
            (55..=65).contains(&counts[&DocKind::ClosedAuctions]),
            "{counts:?}"
        );
        assert!((15..=25).contains(&counts[&DocKind::Mixed]), "{counts:?}");
        // Document 6 is pinned for q1.
        assert_eq!(kind_for(6), DocKind::Items);
        assert_eq!(variant_for(6), DocVariant::Standard);
    }

    #[test]
    fn kinds_specialize_documents() {
        let cfg = small_cfg();
        for i in 0..cfg.num_documents {
            let d = generate_document(&cfg, i);
            let doc = Document::parse_str(&d.uri, &d.xml).unwrap();
            let has = |l: &str| !doc.elements_named(l).is_empty();
            match d.kind {
                DocKind::Items => {
                    assert!(
                        has("item") && !has("person") && !has("open_auction"),
                        "doc {i}"
                    );
                }
                DocKind::People => {
                    assert!(has("person") && !has("item"), "doc {i}");
                }
                DocKind::OpenAuctions => {
                    assert!(has("open_auction") && !has("person"), "doc {i}");
                }
                DocKind::ClosedAuctions => {
                    assert!(has("closed_auction") && !has("open_auction"), "doc {i}");
                }
                DocKind::Mixed => {
                    assert!(
                        has("item") && has("person") && has("open_auction"),
                        "doc {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn sizes_are_near_target() {
        let cfg = CorpusConfig {
            target_doc_bytes: 4096,
            ..small_cfg()
        };
        for i in 0..10 {
            let d = generate_document(&cfg, i);
            assert!(d.xml.len() > 1500, "doc {i} too small: {}", d.xml.len());
            assert!(d.xml.len() < 16384, "doc {i} too large: {}", d.xml.len());
        }
    }

    #[test]
    fn restructured_docs_lack_child_name_under_item() {
        let cfg = small_cfg();
        let mut seen_restructured = false;
        for i in 0..cfg.num_documents {
            let d = generate_document(&cfg, i);
            if d.variant != DocVariant::Restructured {
                continue;
            }
            seen_restructured = true;
            let doc = Document::parse_str(&d.uri, &d.xml).unwrap();
            for &item in doc.elements_named("item") {
                for c in doc.element_children(item) {
                    assert_ne!(
                        doc.name(c),
                        Some("name"),
                        "restructured item has child name"
                    );
                }
            }
        }
        assert!(seen_restructured);
    }

    #[test]
    fn references_resolve_to_defining_documents() {
        let cfg = small_cfg();
        for i in 0..cfg.num_documents {
            let d = generate_document(&cfg, i);
            let doc = Document::parse_str(&d.uri, &d.xml).unwrap();
            for (label, attr, accepts) in [
                (
                    "buyer",
                    "person",
                    DocKind::has_persons as fn(DocKind) -> bool,
                ),
                ("seller", "person", DocKind::has_persons),
                ("itemref", "item", DocKind::has_items),
                ("watch", "open_auction", DocKind::has_auctions),
            ] {
                for &n in doc.elements_named(label) {
                    let r = doc.attribute(n, attr).unwrap();
                    let parts: Vec<&str> = r.rsplitn(3, '-').collect();
                    let doc_idx: usize = parts[1].parse().unwrap();
                    assert!(doc_idx < cfg.num_documents, "{r}");
                    assert!(
                        accepts(kind_for(doc_idx)),
                        "{label} ref {r} to non-defining doc"
                    );
                }
            }
        }
    }

    #[test]
    fn gold_topic_is_document_clustered() {
        let cfg = CorpusConfig {
            num_documents: 300,
            target_doc_bytes: 2048,
            ..Default::default()
        };
        let mut gold_docs = 0usize;
        let mut item_docs = 0usize;
        for i in 0..cfg.num_documents {
            let d = generate_document(&cfg, i);
            if !d.kind.has_items() {
                continue;
            }
            item_docs += 1;
            if d.xml.contains(" gold") {
                gold_docs += 1;
            }
        }
        let rate = gold_docs as f64 / item_docs as f64;
        assert!((0.05..0.40).contains(&rate), "gold doc rate {rate}");
    }
}

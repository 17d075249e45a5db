//! `repro perf` — hot-path microbenchmarks (beyond the paper).
//!
//! Self-timed rates of the four kernels the warehouse runs on, at the
//! requested corpus scale (`1x`) and ten times that (`10x`). All four are
//! absolute: no "before" implementation is kept alive to be a column —
//! the before numbers are the cross-build kernel measurements in
//! `EXPERIMENTS.md`.
//!
//! * **parse** — zero-copy XML parsing throughput (MiB/s of source).
//! * **tokenize** — streaming [`amada_xml::for_each_word`] (MiB/s of
//!   text content).
//! * **decode** — full postings-list decode throughput (million IDs/s)
//!   over the per-document ID lists the store keeps, with the one-byte
//!   varint fast path.
//! * **twig** — the galloping (exponential probe + binary search)
//!   holistic twig join over corpus-scale merged postings (ns per stream
//!   entry).
//!
//! Host wall-clock timing makes the output nondeterministic, so `perf` is
//! *not* part of `repro all` (which stays byte-comparable run to run).
//! The measured rates land in `BENCH_repro.json`; `repro perf --enforce`
//! additionally fails the process when a release build regresses more
//! than [`REGRESSION_TOLERANCE`] past the repo-pinned reference rates —
//! the CI smoke guard for the parse, tokenize and decode throughputs and
//! the twig-join latency (the one lower-is-better pin).

use crate::{Scale, TextTable};
use amada_index::codec::{decode_ids, encode_ids, BlockList};
use amada_pattern::parse_pattern;
use amada_pattern::twig::{holistic_twig_join, TwigShape};
use amada_xml::{for_each_word, Document, StructuralId};
use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Repo-pinned release-build reference rates for the `--enforce` floors.
/// Deliberately conservative (roughly half of what a developer-class x86
/// host measures) so ordinary CI jitter passes and only a real fast-path
/// regression trips the guard.
pub const PINNED_PARSE_MIBPS: f64 = 60.0;
/// See [`PINNED_PARSE_MIBPS`]; full-decode rate in million IDs per second.
pub const PINNED_DECODE_MIDS: f64 = 60.0;
/// See [`PINNED_PARSE_MIBPS`]; streaming-tokenizer rate in MiB/s of text.
pub const PINNED_TOKENIZE_MIBPS: f64 = 70.0;
/// Galloping twig-join ceiling in ns per stream entry — the one
/// lower-is-better pin, set at roughly twice what a developer-class x86
/// host measures.
pub const PINNED_TWIG_NS: f64 = 2.5;
/// Fraction past the pinned rate that still passes (`0.30` = fail only
/// when more than 30% slower than the pin, in whichever direction the
/// axis calls slower).
pub const REGRESSION_TOLERANCE: f64 = 0.30;

const MIB: f64 = 1024.0 * 1024.0;

/// The last run's JSON fragment and 1x measurements, for
/// `BENCH_repro.json` and `--enforce` (the artifact body itself only
/// carries formatted text through the harness).
struct PerfRun {
    json: String,
    parse_mibps: f64,
    decode_mids: f64,
    tok_mibps: f64,
    twig_ns: f64,
}

static LAST_RUN: Mutex<Option<PerfRun>> = Mutex::new(None);

/// Runs `f` repeatedly for at least ~120 ms after a short warm-up and
/// returns the mean seconds per iteration (same auto-calibration as the
/// `kernels` bench harness).
fn time_per_iter(mut f: impl FnMut()) -> f64 {
    const WARMUP: Duration = Duration::from_millis(20);
    const MIN_RUN: Duration = Duration::from_millis(120);
    let start = Instant::now();
    let mut warm_iters: u64 = 0;
    while start.elapsed() < WARMUP {
        f();
        warm_iters += 1;
    }
    let per_iter = WARMUP.as_secs_f64() / warm_iters.max(1) as f64;
    let batch = ((0.01 / per_iter.max(1e-9)) as u64).clamp(1, 1_000_000);
    let mut iters: u64 = 0;
    let timed = Instant::now();
    while timed.elapsed() < MIN_RUN {
        for _ in 0..batch {
            f();
        }
        iters += batch;
    }
    timed.elapsed().as_secs_f64() / iters as f64
}

/// One scale's worth of measurements.
struct Axes {
    parse_mibps: f64,
    dec_label: &'static str,
    tok_mibps: f64,
    dec_full_mids: f64,
    dec_list_len: usize,
    twig_ns: f64,
}

/// Concatenates every document's postings for `label` into one long
/// sorted list, offsetting *(pre, post)* per document as if the corpus
/// were a single concatenated tree — list length then scales with the
/// corpus, as the paper's per-key ID lists do.
fn merged_postings(docs: &[Document], label: &str) -> Vec<StructuralId> {
    let mut out = Vec::new();
    let mut offset = 0u32;
    for d in docs {
        for &n in d.elements_named(label) {
            let sid = d.sid(n);
            out.push(StructuralId::new(
                sid.pre + offset,
                sid.post + offset,
                sid.depth,
            ));
        }
        offset += d.node_count() as u32 + 1;
    }
    out
}

fn run_axes(scale: &Scale) -> Axes {
    let sources = crate::corpus(scale);
    let source_bytes: u64 = sources.iter().map(|(_, x)| x.len() as u64).sum();

    // -- parse ------------------------------------------------------------
    let per = time_per_iter(|| {
        for (uri, xml) in &sources {
            black_box(Document::parse_str(uri.clone(), black_box(xml)).unwrap());
        }
    });
    let parse_mibps = source_bytes as f64 / per / MIB;

    let docs: Vec<Document> = sources
        .iter()
        .map(|(u, x)| Document::parse_str(u.clone(), x).unwrap())
        .collect();

    // -- tokenize ---------------------------------------------------------
    let texts: Vec<String> = docs
        .iter()
        .flat_map(|d| d.all_nodes().filter_map(|n| d.value(n).map(str::to_string)))
        .collect();
    let text_bytes: u64 = texts.iter().map(|t| t.len() as u64).sum();
    let per = time_per_iter(|| {
        let mut n = 0usize;
        for t in &texts {
            for_each_word(black_box(t), |w| n += w.len());
        }
        black_box(n);
    });
    let tok_mibps = text_bytes as f64 / per / MIB;

    // -- decode -----------------------------------------------------------
    // The most frequent element label gives the longest real ID list.
    let label = {
        let mut best = ("item", 0usize);
        for l in ["item", "text", "bold", "listitem", "parlist", "keyword"] {
            let n: usize = docs.iter().map(|d| d.elements_named(l).len()).sum();
            if n > best.1 {
                best = (l, n);
            }
        }
        best.0
    };
    // Per-document lists, exactly the shape `lookup` decodes from the
    // store: small in-document (pre, post) values, where the one-byte
    // varint fast path pays off. (A corpus-merged list would offset every
    // ID into multi-byte territory and measure memory bandwidth instead.)
    let flats: Vec<Vec<u8>> = docs
        .iter()
        .map(|d| {
            let ids: Vec<StructuralId> =
                d.elements_named(label).iter().map(|&n| d.sid(n)).collect();
            encode_ids(&ids)
        })
        .filter(|f| !f.is_empty())
        .collect();
    let total_ids: usize = merged_postings(&docs, label).len();
    assert!(total_ids > 0, "corpus has no '{label}' elements");
    let per = time_per_iter(|| {
        for f in &flats {
            black_box(decode_ids(black_box(f)).unwrap().len());
        }
    });
    let dec_full_mids = total_ids as f64 / per / 1e6;
    // Sanity: the lazy block layer over the same bytes agrees.
    for f in &flats {
        let n = decode_ids(f).unwrap().len();
        assert_eq!(BlockList::from_flat(f).map(|l| l.len()), Some(n));
    }

    // -- twig -------------------------------------------------------------
    // Corpus-scale join over the merged per-label postings (cross-document
    // entries can never be ancestor-related, so the merged join's matches
    // are exactly the union of the per-document matches). Streams come
    // pre-decoded: this axis isolates the join algorithm.
    // A selective anchor over a dense descendant stream — the shape the
    // galloping advance targets: almost all `text` entries lie outside
    // `category` subtrees and are skipped in whole binary-searched runs
    // instead of being advanced one element at a time.
    let pattern = parse_pattern("//category[//text{val}]").unwrap();
    let shape = TwigShape::from_pattern(&pattern);
    let labels = ["category", "text"];
    assert_eq!(labels.len(), shape.parent.len(), "labels out of sync");
    let streams: Vec<Vec<(StructuralId, ())>> = labels
        .iter()
        .map(|l| {
            merged_postings(&docs, l)
                .into_iter()
                .map(|sid| (sid, ()))
                .collect()
        })
        .collect();
    let twig_entries: u64 = streams.iter().map(|s| s.len() as u64).sum();
    let per = time_per_iter(|| {
        black_box(holistic_twig_join(&shape, black_box(&streams)).len());
    });
    let twig_ns = per * 1e9 / twig_entries.max(1) as f64;

    Axes {
        parse_mibps,
        dec_label: label,
        tok_mibps,
        dec_full_mids,
        dec_list_len: total_ids,
        twig_ns,
    }
}

/// Runs all four axes at `1x` and `10x` of `scale`, returning the report
/// body and stashing the JSON fragment for `BENCH_repro.json`.
pub fn perf(scale: &Scale) -> String {
    let one = run_axes(scale);
    let ten = run_axes(&scale.clone().scaled(10.0));

    let mut t = TextTable::new(["axis", "scale", "rate"]);
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "    \"build\": \"{}\",\n    \"axes\": [\n",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
    ));
    for (label, a) in [("1x", &one), ("10x", &ten)] {
        for (axis, rate, unit) in [
            ("parse", a.parse_mibps, "MiB/s"),
            ("tokenize", a.tok_mibps, "MiB/s"),
            ("decode", a.dec_full_mids, "M IDs/s"),
            ("twig-join", a.twig_ns, "ns/id"),
        ] {
            t.row([
                axis.to_string(),
                label.to_string(),
                format!("{rate:.2} {unit}"),
            ]);
            let last = label == "10x" && axis == "twig-join";
            json.push_str(&format!(
                "      {{ \"axis\": \"{axis}\", \"scale\": \"{label}\", \"unit\": \"{unit}\", \
                 \"rate\": {rate:.4} }}{}\n",
                if last { "" } else { "," }
            ));
        }
    }
    json.push_str("    ],\n");
    json.push_str(&format!(
        "    \"decode_full_mids_1x\": {:.4},\n    \"parse_mibps_1x\": {:.4}\n  }}",
        one.dec_full_mids, one.parse_mibps
    ));
    *LAST_RUN.lock().unwrap() = Some(PerfRun {
        json,
        parse_mibps: one.parse_mibps,
        decode_mids: one.dec_full_mids,
        tok_mibps: one.tok_mibps,
        twig_ns: one.twig_ns,
    });

    format!(
        "{t}\n\
         All rates are absolute: the code measured is the code the warehouse\n\
         runs; the before numbers are the cross-build kernel measurements in\n\
         EXPERIMENTS.md. decode runs over the per-document '{}'-label lists\n\
         the store keeps ({} IDs at 1x).",
        one.dec_label, one.dec_list_len
    )
}

/// The JSON fragment of the last [`perf`] run (for `BENCH_repro.json`).
pub fn perf_json() -> Option<String> {
    LAST_RUN.lock().unwrap().as_ref().map(|r| r.json.clone())
}

/// Enforces the repo-pinned floors (and the twig ceiling) against the
/// last [`perf`] run. Returns a human-readable pass message, or an error
/// describing the regression. Debug builds skip the check (the pins are
/// release rates).
pub fn enforce_floors() -> Result<String, String> {
    let guard = LAST_RUN.lock().unwrap();
    let Some(PerfRun {
        parse_mibps,
        decode_mids,
        tok_mibps,
        twig_ns,
        ..
    }) = guard.as_ref()
    else {
        return Err("--enforce requires the perf artifact to have run".into());
    };
    if cfg!(debug_assertions) {
        return Ok(format!(
            "floors skipped (debug build): parse {parse_mibps:.1} MiB/s, \
             decode {decode_mids:.1} M IDs/s, tokenize {tok_mibps:.1} MiB/s, \
             twig {twig_ns:.2} ns/id"
        ));
    }
    let tolerance_pct = REGRESSION_TOLERANCE * 100.0;
    // Throughput axes: fail when the measurement falls below the floor.
    for (axis, unit, measured, pinned) in [
        ("parse", "MiB/s", *parse_mibps, PINNED_PARSE_MIBPS),
        ("decode", "M IDs/s", *decode_mids, PINNED_DECODE_MIDS),
        ("tokenize", "MiB/s", *tok_mibps, PINNED_TOKENIZE_MIBPS),
    ] {
        let floor = pinned * (1.0 - REGRESSION_TOLERANCE);
        if measured < floor {
            return Err(format!(
                "{axis} throughput {measured:.1} {unit} is below the floor {floor:.1} \
                 (pinned {pinned:.1} - {tolerance_pct:.0}%)"
            ));
        }
    }
    // The twig join pins a latency, so its guard is a ceiling.
    let twig_ceiling = PINNED_TWIG_NS * (1.0 + REGRESSION_TOLERANCE);
    if *twig_ns > twig_ceiling {
        return Err(format!(
            "twig-join latency {twig_ns:.2} ns/id is above the ceiling {twig_ceiling:.2} \
             (pinned {PINNED_TWIG_NS:.2} + {tolerance_pct:.0}%)"
        ));
    }
    Ok(format!(
        "floors passed: parse {parse_mibps:.1} MiB/s, decode {decode_mids:.1} M IDs/s, \
         tokenize {tok_mibps:.1} MiB/s, twig {twig_ns:.2} ns/id (ceiling {twig_ceiling:.2})"
    ))
}

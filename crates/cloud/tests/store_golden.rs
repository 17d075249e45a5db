//! Golden transcript of the key-value index store.
//!
//! One seeded op script runs against every way the repository opens an
//! index store; the digests below pin, per opening, every returned
//! `SimTime`, every `Result` variant, the final `KvStats`, `peek_all()`
//! and every recorded span (bytes, units, busy, billed picodollars,
//! outcome). The constants were produced by the two-backend,
//! one-wrapper implementation this file was introduced against; whatever
//! replaces it reproduces them bit for bit or is not a refactor.
//!
//! The script never targets a missing table (that one case is pinned on
//! its own, in the store's conformance tests), but it does send items an
//! opening rejects — binary and over-1 KB values — so the order "validate,
//! then roll the fault injector" is part of the transcript: a rejected
//! request draws nothing from the fault stream.

use amada_cloud::{
    content_hash, FaultInjector, KvBackend, KvError, KvField, KvItem, KvStore, KvTuning, KvValue,
    Recorder, SimTime,
};
use amada_rng::StdRng;
use std::fmt::Write;

const TABLES: [&str; 2] = ["idx-a", "idx-b"];
const HOT: [&str; 2] = ["hot0", "hot1"];
const OPS: usize = 600;
const SCRIPT_SEED: u64 = 0x60_1D_E2;
const FAULT_SEED: u64 = 0xFA_17_15;
const FAULT_RATE: f64 = 0.30;

/// One way of opening a store.
struct Opening {
    name: &'static str,
    backend: KvBackend,
    tuning: KvTuning,
    golden: Golden<'static>,
}

/// The committed digests of one opening's transcript.
#[derive(Debug, PartialEq, Eq)]
struct Golden<'a> {
    /// Every op's returned time / error variant / returned items.
    ops: u64,
    /// The final usage counters, in full.
    stats: &'a str,
    /// `peek_all()` after the last op.
    contents: u64,
    /// Every recorded span.
    spans: u64,
}

fn openings() -> [Opening; 4] {
    let strings = KvTuning {
        force_string_values: true,
        disable_batching: false,
    };
    let unbatched = KvTuning {
        force_string_values: false,
        disable_batching: true,
    };
    [
        Opening {
            name: "dynamodb",
            backend: KvBackend::Dynamo,
            tuning: KvTuning::NONE,
            golden: Golden {
                ops: 0x5484_f30a_1fd0_027d,
                stats: "KvStats { put_ops: 4807, get_ops: 3390, api_requests: 561, raw_bytes: 390519, overhead_bytes: 17100, bytes_read: 7980946, throttled: 170 }",
                contents: 0xd7ed_8d28_3717_c289,
                spans: 0xfa90_a9f7_2778_c1ce,
            },
        },
        Opening {
            name: "simpledb",
            backend: KvBackend::Simple,
            tuning: KvTuning::NONE,
            golden: Golden {
                ops: 0xf754_6fe4_5cf3_4b5b,
                stats: "KvStats { put_ops: 1194, get_ops: 414, api_requests: 617, raw_bytes: 49874, overhead_bytes: 4590, bytes_read: 160873, throttled: 181 }",
                contents: 0x00e2_d5b2_85e0_acd8,
                spans: 0x8b8e_a3b9_ee6d_965d,
            },
        },
        Opening {
            name: "dynamodb-strings",
            backend: KvBackend::Dynamo,
            tuning: strings,
            golden: Golden {
                ops: 0xbba5_4399_5315_55d7,
                stats: "KvStats { put_ops: 1004, get_ops: 1988, api_requests: 401, raw_bytes: 46465, overhead_bytes: 2400, bytes_read: 572856, throttled: 130 }",
                contents: 0xaf2e_311b_61ad_63c8,
                spans: 0x91b9_c4b1_eb1b_d925,
            },
        },
        Opening {
            name: "dynamodb-unbatched",
            backend: KvBackend::Dynamo,
            tuning: unbatched,
            golden: Golden {
                ops: 0x84f3_6c6c_5aee_83cd,
                stats: "KvStats { put_ops: 326, get_ops: 2338, api_requests: 370, raw_bytes: 157560, overhead_bytes: 5800, bytes_read: 1900804, throttled: 125 }",
                contents: 0x2ea7_b7e3_4a4c_4673,
                spans: 0xd71c_5c4c_1246_ff30,
            },
        },
    ]
}

fn hash_key(rng: &mut StdRng, span: usize) -> String {
    if rng.gen_bool(0.25) {
        rng.choose(&HOT).to_string()
    } else {
        format!("k{}", rng.gen_range(0..span))
    }
}

/// An attribute value, owned: a string, or `Err` a binary one.
type Value = Result<String, Vec<u8>>;

/// An attribute value; `plain` ones every opening accepts.
fn value(rng: &mut StdRng, plain: bool) -> Value {
    match rng.gen_range(if plain { 2..20u32 } else { 0..20u32 }) {
        // What a string-only opening rejects: binary, and over 1 KB.
        0 => Err(vec![7; rng.gen_range(0..3000usize)]),
        1 => Ok("v".repeat(rng.gen_range(1025..1400usize))),
        2 => Ok(String::new()),
        // Sizes on both sides of the 1 KB write unit and the 4 KB read unit.
        _ => Ok("s".repeat(rng.gen_range(0..1025usize))),
    }
}

fn item(rng: &mut StdRng, plain: bool) -> KvItem {
    let attrs: Vec<(String, Vec<Value>)> = (0..rng.gen_range(1..=3usize))
        .map(|a| {
            let values = (0..rng.gen_range(1..=3usize))
                .map(|_| value(rng, plain))
                .collect();
            (format!("doc{a}.xml"), values)
        })
        .collect();
    let hash_key = hash_key(rng, 16).into();
    let range_key = format!("r{}", rng.gen_range(0..6u32));
    // The first attribute's name is the item's own; the others' are fields.
    let fields = attrs.iter().flat_map(|(name, values)| {
        let values = values.iter().map(|v| match v {
            Ok(s) => KvField::Value(KvValue::S(s)),
            Err(b) => KvField::Value(KvValue::B(b)),
        });
        std::iter::once(KvField::Attr(name)).chain(values)
    });
    KvItem::from_fields(
        hash_key,
        &range_key,
        attrs[0].0.as_str().into(),
        fields.skip(1),
    )
}

/// A batch size: one half the time (so an unbatched opening still gets
/// work done), otherwise anything up to two past `limit`.
fn batch_len(rng: &mut StdRng, limit: usize) -> usize {
    if rng.gen_bool(0.5) {
        1
    } else {
        rng.gen_range(2..=limit + 2)
    }
}

fn outcome<T>(log: &mut String, r: &Result<T, KvError>, ok: impl FnOnce(&T) -> String) {
    match r {
        Ok(v) => writeln!(log, "ok {}", ok(v)),
        Err(KvError::Throttled { available_at }) => {
            writeln!(log, "throttled {}", available_at.micros())
        }
        Err(e) => writeln!(log, "err {e:?}"),
    }
    .unwrap();
}

/// An item as the transcripts digest it: what `{:?}` printed while an item
/// was a range key and an `(attribute name, values)` list.
struct Shown<'a>(&'a KvItem);

impl std::fmt::Debug for Shown<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let item = self.0;
        let mut attrs: Vec<(&str, Vec<KvValue>)> = vec![(&item.uri, Vec::new())];
        for field in item.fields() {
            match field {
                KvField::Attr(name) => attrs.push((name, Vec::new())),
                KvField::Value(value) => attrs.last_mut().unwrap().1.push(value),
            }
        }
        f.debug_struct("KvItem")
            .field("hash_key", &item.hash_key)
            .field("range_key", &item.range_key())
            .field("attrs", &attrs)
            .finish()
    }
}

fn items_digest((items, ready): &(Vec<KvItem>, SimTime)) -> String {
    let items: Vec<Shown> = items.iter().map(Shown).collect();
    format!(
        "{} {} {:016x}",
        ready.micros(),
        items.len(),
        content_hash(format!("{items:?}").as_bytes())
    )
}

/// Runs the script against `store`; returns the op transcript.
fn run_script(store: &mut KvStore) -> String {
    let mut rng = StdRng::seed_from_u64(SCRIPT_SEED);
    let mut log = String::new();
    let mut now = SimTime::ZERO;
    for i in 0..OPS {
        now = SimTime(now.micros() + rng.gen_range(0..2_000u64));
        let table = *rng.choose(&TABLES);
        write!(log, "{i} {} {table} ", now.micros()).unwrap();
        match rng.gen_range(0..10u32) {
            0..=3 => {
                // A batch over the limit carries only items every opening
                // accepts: which error a request earns when it is both
                // too large and carries a rejected value is no contract.
                let n = batch_len(&mut rng, 25);
                let items: Vec<KvItem> = (0..n).map(|_| item(&mut rng, n > 25)).collect();
                write!(log, "put {} ", items.len()).unwrap();
                let r = store.batch_put(now, table, items);
                outcome(&mut log, &r, |t| t.micros().to_string());
            }
            4..=5 => {
                let keys: Vec<(String, String)> = (0..batch_len(&mut rng, 25))
                    .map(|_| {
                        let range = format!("r{}", rng.gen_range(0..8u32));
                        (hash_key(&mut rng, 20), range)
                    })
                    .collect();
                write!(log, "delete {} ", keys.len()).unwrap();
                let r = store.batch_delete(now, table, &keys);
                outcome(&mut log, &r, |t| t.micros().to_string());
            }
            6..=7 => {
                let key = hash_key(&mut rng, 20);
                write!(log, "get {key} ").unwrap();
                let r = store.get(now, table, &key);
                outcome(&mut log, &r, items_digest);
            }
            _ => {
                let n = *rng.choose(&[1usize, 2, 7, 40, 99, 100, 101, 102]);
                let keys: Vec<String> = (0..n).map(|_| hash_key(&mut rng, 120)).collect();
                write!(log, "batch_get {n} ").unwrap();
                let r = store.batch_get(now, table, &keys);
                outcome(&mut log, &r, items_digest);
            }
        }
    }
    log
}

fn transcript(opening: &Opening) -> (String, String, String, String) {
    let mut store = KvStore::open(opening.backend, opening.tuning);
    let recorder = Recorder::enabled();
    store.ensure_table(TABLES[0]);
    store.ensure_table(TABLES[1]);
    store.set_recorder(recorder.clone());
    store.set_faults(FaultInjector::new(FAULT_RATE, FAULT_SEED));
    assert!(store.faults_active());
    let ops = run_script(&mut store);
    let stats = format!("{:?}", store.stats());
    let contents: Vec<(String, KvItem)> = store.peek_all();
    let contents: Vec<(&String, Shown)> = contents.iter().map(|(t, i)| (t, Shown(i))).collect();
    let contents = format!("{contents:?}");
    assert_eq!(format!("{:?}", store.stats()), stats, "peek_all is free");
    let mut spans = String::new();
    for s in recorder.spans().iter() {
        // The last column is what `{:?}` printed while a span carried an
        // index-shard tag: `None`, on every opening here.
        writeln!(
            spans,
            "{} {} {} {} {} {:016x} {} {:?} None",
            s.op,
            s.start.micros(),
            s.end.micros(),
            s.busy.micros(),
            s.bytes,
            s.units.to_bits(),
            s.billed.pico(),
            s.outcome,
        )
        .unwrap();
    }
    (ops, stats, contents, spans)
}

#[test]
fn every_opening_reproduces_its_golden_transcript() {
    let mut failures = Vec::new();
    for opening in openings() {
        let (ops, stats, contents, spans) = transcript(&opening);
        // The script means something on every opening: requests succeed,
        // are throttled and are rejected, and data is left behind.
        for needle in [" ok ", " throttled ", " err "] {
            assert!(ops.contains(needle), "{}: no `{needle}` op", opening.name);
        }
        assert_ne!(contents, "[]", "{}: nothing stored", opening.name);
        let got = Golden {
            ops: content_hash(ops.as_bytes()),
            stats: &stats,
            contents: content_hash(contents.as_bytes()),
            spans: content_hash(spans.as_bytes()),
        };
        if got != opening.golden {
            failures.push(format!(
                "{}:\n   got {got:#x?}\n  want {:#x?}",
                opening.name, opening.golden
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn openings_differ_where_the_services_do() {
    // The digests are not four copies of one transcript: each opening
    // disagrees with plain DynamoDB somewhere the paper says it should.
    let all = openings();
    let [plain, simple, strings, unbatched] = [0, 1, 2, 3].map(|i| transcript(&all[i]));
    // The string-only openings reject what DynamoDB stores.
    for (ops, ..) in [&simple, &strings] {
        assert!(ops.contains("err BinaryNotSupported"));
        assert!(ops.contains("err ValueTooLarge { limit: 1024"));
    }
    assert!(!plain.0.contains("BinaryNotSupported"));
    // SimpleDB bills attribute-values and serves slower.
    assert_ne!(simple.1, strings.1);
    // An unbatched store rejects every multi-item write.
    assert!(unbatched
        .0
        .contains("err BatchTooLarge { limit: 1, got: 2 }"));
    assert!(plain.0.contains("err BatchTooLarge { limit: 25, got: 26 }"));
    assert!(plain
        .0
        .contains("err BatchTooLarge { limit: 100, got: 101 }"));
}

//! `repro` — regenerate the paper's evaluation tables and figures.
//!
//! ```text
//! repro <artifact>... [--scale F] [--docs N] [--doc-bytes B] [--repeats R]
//! ```
//!
//! `repro --help` lists the artifacts; the list, `all`, the titles and
//! which artifacts share a suite all come from
//! [`amada_bench::registry::ARTIFACTS`]. Output order is the selection
//! order and the bodies are byte-identical to a sequential run whatever
//! `AMADA_THREADS` says (see [`registry::run`]).
//!
//! Each selected artifact also leaves a `BENCH_<artifact>.json` in the
//! working directory: scale, host threads, wall-clock seconds, the
//! extraction-cache counters and the artifact's headline numbers.
//!
//! A second mode runs the differential correctness harness instead of the
//! paper artifacts:
//!
//! ```text
//! repro check [--seed N[,N...]] [--cases M] [--billing-every K]
//! ```
//!
//! Each seed runs `M` randomized cases through the strategy-equivalence,
//! containment, twig-vs-naive, store round-trip and (sampled) billing
//! oracles of `amada-check`. On a violation the case is shrunk, the
//! reproducer is printed and written to `CHECK_reproducer.txt`, and the
//! process exits non-zero.

use amada_bench::{registry, Scale};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        print!("{}", registry::usage());
        return;
    }
    if args[0] == "check" {
        run_check_mode(&args[1..]);
        return;
    }
    // Leading non-flag arguments select artifacts; flags follow.
    let flags_at = args
        .iter()
        .position(|a| a.starts_with("--"))
        .unwrap_or(args.len());
    let selected =
        registry::select(args[..flags_at].iter().map(String::as_str)).unwrap_or_else(|e| die(&e));
    let mut scale = Scale::default_scale();
    for (flag, value) in flag_pairs(&args[flags_at..]) {
        let value = || number::<f64>(flag, value);
        match flag {
            "--scale" => scale = scale.scaled(value()),
            "--docs" => scale.docs = value() as usize,
            "--doc-bytes" => scale.doc_bytes = value() as usize,
            "--repeats" => scale.workload_repeats = value() as usize,
            other => die(&format!("unknown flag {other}")),
        }
    }
    eprintln!(
        "# corpus: {} documents x ~{} bytes (paper: 20000 x ~2 MB); seed {:#x}",
        scale.docs, scale.doc_bytes, scale.seed
    );

    let total = Instant::now();
    let computed = registry::run(&scale, &selected);
    let total_wall = total.elapsed().as_secs_f64();
    let threads = amada_par::num_threads();

    for c in &computed {
        println!("\n== {} ==\n{}", c.artifact.title, c.outcome.body);
        let name = c.artifact.name;
        eprintln!("# {name} computed in {:.1}s wall time", c.wall_seconds);
        let path = format!("BENCH_{name}.json");
        match std::fs::write(&path, registry::bench_json(c, &scale, threads)) {
            Ok(()) => eprintln!("# wrote {path}"),
            Err(e) => eprintln!("# warning: could not write {path}: {e}"),
        }
    }
    eprintln!("# total {total_wall:.1}s wall time on {threads} host thread(s)");
}

/// `repro check`: the seeded differential correctness harness.
fn run_check_mode(args: &[String]) {
    use amada_check::{run_check, CheckConfig};

    let mut seeds: Vec<u64> = vec![0xA3ADA];
    let mut cases = 200usize;
    let mut billing_every = 10usize;
    for (flag, value) in flag_pairs(args) {
        match flag {
            "--seed" => seeds = value.split(',').map(|s| number(flag, s.trim())).collect(),
            "--cases" => cases = number(flag, value),
            "--billing-every" => billing_every = number(flag, value),
            other => die(&format!("unknown check flag {other}")),
        }
    }

    let start = Instant::now();
    for &seed in &seeds {
        let cfg = CheckConfig {
            seed,
            cases,
            billing_every,
            mutation: Default::default(),
        };
        let outcome = run_check(&cfg);
        match outcome.failure {
            None => {
                eprintln!("# seed {seed:#x}: {} cases passed", outcome.cases_passed);
            }
            Some(repro) => {
                let text = repro.to_string();
                println!("{text}");
                match std::fs::write("CHECK_reproducer.txt", &text) {
                    Ok(()) => eprintln!("# wrote CHECK_reproducer.txt"),
                    Err(e) => eprintln!("# warning: could not write CHECK_reproducer.txt: {e}"),
                }
                eprintln!(
                    "# seed {seed:#x}: VIOLATION after {} passing cases",
                    outcome.cases_passed
                );
                std::process::exit(1);
            }
        }
    }
    eprintln!(
        "# check: {} seed(s) x {cases} cases passed in {:.1}s wall time",
        seeds.len(),
        start.elapsed().as_secs_f64()
    );
}

/// The `--flag value` pairs of a command-line tail.
fn flag_pairs(args: &[String]) -> impl Iterator<Item = (&str, &str)> {
    args.chunks(2).map(|pair| match pair {
        [flag, value] => (flag.as_str(), value.as_str()),
        _ => die(&format!("{} needs an argument", pair[0])),
    })
}

fn number<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| die(&format!("{flag} needs a number, got '{value}'")))
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

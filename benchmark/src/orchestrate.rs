//! The command line: the single-workload run the driver calls, and the
//! `run` / `trace` / `aa` commands that fan it out over child processes —
//! one per workload, so the process-wide parse cache, the allocator and
//! `VmHWM` start fresh for each.

use crate::harness::RunConfig;
use crate::host::provenance;
use crate::inputs::{Scale, DEFAULT_SEED};
use crate::json::{parse, Value};
use crate::spec::{Workload, END_TO_END, RUN_SECONDS};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

const USAGE: &str = "\
amada-benchmark: end-to-end benchmark of the amada warehouse (release builds only)

  amada-benchmark --workload NAME --seed N --seconds S --trace 0|1
      one workload in this process; the last line of stdout is the result object
  amada-benchmark run   [--workload NAME|all] [--seed N] [--seconds S] [--out FILE] [--quick]
      end-to-end metrics, tracing off, one child process per workload
  amada-benchmark trace [--workload NAME|all] [--seed N] [--seconds S] [--out FILE] [--quick]
      per-layer metrics and benchmark/out/TRACE_<workload>.json
  amada-benchmark aa    [--seed N] [--seconds S] [--quick]
      two full `run` sets compared against the bounds; writes benchmark/results/aa.json
  amada-benchmark spec
      prints BENCHMARK.json as generated from the metric tables
  amada-benchmark layers
      prints the per-layer table: how each metric is measured and what it should move

workloads: ingest_cold query_indexed query_scan churn_mixed storm_open_loop
";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub command: Option<String>,
    pub workload: Option<String>,
    pub seed: u64,
    /// `--seconds`; without it [`RUN_SECONDS`], one second with `--quick`.
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub out: Option<PathBuf>,
    pub trace_dir: PathBuf,
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

impl Args {
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            command: None,
            workload: None,
            seed: DEFAULT_SEED,
            seconds: 0.0,
            trace: false,
            quick: false,
            out: None,
            trace_dir: PathBuf::from("benchmark/out"),
        };
        let mut seconds = None;
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{name} needs a value"))
            };
            match arg.as_str() {
                "--workload" => args.workload = Some(value("--workload")?),
                "--seed" => {
                    let v = value("--seed")?;
                    args.seed = parse_seed(&v).ok_or_else(|| format!("bad --seed `{v}`"))?;
                }
                "--seconds" => {
                    let v = value("--seconds")?;
                    let parsed = v.parse().ok();
                    seconds = Some(
                        parsed
                            .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                            .ok_or_else(|| format!("bad --seconds `{v}`"))?,
                    );
                }
                "--trace" => {
                    args.trace = match value("--trace")?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                    }
                }
                "--quick" => args.quick = true,
                "--out" => args.out = Some(PathBuf::from(value("--out")?)),
                "--trace-dir" => args.trace_dir = PathBuf::from(value("--trace-dir")?),
                "run" | "trace" | "aa" | "spec" | "layers" | "help" | "--help" | "-h"
                    if args.command.is_none() =>
                {
                    args.command = Some(arg.trim_start_matches('-').to_string());
                }
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        args.seconds = seconds.unwrap_or(if args.quick {
            1.0
        } else {
            f64::from(RUN_SECONDS)
        });
        Ok(args)
    }

    fn scale(&self) -> Scale {
        if self.quick {
            Scale::QUICK
        } else {
            Scale::FULL
        }
    }

    /// The workloads `--workload` selects (`all` or none given = all five).
    fn workloads(&self) -> Result<Vec<Workload>, String> {
        match self.workload.as_deref() {
            None | Some("all") => Ok(Workload::ALL.to_vec()),
            Some(name) => Workload::parse(name)
                .map(|w| vec![w])
                .ok_or_else(|| format!("unknown workload `{name}`")),
        }
    }
}

/// Entry point of the binary.
pub fn main(argv: &[String]) -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("amada-benchmark measures optimized builds only: build with --release");
        return ExitCode::from(2);
    }
    // The harness is single-threaded, and so is the program unless the
    // caller says otherwise: with `AMADA_THREADS=1` the library's parallel
    // prewarm (which `run_query` also calls, once per query) runs inline.
    // Worker threads spawned per call on a shared host with two cores
    // measure its scheduler, not the program.
    if std::env::var_os("AMADA_THREADS").is_none() {
        std::env::set_var("AMADA_THREADS", "1");
    }
    let args = match Args::parse(argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.command.as_deref() {
        None => single(&args),
        Some("run") => fan_out(&args, false).map(|_| ()),
        Some("trace") => fan_out(&args, true).map(|_| ()),
        Some("aa") => aa(&args),
        Some("spec") => {
            print!("{}", crate::spec::benchmark_json().render_pretty());
            Ok(())
        }
        Some("layers") => {
            for (name, row) in crate::spec::per_layer_names() {
                let moves: Vec<String> =
                    row.moves.iter().map(|(m, w)| format!("{m}@{w}")).collect();
                println!(
                    "{name} [{}] {}\n    moves {}",
                    row.unit,
                    row.how,
                    moves.join(", ")
                );
            }
            Ok(())
        }
        Some(_) => {
            print!("{USAGE}");
            Ok(())
        }
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("amada-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The driver's call: one workload, in this process.
fn single(args: &Args) -> Result<(), String> {
    let name = args.workload.as_deref().ok_or("--workload is required")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let report = crate::report::run(&RunConfig {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: args.scale(),
    });
    if let Some(trace) = &report.chrome_trace {
        let path = args
            .trace_dir
            .join(format!("TRACE_{}.json", workload.name()));
        std::fs::create_dir_all(&args.trace_dir)
            .and_then(|()| std::fs::write(&path, trace))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("# host spans written to {}", path.display());
    }
    report.print();
    Ok(())
}

/// What a child run printed, read back.
#[derive(Debug, Clone)]
pub struct ChildResult {
    pub workload: Workload,
    pub result: Value,
    pub info: Value,
}

impl ChildResult {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.result
            .get("metrics")?
            .get(name)?
            .get("value")?
            .as_f64()
    }

    fn failed(&self) -> f64 {
        self.result
            .get("failed")
            .and_then(Value::as_f64)
            .unwrap_or(f64::NAN)
    }

    fn is_correct(&self) -> bool {
        self.result.get("correct").and_then(Value::as_bool) == Some(true)
    }
}

/// Runs one workload in a child process of this executable and reads its
/// result back. `echo` passes the child's metric lines through.
fn child(
    args: &Args,
    workload: Workload,
    trace: bool,
    quick: bool,
    threads: Option<&str>,
    echo: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--trace-dir")
        .arg(&args.trace_dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if quick {
        cmd.arg("--quick");
    }
    if let Some(t) = threads {
        cmd.env("AMADA_THREADS", t);
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start a child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("{} exited with {}", workload.name(), out.status));
    }
    let mut info = Value::Null;
    let mut last = "";
    for line in stdout.lines() {
        if let Some(json) = line.strip_prefix("#info ") {
            info = parse(json)?;
        } else if !line.starts_with('{') && echo {
            println!("{line}");
        }
        last = line;
    }
    Ok(ChildResult {
        workload,
        result: parse(last).map_err(|e| format!("{}: bad result line: {e}", workload.name()))?,
        info,
    })
}

/// Every virtual-clock metric must be the same at one and at two prewarm
/// threads. Checked at the quick scale, once per `run`.
fn thread_invariance(args: &Args, workloads: &[Workload]) -> Result<(), String> {
    let quick = Args {
        seconds: 0.2,
        ..args.clone()
    };
    for &w in workloads {
        let one = child(&quick, w, false, true, Some("1"), false)?;
        let two = child(&quick, w, false, true, Some("2"), false)?;
        for m in END_TO_END.iter().filter(|m| m.name.starts_with("virt_")) {
            if one.metric(m.name) != two.metric(m.name) {
                return Err(format!(
                    "{} of {} differs between AMADA_THREADS=1 ({:?}) and =2 ({:?})",
                    m.name,
                    w.name(),
                    one.metric(m.name),
                    two.metric(m.name)
                ));
            }
        }
    }
    println!("# virtual-clock metrics identical at AMADA_THREADS=1 and =2 (quick scale)");
    Ok(())
}

/// `run` and `trace`: one child per workload, then the combined output.
fn fan_out(args: &Args, trace: bool) -> Result<Vec<ChildResult>, String> {
    let wall = Instant::now();
    let workloads = args.workloads()?;
    let mut results = Vec::new();
    for &w in &workloads {
        results.push(child(args, w, trace, args.quick, None, true)?);
    }
    if !trace {
        thread_invariance(args, &workloads)?;
    }
    let wall_s = wall.elapsed().as_secs_f64();
    println!("# {} workload(s) in {wall_s:.1} s", results.len());
    if let Some(path) = &args.out {
        let mut doc = provenance();
        doc.extend([
            ("mode", Value::str(if trace { "trace" } else { "run" })),
            ("seed", Value::Str(args.seed.to_string())),
            ("scale", Value::str(args.scale().name)),
            ("seconds", Value::Num(args.seconds)),
            ("wall_s", Value::Num(wall_s)),
            (
                "workloads",
                Value::obj(results.iter().map(|r| {
                    (
                        r.workload.name(),
                        Value::obj([("result", r.result.clone()), ("info", r.info.clone())]),
                    )
                })),
            ),
        ]);
        write_file(path, &Value::obj(doc).render_pretty())?;
        println!("# written to {}", path.display());
    }
    match results.iter().find(|r| !r.is_correct()) {
        Some(bad) => Err(format!(
            "{}: {} operation(s) failed: {}",
            bad.workload.name(),
            bad.failed(),
            bad.info.get("notes").map(Value::render).unwrap_or_default()
        )),
        None => Ok(results),
    }
}

fn write_file(path: &std::path::Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// One row of the A/A comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct AaRow {
    pub workload: &'static str,
    pub metric: &'static str,
    pub first: f64,
    pub second: f64,
    /// |second − first| over the first.
    pub gap: f64,
    pub bound: f64,
    pub breach: bool,
}

/// Compares two sets of runs of the same code. Host-clock metrics must
/// agree within their bound (in either direction: nothing changed);
/// virtual-clock metrics must be identical.
pub fn compare(first: &[ChildResult], second: &[ChildResult]) -> Vec<AaRow> {
    let mut rows = Vec::new();
    for (a, b) in first.iter().zip(second) {
        for m in END_TO_END {
            let (x, y) = (
                a.metric(m.name).unwrap_or(f64::NAN),
                b.metric(m.name).unwrap_or(f64::NAN),
            );
            let gap = (y - x).abs() / x.abs();
            let exact = m.name.starts_with("virt_");
            rows.push(AaRow {
                workload: a.workload.name(),
                metric: m.name,
                first: x,
                second: y,
                gap,
                bound: if exact { 0.0 } else { m.bound },
                // A NaN gap (a missing metric) is a breach too.
                breach: if exact {
                    x != y
                } else {
                    gap.is_nan() || gap > m.bound
                },
            });
        }
    }
    rows
}

fn aa(args: &Args) -> Result<(), String> {
    let wall = Instant::now();
    let sets = [fan_out(args, false)?, fan_out(args, false)?];
    let rows = compare(&sets[0], &sets[1]);
    println!(
        "{:<16} {:<22} {:>16} {:>16} {:>8} {:>6}",
        "workload", "metric", "first", "second", "gap", "bound"
    );
    for r in &rows {
        println!(
            "{:<16} {:<22} {:>16.6} {:>16.6} {:>7.2}% {:>5.0}%{}",
            r.workload,
            r.metric,
            r.first,
            r.second,
            r.gap * 100.0,
            r.bound * 100.0,
            if r.breach { "  BREACH" } else { "" }
        );
    }
    let failed_ops: f64 = sets.iter().flatten().map(ChildResult::failed).sum();
    let breaches = rows.iter().filter(|r| r.breach).count();
    let mut doc = provenance();
    doc.extend([
        ("seed", Value::Str(args.seed.to_string())),
        ("scale", Value::str(args.scale().name)),
        ("seconds", Value::Num(args.seconds)),
        ("wall_s", Value::Num(wall.elapsed().as_secs_f64())),
        ("breaches", Value::Num(breaches as f64)),
        ("failed_ops", Value::Num(failed_ops)),
        (
            "rows",
            Value::Arr(
                rows.iter()
                    .map(|r| {
                        Value::obj([
                            ("workload", Value::str(r.workload)),
                            ("metric", Value::str(r.metric)),
                            ("first", Value::Num(r.first)),
                            ("second", Value::Num(r.second)),
                            ("gap", Value::Num(r.gap)),
                            ("bound", Value::Num(r.bound)),
                            ("breach", Value::Bool(r.breach)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let path = PathBuf::from("benchmark/results/aa.json");
    write_file(&path, &Value::obj(doc).render_pretty())?;
    println!("# written to {}", path.display());
    if breaches > 0 || failed_ops != 0.0 {
        return Err(format!(
            "A/A: {breaches} metric(s) outside their bound, {failed_ops} failed operation(s)"
        ));
    }
    println!("# A/A: every metric within its bound, no failed operation");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_drivers_call_and_the_commands() {
        let a = Args::parse(&argv(
            "--workload query_scan --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.command, None);
        assert_eq!(a.workload.as_deref(), Some("query_scan"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        let a = Args::parse(&argv("--workload query_scan")).unwrap();
        assert_eq!(a.seconds, f64::from(RUN_SECONDS));
        let a = Args::parse(&argv(
            "run --workload all --seed 0xA3ADA --quick --out x.json",
        ))
        .unwrap();
        assert_eq!(a.command.as_deref(), Some("run"));
        assert_eq!(a.seed, DEFAULT_SEED);
        assert!(a.quick && a.out.is_some());
        assert_eq!(a.seconds, 1.0, "a quick run is a short one");
        assert_eq!(a.workloads().unwrap().len(), 5);
        for bad in [
            "--trace 2",
            "--seed x",
            "--seconds -1",
            "--workload",
            "frobnicate",
        ] {
            assert!(Args::parse(&argv(bad)).is_err(), "{bad}");
        }
        let a = Args::parse(&argv("run --workload nope")).unwrap();
        assert!(a.workloads().is_err());
    }

    fn result(workload: Workload, host: f64, virt: f64) -> ChildResult {
        let metrics = END_TO_END.iter().map(|m| {
            let v = if m.name.starts_with("virt_") {
                virt
            } else {
                host
            };
            (
                m.name,
                Value::obj([("value", Value::Num(v)), ("unit", Value::str(m.unit))]),
            )
        });
        ChildResult {
            workload,
            result: Value::obj([
                ("correct", Value::Bool(true)),
                ("failed", Value::Num(0.0)),
                ("metrics", Value::obj(metrics)),
            ]),
            info: Value::Null,
        }
    }

    #[test]
    fn aa_holds_host_metrics_to_their_bound_and_virtual_ones_to_identity() {
        let w = Workload::QueryScan;
        let rows = compare(&[result(w, 100.0, 5.0)], &[result(w, 105.0, 5.0)]);
        assert_eq!(rows.len(), END_TO_END.len());
        assert!(
            rows.iter().all(|r| !r.breach),
            "5 % is inside every host bound"
        );
        let rows = compare(&[result(w, 100.0, 5.0)], &[result(w, 130.0, 5.0)]);
        assert!(
            rows.iter()
                .all(|r| r.breach != r.metric.starts_with("virt_")),
            "30 % is outside every host bound, in either direction"
        );
        let rows = compare(&[result(w, 100.0, 5.0)], &[result(w, 100.0, 5.000001)]);
        assert!(rows
            .iter()
            .all(|r| r.breach == r.metric.starts_with("virt_")));
    }
}

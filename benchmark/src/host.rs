//! The host clock, seen from outside the program: a span around every
//! public `Warehouse` call the harness makes, kept in memory and written
//! as a Chrome trace when the run ends; plus the process facts (peak RSS,
//! toolchain, commit) every output carries.

use crate::json::Value;
use amada_index::Strategy;
use std::sync::OnceLock;
use std::time::Instant;

/// What the host clock reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostClock {
    /// Time the calling thread spent on a core. With `AMADA_THREADS=1` the
    /// program runs on the harness's thread alone and never sleeps or
    /// waits, so on an idle machine this *is* wall time; on a shared one it
    /// leaves out the time the thread was kept off the core, which is the
    /// host's doing and not the program's.
    ThreadCpu,
    /// Wall time: when the program may use worker threads, or where the
    /// system does not tell a thread's CPU time.
    Wall,
}

impl HostClock {
    pub fn name(self) -> &'static str {
        match self {
            HostClock::ThreadCpu => "thread-cpu",
            HostClock::Wall => "wall",
        }
    }
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn thread_cpu_ns() -> Option<u64> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` through `tp`,
    // which points at a live, aligned `Timespec`; on 64-bit Linux (the
    // `cfg` above) that struct is two signed 64-bit integers, as declared.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn thread_cpu_ns() -> Option<u64> {
    None
}

/// The clock every host-clock number of this process is read from, chosen
/// at the first reading.
pub fn host_clock() -> HostClock {
    static CLOCK: OnceLock<HostClock> = OnceLock::new();
    *CLOCK.get_or_init(|| {
        if amada_par::num_threads() == 1 && thread_cpu_ns().is_some() {
            HostClock::ThreadCpu
        } else {
            HostClock::Wall
        }
    })
}

/// The host clock now, in nanoseconds since an arbitrary origin.
pub fn host_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    match host_clock() {
        HostClock::ThreadCpu => thread_cpu_ns().expect("the clock was readable when chosen"),
        HostClock::Wall => ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64,
    }
}

/// The `Warehouse` calls (and the harness's own latency extraction) a
/// workload can make on the clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    New,
    Upload,
    Prewarm,
    BuildIndex,
    Drop,
    DeleteDocuments,
    RunQuery,
    RunQueryNoIndex,
    RunWorkload,
    LatencyExtract,
}

/// A call, qualified by the strategy of the warehouse it ran on where the
/// per-layer table splits it that way.
pub type Key = (Call, Option<Strategy>);

/// The per-layer metric a call's time is reported under.
pub fn metric_name(key: Key) -> String {
    let (call, strategy) = key;
    let base = match call {
        Call::New => "core.warehouse.new_ms",
        Call::Upload => "core.warehouse.upload_ms",
        Call::Prewarm => "index.parallel.prewarm_ms",
        Call::BuildIndex => "core.warehouse.build_index_ms",
        Call::Drop => "core.warehouse.drop_ms",
        Call::DeleteDocuments => "core.warehouse.delete_documents_ms",
        Call::RunQuery => "core.warehouse.run_query_ms",
        Call::RunQueryNoIndex => "core.warehouse.run_query_no_index_ms",
        Call::RunWorkload => "core.warehouse.run_workload_ms",
        Call::LatencyExtract => "obs.latency.extract_ms",
    };
    match strategy {
        Some(s) => format!("{base}.{}", s.name().to_ascii_lowercase()),
        None => base.to_string(),
    }
}

/// One recorded call: the span's name, start and end on the host clock,
/// and the iteration span that caused it (spans of one iteration share
/// that identifier).
#[derive(Debug, Clone, Copy)]
pub struct HostSpan {
    pub key: Key,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub iteration: u32,
}

/// One timed iteration of a workload.
#[derive(Debug, Clone, Default)]
pub struct Iteration {
    /// Whether spans were kept for this iteration (trace mode alternates,
    /// so traced and untraced iterations can be compared).
    pub traced: bool,
    pub start_ns: u64,
    /// Host time on the clock: the iteration minus its off-clock sections.
    pub on_clock_ns: u64,
    /// Time the harness spent checking answers, clearing the cache and the
    /// like, inside the iteration but off its clock.
    pub off_clock_ns: u64,
    /// Time per call kind within the iteration.
    pub by_key: Vec<(Key, u64)>,
}

impl Iteration {
    /// Sum of every recorded call: what the spans account for.
    pub fn covered_ns(&self) -> u64 {
        self.by_key.iter().map(|(_, ns)| ns).sum()
    }

    pub fn ns_of(&self, pick: impl Fn(Key) -> bool) -> u64 {
        self.by_key
            .iter()
            .filter(|(k, _)| pick(*k))
            .map(|(_, ns)| ns)
            .sum()
    }
}

/// Records host spans around calls into the program.
pub struct Recorder {
    origin: Instant,
    trace: bool,
    pub spans: Vec<HostSpan>,
    pub iterations: Vec<Iteration>,
    /// The open iteration and the host clock at its start.
    current: Option<(u64, Iteration)>,
    /// Host time of each *op call* (one `run_query`, one strategy's build
    /// new to drop, one churn round, one storm step) as `(class,
    /// nanoseconds)`. Calls of one class do the same work every time (the
    /// same query on the same strategy, the same storm step); every class
    /// is called once per iteration and together the calls are the
    /// iteration's on-clock time.
    pub op_samples: Vec<(u32, u64)>,
}

impl Recorder {
    pub fn new(trace: bool) -> Recorder {
        Recorder {
            origin: Instant::now(),
            trace,
            spans: Vec::new(),
            iterations: Vec::new(),
            current: None,
            op_samples: Vec::new(),
        }
    }

    /// Opens an iteration. With tracing on, every second iteration keeps
    /// no spans: the gap between the two kinds is the tracing overhead.
    pub fn begin_iteration(&mut self) {
        let traced = self.trace && self.iterations.len().is_multiple_of(2);
        let it = Iteration {
            traced,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            ..Iteration::default()
        };
        self.current = Some((host_ns(), it));
    }

    /// Closes the iteration.
    pub fn end_iteration(&mut self) {
        let (start, mut it) = self.current.take().expect("an iteration is open");
        let whole = host_ns() - start;
        it.on_clock_ns = whole.saturating_sub(it.off_clock_ns);
        self.iterations.push(it);
    }

    /// Times `f` as one call of kind `key`; returns its result and its
    /// host time in nanoseconds.
    pub fn call<R>(&mut self, key: Key, f: impl FnOnce() -> R) -> (R, u64) {
        let wall_start = self.origin.elapsed().as_nanos() as u64;
        let start = host_ns();
        let out = f();
        let dur = host_ns() - start;
        let (_, it) = self.current.as_mut().expect("an iteration is open");
        match it.by_key.iter_mut().find(|(k, _)| *k == key) {
            Some((_, ns)) => *ns += dur,
            None => it.by_key.push((key, dur)),
        }
        if it.traced {
            self.spans.push(HostSpan {
                key,
                start_ns: wall_start,
                dur_ns: dur,
                iteration: self.iterations.len() as u32,
            });
        }
        (out, dur)
    }

    /// Host milliseconds of one op call of each class, at nearest-rank
    /// percentile `p` of the class's samples (one per iteration), in class
    /// order.
    pub fn class_ms(&self, p: f64) -> Vec<f64> {
        let mut by_class: std::collections::BTreeMap<u32, Vec<f64>> = Default::default();
        for (class, ns) in &self.op_samples {
            by_class.entry(*class).or_default().push(*ns as f64 / 1e6);
        }
        by_class
            .values()
            .map(|v| crate::stats::nearest_rank(v, p))
            .collect()
    }

    /// Runs `f` inside the iteration but off its clock (answer checks,
    /// cache clears). Returns its result and its host time.
    pub fn off_clock<R>(&mut self, f: impl FnOnce() -> R) -> (R, u64) {
        let start = host_ns();
        let out = f();
        let dur = host_ns() - start;
        if let Some((_, it)) = self.current.as_mut() {
            it.off_clock_ns += dur;
        }
        (out, dur)
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto): one
    /// complete event per iteration on lane 0 and per call on lane 1, each
    /// call naming its iteration.
    pub fn chrome_trace(&self, workload: &str) -> String {
        let us = |ns: u64| Value::Num(ns as f64 / 1000.0);
        let event = |name: String, ts: u64, dur: u64, tid: u32, iteration: u32| {
            Value::obj([
                ("name", Value::Str(name)),
                ("ph", Value::str("X")),
                ("ts", us(ts)),
                ("dur", us(dur)),
                ("pid", Value::Num(1.0)),
                ("tid", Value::Num(f64::from(tid))),
                (
                    "args",
                    Value::obj([("iteration", Value::Num(f64::from(iteration)))]),
                ),
            ])
        };
        let mut events = vec![Value::obj([
            ("name", Value::str("process_name")),
            ("ph", Value::str("M")),
            ("pid", Value::Num(1.0)),
            (
                "args",
                Value::obj([("name", Value::Str(format!("amada-benchmark {workload}")))]),
            ),
        ])];
        for (i, it) in self
            .iterations
            .iter()
            .enumerate()
            .filter(|(_, it)| it.traced)
        {
            let wall = it.on_clock_ns + it.off_clock_ns;
            events.push(event("iteration".into(), it.start_ns, wall, 0, i as u32));
        }
        for s in &self.spans {
            events.push(event(
                metric_name(s.key),
                s.start_ns,
                s.dur_ns,
                1,
                s.iteration,
            ));
        }
        Value::obj([
            ("displayTimeUnit", Value::str("ms")),
            ("traceEvents", Value::Arr(events)),
        ])
        .render()
    }
}

/// Peak resident set size of this process so far (`VmHWM`), in MB; `None`
/// where `/proc` does not say.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// Where and how the numbers were made: commit, toolchain, cores, threads.
pub fn provenance() -> Vec<(&'static str, Value)> {
    let unknown = || "unknown".to_string();
    vec![
        (
            "git_commit",
            Value::Str(command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
        ),
        (
            "rustc",
            Value::Str(command_line("rustc", &["-V"]).unwrap_or_else(unknown)),
        ),
        (
            "nproc",
            Value::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        ("threads", Value::Num(amada_par::num_threads() as f64)),
        ("host_clock", Value::str(host_clock().name())),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iterations_account_for_calls_and_off_clock_time() {
        let mut rec = Recorder::new(true);
        for _ in 0..2 {
            rec.begin_iteration();
            rec.call((Call::BuildIndex, Some(Strategy::Lup)), || ());
            rec.call((Call::BuildIndex, Some(Strategy::Lup)), || ());
            rec.call((Call::Drop, None), || ());
            // Busy for 4 ms: on either host clock at least half of it counts.
            rec.off_clock(|| {
                let start = Instant::now();
                while start.elapsed().as_millis() < 4 {
                    std::hint::spin_loop();
                }
            });
            rec.end_iteration();
        }
        assert_eq!(rec.iterations.len(), 2);
        // Tracing alternates: only the first iteration kept spans.
        assert!(rec.iterations[0].traced && !rec.iterations[1].traced);
        assert_eq!(rec.spans.len(), 3);
        for it in &rec.iterations {
            assert_eq!(it.by_key.len(), 2, "same-kind calls accumulate");
            assert!(it.off_clock_ns >= 2_000_000);
            assert!(it.on_clock_ns < 2_000_000, "the busy loop is off the clock");
            assert!(it.covered_ns() <= it.on_clock_ns);
        }
        let trace = rec.chrome_trace("unit");
        amada_obs::validate_json(&trace).expect("a loadable trace");
        assert!(trace.contains("core.warehouse.build_index_ms.lup"));
    }

    #[test]
    fn names_follow_the_per_layer_table() {
        assert_eq!(
            metric_name((Call::RunQuery, Some(Strategy::TwoLupi))),
            "core.warehouse.run_query_ms.2lupi"
        );
        assert_eq!(
            metric_name((Call::Prewarm, None)),
            "index.parallel.prewarm_ms"
        );
        assert!(peak_rss_mb().is_none_or(|mb| mb > 0.0));
    }
}

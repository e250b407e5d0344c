//! End-to-end and per-layer benchmark of the MCFI reproduction.
//!
//! Three workloads, each a closed loop with one client (the next
//! operation starts when the previous one has returned):
//!
//! * `net-warm` — a booted MCFI [`mcfi_netsim::NetServer`] serving
//!   benign traffic, one `drive` call per segment (steady serving: VM
//!   plus the TxCheck fast path).
//! * `net-cold` — boot, first request (5 `dlsym` binds), `hot_reload`,
//!   one post-reload request, drop (dynamic loading: TxUpdate, load,
//!   CFG generation).
//! * `fleet-ckpt` — a 4-tenant [`mcfi_fleet::Fleet`] on 2 worker
//!   threads, one `run_requests(4)` per operation (the per-request
//!   supervisor checkpoint and the work-stealing scheduler).
//!
//! An untraced run reports the end-to-end metrics; a traced run of the
//! same workload and seed reports per-layer metrics from spans the
//! benchmark records around its calls into each layer's public
//! functions (see [`trace`]). Every run checks its outputs: response
//! streams against a NoCfi build's, reload commits, fleet accounting
//! and per-tenant digests against a solo replay. See `README.md` in
//! this directory for the layer → metric → end-to-end map.

pub mod fleet;
pub mod layers;
pub mod net;
pub mod stats;
pub mod trace;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use stats::percentile;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Steady serving on a booted MCFI network server.
    NetWarm,
    /// Boot, first request, hot reload and one more request per cycle.
    NetCold,
    /// Four supervised tenants on a two-thread work-stealing fleet.
    FleetCkpt,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::NetWarm, Workload::NetCold, Workload::FleetCkpt];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::NetWarm => "net-warm",
            Workload::NetCold => "net-cold",
            Workload::FleetCkpt => "fleet-ckpt",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The tail percentile reported as `latency_tail_us`: the highest of
    /// p99/p95/p90 that keeps ten samples beyond it at the operation
    /// counts a default run reaches.
    pub fn tail_quantile(self) -> f64 {
        match self {
            Workload::NetWarm => 0.99,
            Workload::NetCold => 0.90,
            Workload::FleetCkpt => 0.95,
        }
    }

    /// Set-ups timed per run, spread over it (their median is
    /// `setup_s`). A `net-cold` cycle boots a server, so there every
    /// cycle's boot is one.
    pub fn setups(self) -> usize {
        match self {
            Workload::NetWarm => 11,
            Workload::NetCold => 0,
            Workload::FleetCkpt => 5,
        }
    }

    /// Operations at the start of the traced loop over which the
    /// deterministic counts are taken, so they repeat exactly.
    pub fn count_window(self) -> u64 {
        match self {
            Workload::NetWarm => 2,
            Workload::NetCold => 8,
            Workload::FleetCkpt => 16,
        }
    }

    /// Operations the timed loop runs at least, so that the tail
    /// percentile keeps ten samples beyond it.
    pub fn min_ops(self) -> u64 {
        stats::min_samples(self.tail_quantile())
    }

    /// Worker threads the workload drives the program with.
    pub fn threads(self) -> usize {
        match self {
            Workload::FleetCkpt => fleet::THREADS,
            _ => 1,
        }
    }
}

/// One benchmark invocation.
#[derive(Clone, Debug)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Seconds the timed loop runs (the traced run splits them between
    /// an untraced and a traced phase).
    pub seconds: f64,
    /// Self-test hook: corrupt one reference response, which the
    /// correctness check must catch.
    pub tamper: bool,
    /// Where the traced run writes its kept spans.
    pub trace_out: Option<PathBuf>,
}

impl Config {
    /// A configuration with defaults for everything but the workload,
    /// seed and duration.
    pub fn new(workload: Workload, seed: u64, seconds: f64) -> Config {
        Config {
            workload,
            seed,
            seconds,
            tamper: false,
            trace_out: None,
        }
    }
}

/// A named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Shorthand for a [`Metric`].
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one invocation measured.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Requests attempted in the timed loop(s).
    pub attempted: u64,
    /// Attempted requests whose output was wrong, refused or lost.
    pub failed: u64,
    /// The metrics of the final JSON line: every end-to-end metric of an
    /// untraced run, every per-layer metric of a traced run.
    pub metrics: Vec<Metric>,
    /// Further measurements printed for the reader: workload-specific
    /// phase timings and the error rate.
    pub info: Vec<Metric>,
    /// Host and run context.
    pub context: Vec<(&'static str, String)>,
}

impl Report {
    /// Whether every output checked out.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The value of metric `name` (final-line or informational).
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .chain(&self.info)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Runs one invocation.
///
/// # Errors
///
/// A description of what broke: a program error (boot, load, guest
/// fault) or a refused percentile. A wrong output is not an error; it
/// is counted in [`Report::failed`].
pub fn run(cfg: &Config, traced: bool) -> Result<Report, String> {
    let mut report = match (cfg.workload, traced) {
        (Workload::NetWarm, false) => net::warm(cfg)?,
        (Workload::NetCold, false) => net::cold(cfg)?,
        (Workload::FleetCkpt, false) => fleet::untraced(cfg)?,
        (Workload::NetWarm, true) => net::warm_traced(cfg)?,
        (Workload::NetCold, true) => net::cold_traced(cfg)?,
        (Workload::FleetCkpt, true) => fleet::traced(cfg)?,
    };
    report.context.splice(0..0, host_context(cfg, traced));
    Ok(report)
}

/// A timed closed loop: per-operation latencies and the loop's length.
pub struct Timed {
    /// Per-operation latency, in nanoseconds.
    pub ns: Vec<f64>,
    /// Wall time of the loop, set-ups left out.
    pub elapsed: Duration,
}

/// Runs `op(i)` in a closed loop for `seconds` and at least `min_ops`
/// operations.
///
/// # Errors
///
/// The first error `op` returns.
pub fn timed_loop(
    seconds: f64,
    min_ops: u64,
    mut op: impl FnMut(u64) -> Result<(), String>,
) -> Result<Timed, String> {
    let limit = Duration::from_secs_f64(seconds.max(0.0));
    let start = Instant::now();
    let mut ns = Vec::new();
    while (ns.len() as u64) < min_ops || start.elapsed() < limit {
        let t = Instant::now();
        op(ns.len() as u64)?;
        ns.push(t.elapsed().as_nanos() as f64);
    }
    Ok(Timed {
        ns,
        elapsed: start.elapsed(),
    })
}

/// The traced phase's loop: `op(i, tracer)` in a closed loop for
/// `seconds` and at least `min_ops` operations, each folded into the
/// tracer as one operation. Odd operations run with the tracer muted, so
/// the tracing overhead — the traced operations' median time over the
/// muted ones', minus one — is measured on interleaved operations of the
/// same code. Returns the operation count and that overhead.
///
/// # Errors
///
/// The first error `op` returns.
pub fn traced_loop(
    t: &mut trace::Tracer,
    seconds: f64,
    min_ops: u64,
    mut op: impl FnMut(u64, &mut trace::Tracer) -> Result<(), String>,
) -> Result<(u64, Metric), String> {
    let (mut traced, mut muted) = (Vec::new(), Vec::new());
    let timed = timed_loop(seconds, min_ops.max(2), |i| {
        let mute = i % 2 == 1;
        t.set_muted(mute);
        let start = Instant::now();
        t.begin_op(i, false);
        let r = op(i, t);
        t.end_op();
        let ns = start.elapsed().as_nanos() as f64;
        if mute { &mut muted } else { &mut traced }.push(ns);
        r
    })?;
    t.set_muted(false);
    let overhead = stats::median(&traced) / stats::median(&muted) - 1.0;
    Ok((
        timed.ns.len() as u64,
        metric("trace.overhead", overhead, "ratio"),
    ))
}

/// Runs `op(state, i)` in a closed loop for `seconds` and at least
/// `min_ops` operations, re-doing the set-up `setups` times spread
/// evenly over the run, so that the set-up times sample the host over
/// the whole run rather than at its start. Before each later set-up,
/// `retire` takes the state it replaces (only one state is alive at a
/// time), and it takes the last state when the loop ends. Returns the
/// loop's timings, set-ups left out of [`Timed::elapsed`], and every
/// set-up's time in seconds. With no time budget, only the first
/// set-up runs.
///
/// # Errors
///
/// The first error `setup`, `op` or `retire` returns.
pub fn timed_run<S>(
    seconds: f64,
    min_ops: u64,
    setups: usize,
    mut setup: impl FnMut() -> Result<S, String>,
    mut op: impl FnMut(&mut S, u64) -> Result<(), String>,
    mut retire: impl FnMut(S) -> Result<(), String>,
) -> Result<(Timed, Vec<f64>), String> {
    let limit = seconds.max(0.0);
    let mut setup_s = Vec::with_capacity(setups);
    let mut timed_setup = |setup_s: &mut Vec<f64>| {
        let t = Instant::now();
        let state = setup()?;
        setup_s.push(t.elapsed().as_secs_f64());
        Ok::<S, String>(state)
    };
    let mut state = timed_setup(&mut setup_s)?;
    let start = Instant::now();
    let mut outside = Duration::ZERO;
    let mut ns = Vec::new();
    loop {
        let run = (start.elapsed() - outside).as_secs_f64();
        if ns.len() as u64 >= min_ops && run >= limit {
            break;
        }
        if run < limit
            && setup_s.len() < setups
            && run >= limit * setup_s.len() as f64 / setups as f64
        {
            let t = Instant::now();
            retire(state)?;
            state = timed_setup(&mut setup_s)?;
            outside += t.elapsed();
            continue;
        }
        let t = Instant::now();
        op(&mut state, ns.len() as u64)?;
        ns.push(t.elapsed().as_nanos() as f64);
    }
    let elapsed = start.elapsed() - outside;
    retire(state)?;
    Ok((Timed { ns, elapsed }, setup_s))
}

/// The end-to-end metrics every workload reports, from its set-up times
/// and timed loop: the gated metrics of the final JSON line and the
/// informational ones printed beside them.
///
/// The gated latency is the operation-time floor, p1. Every operation of
/// a loop does nearly the same work, so the spread of its times is mostly
/// the host's;
/// on a shared host whose speed drifts by tens of percent over minutes,
/// the floor repeats from run to run where the median and tail do not.
///
/// # Errors
///
/// A refused percentile (fewer than ten samples beyond it).
pub fn end_to_end(
    w: Workload,
    setup_s: &[f64],
    timed: &Timed,
    requests: u64,
) -> Result<(Vec<Metric>, Vec<Metric>), String> {
    let us: Vec<f64> = timed.ns.iter().map(|ns| ns / 1e3).collect();
    let pct = |q| percentile(&us, q).map_err(|e| e.to_string());
    let gated = vec![
        metric("setup_s", stats::median(setup_s), "s"),
        metric("latency_p1_us", pct(FLOOR_Q)?, "us"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    let info = vec![
        metric(
            "throughput_rps",
            requests as f64 / timed.elapsed.as_secs_f64(),
            "1/s",
        ),
        metric("latency_p50_us", pct(0.5)?, "us"),
        metric("latency_tail_us", pct(w.tail_quantile())?, "us"),
    ];
    Ok((gated, info))
}

/// The quantile reported as `latency_p1_us`.
pub const FLOOR_Q: f64 = 0.01;

/// Peak resident set size (`VmHWM`) of this process, in MiB; 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64: derives independent per-script seeds from the workload
/// seed.
pub fn splitmix(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Percentile-or-median helper for informational phase timings, which
/// obey the same ten-beyond rule as the end-to-end metrics.
///
/// # Errors
///
/// A refused percentile.
pub fn phase_metrics(
    out: &mut Vec<Metric>,
    names: [&'static str; 2],
    ms: &[f64],
    tail_q: f64,
) -> Result<(), String> {
    out.push(metric(
        names[0],
        percentile(ms, 0.5).map_err(|e| e.to_string())?,
        "ms",
    ));
    out.push(metric(
        names[1],
        percentile(ms, tail_q).map_err(|e| e.to_string())?,
        "ms",
    ));
    Ok(())
}

fn host_context(cfg: &Config, traced: bool) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("workload", cfg.workload.name().to_string()),
        ("seed", cfg.seed.to_string()),
        ("trace", u8::from(traced).to_string()),
        ("nproc", nproc.to_string()),
        ("threads", cfg.workload.threads().to_string()),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
        ),
        (
            "commit",
            git_commit().unwrap_or_else(|| "unknown".to_string()),
        ),
        ("seconds", cfg.seconds.to_string()),
    ]
}

/// The commit of the enclosing git checkout, read from `.git` without
/// running git; `None` outside a repository.
fn git_commit() -> Option<String> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let git = dir.join(".git");
        if git.is_dir() {
            let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
            let head = head.trim();
            let Some(r) = head.strip_prefix("ref: ") else {
                return Some(head.to_string());
            };
            if let Ok(id) = std::fs::read_to_string(git.join(r)) {
                return Some(id.trim().to_string());
            }
            let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
            return packed
                .lines()
                .find_map(|l| l.strip_suffix(r).map(|id| id.trim().to_string()));
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Renders the final result line.
pub fn result_json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

/// Renders the context line printed before the result.
pub fn context_json(report: &Report) -> String {
    let fields: Vec<String> = report
        .context
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{v}\""))
        .collect();
    format!("{{\"context\": {{{}}}}}", fields.join(", "))
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

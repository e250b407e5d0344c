//! What the traced runs share: the layer probe, the guest-run counters,
//! and the per-layer metric list every traced run reports.

use std::hint::black_box;
use std::time::Instant;

use mcfi_netsim::NetStats;
use mcfi_runtime::RunResult;
use mcfi_supervisor::Supervisor;

use crate::stats::median;
use crate::trace::{Tracer, RUN};
use crate::{metric, Config, Metric, Report};

/// Spans the traced run keeps for the trace file (whole operations,
/// until this many are kept).
pub const KEEP_SPANS: usize = 20_000;
/// Probe repetitions per traced run.
pub const PROBE_REPS: u64 = 9;
/// `IdTables::check` calls timed as one batch by the probe.
const CHECK_BATCH: u32 = 1024;

/// Running sums of the client-side counters `NetServer::drive` reports.
#[derive(Default)]
pub struct ClientSums {
    segments: u64,
    attempts: u64,
    retries: u64,
    give_ups: u64,
    pub(crate) reloads: u64,
    pub(crate) reload_updates: u64,
}

impl ClientSums {
    pub(crate) fn add(&mut self, s: &NetStats) {
        self.segments += s.segments as u64;
        self.attempts += s.attempts;
        self.retries += s.retries;
        self.give_ups += s.give_ups;
    }

    fn metrics(&self) -> Vec<Metric> {
        vec![
            metric(
                "netsim.attempts_per_req",
                ratio(self.attempts, self.segments),
                "count",
            ),
            metric("netsim.retries", self.retries as f64, "count"),
            metric("netsim.give_ups", self.give_ups as f64, "count"),
            metric(
                "netsim.updates_per_reload",
                ratio(self.reload_updates, self.reloads),
                "count",
            ),
        ]
    }
}

/// `a / b`, 0 when `b` is 0.
pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// What the layer probe measured besides span durations.
#[derive(Clone, Debug, Default)]
pub struct Probe {
    /// Policy statistics of the probed process.
    pub ibs: usize,
    /// Possible indirect-branch targets.
    pub ibts: usize,
    /// Equivalence classes.
    pub eqcs: usize,
    /// Tary entries of the probed process's tables.
    pub tary_len: usize,
    /// Code bytes of the guest modules.
    pub code_bytes: u64,
    /// Sandbox bytes a checkpoint copies.
    pub checkpoint_bytes: usize,
    /// `Supervisor::run` minus a checkpoint and a guest run timed next to
    /// it on the same process (median of the paired differences),
    /// in ns. Within timing noise of zero when the supervisor adds
    /// nothing but bookkeeping, so it can read slightly negative.
    pub supervisor_self_ns: f64,
}

/// Times each layer's public call on a booted, supervised process,
/// [`PROBE_REPS`] times: policy generation, a full table install of the
/// current policy, a batch of valid `IdTables::check` calls, a
/// checkpoint with its snapshot and digest parts, and a supervised run.
/// Then sets the per-TxUpdate costs the tracer attributes out of guest
/// runs.
///
/// # Errors
///
/// No valid slot/target pair, a failed check, or a failed run.
pub fn probe_layers(sup: &mut Supervisor, entry: &str, t: &mut Tracer) -> Result<Probe, String> {
    let mut probe = Probe::default();
    let mut self_ns = Vec::new();
    for rep in 0..PROBE_REPS {
        t.begin_op(rep, true);
        let p = sup.process_mut();
        let policy = t.span("cfggen.generate", |_| p.current_policy());
        t.span("tables.update", |_| p.install_custom_policy(&policy));
        let (slot, target) = policy
            .bary
            .iter()
            .enumerate()
            .find_map(|(slot, b)| b.targets.iter().next().map(|&tg| (slot, tg)))
            .ok_or("policy has no valid slot/target pair")?;
        let tables = p.tables();
        let ok = t.span("tables.check", |_| {
            (0..CHECK_BATCH).all(|_| tables.check(black_box(slot), black_box(target)).is_ok())
        });
        if !ok {
            return Err(format!(
                "valid check failed: slot {slot} target {target:#x}"
            ));
        }
        t.span("runtime.checkpoint", |_| {
            p.checkpoint_now();
        });
        let snap = t.span("runtime.snapshot", |_| p.mem().snapshot());
        t.span("runtime.digest", |_| black_box(snap.digest()));
        drop(snap);
        probe.ibs = policy.stats.ibs;
        probe.ibts = policy.stats.ibts;
        probe.eqcs = policy.stats.eqcs;
        probe.tary_len = tables.tary_len();
        probe.checkpoint_bytes = p.mem().size();

        // Alternate which comes first, so neither side always runs on
        // caches the other warmed.
        let whole = |sup: &mut Supervisor, t: &mut Tracer| {
            let t0 = Instant::now();
            t.span("supervisor.run", |_| sup.run(entry))
                .map_err(|e| e.to_string())?;
            Ok::<_, String>(t0.elapsed().as_nanos() as f64)
        };
        let parts = |sup: &mut Supervisor| {
            let t0 = Instant::now();
            sup.process_mut().checkpoint_now();
            sup.process_mut().run(entry).map_err(|e| e.to_string())?;
            Ok::<_, String>(t0.elapsed().as_nanos() as f64)
        };
        let (w, p) = if rep % 2 == 0 {
            (whole(sup, t)?, parts(sup)?)
        } else {
            let p = parts(sup)?;
            (whole(sup, t)?, p)
        };
        self_ns.push(w - p);
        t.end_op();
    }
    probe.supervisor_self_ns = median(&self_ns);
    let per_update = |name| t.median_ns(name).map_or(0, |ns| ns as u64);
    let costs = vec![
        ("cfggen.generate", per_update("cfggen.generate")),
        ("tables.update", per_update("tables.update")),
    ];
    t.set_update_costs(costs);
    Ok(probe)
}

/// Guest-run counters of the traced loop. The `window` sums cover the
/// first [`crate::Workload::count_window`] operations only, so they repeat
/// exactly for one seed; the others cover the whole traced loop.
#[derive(Default)]
pub struct Counts {
    /// Operations in the window.
    pub ops: u64,
    /// Requests in the window.
    pub requests: u64,
    steps: u64,
    checks: u64,
    cycles: u64,
    updates: u64,
    retries: u64,
    steps_all: u64,
    icache_hits: u64,
    icache_misses: u64,
    trans_dispatches: u64,
    trans_fallbacks: u64,
}

impl Counts {
    /// Adds one guest run; `in_window` for runs of the count window.
    pub fn add_run(&mut self, r: &RunResult, in_window: bool) {
        if in_window {
            self.steps += r.steps;
            self.checks += r.checks;
            self.cycles += r.cycles;
            self.updates += r.updates;
            self.retries += r.check_retries + r.tx_retries;
        }
        self.steps_all += r.steps;
        self.icache_hits += r.icache_hits;
        self.icache_misses += r.icache_misses;
        self.trans_dispatches += r.trans_dispatches;
        self.trans_fallbacks += r.trans_fallbacks;
    }
}

/// Self-time shares reported per layer (span-name prefixes).
pub const SHARES: [(&str, &str); 11] = [
    ("self_share.codegen", "codegen"),
    ("self_share.runtime.load", "runtime.load"),
    ("self_share.cfggen", "cfggen"),
    ("self_share.tables", "tables"),
    ("self_share.runtime.run", "runtime.run"),
    ("self_share.runtime.mailbox", "runtime.mailbox"),
    ("self_share.runtime.checkpoint", "runtime.checkpoint"),
    ("self_share.runtime.drop", "runtime.drop"),
    ("self_share.supervisor", "supervisor"),
    ("self_share.fleet", "fleet"),
    ("self_share.netsim", "netsim"),
];

/// Fleet scheduler counters, zero on the network workloads.
#[derive(Clone, Debug, Default)]
pub struct FleetCounts {
    /// Slices served by all workers.
    pub slices: u64,
    /// Slices taken from another worker's deque.
    pub steals: u64,
    /// Requests served per worker.
    pub per_worker: Vec<u64>,
    /// Requests shed.
    pub shed: u64,
    /// Tenant restarts.
    pub restarts: u64,
}

/// Every per-layer metric but the MCFI/plain ratio and the tracing
/// overhead, which each workload measures its own way.
pub fn layer_metrics(
    t: &Tracer,
    probe: &Probe,
    c: &Counts,
    client: &ClientSums,
    fleet: Option<&FleetCounts>,
) -> Vec<Metric> {
    let ms = |name: &str| t.median_ns(name).unwrap_or(0.0) / 1e6;
    let run_total_ns: u64 = t.acc.get(RUN).map_or(0, |a| a.op_ns);
    let fleet = fleet.cloned().unwrap_or_default();
    let balance = match (fleet.per_worker.iter().min(), fleet.per_worker.iter().max()) {
        (Some(&lo), Some(&hi)) => ratio(lo, hi),
        _ => 0.0,
    };
    let mut m = vec![
        metric("codegen.compile_ms", ms("codegen.compile"), "ms"),
        metric("codegen.code_bytes", probe.code_bytes as f64, "bytes"),
        metric("runtime.load_ms", ms("runtime.load"), "ms"),
        metric("cfggen.generate_ms", ms("cfggen.generate"), "ms"),
        metric("cfggen.ibs", probe.ibs as f64, "count"),
        metric("cfggen.ibts", probe.ibts as f64, "count"),
        metric("cfggen.eqcs", probe.eqcs as f64, "count"),
        metric("tables.update_ms", ms("tables.update"), "ms"),
        metric("tables.updates_per_cycle", ratio(c.updates, c.ops), "count"),
        metric("tables.tary_len", probe.tary_len as f64, "count"),
        metric(
            "tables.check_ns",
            ms("tables.check") * 1e6 / f64::from(CHECK_BATCH),
            "ns",
        ),
        metric("tables.check_retries", c.retries as f64, "count"),
        metric("runtime.run_us", ms(RUN) * 1e3, "us"),
        metric(
            "runtime.steps_per_s",
            c.steps_all as f64 / (run_total_ns as f64 / 1e9),
            "1/s",
        ),
        metric(
            "runtime.icache_hit_ratio",
            ratio(c.icache_hits, c.icache_hits + c.icache_misses),
            "ratio",
        ),
        metric(
            "runtime.trans_fallback_ratio",
            ratio(c.trans_fallbacks, c.trans_dispatches),
            "ratio",
        ),
        metric("runtime.steps_per_req", ratio(c.steps, c.requests), "count"),
        metric(
            "runtime.checks_per_req",
            ratio(c.checks, c.requests),
            "count",
        ),
        metric(
            "runtime.sim_cycles_per_req",
            ratio(c.cycles, c.requests),
            "count",
        ),
        metric("runtime.checkpoint_ms", ms("runtime.checkpoint"), "ms"),
        metric("runtime.snapshot_ms", ms("runtime.snapshot"), "ms"),
        metric("runtime.digest_ms", ms("runtime.digest"), "ms"),
        metric(
            "runtime.checkpoint_bytes",
            probe.checkpoint_bytes as f64,
            "bytes",
        ),
        metric("supervisor.run_ms", ms("supervisor.run"), "ms"),
        metric("supervisor.self_ms", probe.supervisor_self_ns / 1e6, "ms"),
        metric("fleet.slices", fleet.slices as f64, "count"),
        metric("fleet.steals", fleet.steals as f64, "count"),
        metric("fleet.worker_balance", balance, "ratio"),
        metric("fleet.shed", fleet.shed as f64, "count"),
        metric("fleet.restarts", fleet.restarts as f64, "count"),
    ];
    m.extend(client.metrics());
    for (name, prefix) in SHARES {
        m.push(metric(name, t.self_share(prefix), "ratio"));
    }
    m.push(metric("trace.spans", t.recorded as f64, "count"));
    m
}

/// Writes the trace file and assembles the traced report.
///
/// # Errors
///
/// An I/O error writing the trace file.
pub fn finish_traced(
    cfg: &Config,
    t: &Tracer,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
) -> Result<Report, String> {
    let mut context = Vec::new();
    if let Some(path) = &cfg.trace_out {
        t.write_jsonl(path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        context.push(("trace_file", path.display().to_string()));
    }
    context.push(("samples.spans", t.recorded.to_string()));
    Ok(Report {
        attempted,
        failed,
        metrics,
        info: vec![metric("error_rate", ratio(failed, attempted), "ratio")],
        context,
    })
}

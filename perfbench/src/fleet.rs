//! The `fleet-ckpt` workload: four self-driving network tenants
//! (`mcfi_netsim::tenant_spec`) on a two-thread work-stealing
//! [`Fleet`], one `run_requests(4)` per operation.
//!
//! Correctness: every request is served or shed, every tenant stays
//! healthy, and each tenant's digest equals the digest of a solo replay
//! of one tenant after the same number of requests (tenants run the
//! same deterministic guest, so their trajectories depend only on how
//! many requests they served).
//!
//! The traced run drives the same tenants itself, through the public
//! calls a healthy `Supervisor::run` is made of — `Process::checkpoint_now`
//! then `Process::run` — on two scoped worker threads, one span each,
//! and checks every result against the solo replay's.

use std::sync::Mutex;
use std::time::Instant;

use mcfi_codegen::Policy;
use mcfi_fleet::{Fleet, FleetOptions, FleetStats, Schedule, TenantHealth, TenantSpec};
use mcfi_netsim::{guest, tenant_spec};
use mcfi_runtime::{Process, ProcessOptions, RunResult};
use mcfi_supervisor::Supervisor;

use crate::layers::{
    finish_traced, layer_metrics, probe_layers, ClientSums, Counts, FleetCounts, KEEP_SPANS,
};
use crate::net::{code_bytes, guest_modules};
use crate::stats::median;
use crate::trace::{Tracer, RUN};
use crate::{
    end_to_end, metric, phase_metrics, timed_loop, timed_run, traced_loop, Config, Report, Workload,
};

/// Worker threads, on every host.
pub const THREADS: usize = 2;
/// Tenants in the fleet.
const TENANTS: usize = 4;
/// Requests per operation.
const ROUND: u64 = 4;
/// Requests each tenant serves before timing starts: past its one
/// self-reload.
const WARM_REQUESTS: u64 = 17;
/// Rounds after which a warm-up that has not reached every tenant fails.
const MAX_WARM_ROUNDS: u64 = 200;

fn specs() -> Vec<TenantSpec> {
    (0..TENANTS)
        .map(|i| tenant_spec(&format!("net{i}")))
        .collect()
}

fn options(seed: u64) -> FleetOptions {
    FleetOptions {
        threads: THREADS,
        schedule: Schedule::Seeded(seed),
        ..FleetOptions::default()
    }
}

/// Boots the fleet and runs rounds until every tenant has served
/// [`WARM_REQUESTS`].
fn setup(cfg: &Config) -> Result<Fleet, String> {
    let mut fleet = Fleet::new(specs(), options(cfg.seed)).map_err(|e| e.to_string())?;
    for _ in 0..MAX_WARM_ROUNDS {
        if fleet
            .stats()
            .per_tenant
            .iter()
            .all(|t| t.requests >= WARM_REQUESTS)
        {
            return Ok(fleet);
        }
        fleet.run_requests(ROUND);
    }
    Err("fleet warm-up did not reach every tenant".into())
}

/// One operation, accumulating the scheduler's per-call worker stats.
fn round(fleet: &mut Fleet, fc: &mut FleetCounts) {
    fleet.run_requests(ROUND);
    for w in fleet.worker_stats() {
        fc.slices += w.slices;
        fc.steals += w.steals;
        let i = w.worker as usize;
        if fc.per_worker.len() <= i {
            fc.per_worker.resize(i + 1, 0);
        }
        fc.per_worker[i] += w.requests;
    }
}

/// A solo replay of one tenant: its digest and result after each
/// request.
pub struct Reference {
    /// `digests[n - 1]`: the tenant digest after `n` served requests.
    pub digests: Vec<u64>,
    /// Every served result, in order.
    pub results: Vec<RunResult>,
}

/// Replays one tenant alone for `requests` requests.
///
/// # Errors
///
/// A boot failure.
pub fn reference(requests: u64) -> Result<Reference, String> {
    let opts = FleetOptions {
        record_results: true,
        ..FleetOptions::default()
    };
    let mut solo = Fleet::new(vec![tenant_spec("net0")], opts).map_err(|e| e.to_string())?;
    let mut digests = Vec::with_capacity(requests as usize);
    for _ in 0..requests {
        solo.run_requests(1);
        digests.push(solo.stats().per_tenant[0].digest);
    }
    Ok(Reference {
        digests,
        results: solo.results(0),
    })
}

/// Attempted and failed requests of the fleet's timed loop: requests
/// not served, broken accounting, and every request of a tenant that
/// is unhealthy or whose digest differs from the solo replay's.
fn verify(before: &FleetStats, after: &FleetStats, r: &Reference) -> (u64, u64) {
    let attempted = after.requests - before.requests;
    let mut failed = (after.requests - after.served) - (before.requests - before.served);
    if after.served + after.shed != after.requests {
        failed = attempted;
    }
    for (b, a) in before.per_tenant.iter().zip(&after.per_tenant) {
        let want = a
            .served
            .checked_sub(1)
            .and_then(|n| r.digests.get(n as usize));
        if a.health != TenantHealth::Healthy || a.restarts > 0 || want != Some(&a.digest) {
            failed += a.requests - b.requests;
        }
    }
    (attempted, failed.min(attempted))
}

fn max_served(s: &FleetStats) -> u64 {
    s.per_tenant.iter().map(|t| t.served).max().unwrap_or(0)
}

/// `fleet-ckpt`, untraced: end-to-end metrics. Each set-up boots and
/// warms a fresh fleet, which serves until the next one replaces it.
pub fn untraced(cfg: &Config) -> Result<Report, String> {
    let w = Workload::FleetCkpt;
    let mut fc = FleetCounts::default();
    let mut served = Vec::new();
    let (timed, setup_s) = timed_run(
        cfg.seconds,
        w.min_ops(),
        w.setups(),
        || setup(cfg).map(|f| (f.stats(), f)),
        |(_, fleet), _| {
            round(fleet, &mut fc);
            Ok(())
        },
        |(before, fleet)| {
            served.push((before, fleet.stats()));
            Ok(())
        },
    )?;
    // Peak RSS is read here, after the last fleet is dropped and before
    // the solo replay boots a tenant of its own.
    let requests = served.iter().map(|(b, a)| a.served - b.served).sum();
    let (metrics, mut info) = end_to_end(w, &setup_s, &timed, requests)?;
    let longest = served.iter().map(|(_, a)| max_served(a)).max().unwrap_or(0);
    let mut r = reference(longest)?;
    if cfg.tamper {
        r.digests.iter_mut().for_each(|d| *d ^= 1);
    }
    let (mut attempted, mut failed) = (0, 0);
    for (before, after) in &served {
        let (a, f) = verify(before, after, &r);
        attempted += a;
        failed += f;
    }
    let round_ms: Vec<f64> = timed.ns.iter().map(|ns| ns / 1e6).collect();
    phase_metrics(&mut info, ["round_p50_ms", "round_p95_ms"], &round_ms, 0.95)?;
    info.push(metric(
        "error_rate",
        crate::layers::ratio(failed, attempted),
        "ratio",
    ));
    Ok(Report {
        attempted,
        failed,
        metrics,
        info,
        context: vec![
            ("samples.latency", timed.ns.len().to_string()),
            ("samples.setup", setup_s.len().to_string()),
            ("reference_requests", r.digests.len().to_string()),
        ],
    })
}

/// A tenant driven by the traced run.
struct TracedTenant {
    sup: Supervisor,
    entry: String,
    results: Vec<RunResult>,
}

/// Boots a tenant the way the fleet does, under spans.
fn boot_tenant(name: &str, t: &mut Tracer) -> Result<TracedTenant, String> {
    let spec = t.span("codegen.compile", |_| tenant_spec(name));
    let sup = t.span("runtime.load", |_| -> Result<Supervisor, String> {
        let mut p = Process::new(spec.options).map_err(|e| e.to_string())?;
        p.load_all(spec.modules.clone())
            .map_err(|e| e.to_string())?;
        for (lib, module) in &spec.libraries {
            p.register_library(lib, module.clone());
        }
        Ok(Supervisor::new(p, spec.recovery))
    })?;
    Ok(TracedTenant {
        sup,
        entry: spec.entry,
        results: Vec::new(),
    })
}

/// One request the way a healthy `Supervisor::run` serves it.
fn serve(tn: &mut TracedTenant, t: &mut Tracer) -> Result<(), String> {
    t.span("supervisor.request", |t| {
        let p = tn.sup.process_mut();
        t.span("runtime.checkpoint", |_| {
            p.checkpoint_now();
        });
        let r = t
            .span(RUN, |_| p.run(&tn.entry))
            .map_err(|e| e.to_string())?;
        t.note_updates(r.updates);
        tn.results.push(r);
        Ok(())
    })
}

/// The fleet's seeded tenant pick (xorshift64 over a state seeded odd).
fn pick(state: &mut u64) -> usize {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    (x % TENANTS as u64) as usize
}

/// One traced operation: [`ROUND`] picks drained into per-tenant
/// budgets, then [`THREADS`] scoped workers take tenants off one shared
/// queue until it is empty, so a worker that finishes early picks up
/// the next tenant as the fleet's stealing workers do.
fn traced_round(
    tenants: &mut [TracedTenant],
    state: &mut u64,
    t: &mut Tracer,
) -> Result<(), String> {
    let mut budget = [0u64; TENANTS];
    for _ in 0..ROUND {
        budget[pick(state)] += 1;
    }
    let queue: Mutex<Vec<(&mut TracedTenant, u64)>> = Mutex::new(
        tenants
            .iter_mut()
            .zip(budget)
            .filter(|(_, n)| *n > 0)
            .rev()
            .collect(),
    );
    let forks: Vec<Tracer> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let mut ft = t.fork();
                let queue = &queue;
                s.spawn(move || -> Result<Tracer, String> {
                    loop {
                        let task = queue.lock().expect("tenant queue lock").pop();
                        let Some((tn, n)) = task else { return Ok(ft) };
                        for _ in 0..n {
                            serve(tn, &mut ft)?;
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fleet worker thread panicked"))
            .collect::<Result<Vec<_>, String>>()
    })?;
    for f in forks {
        t.join(f);
    }
    Ok(())
}

/// The NoCfi build of the tenant guest, loaded the way `NetServer`
/// loads its plain leg (uninstrumented stubs, start module last).
fn plain_tenant() -> Result<Process, String> {
    let (modules, lib) = guest_modules(Policy::NoCfi, true);
    let mut p = Process::new(ProcessOptions::default()).map_err(|e| e.to_string())?;
    p.load_all(modules).map_err(|e| e.to_string())?;
    p.register_library(guest::RELOAD_LIBRARY, lib);
    Ok(p)
}

/// `fleet-ckpt`, traced: per-layer metrics.
pub fn traced(cfg: &Config) -> Result<Report, String> {
    let w = Workload::FleetCkpt;
    let mut t = Tracer::new(KEEP_SPANS);

    // Probe tenant, past its self-reload.
    t.begin_op(u64::MAX, true);
    let mut probe_tenant = boot_tenant("probe", &mut t)?;
    t.end_op();
    for _ in 0..WARM_REQUESTS {
        probe_tenant
            .sup
            .run(&probe_tenant.entry)
            .map_err(|e| e.to_string())?;
    }
    let mut probe = probe_layers(&mut probe_tenant.sup, &probe_tenant.entry, &mut t)?;
    let spec = tenant_spec("net0");
    probe.code_bytes = code_bytes(
        spec.modules
            .iter()
            .chain(spec.libraries.iter().map(|(_, m)| m)),
    );
    drop(probe_tenant);

    // Phase A, untraced: the real fleet.
    let mut fleet = setup(cfg)?;
    let before = fleet.stats();
    let mut fc = FleetCounts::default();
    timed_loop(cfg.seconds * 0.4, 1, |_| {
        round(&mut fleet, &mut fc);
        Ok(())
    })?;
    let after = fleet.stats();
    drop(fleet);
    fc.shed = after.shed;
    fc.restarts = after.restarts;

    // Phase B, traced: the same tenants driven through the calls a
    // healthy supervised request is made of.
    t.begin_op(u64::MAX, true);
    let mut tenants = (0..TENANTS)
        .map(|i| boot_tenant(&format!("net{i}"), &mut t))
        .collect::<Result<Vec<_>, _>>()?;
    t.end_op();
    let mut state = cfg.seed | 1;
    t.set_muted(true);
    for _ in 0..MAX_WARM_ROUNDS {
        if tenants
            .iter()
            .all(|tn| tn.results.len() as u64 >= WARM_REQUESTS)
        {
            break;
        }
        traced_round(&mut tenants, &mut state, &mut t)?;
    }
    t.set_muted(false);
    let entry = tenants[0].entry.clone();
    let mut plain = plain_tenant()?;
    for _ in 0..WARM_REQUESTS {
        plain.run(&entry).map_err(|e| e.to_string())?;
    }
    let mut plain_ns = Vec::new();
    let mut counts = Counts::default();
    let window = w.count_window();
    let (_, overhead) = traced_loop(&mut t, cfg.seconds * 0.6, window, |i, t| {
        let lens: Vec<usize> = tenants.iter().map(|tn| tn.results.len()).collect();
        t.span("fleet.round", |t| traced_round(&mut tenants, &mut state, t))?;
        for (tn, &from) in tenants.iter().zip(&lens) {
            for r in &tn.results[from..] {
                counts.add_run(r, i < window);
                counts.requests += u64::from(i < window);
            }
        }
        counts.ops += u64::from(i < window);
        let t0 = Instant::now();
        plain.run(&entry).map_err(|e| e.to_string())?;
        plain_ns.push(t0.elapsed().as_nanos() as f64);
        Ok(())
    })?;

    // Correctness of both phases against one solo replay.
    let longest = tenants
        .iter()
        .map(|tn| tn.results.len() as u64)
        .max()
        .unwrap_or(0);
    let mut r = reference(longest.max(max_served(&after)))?;
    if cfg.tamper {
        r.digests.iter_mut().for_each(|d| *d ^= 1);
        r.results.iter_mut().for_each(|res| res.steps ^= 1);
    }
    let (attempted_a, mut failed) = verify(&before, &after, &r);
    let mut attempted = attempted_a;
    for tn in &tenants {
        let n = tn.results.len();
        attempted += n as u64;
        if r.results.get(..n) != Some(&tn.results[..]) {
            failed += n as u64;
        }
    }

    let mut metrics = layer_metrics(&t, &probe, &counts, &ClientSums::default(), Some(&fc));
    let run_ns = t.median_ns(RUN).unwrap_or(0.0);
    metrics.push(metric(
        "runtime.mcfi_vs_plain",
        run_ns / median(&plain_ns),
        "ratio",
    ));
    metrics.push(overhead);
    finish_traced(cfg, &t, attempted, failed.min(attempted), metrics)
}

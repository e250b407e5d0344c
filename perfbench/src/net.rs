//! The network workloads, `net-warm` and `net-cold`.
//!
//! Untraced runs drive the real [`NetServer`]. Traced runs send the
//! same segments through [`TracedServer`], which performs the calls a
//! fault-free `NetServer::boot_with` / `drive` / `hot_reload` is made of
//! (`compile_source`, `Process::new` / `load_all` / `register_library`,
//! `poke` / `run` / `peek`) with a span around each, and checks its
//! responses against the same NoCfi reference.

use std::hint::black_box;
use std::time::Instant;

use mcfi_codegen::{compile_source, CodegenOptions, Policy};
use mcfi_module::Module;
use mcfi_netsim::{
    guest, NetConfig, NetOutcome, NetServer, NetStats, PacketGen, Segment, TrafficSpec,
};
use mcfi_runtime::{stdlib, synth, Outcome, Process, ProcessOptions, RunResult};
use mcfi_supervisor::{RecoveryPolicy, Supervisor};

use crate::layers::{
    finish_traced, layer_metrics, probe_layers, ratio, ClientSums, Counts, Probe, KEEP_SPANS,
};
use crate::stats::median;
use crate::trace::{Tracer, RUN};
use crate::{
    end_to_end, metric, phase_metrics, splitmix, timed_loop, timed_run, traced_loop, Config,
    Report, Workload,
};

/// Scripts one `net-warm` operation serves, after the warm-up script.
/// A whole pass is one operation because single segments fall into two
/// cost modes of nearly equal size (control segments and data segments),
/// which puts a per-segment median on the gap between them.
const WARM_POOL: u64 = 8;
/// Scripts whose first two segments the `net-cold` cycles use.
const COLD_POOL: u64 = 8;
/// Guest globals `NetServer::drive` mirrors into its stats after a drive.
const MIRRORS: [&str; 8] = [
    "established",
    "half_open",
    "shed_count",
    "degraded",
    "rst_challenged",
    "handler_version",
    "reload_fails",
    "served",
];

/// Script `j` of the workload seeded `seed`: benign traffic, 6
/// connections, each a full lifecycle, so the server is back at its
/// starting state when the script ends.
pub fn script(seed: u64, j: u64) -> Vec<Segment> {
    let seed = splitmix(seed, j);
    PacketGen::new(seed).script(&TrafficSpec {
        seed,
        conns: 6,
        adversarial: false,
    })
}

fn boot(policy: Policy) -> Result<NetServer, String> {
    NetServer::boot_with(policy, NetConfig::default(), ProcessOptions::default())
        .map_err(|e| format!("boot {policy:?}: {e}"))
}

fn drive(srv: &mut NetServer, segs: &[Segment]) -> Result<NetOutcome, String> {
    srv.drive(segs).map_err(|e| format!("drive: {e}"))
}

// ---------------------------------------------------------------- net-warm

/// The NoCfi server's answers for one seed: its stream for the warm-up
/// script and, for every segment of one operation, in order, its
/// response.
struct WarmRef {
    first: Vec<u8>,
    items: Vec<(Segment, Vec<u8>)>,
}

/// Runs the warm-up script and then every segment of the loop's scripts
/// on `plain`, a booted NoCfi server, recording its responses.
fn warm_reference(cfg: &Config, plain: &mut NetServer) -> Result<WarmRef, String> {
    let first = drive(plain, &script(cfg.seed, 0))?.stream;
    let mut items = Vec::new();
    for j in 1..=WARM_POOL {
        for seg in script(cfg.seed, j) {
            let want = drive(plain, std::slice::from_ref(&seg))?.stream;
            items.push((seg, want));
        }
    }
    if cfg.tamper {
        items[0].1[1] ^= 1;
    }
    Ok(WarmRef { first, items })
}

/// The program's set-up: boots the MCFI server and runs the warm-up
/// script on it, where it binds its 5 handlers.
fn warm_setup(cfg: &Config, r: &WarmRef) -> Result<NetServer, String> {
    let mut srv = boot(Policy::Mcfi)?;
    if drive(&mut srv, &script(cfg.seed, 0))?.stream != r.first {
        return Err("warm-up script: MCFI stream differs from NoCfi".into());
    }
    Ok(srv)
}

/// One `net-warm` operation: every segment of the loop's scripts, one
/// `drive` call each. Returns how many responses were wrong.
fn warm_pass(
    srv: &mut NetServer,
    items: &[(Segment, Vec<u8>)],
    client: &mut ClientSums,
) -> Result<u64, String> {
    let mut wrong = 0;
    for (seg, want) in items {
        let out = drive(srv, std::slice::from_ref(seg))?;
        client.add(&out.stats);
        wrong += u64::from(out.stream != *want || out.stats.give_ups > 0);
    }
    Ok(wrong)
}

/// `net-warm`, untraced: end-to-end metrics.
pub fn warm(cfg: &Config) -> Result<Report, String> {
    let w = Workload::NetWarm;
    let r = warm_reference(cfg, &mut boot(Policy::NoCfi)?)?;
    let mut failed = 0;
    let mut client = ClientSums::default();
    let (timed, setup_s) = timed_run(
        cfg.seconds,
        w.min_ops(),
        w.setups(),
        || warm_setup(cfg, &r),
        |srv, _| {
            failed += warm_pass(srv, &r.items, &mut client)?;
            Ok(())
        },
        |srv| {
            drop(srv);
            Ok(())
        },
    )?;
    let requests = timed.ns.len() as u64 * r.items.len() as u64;
    let (metrics, mut info) = end_to_end(w, &setup_s, &timed, requests)?;
    info.push(metric("error_rate", ratio(failed, requests), "ratio"));
    Ok(Report {
        attempted: requests,
        failed,
        metrics,
        info,
        context: vec![
            ("samples.latency", timed.ns.len().to_string()),
            ("samples.setup", setup_s.len().to_string()),
            ("requests_per_op", r.items.len().to_string()),
        ],
    })
}

/// `net-warm`, traced: per-layer metrics.
pub fn warm_traced(cfg: &Config) -> Result<Report, String> {
    let w = Workload::NetWarm;
    let mut t = Tracer::new(KEEP_SPANS);
    let probe = probe_net(&mut t)?;
    let mut plain = boot(Policy::NoCfi)?;
    let r = warm_reference(cfg, &mut plain)?;
    let mut real = warm_setup(cfg, &r)?;
    let mut failed = 0;
    let mut client = ClientSums::default();

    // Phase A, untraced: the real NetServer, each pass repeated on the
    // NoCfi server for the MCFI/plain ratio.
    let (mut mcfi_ns, mut plain_ns) = (Vec::new(), Vec::new());
    timed_loop(cfg.seconds * 0.4, 1, |_| {
        let t0 = Instant::now();
        failed += warm_pass(&mut real, &r.items, &mut client)?;
        mcfi_ns.push(t0.elapsed().as_nanos() as f64);
        let t1 = Instant::now();
        failed += warm_pass(&mut plain, &r.items, &mut ClientSums::default())?;
        plain_ns.push(t1.elapsed().as_nanos() as f64);
        Ok(())
    })?;
    drop((real, plain));
    let per_op = r.items.len() as u64;
    let phase_a_requests = mcfi_ns.len() as u64 * per_op;

    // Phase B, traced: the same segments through the decomposed server.
    t.begin_op(u64::MAX, true);
    let mut srv = TracedServer::boot(Policy::Mcfi, &mut t)?;
    for seg in script(cfg.seed, 0) {
        srv.request(&seg, &mut t)?;
    }
    t.end_op();
    let mut counts = Counts::default();
    let window = w.count_window();
    let (ops, overhead) = traced_loop(&mut t, cfg.seconds * 0.6, window, |i, t| {
        let res = t.span("netsim.pass", |t| {
            r.items
                .iter()
                .map(|(seg, _)| t.span("netsim.request", |t| srv.request(seg, t)))
                .collect::<Result<Vec<_>, String>>()
        });
        for ((resp, run), (_, want)) in res?.iter().zip(&r.items) {
            counts.add_run(run, i < window);
            failed += u64::from(resp != want);
        }
        if i < window {
            counts.requests += per_op;
            counts.ops += 1;
        }
        Ok(())
    })?;
    let attempted = phase_a_requests + ops * per_op;
    let mut metrics = layer_metrics(&t, &probe, &counts, &client, None);
    metrics.push(metric(
        "runtime.mcfi_vs_plain",
        median(&mcfi_ns) / median(&plain_ns),
        "ratio",
    ));
    metrics.push(overhead);
    finish_traced(cfg, &t, attempted, failed, metrics)
}

// ---------------------------------------------------------------- net-cold

/// One cold cycle's inputs and the NoCfi server's answers.
struct ColdRef {
    first: Segment,
    second: Segment,
    first_want: Vec<u8>,
    second_want: Vec<u8>,
}

/// Records, for each pool script, the NoCfi server's response to its
/// first segment and — after a hot reload — to its second.
fn cold_reference(cfg: &Config) -> Result<Vec<ColdRef>, String> {
    let mut refs = Vec::new();
    for j in 0..COLD_POOL {
        let s = script(cfg.seed, j);
        let mut plain = boot(Policy::NoCfi)?;
        let first_want = drive(&mut plain, &s[..1])?.stream;
        if !plain
            .hot_reload(&mut NetStats::default())
            .map_err(|e| e.to_string())?
        {
            return Err("NoCfi reference: hot reload did not commit".into());
        }
        let second_want = drive(&mut plain, &s[1..2])?.stream;
        refs.push(ColdRef {
            first: s[0].clone(),
            second: s[1].clone(),
            first_want,
            second_want,
        });
    }
    if cfg.tamper {
        refs[0].second_want[1] ^= 1;
    }
    Ok(refs)
}

/// Timings and verdict of one untraced cold cycle.
struct Cycle {
    boot_s: f64,
    first_ms: f64,
    reload_ms: f64,
    wrong: u64,
}

/// One full cycle on a fresh server under `policy`.
fn cold_cycle(policy: Policy, c: &ColdRef, client: &mut ClientSums) -> Result<Cycle, String> {
    let t0 = Instant::now();
    let mut srv = boot(policy)?;
    let booted = t0.elapsed();
    let a = drive(&mut srv, std::slice::from_ref(&c.first))?;
    let t1 = Instant::now();
    let mut rs = NetStats::default();
    let committed = srv
        .hot_reload(&mut rs)
        .map_err(|e| format!("hot reload: {e}"))?;
    let t2 = Instant::now();
    let b = drive(&mut srv, std::slice::from_ref(&c.second))?;
    drop(srv);
    client.add(&a.stats);
    client.add(&b.stats);
    client.reloads += 1;
    client.reload_updates += rs.updates;
    let wrong = u64::from(a.stream != c.first_want)
        + u64::from(!committed || b.stream != c.second_want || b.stats.handler_version != 2);
    Ok(Cycle {
        boot_s: booted.as_secs_f64(),
        first_ms: (t1 - t0).as_secs_f64() * 1e3,
        reload_ms: (t2 - t1).as_secs_f64() * 1e3,
        wrong,
    })
}

/// `net-cold`, untraced: end-to-end metrics. The program's set-up is the
/// MCFI boot that opens every cycle; `setup_s` is the median boot time.
pub fn cold(cfg: &Config) -> Result<Report, String> {
    let w = Workload::NetCold;
    let refs = cold_reference(cfg)?;
    let (mut boot_s, mut first, mut reload, mut failed) = (Vec::new(), Vec::new(), Vec::new(), 0);
    let mut client = ClientSums::default();
    let timed = timed_loop(cfg.seconds, w.min_ops(), |i| {
        let c = cold_cycle(Policy::Mcfi, &refs[i as usize % refs.len()], &mut client)?;
        boot_s.push(c.boot_s);
        first.push(c.first_ms);
        reload.push(c.reload_ms);
        failed += c.wrong;
        Ok(())
    })?;
    let cycles = timed.ns.len() as u64;
    let requests = 2 * cycles;
    let (metrics, mut info) = end_to_end(w, &boot_s, &timed, requests)?;
    phase_metrics(
        &mut info,
        ["first_response_p50_ms", "first_response_p90_ms"],
        &first,
        0.9,
    )?;
    phase_metrics(&mut info, ["reload_p50_ms", "reload_p90_ms"], &reload, 0.9)?;
    info.push(metric(
        "cold_cycles_per_s",
        cycles as f64 / timed.elapsed.as_secs_f64(),
        "1/s",
    ));
    info.push(metric("error_rate", ratio(failed, requests), "ratio"));
    Ok(Report {
        attempted: requests,
        failed,
        metrics,
        info,
        context: vec![
            ("samples.latency", cycles.to_string()),
            ("samples.first_response", cycles.to_string()),
            ("samples.reload", cycles.to_string()),
            ("samples.setup", boot_s.len().to_string()),
        ],
    })
}

/// `net-cold`, traced: per-layer metrics.
pub fn cold_traced(cfg: &Config) -> Result<Report, String> {
    let w = Workload::NetCold;
    let mut t = Tracer::new(KEEP_SPANS);
    let probe = probe_net(&mut t)?;
    let refs = cold_reference(cfg)?;
    let mut failed = 0;
    let mut client = ClientSums::default();

    // Phase A, untraced: real NetServer cycles, each followed by the
    // same cycle under NoCfi for the MCFI/plain ratio.
    let (mut mcfi_ns, mut plain_ns) = (Vec::new(), Vec::new());
    timed_loop(cfg.seconds * 0.4, 1, |i| {
        let c = &refs[i as usize % refs.len()];
        let t0 = Instant::now();
        failed += cold_cycle(Policy::Mcfi, c, &mut client)?.wrong;
        mcfi_ns.push(t0.elapsed().as_nanos() as f64);
        let t1 = Instant::now();
        failed += cold_cycle(Policy::NoCfi, c, &mut ClientSums::default())?.wrong;
        plain_ns.push(t1.elapsed().as_nanos() as f64);
        Ok(())
    })?;
    let phase_a_requests = 2 * mcfi_ns.len() as u64;

    // Phase B, traced: decomposed cycles.
    let mut counts = Counts::default();
    let window = w.count_window();
    let (ops, overhead) = traced_loop(&mut t, cfg.seconds * 0.6, window, |i, t| {
        let c = &refs[i as usize % refs.len()];
        let (runs, wrong) = t.span("netsim.cycle", |t| traced_cold_cycle(c, t))?;
        for r in &runs {
            counts.add_run(r, i < window);
        }
        if i < window {
            counts.requests += 2;
            counts.ops += 1;
        }
        failed += wrong;
        Ok(())
    })?;
    let attempted = phase_a_requests + 2 * ops;
    let mut metrics = layer_metrics(&t, &probe, &counts, &client, None);
    metrics.push(metric(
        "runtime.mcfi_vs_plain",
        median(&mcfi_ns) / median(&plain_ns),
        "ratio",
    ));
    metrics.push(overhead);
    finish_traced(cfg, &t, attempted, failed, metrics)
}

/// One decomposed cold cycle: the guest runs it made (first request,
/// reload, post-reload request) and how many of its 2 requests were
/// wrong.
fn traced_cold_cycle(c: &ColdRef, t: &mut Tracer) -> Result<(Vec<RunResult>, u64), String> {
    let mut srv = TracedServer::boot(Policy::Mcfi, t)?;
    let (a, ra) = t.span("netsim.request", |t| srv.request(&c.first, t))?;
    let (committed, rr) = t.span("netsim.reload", |t| srv.reload(t))?;
    let (b, rb) = t.span("netsim.request", |t| srv.request(&c.second, t))?;
    let version = t.span("runtime.mailbox", |_| {
        srv.p.peek_global_int("handler_version")
    });
    t.span("runtime.drop", |_| drop(srv));
    let wrong = u64::from(a != c.first_want)
        + u64::from(!committed || b != c.second_want || version != Some(2));
    Ok((vec![ra, rr, rb], wrong))
}

// ---------------------------------------------------------------- traced server

/// The network guest driven through the public calls `NetServer` is
/// made of, with a span around each. Only the fault-free path exists:
/// benign traffic without chaos never takes `drive`'s retry branch, and
/// a transient response would show up as a wrong output.
pub struct TracedServer {
    /// The guest process.
    pub p: Process,
    rx: u64,
    tx: u64,
}

/// The guest modules `NetServer::boot_with` loads under `policy`, in its
/// load order, and the hot-reload library. `self_driving` selects the
/// fleet tenant's server, which generates its own traffic.
pub fn guest_modules(policy: Policy, self_driving: bool) -> (Vec<Module>, Module) {
    let copts = CodegenOptions {
        policy,
        ..Default::default()
    };
    let compile = |module: &str, src: &str| {
        compile_source(module, src, &copts)
            .unwrap_or_else(|e| panic!("netsim guest module {module}: {e}"))
    };
    let modules = vec![
        synth::syscall_module_with(policy == Policy::Mcfi),
        compile("libms", stdlib::LIBMS_SRC),
        compile("nethandlers", guest::HANDLERS_V1_SRC),
        compile("netserver", &guest::server_source(self_driving)),
        compile("start", stdlib::START_SRC),
    ];
    (
        modules,
        compile(guest::RELOAD_LIBRARY, guest::HANDLERS_V2_SRC),
    )
}

/// Code bytes of a module set.
pub fn code_bytes<'a>(modules: impl IntoIterator<Item = &'a Module>) -> u64 {
    modules.into_iter().map(|m| m.code.len() as u64).sum()
}

impl TracedServer {
    /// Compiles and loads the guest under `policy`.
    ///
    /// # Errors
    ///
    /// A load failure or a missing mailbox global.
    pub fn boot(policy: Policy, t: &mut Tracer) -> Result<TracedServer, String> {
        t.span("netsim.boot", |t| {
            let (modules, lib) = t.span("codegen.compile", |_| guest_modules(policy, false));
            let p = t.span("runtime.load", |_| -> Result<Process, String> {
                let mut p = Process::new(ProcessOptions::default()).map_err(|e| e.to_string())?;
                p.load_all(modules).map_err(|e| e.to_string())?;
                p.register_library(guest::RELOAD_LIBRARY, lib);
                Ok(p)
            })?;
            let rx = p.global("net_rx").ok_or("net_rx missing")?;
            let tx = p.global("net_tx").ok_or("net_tx missing")?;
            Ok(TracedServer { p, rx, tx })
        })
    }

    fn run(&mut self, t: &mut Tracer) -> Result<(i64, RunResult), String> {
        let r = t
            .span(RUN, |_| self.p.run("__start"))
            .map_err(|e| e.to_string())?;
        t.note_updates(r.updates);
        match r.outcome {
            Outcome::Exit { code } => Ok((code, r)),
            ref other => Err(format!("request died: {other:?}")),
        }
    }

    /// Delivers one segment, runs one request and reads the response,
    /// then reads the globals `drive` mirrors.
    ///
    /// # Errors
    ///
    /// A mailbox fault or an abnormal guest exit.
    pub fn request(
        &mut self,
        seg: &Segment,
        t: &mut Tracer,
    ) -> Result<(Vec<u8>, RunResult), String> {
        let bytes = seg.encode();
        t.span("runtime.mailbox", |_| {
            self.p.poke(self.rx, &bytes).map_err(|e| format!("{e:?}"))?;
            self.p.poke_global_int("net_rx_len", bytes.len() as i64);
            Ok::<_, String>(())
        })?;
        let (_, r) = self.run(t)?;
        let resp = t.span("runtime.mailbox", |_| {
            let len = self
                .p
                .peek_global_int("net_tx_len")
                .unwrap_or(0)
                .clamp(0, 96) as usize;
            let resp = self.p.peek(self.tx, len).map_err(|e| format!("{e:?}"));
            for name in MIRRORS {
                black_box(self.p.peek_global_int(name));
            }
            resp
        })?;
        Ok((resp, r))
    }

    /// Triggers the handler hot reload; whether it committed.
    ///
    /// # Errors
    ///
    /// An abnormal guest exit.
    pub fn reload(&mut self, t: &mut Tracer) -> Result<(bool, RunResult), String> {
        t.span("runtime.mailbox", |_| self.p.poke_global_int("net_ctl", 1));
        let (code, r) = self.run(t)?;
        match code {
            201 => Ok((true, r)),
            200 => Ok((false, r)),
            other => Err(format!("reload exited {other}")),
        }
    }
}

/// Boots an MCFI network guest under a supervisor, runs its first
/// request (the 5 `dlsym` binds) and probes every layer on it.
fn probe_net(t: &mut Tracer) -> Result<Probe, String> {
    t.begin_op(u64::MAX, true);
    let srv = TracedServer::boot(Policy::Mcfi, t)?;
    t.end_op();
    let (modules, lib) = guest_modules(Policy::Mcfi, false);
    let mut sup = Supervisor::new(srv.p, RecoveryPolicy::default());
    sup.run("__start").map_err(|e| e.to_string())?;
    let mut probe = probe_layers(&mut sup, "__start", t)?;
    probe.code_bytes = code_bytes(modules.iter().chain([&lib]));
    Ok(probe)
}

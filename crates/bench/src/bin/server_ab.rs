//! A/B benchmark for the network-service workload (`BENCH_net.json`):
//! requests/sec through the TCP-style MiniC server under four legs —
//!
//! - **plain**: the whole pipeline compiled without CFI (the baseline);
//! - **mcfi**: full enforcement, every handler dispatch a TxCheck;
//! - **audit**: MCFI instrumentation with the violation policy relaxed
//!   to record-and-continue (detection without enforcement);
//! - **mcfi-storm**: full enforcement plus a seeded network fault plan,
//!   pricing the retransmission discipline on top of the checks.
//!
//! Every leg drives the same seeded benign traffic script and must
//! produce the byte-identical settled response stream — the bench
//! measures overhead, not answers. Each leg drives one untimed warm-up
//! round first, so the timed rounds measure warm serving rather than
//! the first round's `dlsym` handler binds. Exits non-zero if any
//! stream diverges, the storm leg absorbs no fault, or warm MCFI
//! throughput falls below a fixed fraction of plain.

use std::time::Instant;

use mcfi::{
    FaultPlan, NetConfig, NetServer, NetVerdict, PacketGen, Policy, ProcessOptions, Segment,
    TrafficSpec, ViolationPolicy,
};
use serde::Serialize;

const ROUNDS: usize = 8;
const TRAFFIC_SEED: u64 = 2014;
const STORM_SEED: u64 = 7;
const FAULTS: usize = 6;
/// Warm MCFI requests/sec below this fraction of plain fails the bench.
const FLOOR: f64 = 0.5;

#[derive(Serialize)]
struct Row {
    leg: String,
    requests: u64,
    attempts: u64,
    retries: u64,
    checks: u64,
    steps: u64,
    faults_absorbed: u64,
    elapsed_s: f64,
    requests_per_sec: f64,
}

#[derive(Serialize)]
struct Report {
    traffic_seed: u64,
    storm_seed: u64,
    faults: u64,
    rounds: u64,
    segments_per_round: u64,
    floor: f64,
    mcfi_vs_plain: f64,
    audit_vs_plain: f64,
    rows: Vec<Row>,
}

fn drive(
    leg: &str,
    policy: Policy,
    vp: ViolationPolicy,
    script: &[Segment],
    chaos: bool,
) -> (Row, Vec<u8>) {
    let popts = ProcessOptions { violation_policy: vp, ..Default::default() };
    let mut srv =
        NetServer::boot_with(policy, NetConfig::default(), popts).expect("server boots");
    // The untimed warm-up round binds the handlers; its stream is the
    // reference every timed round must repeat.
    let warm = srv.drive(script).expect("drive settles");
    assert_eq!(warm.verdict, NetVerdict::Healthy, "{leg}: benign traffic degraded");
    let stream = warm.stream;
    // Armed after the warm-up, so the plan's faults land in the timed
    // rounds instead of being used up before the clock starts.
    if chaos {
        srv.arm_chaos(FaultPlan::random_net(STORM_SEED, FAULTS));
    }
    let mut requests = 0u64;
    let mut attempts = 0u64;
    let mut retries = 0u64;
    let mut checks = 0u64;
    let mut steps = 0u64;
    let mut faults = 0u64;
    let t = Instant::now();
    for _ in 0..ROUNDS {
        let out = srv.drive(script).expect("drive settles");
        assert_eq!(out.verdict, NetVerdict::Healthy, "{leg}: benign traffic degraded");
        requests += out.stats.segments as u64;
        attempts += out.stats.attempts;
        retries += out.stats.retries;
        checks += out.stats.checks;
        steps += out.stats.steps;
        faults += out.stats.drops
            + out.stats.corrupts
            + out.stats.reorders
            + out.stats.aborts_injected
            + out.stats.stalls;
        assert_eq!(stream, out.stream, "{leg}: rounds must repeat identically");
    }
    let elapsed = t.elapsed().as_secs_f64();
    let row = Row {
        leg: leg.to_string(),
        requests,
        attempts,
        retries,
        checks,
        steps,
        faults_absorbed: faults,
        elapsed_s: elapsed,
        requests_per_sec: requests as f64 / elapsed.max(1e-9),
    };
    (row, stream)
}

fn main() {
    let spec = TrafficSpec { seed: TRAFFIC_SEED, adversarial: false, ..TrafficSpec::default() };
    let script = PacketGen::new(spec.seed).script(&spec);
    println!(
        "network server A/B ({} segments/round, {ROUNDS} rounds, traffic seed {TRAFFIC_SEED})\n",
        script.len()
    );

    let legs = [
        ("plain", Policy::NoCfi, ViolationPolicy::Enforce, false),
        ("mcfi", Policy::Mcfi, ViolationPolicy::Enforce, false),
        ("audit", Policy::Mcfi, ViolationPolicy::Audit, false),
        ("mcfi-storm", Policy::Mcfi, ViolationPolicy::Enforce, true),
    ];
    let mut rows = Vec::new();
    let mut streams = Vec::new();
    for (leg, policy, vp, chaos) in legs {
        let (row, stream) = drive(leg, policy, vp, &script, chaos);
        println!(
            "{leg:>10}: {:>9.0} req/s ({} requests, {} retries, {} checks, {} faults absorbed)",
            row.requests_per_sec, row.requests, row.retries, row.checks, row.faults_absorbed,
        );
        rows.push(row);
        streams.push((leg, stream));
    }

    let mut failed = false;
    for (leg, stream) in &streams[1..] {
        if stream != &streams[0].1 {
            eprintln!("FAIL: leg {leg} settled to a different response stream than plain");
            failed = true;
        }
    }
    let row = |leg: &str| rows.iter().find(|r| r.leg == leg).expect("leg exists");
    if row("mcfi-storm").faults_absorbed == 0 {
        eprintln!("FAIL: the storm leg absorbed no fault");
        failed = true;
    }
    let rps = |leg: &str| row(leg).requests_per_sec;
    let mcfi_vs_plain = rps("mcfi") / rps("plain").max(1e-9);
    let audit_vs_plain = rps("audit") / rps("plain").max(1e-9);

    let report = Report {
        traffic_seed: TRAFFIC_SEED,
        storm_seed: STORM_SEED,
        faults: FAULTS as u64,
        rounds: ROUNDS as u64,
        segments_per_round: script.len() as u64,
        floor: FLOOR,
        mcfi_vs_plain,
        audit_vs_plain,
        rows,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write("BENCH_net.json", format!("{json}\n")).expect("write BENCH_net.json");
    println!("\nwrote BENCH_net.json");

    if mcfi_vs_plain < FLOOR {
        eprintln!(
            "FAIL: MCFI throughput is {:.1}% of plain (floor {:.1}%)",
            100.0 * mcfi_vs_plain,
            100.0 * FLOOR
        );
        failed = true;
    } else {
        println!(
            "PASS: streams identical across legs; MCFI at {:.1}% of plain throughput \
             (audit {:.1}%, floor {:.1}%)",
            100.0 * mcfi_vs_plain,
            100.0 * audit_vs_plain,
            100.0 * FLOOR
        );
    }
    if failed {
        std::process::exit(1);
    }
}

//! Self-tests of the benchmark: its correctness gate can fail, it
//! refuses thin tail percentiles, and its deterministic counts repeat
//! exactly for one seed.

use std::time::Duration;

use mcfi_perfbench::{end_to_end, run, Config, Report, Timed, Workload};

/// A run with no time budget: the loops run their minimum operation
/// counts (for a traced run, one untraced operation and then exactly the
/// count window).
fn short(workload: Workload) -> Config {
    Config::new(workload, 7, 0.0)
}

fn traced(workload: Workload, tamper: bool) -> Report {
    let mut cfg = short(workload);
    cfg.tamper = tamper;
    run(&cfg, true).expect("traced run completes")
}

#[test]
fn untraced_net_warm_is_correct_and_a_tampered_reference_fails_it() {
    let good = run(&short(Workload::NetWarm), false).expect("run completes");
    assert!(
        good.correct(),
        "clean run: {} of {} failed",
        good.failed,
        good.attempted
    );
    assert!(good.attempted >= Workload::NetWarm.min_ops());

    let mut cfg = short(Workload::NetWarm);
    cfg.tamper = true;
    let bad = run(&cfg, false).expect("run completes");
    assert!(
        !bad.correct(),
        "a corrupted reference response must be caught"
    );
    assert!(
        bad.failed > 0 && bad.failed < bad.attempted,
        "only the tampered segment fails"
    );
    assert!(bad.get("error_rate").expect("error rate reported") > 0.0);
}

#[test]
fn traced_runs_catch_tampered_references_on_every_workload() {
    for w in Workload::ALL {
        assert!(traced(w, false).correct(), "{}: clean traced run", w.name());
        assert!(
            !traced(w, true).correct(),
            "{}: tampered reference must fail",
            w.name()
        );
    }
}

#[test]
fn a_tail_percentile_without_ten_samples_beyond_it_is_refused() {
    let timed = |ops: u64| Timed {
        ns: (0..ops).map(|i| 1e3 + i as f64).collect(),
        elapsed: Duration::from_secs(1),
    };
    let w = Workload::NetWarm;
    let err = end_to_end(w, &[0.1], &timed(w.min_ops() - 1), 1).expect_err("p99 one sample short");
    assert!(err.contains("refusing p99"), "{err}");
    let (_, info) = end_to_end(w, &[0.1], &timed(w.min_ops()), 1).expect("p99 with ten beyond");
    assert!(info.iter().any(|m| m.name == "latency_tail_us"));
}

/// Counts the traced run reports that must repeat exactly for a seed.
const COUNTS: [&str; 10] = [
    "runtime.steps_per_req",
    "runtime.checks_per_req",
    "runtime.sim_cycles_per_req",
    "tables.updates_per_cycle",
    "tables.tary_len",
    "tables.check_retries",
    "cfggen.ibs",
    "cfggen.ibts",
    "cfggen.eqcs",
    "codegen.code_bytes",
];

#[test]
fn deterministic_counts_repeat_exactly_across_two_runs() {
    for w in Workload::ALL {
        let (a, b) = (traced(w, false), traced(w, false));
        for name in COUNTS {
            let (x, y) = (a.get(name), b.get(name));
            assert!(x.is_some(), "{}: {name} reported", w.name());
            assert_eq!(x, y, "{}: {name} repeats", w.name());
        }
        assert!(
            a.get("runtime.steps_per_req").unwrap() > 0.0,
            "{}",
            w.name()
        );
    }
}

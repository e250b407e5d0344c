//! Differential tests: every synthetic SPEC-like workload runs twice —
//! on the translated tier and on the reference interpreter, or through
//! a shared image and through private tables — with the *same*
//! randomized fault plan armed and the scripted updater opening
//! mixed-version windows mid-run. The two runs must be observationally
//! identical down to the audit log and the exact sequence of faults
//! that fired. A checkpoint restored on the tier must likewise resume
//! to exactly what an uninterrupted reference run produces.
//!
//! Seeds 1–3 are fixed (the ISSUE's contract); `MCFI_CHAOS_SEED` shifts
//! the whole matrix for CI soak runs.

use mcfi::{
    compile_module, standard_modules, BuildOptions, FaultPlan, Outcome, ProcessOptions, RunResult,
    SharedImage, System, ViolationPolicy,
};
use mcfi_workloads::{source, Variant, BENCHMARKS};

/// Matrix shift for CI: seed k becomes `base + k`.
fn seed_base() -> u64 {
    std::env::var("MCFI_CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0)
}

/// Scripted-updater cadence: frequent enough that every benchmark's
/// check transactions race several update windows.
const UPDATE_INTERVAL: u64 = 25_000;
const UPDATE_WINDOW: u64 = 1_000;

/// Generous for every workload (the largest, hmmer/libquantum, takes
/// ~8M steps with the updater interleaved), small enough that a
/// chaos-stalled run (abandoned update, guest spinning in check
/// retries) still ends promptly.
const STEP_BUDGET: u64 = 12_000_000;

/// One instrumented run on the translated tier or the reference
/// interpreter: boot, arm the plan, run with scripted updates, return
/// the report plus the two chaos-visible logs.
fn observe(src: &str, translate: bool, plan: FaultPlan) -> (RunResult, Vec<String>, Vec<String>) {
    let proc_opts = ProcessOptions {
        translate,
        max_steps: STEP_BUDGET,
        violation_policy: ViolationPolicy::Audit,
        ..Default::default()
    };
    let mut sys =
        System::boot_source_with(src, &BuildOptions::default(), proc_opts).expect("boots");
    let injector = sys.process().arm_chaos(plan);
    let r = sys
        .process()
        .run_with_updates("__start", UPDATE_INTERVAL, UPDATE_WINDOW)
        .expect("runs");
    let fired = injector.fired().iter().map(|f| format!("{f:?}")).collect();
    let log = sys.process().violation_log();
    let mut records: Vec<String> = log.records().iter().map(|v| format!("{v:?}")).collect();
    records.push(format!("dropped={}", log.dropped()));
    records.push(format!("total={}", log.total()));
    (r, records, fired)
}

/// The translation equality contract. Everything the guest, the
/// auditor, or the chaos harness can observe must match; the
/// interpreted arm must never dispatch a translated block, and the
/// translated arm must actually run on the tier.
fn assert_translation_differential(what: &str, src: &str, seed: u64) {
    let plan = FaultPlan::random(seed, 4);
    let (trans, log_t, fired_t) = observe(src, true, plan.clone());
    let (interp, log_i, fired_i) = observe(src, false, plan);

    assert_eq!(trans.outcome, interp.outcome, "{what}: outcome");
    assert_eq!(trans.stdout, interp.stdout, "{what}: stdout");
    assert_eq!(trans.steps, interp.steps, "{what}: steps");
    assert_eq!(trans.cycles, interp.cycles, "{what}: cycles");
    assert_eq!(trans.checks, interp.checks, "{what}: checks");
    assert_eq!(trans.indirect_taken, interp.indirect_taken, "{what}: indirect branches");
    assert_eq!(trans.updates, interp.updates, "{what}: updates");
    assert_eq!(trans.check_retries, interp.check_retries, "{what}: guest check retries");
    assert_eq!(trans.audited_violations, interp.audited_violations, "{what}: audited violations");
    assert_eq!(log_t, log_i, "{what}: violation log");
    assert_eq!(fired_t, fired_i, "{what}: fired faults");

    assert_eq!(interp.trans_dispatches, 0, "{what}: interpreted run must not use the tier");
    assert!(trans.trans_dispatches > 0, "{what}: translated run must dispatch blocks");
}

/// Like [`observe`], but attached to a [`SharedImage`]: the same module
/// set ([stubs, libms, program, start], matching
/// `System::boot_modules_with` order) is published once into a shared
/// base, and the instrumented process runs through a copy-on-write
/// delta shard layered over it. Everything else — chaos plan, scripted
/// updater, audit policy — is identical to the private arm.
fn observe_shared(src: &str, plan: FaultPlan) -> (RunResult, Vec<String>, Vec<String>) {
    let build = BuildOptions::default();
    let [stubs, libms, start] = standard_modules(&build).expect("standard modules compile");
    let program = compile_module("program", src, &build).expect("guest compiles");
    let proc_opts = ProcessOptions {
        max_steps: STEP_BUDGET,
        violation_policy: ViolationPolicy::Audit,
        ..Default::default()
    };
    let image = SharedImage::build(vec![stubs, libms, program, start], proc_opts)
        .expect("image builds");
    let mut p = image.attach().expect("attaches");
    assert_eq!(image.attached(), 1, "the run must go through an attached delta");
    let epoch0 = image.epoch();
    let injector = p.arm_chaos(plan);
    let r = p.run_with_updates("__start", UPDATE_INTERVAL, UPDATE_WINDOW).expect("runs");
    assert!(
        image.epoch() - epoch0 >= r.updates,
        "every scripted update must commit an image-wide publication"
    );
    let fired = injector.fired().iter().map(|f| format!("{f:?}")).collect();
    let log = p.violation_log();
    let mut records: Vec<String> = log.records().iter().map(|v| format!("{v:?}")).collect();
    records.push(format!("dropped={}", log.dropped()));
    records.push(format!("total={}", log.total()));
    (r, records, fired)
}

/// The sharing equality contract: a process attached to a shared image
/// must be observationally indistinguishable from one owning private
/// tables — same steps, cycles, checks, audit log, and fired-fault
/// sequence — because the delta shard falls through to base words that
/// are byte-for-byte the private table's words, and the scripted
/// updater's image-wide sweeps restamp exactly the same ID sequence.
fn assert_shared_differential(what: &str, src: &str, seed: u64) {
    let plan = FaultPlan::random(seed, 4);
    let (shared, log_s, fired_s) = observe_shared(src, plan.clone());
    let (private, log_p, fired_p) = observe(src, true, plan);

    assert_eq!(shared.outcome, private.outcome, "{what}: outcome");
    assert_eq!(shared.stdout, private.stdout, "{what}: stdout");
    assert_eq!(shared.steps, private.steps, "{what}: steps");
    assert_eq!(shared.cycles, private.cycles, "{what}: cycles");
    assert_eq!(shared.checks, private.checks, "{what}: checks");
    assert_eq!(shared.indirect_taken, private.indirect_taken, "{what}: indirect branches");
    assert_eq!(shared.updates, private.updates, "{what}: updates");
    assert_eq!(shared.check_retries, private.check_retries, "{what}: guest check retries");
    assert_eq!(
        shared.audited_violations, private.audited_violations,
        "{what}: audited violations"
    );
    assert_eq!(log_s, log_p, "{what}: violation log");
    assert_eq!(fired_s, fired_p, "{what}: fired faults");
}

/// The shared-vs-private sweep: all twelve workloads under seeds 1–3,
/// each with a random fault plan armed and scripted update windows
/// opening mid-run, once through private tables and once attached to a
/// [`SharedImage`] — byte-identical observables prove the delta
/// layering exact under chaos.
#[test]
fn workloads_are_sharing_invariant_under_chaos() {
    for bench in BENCHMARKS {
        let src = source(bench, Variant::Fixed);
        for k in 1..=3u64 {
            assert_shared_differential(
                &format!("{bench} seed {k} (shared image)"),
                &src,
                seed_base() + k,
            );
        }
    }
}

/// The violating program through a shared image: non-empty audit logs
/// must still match record for record, so the sharing sweep above is
/// not vacuously comparing empty logs.
#[test]
fn violating_program_audit_logs_are_sharing_invariant() {
    let src = "float g(float x) { return x; }\n\
         int main(void) {\n\
           void* raw = (void*)&g;\n\
           int (*f)(int) = (int(*)(int))raw;\n\
           int acc = 0; int i = 0;\n\
           while (i < 60) { acc = acc + f(i); i = i + 1; }\n\
           return 7;\n\
         }";
    for k in 1..=3u64 {
        let seed = seed_base() + k;
        let plan = FaultPlan::random(seed, 4);
        let (shared, log_s, fired_s) = observe_shared(src, plan.clone());
        let (private, log_p, fired_p) = observe(src, true, plan);
        assert_eq!(shared.outcome, private.outcome, "seed {seed}: outcome");
        assert_eq!(shared.audited_violations, private.audited_violations, "seed {seed}");
        assert!(shared.audited_violations >= 60, "seed {seed}: every hijacked call audited");
        assert_eq!(log_s, log_p, "seed {seed}: violation log");
        assert_eq!(fired_s, fired_p, "seed {seed}: fired faults");
    }
}

/// The translated-tier sweep: the same twelve workloads under seeds
/// 1–3, baseline-compiled vs interpreted. Scripted update windows force
/// specialized TxChecks onto the slow path mid-run, and the random
/// fault plans corrupt tables under both arms identically (they draw
/// from the runtime points only, so a plan never force-deopts the tier
/// asymmetrically). Byte-identical observables prove the tier exact.
#[test]
fn workloads_are_translation_invariant_under_chaos() {
    for bench in BENCHMARKS {
        let src = source(bench, Variant::Fixed);
        for k in 1..=3u64 {
            assert_translation_differential(
                &format!("{bench} seed {k} (translated)"),
                &src,
                seed_base() + k,
            );
        }
    }
}

/// The violating program again, baseline-compiled vs interpreted: the
/// tier's specialized fast path must reject exactly the calls the
/// interpreter's full TxCheck rejects, record for record. (The hijacked
/// calls miss the fast path — bary and tary words disagree — so every
/// violation is observed by the interpreter's slow path in both arms.)
#[test]
fn violating_program_audit_logs_are_translation_invariant() {
    let src = "float g(float x) { return x; }\n\
         int main(void) {\n\
           void* raw = (void*)&g;\n\
           int (*f)(int) = (int(*)(int))raw;\n\
           int acc = 0; int i = 0;\n\
           while (i < 60) { acc = acc + f(i); i = i + 1; }\n\
           return 7;\n\
         }";
    for k in 1..=3u64 {
        let seed = seed_base() + k;
        assert_translation_differential(&format!("violating seed {seed} (translated)"), src, seed);
    }
}

/// A guest whose `dlopen` lands mid-run, so its in-run checkpoints fall
/// on both sides of a TxUpdate and a sandbox generation bump.
const DLOPEN_GUEST: &str = "int provided(int x);\n\
     int dlopen(char* name);\n\
     int spin(int n) { int a = 0; int i = 0;\n\
       while (i < n) { a = a + i; i = i + 1; } return a; }\n\
     int main(void) {\n\
       int warm = spin(1000);\n\
       int ok = dlopen(\"libm2\");\n\
       if (!ok) { return -1; }\n\
       return (provided(5) + spin(1000) - warm) % 125;\n\
     }";

/// Boots `src` with `libm2` registered for [`DLOPEN_GUEST`] to load.
fn boot_checkpointed(src: &str, translate: bool, checkpoint_interval: u64) -> System {
    let build = BuildOptions::default();
    let proc_opts = ProcessOptions {
        translate,
        checkpoint_interval,
        max_steps: STEP_BUDGET,
        ..Default::default()
    };
    let mut sys = System::boot_source_with(src, &build, proc_opts).expect("boots");
    let lib = compile_module("libm2", "int provided(int x) { return x + 100; }", &build)
        .expect("library compiles");
    sys.register_library("libm2", lib);
    sys
}

/// Checkpoint/restore on the translated tier: every in-run checkpoint
/// of a translated run, restored and resumed on the tier, must finish
/// exactly as an uninterrupted reference-interpreter run does. The
/// restore bumps the sandbox generation, so each resumption also
/// deoptimizes the blocks the first run left live and retranslates.
#[test]
fn checkpoints_restored_on_the_tier_resume_exactly() {
    let cases = [
        ("dlopen", DLOPEN_GUEST.to_string()),
        ("mcf", source("mcf", Variant::Fixed)),
        ("lbm", source("lbm", Variant::Fixed)),
    ];
    for (name, src) in &cases {
        let reference = boot_checkpointed(src, false, 0).process().run("__start").expect("runs");
        let mut sys = boot_checkpointed(src, true, reference.steps / 3 + 1);
        let first = sys.process().run("__start").expect("runs");
        let cps = sys.process().checkpoints().to_vec();
        assert_eq!(cps.len(), 2, "{name}: one checkpoint per third of the run");
        for cp in &cps {
            let at = cp.steps();
            assert!(cp.resumable() && at > 0 && at < reference.steps, "{name}: mid-run");
            sys.process().restore(cp).expect("restore succeeds");
            let resumed = sys.process().run("__start").expect("runs");
            let what = format!("{name} resumed at step {at}");
            assert_eq!(resumed.outcome, reference.outcome, "{what}: outcome");
            assert_eq!(resumed.stdout, reference.stdout, "{what}: stdout");
            assert_eq!(resumed.steps, reference.steps, "{what}: steps");
            assert_eq!(resumed.cycles, reference.cycles, "{what}: cycles");
            assert_eq!(resumed.checks, reference.checks, "{what}: checks");
            assert_eq!(resumed.indirect_taken, reference.indirect_taken, "{what}: indirect");
            assert_eq!(
                resumed.trans_deopts,
                first.trans_deopts + 1,
                "{what}: the restore must retire live blocks and resume on the tier"
            );
        }
    }
}

/// Unfaulted sanity anchor: with no chaos armed the matrix members
/// finish normally, so the differential matrix above is not merely
/// comparing two identically-stalled runs.
#[test]
fn unfaulted_workloads_exit_within_the_differential_budget() {
    for bench in ["mcf", "lbm", "bzip2", "libquantum"] {
        let src = source(bench, Variant::Fixed);
        let proc_opts = ProcessOptions {
            max_steps: STEP_BUDGET,
            violation_policy: ViolationPolicy::Audit,
            ..Default::default()
        };
        let mut sys =
            System::boot_source_with(&src, &BuildOptions::default(), proc_opts).expect("boots");
        let r = sys
            .process()
            .run_with_updates("__start", UPDATE_INTERVAL, UPDATE_WINDOW)
            .expect("runs");
        assert!(matches!(r.outcome, Outcome::Exit { .. }), "{bench}: {:?}", r.outcome);
        assert!(r.updates > 0, "{bench}: scripted updates must fire");
    }
}

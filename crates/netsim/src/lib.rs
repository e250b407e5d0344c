//! `mcfi-netsim`: an MCFI-protected network service under adversarial
//! traffic.
//!
//! The paper's distinctive claim is CFI that survives *dynamic* code
//! loading, but its evaluation — like every other workload in this repo
//! before this crate — is batch programs. This crate opens the scenario
//! the claim is actually about: a **long-lived server**. The guest is a
//! TCP-style state machine (LISTEN → SYN_RCVD → ESTABLISHED → closed,
//! per-connection state) whose protocol handlers are dispatched through
//! a function-pointer table — the classic CFI-relevant pattern — behind
//! a request/response loop; the handlers themselves live in a separate
//! module so `dlopen` can hot-reload them *mid-traffic* while
//! connections stay established.
//!
//! Three layers:
//!
//! * [`wire`]: the segment format shared by host and guest, plus
//!   [`PacketGen`] — a deterministic seeded traffic generator (real
//!   connection lifecycles interleaved with SYN floods, malformed
//!   segments, and resets when [`TrafficSpec::adversarial`] is set).
//! * [`guest`]: the MiniC sources — the server module and two
//!   behaviorally identical handler-module versions (`nethandlers` /
//!   `nethandlers_v2`) so a hot-reload is observable (version tag,
//!   update transactions) without perturbing the response stream.
//! * [`server`]: [`NetServer`], the host harness. It delivers segments
//!   through the chaos pipeline ([`mcfi_chaos::NET_POINTS`]:
//!   `net-drop`, `net-corrupt`, `net-reorder`, `peer-abort`,
//!   `slowloris-stall`), retries transient responses under a
//!   deadline/backoff budget (the shared [`mcfi_chaos::Backoff`]), and
//!   records the **settled response stream** — which is byte-identical
//!   to a fault-free run under *any* survivable fault plan, because
//!   every network fault is either detected (checksums), tolerated
//!   (go-back-N retransmission, RFC 5961-style blind-reset challenges),
//!   or waited out (deadlines + exponential backoff).
//!
//! Degradation is part of the contract, not a failure mode: a SYN flood
//! pushes the guest past its half-open budget and it *sheds* the oldest
//! half-open connections instead of wedging — surfaced host-side as
//! [`NetVerdict::Degraded`], the network analogue of the fleet's
//! `FleetVerdict::Shedding`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod guest;
pub mod server;
pub mod wire;

pub use server::{NetConfig, NetError, NetOutcome, NetServer, NetStats, NetVerdict};
pub use wire::{PacketGen, Segment, TrafficSpec};

use mcfi_fleet::TenantSpec;
use mcfi_runtime::ProcessOptions;
use mcfi_supervisor::RecoveryPolicy;

/// Builds a fleet [`TenantSpec`] whose guest is the *self-driving*
/// variant of the network server: each request synthesizes one segment
/// from an in-guest seeded generator and feeds it through the same
/// state machine and handler table, periodically hot-reloading the
/// handler module via `dlopen`. This gives `mcfi-fleet` storms a
/// realistic traffic source — runtime fault plans perturb the tenant's
/// update transactions while the tenant perturbs itself with traffic.
///
/// # Panics
///
/// Panics if the bundled guest sources fail to compile (a bug, caught
/// by this crate's tests).
pub fn tenant_spec(name: &str) -> TenantSpec {
    let copts = mcfi_codegen::CodegenOptions::default();
    let compile = |module: &str, src: &str| {
        mcfi_codegen::compile_source(module, src, &copts)
            .unwrap_or_else(|e| panic!("netsim guest module {module}: {e}"))
    };
    TenantSpec {
        name: name.to_string(),
        image: None,
        modules: vec![
            mcfi_runtime::synth::syscall_module(),
            compile("libms", mcfi_runtime::stdlib::LIBMS_SRC),
            compile("start", mcfi_runtime::stdlib::START_SRC),
            compile("nethandlers", guest::HANDLERS_V1_SRC),
            compile("netserver", &guest::server_source(true)),
        ],
        libraries: vec![(
            guest::RELOAD_LIBRARY.to_string(),
            compile(guest::RELOAD_LIBRARY, guest::HANDLERS_V2_SRC),
        )],
        entry: "__start".to_string(),
        options: ProcessOptions::default(),
        recovery: RecoveryPolicy::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcfi_fleet::{Fleet, FleetOptions, FleetVerdict, Storm, StormKind, TenantHealth};

    #[test]
    fn self_driving_tenant_serves_traffic_in_a_fleet() {
        let specs = vec![tenant_spec("net0"), tenant_spec("net1")];
        let mut fleet = Fleet::new(specs, FleetOptions::default()).expect("boots");
        fleet.run_requests(80);
        let s = fleet.stats();
        assert_eq!(s.served, 80, "every request served: {s:?}");
        assert_eq!(s.verdict, FleetVerdict::Healthy);
        for t in &s.per_tenant {
            assert_eq!(t.health, TenantHealth::Healthy);
            assert!(t.steps > 0);
            // The two tenants run the same deterministic guest.
        }
        assert_eq!(s.per_tenant[0].digest, s.per_tenant[1].digest);
    }

    #[test]
    fn self_driving_tenant_survives_a_storm() {
        // A runtime-layer storm perturbs the tenant's dlopen/update
        // transactions while the guest generates its own traffic: the
        // supervision tree absorbs whatever the storm does (restarts,
        // quarantine), and the fleet keeps a truthful verdict.
        let mk = |seed| {
            let specs = vec![tenant_spec("net0"), tenant_spec("net1"), tenant_spec("net2")];
            let mut fleet = Fleet::new(specs, FleetOptions::default()).expect("boots");
            fleet.arm_storm(Storm { seed, kind: StormKind::Random { faults: 4 } });
            fleet.run_requests(90);
            fleet
        };
        let s = mk(5).stats();
        assert_eq!(s.requests, 90);
        assert_eq!(
            s.served + s.shed,
            s.requests,
            "every request is accounted served or shed: {s:?}"
        );
        // Deterministic replay, storm and all.
        assert_eq!(mk(5).stats(), mk(5).stats());
    }

    /// The incrementality gate: once a tenant is warm, the checkpoint
    /// `Supervisor::run` takes before each request copies only the pages
    /// the previous request dirtied, never whole regions.
    #[test]
    fn steady_state_checkpoints_copy_only_dirtied_pages() {
        let spec = tenant_spec("ckpt");
        let mut p = mcfi_runtime::Process::new(spec.options).expect("valid layout");
        p.load_all(spec.modules).expect("loads");
        for (lib, module) in spec.libraries {
            p.register_library(&lib, module);
        }
        let mut sup = mcfi_supervisor::Supervisor::new(p, spec.recovery);
        // Past the tenant's one self-reload, within its first 17 requests.
        for _ in 0..24 {
            sup.run(&spec.entry).expect("serves");
        }
        let copied: Vec<usize> = (0..32)
            .map(|_| {
                sup.run(&spec.entry).expect("serves");
                let cp = sup.process().checkpoints().last().expect("checkpointed");
                cp.pages_copied()
            })
            .collect();
        assert!(
            copied.iter().all(|&n| (1..=8).contains(&n)),
            "pages copied per request: {copied:?}"
        );
    }
}

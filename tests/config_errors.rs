//! `Engine::try_new` rejects malformed configs and misfit eager plan tables
//! with typed errors, never a panic: one test per [`ConfigError`] variant,
//! plus the open-plan table check that runs once at construction.

#![deny(deprecated)]

use ntier_repro::core::engine::{ConfigError, Engine, EngineError, Workload, WorkloadError};
use ntier_repro::core::{Branch, Plan, SystemConfig, TierSpec, Topology, TopologyShape};
use ntier_repro::des::prelude::*;
use ntier_repro::resilience::{FaultPlan, HealthPolicy};

fn system() -> SystemConfig {
    Topology::three_tier(
        TierSpec::sync("Web", 2, 2),
        TierSpec::sync("App", 2, 2),
        TierSpec::sync("Db", 2, 2),
    )
}

/// The error `try_new` returns for `sys` under an empty plan table.
fn rejection(sys: SystemConfig) -> EngineError {
    Engine::try_new(
        sys,
        Workload::open_plans(vec![]),
        SimDuration::from_secs(1),
        1,
    )
    .expect_err("the config must be rejected")
}

#[test]
fn empty_tier_list_is_a_typed_error() {
    let mut sys = system();
    sys.tiers.clear();
    sys.shape = TopologyShape::linear(0);
    let err = rejection(sys);
    assert_eq!(err, EngineError::Config(ConfigError::NoTiers));
    assert!(err.to_string().contains("at least one tier"), "{err}");
}

#[test]
fn shape_tier_count_mismatch_is_a_typed_error() {
    let mut sys = system();
    sys.shape = TopologyShape::linear(2);
    let err = rejection(sys);
    assert_eq!(
        err,
        EngineError::Config(ConfigError::ShapeMismatch {
            shape_nodes: 2,
            tiers: 3
        })
    );
    assert!(err.to_string().contains("covers 2 nodes"), "{err}");
}

#[test]
fn pool_without_single_downstream_is_a_typed_error() {
    // The builders refuse a pool on a leaf, so put it there by hand.
    let mut sys = system();
    sys.tiers[2].downstream_pool = Some(5);
    let err = rejection(sys);
    assert_eq!(
        err,
        EngineError::Config(ConfigError::PoolWithoutSingleDownstream {
            tier: "Db".into(),
            downstreams: 0
        })
    );
    assert!(
        err.to_string()
            .contains("a downstream connection pool requires exactly one downstream"),
        "{err}"
    );
}

#[test]
fn fault_tier_out_of_range_is_a_typed_error() {
    let mut sys = system();
    sys.faults = FaultPlan::none().crash(5, SimTime::ZERO, SimTime::from_secs(1));
    let err = rejection(sys);
    assert_eq!(
        err,
        EngineError::Config(ConfigError::FaultTierOutOfRange { tier: 5, tiers: 3 })
    );
    assert!(err.to_string().contains("outside the chain"), "{err}");
}

#[test]
fn gray_fault_replica_out_of_range_is_a_typed_error() {
    let mut sys = system();
    sys.faults = FaultPlan::none()
        .flaky_link(
            1,
            7,
            0.5,
            &[SimTime::from_millis(10)],
            SimDuration::from_millis(5),
        )
        .expect("valid flaky-link train");
    let err = rejection(sys);
    assert_eq!(
        err,
        EngineError::Config(ConfigError::GrayReplicaOutOfRange {
            tier: 1,
            replica: 7,
            replicas: 1
        })
    );
    assert!(err.to_string().contains("replica 7 of tier 1"), "{err}");
}

#[test]
fn health_tier_out_of_range_is_a_typed_error() {
    let mut sys = system();
    sys.health = Some(HealthPolicy::monitor(9));
    let err = rejection(sys);
    assert_eq!(
        err,
        EngineError::Config(ConfigError::HealthTierOutOfRange { tier: 9, tiers: 3 })
    );
    assert!(err.to_string().contains("health detector"), "{err}");
}

#[test]
fn misshapen_open_plan_is_a_typed_error_not_a_mid_run_panic() {
    let d = SimDuration::from_micros(100);
    // Wrong depth: a 2-tier pipeline on a 3-tier chain.
    let arrivals = vec![
        (SimTime::from_millis(1), Plan::pipeline(&[d, d, d])),
        (SimTime::from_millis(2), Plan::pipeline(&[d, d])),
    ];
    let err = Engine::try_new(
        system(),
        Workload::open_plans(arrivals),
        SimDuration::from_secs(1),
        1,
    )
    .expect_err("a 2-tier plan cannot run on a 3-tier chain");
    let EngineError::Workload(WorkloadError::MisshapenPlan { index, reason }) = &err else {
        panic!("unexpected error {err:?}");
    };
    assert_eq!(*index, 1);
    assert!(reason.contains("depth 2"), "{reason}");
    assert!(err.to_string().contains("open plan 1"), "{err}");

    // Right depth, wrong shape: a chain through what are two leaves.
    let fanout = Topology::client()
        .tier(TierSpec::sync("front", 4, 4))
        .fanout(
            2,
            vec![
                Branch::tier(TierSpec::sync("a", 4, 4)),
                Branch::tier(TierSpec::sync("b", 4, 4)),
            ],
        )
        .build()
        .expect("valid fan-out");
    let demands = [d; 3];
    let fits = Plan::tree_pipeline(&fanout.shape, &demands);
    let arrivals = vec![
        (SimTime::from_millis(1), fits.share()),
        (SimTime::from_millis(2), fits),
        (SimTime::from_millis(3), Plan::pipeline(&demands)),
    ];
    let err = Engine::try_new(
        fanout,
        Workload::open_plans(arrivals),
        SimDuration::from_secs(1),
        1,
    )
    .expect_err("a chain plan cannot run on a fan-out");
    assert!(
        matches!(
            &err,
            EngineError::Workload(WorkloadError::MisshapenPlan { index: 2, .. })
        ),
        "{err:?}"
    );
}

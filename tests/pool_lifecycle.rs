//! Lifecycle and panic-policy guarantees of the pooled epoch engine.
//!
//! The persistent worker pool behind `ExecutionMode::Pooled` carries four
//! promises beyond bit-identical results (those live in
//! `tests/engine_equivalence.rs`):
//!
//! 1. **Clean shutdown** — dropping a pooled engine joins every worker;
//!    constructing engines in a loop leaks no threads.
//! 2. **Degenerate clusters degrade gracefully** — VM-less and
//!    single-machine clusters step entirely on the calling thread.
//! 3. **Panic containment** — a panicking `load_for` in a shard propagates
//!    its original payload to the caller *after* the shard barrier, leaves
//!    the cluster epoch counter un-advanced, and does **not** poison the
//!    pool: the very next step on the same engine works and stays
//!    bit-identical to serial.
//! 4. **Memory safety under sharing** — an engine and a DeepDive controller
//!    scattering on one three-lane pool (stepping, refits, lazy
//!    benchmark training) never stall or crash, episode after episode.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

use cloudsim::{Cluster, ClusterSeed, EpochEngine, ExecutionMode, PmId, Scheduler, Vm, VmId};
use deepdive::controller::{DeepDive, DeepDiveConfig, EpochEvent};
use deepdive::warning::WarningConfig;
use hwsim::MachineSpec;
use workloads::{AppId, ClientEmulator, DataAnalytics, DataServing, MemoryStress, WebSearch};

fn cluster(machines: usize, vms: usize) -> Cluster {
    let mut c = Cluster::homogeneous(machines, MachineSpec::xeon_x5472(), Scheduler::default());
    for i in 0..vms {
        let vm = Vm::new(
            VmId(i as u64),
            Box::new(DataServing::with_defaults(AppId(1))),
            ClientEmulator::new(8_000.0, 4.0),
        );
        c.place_first_fit(vm).expect("cluster has room");
    }
    c
}

#[test]
fn dropping_pooled_engines_joins_all_workers() {
    // Repeated construction must not accumulate threads: every engine's
    // pool exposes a liveness probe that stops upgrading once its workers
    // have exited, which can only happen if drop really joins them.
    let mut probes = Vec::new();
    for round in 0..24 {
        let engine = EpochEngine::new(
            ClusterSeed::new(round),
            ExecutionMode::Pooled { threads: 4 },
        );
        let pool = engine.worker_pool().expect("pooled engine owns a pool");
        assert_eq!(pool.workers(), 3, "4 lanes = 3 workers + calling thread");
        probes.push(pool.liveness());
        let mut c = cluster(6, 10);
        let reports = engine.step(&mut c, |_| 0.6);
        assert_eq!(reports.len(), 10);
    }
    for (round, probe) in probes.iter().enumerate() {
        assert!(
            probe.upgrade().is_none(),
            "engine {round} leaked pool workers after drop"
        );
    }
}

#[test]
fn degenerate_clusters_step_on_the_calling_thread() {
    for threads in [2, 3, 8] {
        let mode = ExecutionMode::Pooled { threads };
        let engine = EpochEngine::new(ClusterSeed::new(1), mode);
        // Empty cluster (machines but no VMs — Cluster rejects zero
        // machines at construction): no reports, epoch still counts.
        let mut empty = cluster(2, 0);
        let reports = engine.step(&mut empty, |_| 0.5);
        assert!(reports.is_empty(), "VM-less step produced reports");
        assert_eq!(empty.epoch(), 1);
        // One machine: serial path, identical to a serial engine's output.
        let serial = EpochEngine::serial(ClusterSeed::new(1));
        let mut single_parallel = cluster(1, 2);
        let mut single_serial = cluster(1, 2);
        for _ in 0..3 {
            assert_eq!(
                engine.step(&mut single_parallel, |_| 0.7),
                serial.step(&mut single_serial, |_| 0.7),
                "single-machine divergence under {mode:?}"
            );
        }
    }
}

#[test]
fn shard_panic_propagates_without_poisoning_the_pool() {
    let engine = EpochEngine::new(ClusterSeed::new(7), ExecutionMode::Pooled { threads: 4 });
    let pool_probe = engine
        .worker_pool()
        .expect("pooled engine owns a pool")
        .liveness();
    let mut c = cluster(8, 16);

    // A load closure that blows up for one specific VM: some shards finish,
    // the one holding VM 5 panics.
    let crashed = catch_unwind(AssertUnwindSafe(|| {
        engine.step(&mut c, |vm| {
            if vm.0 == 5 {
                panic!("load trace corrupted for vm {}", vm.0);
            }
            0.5
        })
    }));
    let payload = crashed.expect_err("the shard panic must propagate");
    let message = payload
        .downcast_ref::<String>()
        .expect("original payload, not a join wrapper");
    assert_eq!(message, "load trace corrupted for vm 5");

    // The failed step must not have advanced the epoch counter, and the
    // pool's workers must all still be alive.
    assert_eq!(c.epoch(), 0, "failed step advanced the cluster epoch");
    assert!(
        pool_probe.upgrade().is_some(),
        "a shard panic killed pool workers"
    );

    // The engine remains fully usable and bit-identical to serial: compare
    // a post-panic run against a fresh serial run over the same horizon.
    // (The panicking step half-stepped some machines' internal workload
    // state, so rebuild the cluster for the comparison.)
    let mut after_panic = cluster(8, 16);
    let mut reference = cluster(8, 16);
    let serial = EpochEngine::serial(ClusterSeed::new(7));
    for _ in 0..3 {
        assert_eq!(
            engine.step(&mut after_panic, |_| 0.5),
            serial.step(&mut reference, |_| 0.5),
            "post-panic pooled stepping diverged from serial"
        );
    }
}

#[test]
fn scatter_map_panic_reraises_the_original_payload_and_keeps_the_pool() {
    use cloudsim::WorkerPool;

    let pool = WorkerPool::new(3);
    let probe = pool.liveness();
    let mut items: Vec<u64> = (0..64).collect();

    // Two tasks panic; the policy re-raises the lowest-index payload after
    // every worker reached the barrier (no worker is still touching the
    // arena when the caller unwinds).
    let crashed = catch_unwind(AssertUnwindSafe(|| {
        pool.scatter_map(&mut items, &|item: &mut u64| {
            if *item == 11 || *item == 40 {
                panic!("map task {item} failed");
            }
            *item * 2
        })
    }));
    let payload = crashed.expect_err("the map panic must propagate");
    let message = payload
        .downcast_ref::<String>()
        .expect("original payload, not a join wrapper");
    assert_eq!(message, "map task 11 failed", "lowest index wins");

    // The pool survives and the very next scatter_map works end to end.
    assert!(
        probe.upgrade().is_some(),
        "a map panic killed the pool's workers"
    );
    let doubled = pool.scatter_map(&mut items, &|item: &mut u64| *item * 2);
    assert_eq!(doubled.len(), 64);
    assert!((0..64).all(|i| doubled[i] == i as u64 * 2));
}

#[test]
fn scatter_map_panic_leaks_no_arena_slots() {
    use std::sync::Arc;

    use cloudsim::WorkerPool;

    // Every completed task clones this Arc into its result slot.  If the
    // unwind path forgot to drop initialized slots (or dropped one twice,
    // which would abort), the strong count could never return to 1.
    let token = Arc::new(());
    let pool = WorkerPool::new(3);
    let mut items: Vec<usize> = (0..128).collect();
    let crashed = catch_unwind(AssertUnwindSafe(|| {
        pool.scatter_map(&mut items, &|item: &mut usize| {
            if *item == 77 {
                panic!("slot 77");
            }
            Arc::clone(&token)
        })
    }));
    assert!(crashed.is_err(), "the map panic must propagate");
    assert_eq!(
        Arc::strong_count(&token),
        1,
        "unwinding leaked (or double-freed) result slots"
    );

    // A clean pass over the same pool accounts for every slot exactly once.
    let results = pool.scatter_map(&mut items, &|_: &mut usize| Arc::clone(&token));
    assert_eq!(Arc::strong_count(&token), 1 + results.len());
    drop(results);
    assert_eq!(Arc::strong_count(&token), 1);
}

/// One short closed-loop episode on a fresh three-lane engine whose pool
/// the controller shares: a quiet warm-up that fits the warning models,
/// then a cache aggressor next to machine 0's tenant, which drives
/// analyses, lazy synthetic-benchmark training on the pool and a
/// migration.  Returns the episode's migrations.
fn shared_pool_episode(seed: u64) -> u64 {
    const MACHINES: u64 = 6;
    let mut cluster = Cluster::homogeneous(
        MACHINES as usize,
        MachineSpec::xeon_x5472(),
        Scheduler::default(),
    );
    for pm in 0..MACHINES {
        let vm = match pm % 3 {
            0 => Vm::new(
                VmId(pm),
                Box::new(DataServing::with_defaults(AppId(1))),
                ClientEmulator::new(8_000.0, 4.0),
            ),
            1 => Vm::new(
                VmId(pm),
                Box::new(WebSearch::with_defaults(AppId(2))),
                ClientEmulator::new(1_200.0, 25.0),
            ),
            _ => Vm::new(
                VmId(pm),
                Box::new(DataAnalytics::worker(AppId(3))),
                ClientEmulator::new(40.0, 400.0),
            ),
        };
        cluster.place_on(PmId(pm), vm).expect("empty machine");
    }
    let engine = EpochEngine::new(ClusterSeed::new(seed), ExecutionMode::Pooled { threads: 3 });
    let config = DeepDiveConfig {
        analysis_window: 3,
        analysis_cooldown: 3,
        synthetic_training_samples: 24,
        warning: WarningConfig {
            min_behaviors_for_clustering: 4,
            ..WarningConfig::default()
        },
        seed,
        ..DeepDiveConfig::default()
    };
    let mut controller = DeepDive::for_cluster(config, &cluster);
    controller.use_worker_pool(engine.worker_pool().expect("pooled engine").clone());
    let mut migrations = 0;
    for epoch in 0..36 {
        if epoch == 12 {
            let aggressor = Vm::new(
                VmId(99),
                Box::new(MemoryStress::new(AppId(900), 512.0)),
                ClientEmulator::new(1.0, 1.0),
            );
            cluster
                .place_on(PmId(0), aggressor)
                .expect("room next to the tenant");
        }
        let reports = engine.step(&mut cluster, |_| 0.8);
        let events = controller.process_epoch(&mut cluster, &reports);
        migrations += events
            .iter()
            .filter(|e| matches!(e, EpochEvent::Migrated { .. }))
            .count() as u64;
    }
    migrations
}

/// Regression test for a use-after-free in `WorkerPool::scatter_map`:
/// workers used to signal completion through a `Sender` stored in the
/// caller's context arena, which the caller frees as soon as it has every
/// receipt — possibly while a worker is still inside `send`.  Three lanes
/// on a small host keep workers preempted mid-signal often enough for
/// that to stall or crash the process within a few hundred episodes.
#[test]
fn engine_and_controller_sharing_a_three_lane_pool_never_stall() {
    const EPISODES: u64 = 400;
    let (done, finished) = mpsc::channel();
    // Not joined: a stalled episode never returns, and the failing test
    // ends the process.
    std::thread::spawn(move || {
        for episode in 0..EPISODES {
            done.send(shared_pool_episode(episode))
                .expect("the test is waiting");
        }
    });
    let mut migrations = 0;
    for episode in 0..EPISODES {
        migrations += finished
            .recv_timeout(Duration::from_secs(30))
            .unwrap_or_else(|_| panic!("episode {episode} stalled for 30 s"));
    }
    assert!(migrations > 0, "no episode reached a migration");
}

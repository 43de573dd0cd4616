//! The epoch engine: serial or pool-backed stepping of a cluster.
//!
//! [`EpochEngine`] owns the two stepping knobs: the RNG policy (a
//! [`ClusterSeed`] deriving an independent stream per `(vm, epoch)`, see
//! [`crate::rngs`]) and the execution strategy ([`ExecutionMode`]).  Because every VM's demand stream is a pure function
//! of its id, the epoch and the cluster seed, machines are data-independent
//! within an epoch — so parallel execution partitions them into contiguous,
//! balanced shards ([`crate::pool::split_balanced`]: shard count equals the
//! effective thread count, sizes differ by at most one) and concatenates the
//! per-shard reports back in machine-index order.  Serial and pooled runs
//! are **bit-identical** (the equivalence proptest at
//! `tests/engine_equivalence.rs` pins Serial vs Pooled), which means the
//! thread count is purely a throughput knob, never a results knob.
//!
//! [`ExecutionMode::Pooled`] enqueues the shard jobs on a persistent
//! [`WorkerPool`] (spawned once, at engine construction) and `step` blocks
//! on the pool's epoch barrier.  This is what lets the controller loop —
//! which migrates VMs between epochs and therefore must step one epoch at a
//! time — go parallel without paying a thread spawn per epoch.
//!
//! ## Service mode & sparse stepping
//!
//! By default the engine steps **sparsely**: each machine keeps a quiescent
//! report cache (see [`crate::pm`]), and an epoch in which every VM on a
//! machine is provably static at its offered load replays the cached
//! reports instead of re-running demand generation and contention
//! resolution.  The workload contract behind "provably static"
//! ([`workloads::Workload::demand_is_static_at`]) makes the replay
//! bit-identical to a dense resolve — the equivalence proptest pins sparse
//! vs dense across both execution modes under arrival/departure/
//! migration churn — so [`EpochEngine::set_sparse`] is, like the thread
//! count, purely a throughput knob, never a results knob.  The event-driven
//! datacenter front end ([`crate::service::DatacenterService`]) leans on
//! this: with 10% of machines active per epoch, the other 90% cost one
//! cache-validity check and one report memcpy each, and
//! [`Cluster::total_resolves`] / [`Cluster::total_quiescent_steps`] expose
//! how much work was actually skipped.
//!
//! [`EpochEngine::step`] is the only way to advance a cluster.  DeepDive's
//! control loop reads every VM's counter report every epoch, so there is
//! no report-free bulk path: reports are built, and the quiescent cache
//! filled, in one place (`PhysicalMachine::step_epoch_into`).
//!
//! ## Panic policy
//!
//! A panicking `load_for` (or workload model) in any shard is re-raised on
//! the calling thread with its original payload, after **all** shards have
//! reached the barrier; when several shards panic, the lowest shard index
//! wins.  The cluster may be left half-stepped (some machines advanced,
//! others not), but the cluster epoch counter is **not** advanced, and a
//! pooled engine's workers survive — the pool is fully usable for the next
//! call.  See [`crate::pool`] for the pool's own contract.

use std::sync::Arc;

use crate::cluster::Cluster;
use crate::pm::{PhysicalMachine, VmEpochReport};
use crate::pool::{split_balanced, WorkerPool};
use crate::rngs::ClusterSeed;
use crate::vm::VmId;

/// Environment variable read by [`ExecutionMode::from_env`]: `serial` (or
/// `1`) forces serial stepping, any larger integer selects
/// `Pooled { threads: n }`, unset falls back to the machine's available
/// parallelism.  Any other value — `0`, negatives, non-numeric — is a hard
/// error (`from_env` panics with the offending value) rather than a silent
/// fallback, so a typo in a CI matrix cannot masquerade as all-cores.
pub const THREADS_ENV_VAR: &str = "CLOUDSIM_THREADS";

/// How the engine walks the machines of one epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    /// One thread steps every machine in index order.
    Serial,
    /// Machines are split into balanced contiguous shards whose jobs run on
    /// a persistent [`WorkerPool`] owned by the engine — no thread churn per
    /// call.  Reports are concatenated in machine-index order, so the
    /// output is bit-identical to
    /// [`ExecutionMode::Serial`].
    Pooled {
        /// Parallel lanes (pool workers + the calling thread; clamped to
        /// the machine count; 0 or 1 degenerates to serial stepping).
        threads: usize,
    },
}

impl ExecutionMode {
    /// Resolves the mode from the [`THREADS_ENV_VAR`] environment variable,
    /// defaulting to `Pooled { threads: available_parallelism }` when the
    /// variable is **unset**.
    ///
    /// A set-but-malformed value (`"0"`, `"-2"`, `"four"`, …) panics with
    /// the offending value instead of silently falling back — CI matrices
    /// set this variable, and a typo mapped to all-cores would make a
    /// mislabelled lane look like a healthy one.
    ///
    /// This is the benches' thread-count matrix knob; tests that pin exact
    /// values should construct [`ExecutionMode::Serial`] explicitly instead
    /// (the results are bit-identical either way — serial merely avoids
    /// paying parallelism overhead for tiny clusters).
    pub fn from_env() -> Self {
        match std::env::var(THREADS_ENV_VAR) {
            Ok(raw) => match Self::parse_env_value(&raw) {
                Ok(mode) => mode,
                Err(message) => panic!("{message}"),
            },
            Err(_) => Self::available_parallelism(),
        }
    }

    /// Strict parser behind [`ExecutionMode::from_env`], separated out so
    /// tests can pin its behaviour without mutating process-global
    /// environment (the test binary runs threads in parallel, and the CI
    /// multi-thread lane sets the real variable).
    ///
    /// Accepts `serial` (case-insensitive) and positive integers, with
    /// surrounding whitespace tolerated; everything else — including `0`
    /// and negative numbers — is an error carrying the offending value.
    pub fn parse_env_value(raw: &str) -> Result<Self, String> {
        let value = raw.trim();
        if value.eq_ignore_ascii_case("serial") {
            return Ok(ExecutionMode::Serial);
        }
        match value.parse::<usize>() {
            Ok(0) | Err(_) => Err(format!(
                "{THREADS_ENV_VAR} must be `serial` or a positive thread count, got {raw:?}"
            )),
            Ok(1) => Ok(ExecutionMode::Serial),
            Ok(n) => Ok(ExecutionMode::Pooled { threads: n }),
        }
    }

    /// `Pooled` over every hardware thread the OS grants this process
    /// (`Serial` on single-core machines).
    pub fn available_parallelism() -> Self {
        let threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        if threads <= 1 {
            ExecutionMode::Serial
        } else {
            ExecutionMode::Pooled { threads }
        }
    }

    /// Worker threads actually used for a fleet of `machines` machines.
    fn effective_threads(self, machines: usize) -> usize {
        match self {
            ExecutionMode::Serial => 1,
            ExecutionMode::Pooled { threads } => threads.clamp(1, machines.max(1)),
        }
    }
}

/// Steps a [`Cluster`] through epochs under a fixed seed and execution mode.
///
/// The engine is deliberately separate from the cluster: the cluster owns
/// *state* (machines, placements, the epoch counter), the engine owns
/// *policy* (seed derivation and parallelism), so one cluster can be driven
/// serially in a test and pooled in a capacity run without touching its
/// construction.
///
/// A `Pooled` engine owns (a shared handle to) its [`WorkerPool`]; cloning
/// the engine shares the pool rather than spawning a second set of workers,
/// and [`EpochEngine::worker_pool`] exposes the handle so other subsystems
/// (the DeepDive controller's model refits and benchmark training) can ride
/// the same threads.  Equality ignores the pool: two engines are equal when
/// they produce identical results, i.e. same seed and mode.
#[derive(Debug, Clone)]
pub struct EpochEngine {
    seed: ClusterSeed,
    mode: ExecutionMode,
    pool: Option<Arc<WorkerPool>>,
    /// Quiescent machines replay cached reports instead of resolving (see
    /// the [module docs](self)); bit-identical either way, on by default.
    sparse: bool,
}

impl PartialEq for EpochEngine {
    fn eq(&self, other: &Self) -> bool {
        // The pool and the sparse knob are deliberately ignored: neither
        // changes a single output bit, and equality means "produce
        // identical results".
        self.seed == other.seed && self.mode == other.mode
    }
}

impl Eq for EpochEngine {}

impl EpochEngine {
    /// Creates an engine with an explicit execution mode.  A
    /// `Pooled { threads: n > 1 }` mode spawns the persistent worker pool
    /// here, once, sized `n - 1` (the calling thread is the n-th lane).
    pub fn new(seed: ClusterSeed, mode: ExecutionMode) -> Self {
        Self {
            seed,
            mode,
            pool: Self::pool_for(mode),
            sparse: true,
        }
    }

    /// Serial engine — the right default for tests and small clusters.
    pub const fn serial(seed: ClusterSeed) -> Self {
        Self {
            seed,
            mode: ExecutionMode::Serial,
            pool: None,
            sparse: true,
        }
    }

    /// Engine honouring the [`THREADS_ENV_VAR`] knob (default: all cores).
    pub fn from_env(seed: ClusterSeed) -> Self {
        Self::new(seed, ExecutionMode::from_env())
    }

    /// Pooled engine running on an existing pool (shared via `Arc`), for
    /// callers that already own one — the controller benches use this to
    /// share a single pool between stepping and model refits.
    pub fn with_pool(seed: ClusterSeed, pool: Arc<WorkerPool>) -> Self {
        Self {
            seed,
            mode: ExecutionMode::Pooled {
                threads: pool.lanes(),
            },
            pool: Some(pool),
            sparse: true,
        }
    }

    fn pool_for(mode: ExecutionMode) -> Option<Arc<WorkerPool>> {
        match mode {
            ExecutionMode::Pooled { threads } if threads > 1 => {
                Some(Arc::new(WorkerPool::for_threads(threads)))
            }
            _ => None,
        }
    }

    /// The cluster seed every stream derives from.
    pub const fn seed(&self) -> ClusterSeed {
        self.seed
    }

    /// The execution mode in force.
    pub const fn mode(&self) -> ExecutionMode {
        self.mode
    }

    /// The engine's persistent worker pool (`Some` exactly for
    /// `Pooled { threads > 1 }`).  Share it to fan other independent work —
    /// model refits, benchmark training — across the same threads.
    pub fn worker_pool(&self) -> Option<&Arc<WorkerPool>> {
        self.pool.as_ref()
    }

    /// Switches execution mode (results are unaffected — bit-identical).
    /// Entering a pooled mode spawns the pool; leaving it releases this
    /// engine's handle (workers shut down when the last clone lets go).
    pub fn set_mode(&mut self, mode: ExecutionMode) {
        if self.mode != mode {
            self.pool = Self::pool_for(mode);
        }
        self.mode = mode;
    }

    /// Whether quiescent machines replay their cached reports (the default)
    /// instead of resolving every epoch densely.
    pub const fn sparse(&self) -> bool {
        self.sparse
    }

    /// Toggles sparse stepping (results are unaffected — bit-identical; see
    /// the [module docs](self)).  `false` forces a dense resolve of every
    /// machine every epoch — the measured baseline the datacenter bench
    /// compares against.
    pub fn set_sparse(&mut self, sparse: bool) {
        self.sparse = sparse;
    }

    /// Advances every machine one epoch and returns all per-VM reports, in
    /// machine-index order (and placement order within a machine) regardless
    /// of execution mode.
    ///
    /// `load_for` maps a VM to its offered load for this epoch (driven by
    /// the trace substrate); the `Sync` bound is what lets shards evaluate
    /// it concurrently.
    ///
    /// If `load_for` (or a workload model) panics, the panic propagates per
    /// the [module](self) policy: barrier first, lowest shard's payload
    /// re-raised here, epoch counter untouched, pool workers intact.
    pub fn step<F>(&self, cluster: &mut Cluster, load_for: F) -> Vec<VmEpochReport>
    where
        F: Fn(VmId) -> f64 + Sync,
    {
        let epoch = cluster.epoch();
        let seed = self.seed;
        let sparse = self.sparse;
        let step_shard = |shard: &mut [PhysicalMachine]| -> Vec<VmEpochReport> {
            // One report per resident VM: reserving up front keeps the
            // output vector from realloc-copying its way to full size — at
            // 10k+ machines that copy traffic would dominate the sparse
            // path, whose real work is only a memcpy per quiescent machine.
            let vms = shard.iter().map(PhysicalMachine::vm_count).sum();
            let mut out = Vec::with_capacity(vms);
            for machine in shard.iter_mut() {
                machine.step_epoch_into(epoch, &load_for, seed, sparse, &mut out);
            }
            out
        };
        let machines = cluster.machines_mut();
        let reports = match self.parallel_lanes(machines.len()) {
            // scatter_map shares one closure by reference across the shard
            // slice: no per-shard closure boxing, no per-epoch job vector —
            // the allocation-free path a controller loop stepping one epoch
            // at a time stays hot on.  Concatenating the shards in order
            // restores the serial report order.
            Some((pool, threads)) => pool
                .scatter_map(
                    &mut split_balanced(machines, threads),
                    &|shard: &mut &mut [PhysicalMachine]| step_shard(shard),
                )
                .concat(),
            None => step_shard(machines),
        };
        cluster.advance_epoch();
        reports
    }

    /// The pool and shard count for stepping `machines` machines, or `None`
    /// when they step on the calling thread: serial mode, and zero- or
    /// one-machine clusters (no shards, no pool traffic).
    fn parallel_lanes(&self, machines: usize) -> Option<(&WorkerPool, usize)> {
        let threads = self.mode.effective_threads(machines);
        self.pool
            .as_deref()
            .filter(|_| threads > 1)
            .map(|pool| (pool, threads))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pm::PmId;
    use crate::scheduler::Scheduler;
    use crate::vm::Vm;
    use hwsim::MachineSpec;
    use workloads::{AppId, ClientEmulator, DataServing, MemoryStress};

    fn cluster(machines: usize, vms: usize) -> Cluster {
        let mut c = Cluster::homogeneous(machines, MachineSpec::xeon_x5472(), Scheduler::default());
        for i in 0..vms {
            let vm = if i % 3 == 2 {
                Vm::new(
                    VmId(i as u64),
                    Box::new(MemoryStress::new(AppId(50), 256.0)),
                    ClientEmulator::new(1.0, 1.0),
                )
            } else {
                Vm::new(
                    VmId(i as u64),
                    Box::new(DataServing::with_defaults(AppId(1))),
                    ClientEmulator::new(8_000.0, 4.0),
                )
            };
            c.place_first_fit(vm).expect("cluster has room");
        }
        c
    }

    fn run(mode: ExecutionMode, epochs: usize) -> Vec<VmEpochReport> {
        let mut c = cluster(5, 12);
        let engine = EpochEngine::new(ClusterSeed::new(7), mode);
        let mut all = Vec::new();
        for _ in 0..epochs {
            all.extend(engine.step(&mut c, |vm| 0.4 + 0.05 * (vm.0 % 5) as f64));
        }
        all
    }

    /// Steps `epochs` epochs one `step` call at a time, returning each
    /// epoch's reports.
    fn step_n(
        engine: &EpochEngine,
        cluster: &mut Cluster,
        epochs: usize,
        load: impl Fn(u64, VmId) -> f64 + Sync,
    ) -> Vec<Vec<VmEpochReport>> {
        (0..epochs)
            .map(|_| {
                let epoch = cluster.epoch();
                engine.step(cluster, |vm| load(epoch, vm))
            })
            .collect()
    }

    #[test]
    fn serial_and_pooled_are_bit_identical() {
        let serial = run(ExecutionMode::Serial, 4);
        for threads in [1, 2, 3, 8, 64] {
            let pooled = run(ExecutionMode::Pooled { threads }, 4);
            assert_eq!(serial, pooled, "pooled divergence at {threads} threads");
        }
    }

    #[test]
    fn non_dividing_machine_thread_combos_use_every_shard() {
        // The regression the balanced split fixes: machine/thread counts
        // that do not divide evenly (65 @ 64 being the pathological case —
        // div_ceil chunking produced 33 shards of 2).  Equivalence is the
        // contract; shard-count correctness is pinned in `pool::tests`.
        for (machines, threads) in [(65usize, 64usize), (7, 3), (9, 4), (5, 64)] {
            let vms = machines; // one VM per machine is plenty
            let build = || {
                let mut c = cluster(machines, vms);
                assert_eq!(c.machines_mut().len(), machines);
                c
            };
            let load = |e: u64, vm: VmId| 0.2 + 0.05 * ((e + vm.0) % 7) as f64;
            let serial = EpochEngine::serial(ClusterSeed::new(13));
            let expected = step_n(&serial, &mut build(), 3, load);
            let pooled = EpochEngine::new(ClusterSeed::new(13), ExecutionMode::Pooled { threads });
            let got = step_n(&pooled, &mut build(), 3, load);
            assert_eq!(
                expected, got,
                "{machines} machines at {threads} threads diverged"
            );
        }
    }

    #[test]
    fn step_advances_the_cluster_epoch() {
        let mut c = cluster(2, 2);
        let engine = EpochEngine::serial(ClusterSeed::new(1));
        assert_eq!(c.epoch(), 0);
        let first = engine.step(&mut c, |_| 0.7);
        assert_eq!(c.epoch(), 1);
        assert_eq!(first.len(), 2);
        assert_eq!(first[0].epoch, 0);
        let second = engine.step(&mut c, |_| 0.7);
        assert_eq!(second[0].epoch, 1);
    }

    #[test]
    fn reports_come_back_in_machine_then_placement_order() {
        let mut c = cluster(3, 9);
        let expected: Vec<(PmId, VmId)> = c
            .machines()
            .iter()
            .flat_map(|m| m.vms().iter().map(|v| (m.id, v.id)))
            .collect();
        let engine = EpochEngine::new(ClusterSeed::new(3), ExecutionMode::Pooled { threads: 3 });
        let reports = engine.step(&mut c, |_| 0.8);
        let got: Vec<(PmId, VmId)> = reports.iter().map(|r| (r.pm_id, r.vm_id)).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn demand_streams_do_not_depend_on_placement() {
        // The same VM ids spread across different machine counts must draw
        // identical demands each epoch: the stream belongs to the VM, not to
        // its host or its neighbours.
        let engine = EpochEngine::serial(ClusterSeed::new(11));
        let mut narrow = cluster(1, 4); // all four VMs packed on one machine
                                        // Same four VM ids (and workloads), one per machine, reverse order.
        let mut wide = Cluster::homogeneous(4, MachineSpec::xeon_x5472(), Scheduler::default());
        for i in 0..4u64 {
            let vm = if i % 3 == 2 {
                Vm::new(
                    VmId(i),
                    Box::new(MemoryStress::new(AppId(50), 256.0)),
                    ClientEmulator::new(1.0, 1.0),
                )
            } else {
                Vm::new(
                    VmId(i),
                    Box::new(DataServing::with_defaults(AppId(1))),
                    ClientEmulator::new(8_000.0, 4.0),
                )
            };
            wide.place_on(PmId(3 - i), vm).expect("empty machine");
        }
        for _ in 0..3 {
            let mut packed = engine.step(&mut narrow, |_| 0.9);
            let mut spread = engine.step(&mut wide, |_| 0.9);
            packed.sort_by_key(|r| r.vm_id);
            spread.sort_by_key(|r| r.vm_id);
            for (a, b) in packed.iter().zip(&spread) {
                assert_eq!(a.vm_id, b.vm_id);
                assert_eq!(a.demand, b.demand, "demand stream moved with placement");
            }
        }
    }

    #[test]
    fn sparse_and_dense_stepping_are_bit_identical() {
        let load = |epoch: u64, vm: VmId| {
            // Half the VMs go fully idle on even epochs — exactly the
            // regime where sparse stepping starts skipping machines.
            if vm.0.is_multiple_of(2) && epoch.is_multiple_of(2) {
                0.0
            } else {
                0.5
            }
        };
        let mut dense_engine = EpochEngine::serial(ClusterSeed::new(31));
        dense_engine.set_sparse(false);
        assert!(!dense_engine.sparse());
        let sparse_engine = EpochEngine::serial(ClusterSeed::new(31));
        assert!(sparse_engine.sparse(), "sparse is the default");
        let mut dense_cluster = cluster(5, 12);
        let mut sparse_cluster = cluster(5, 12);
        let dense = step_n(&dense_engine, &mut dense_cluster, 8, load);
        let sparse = step_n(&sparse_engine, &mut sparse_cluster, 8, load);
        assert_eq!(dense, sparse);
        assert_eq!(
            dense_cluster.total_quiescent_steps(),
            0,
            "dense mode must never use the cache"
        );
    }

    #[test]
    fn a_fully_quiescent_epoch_resolves_zero_machines() {
        // All-idle DataServing VMs: static at load 0.  After the first
        // (cache-filling) epoch, no machine should resolve again.
        let mut c = Cluster::homogeneous(4, MachineSpec::xeon_x5472(), Scheduler::default());
        for i in 0..8u64 {
            c.place_first_fit(Vm::new(
                VmId(i),
                Box::new(DataServing::with_defaults(AppId(1))),
                ClientEmulator::new(8_000.0, 4.0),
            ))
            .expect("cluster has room");
        }
        let engine = EpochEngine::serial(ClusterSeed::new(5));
        let first = engine.step(&mut c, |_| 0.0);
        // First-fit packs the 8 VMs onto 2 machines; empty machines are
        // skipped outright, so only those 2 ever resolve.
        assert_eq!(c.total_resolves(), 2);
        assert_eq!(c.total_quiescent_steps(), 0);
        let later = step_n(&engine, &mut c, 10, |_, _| 0.0);
        assert_eq!(c.total_resolves(), 2, "quiescent epochs must not resolve");
        assert_eq!(c.total_quiescent_steps(), 20);
        // And the replayed reports differ from the resolved one only in
        // the epoch stamp.
        for (offset, batch) in later.iter().enumerate() {
            for (cached, resolved) in batch.iter().zip(&first) {
                assert_eq!(cached.epoch, 1 + offset as u64);
                let mut patched = cached.clone();
                patched.epoch = resolved.epoch;
                assert_eq!(&patched, resolved);
            }
        }
    }

    #[test]
    fn mode_accessors_round_trip() {
        let mut engine = EpochEngine::serial(ClusterSeed::new(4));
        assert_eq!(engine.mode(), ExecutionMode::Serial);
        assert_eq!(engine.seed(), ClusterSeed::new(4));
        assert!(engine.worker_pool().is_none());
        engine.set_mode(ExecutionMode::Pooled { threads: 4 });
        assert_eq!(engine.mode(), ExecutionMode::Pooled { threads: 4 });
        let pool = engine.worker_pool().expect("pooled mode spawns the pool");
        assert_eq!(pool.lanes(), 4);
        engine.set_mode(ExecutionMode::Serial);
        assert!(engine.worker_pool().is_none(), "leaving pooled drops it");
    }

    #[test]
    fn cloned_pooled_engines_share_one_pool() {
        let engine = EpochEngine::new(ClusterSeed::new(9), ExecutionMode::Pooled { threads: 3 });
        let clone = engine.clone();
        let a = engine.worker_pool().expect("pooled");
        let b = clone.worker_pool().expect("pooled");
        assert!(Arc::ptr_eq(a, b), "clone must not spawn a second pool");
        assert_eq!(engine, clone);
    }

    #[test]
    fn strict_env_parsing_pins_the_documented_grammar() {
        use ExecutionMode::{Pooled, Serial};
        assert_eq!(ExecutionMode::parse_env_value("serial"), Ok(Serial));
        assert_eq!(ExecutionMode::parse_env_value("SERIAL"), Ok(Serial));
        assert_eq!(ExecutionMode::parse_env_value(" serial "), Ok(Serial));
        assert_eq!(ExecutionMode::parse_env_value("1"), Ok(Serial));
        assert_eq!(
            ExecutionMode::parse_env_value(" 8 "),
            Ok(Pooled { threads: 8 })
        );
        assert_eq!(
            ExecutionMode::parse_env_value("4"),
            Ok(Pooled { threads: 4 })
        );
        // Malformed values are hard errors, not an all-cores fallback.
        for bad in ["0", "-2", "four", "", "  ", "8x", "1.5"] {
            let err = ExecutionMode::parse_env_value(bad)
                .expect_err(&format!("{bad:?} must be rejected"));
            assert!(
                err.contains(THREADS_ENV_VAR) && err.contains(&format!("{bad:?}")),
                "error for {bad:?} must name the variable and the value: {err}"
            );
        }
    }
}

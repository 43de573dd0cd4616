//! The end-to-end DeepDive controller.
//!
//! This module wires the warning system, the interference analyzer and the
//! placement manager into the loop of Figure 2: every epoch it receives the
//! cluster's per-VM reports, feeds counters to the warning system, invokes
//! the analyzer when a behaviour cannot be explained, updates the behaviour
//! repository with whatever the analyzer verified, and — when interference
//! is confirmed — asks the placement manager for a destination and migrates
//! the culprit VM.
//!
//! The controller also keeps the bookkeeping the evaluation needs: number of
//! analyzer invocations, confirmed detections, false alarms, migrations and
//! accumulated profiling time (Figs. 8 and 12).
//!
//! On heterogeneous clusters the controller holds a [`SandboxFleet`] — one
//! sandbox pool per machine model — and routes every analysis to the pool
//! matching the victim's host, so isolation counters are never compared
//! across machine models.  Profiling time is accounted both in total and
//! per pool ([`DeepDive::profiling_seconds_by_pool`], the per-farm load of
//! the Figs. 12–14 queueing picture), and analyses that had to fall back to
//! a mismatched pool are counted in
//! [`DeepDiveStats::sandbox_spec_fallbacks`].  Build the controller with
//! [`DeepDive::for_cluster`] to derive the fleet from the cluster's actual
//! machine models.
//!
//! ## Parallelism
//!
//! The control plane's two heavyweight jobs are embarrassingly parallel and
//! can ride the epoch engine's persistent [`WorkerPool`]
//! ([`DeepDive::use_worker_pool`]): per-application model refits fan out in
//! [`WarningSystem::refresh_models`] (applications are independent), and
//! per-machine-model synthetic-benchmark training fans out in
//! [`DeepDive::pretrain_benchmarks`] / lazily in the mitigation path (models
//! are independent, and each training sample has its own counter-derived
//! RNG stream).  Every pooled path is **bit-identical** to its serial
//! equivalent — the pool is a throughput knob, never a results knob — and a
//! panic in pooled work follows the engine's policy (barrier first, payload
//! re-raised on the controller's thread, workers survive; see
//! [`cloudsim::pool`]).

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

use cloudsim::cluster::ClusterError;
use cloudsim::pm::VmEpochReport;
use cloudsim::pool::WorkerPool;
use cloudsim::{Cluster, PmId, RequestProxy, SandboxFleet, VmId};
use hwsim::{CounterSnapshot, MachineSpec};
use serde::{Deserialize, Serialize};
use workloads::AppId;

use crate::analyzer::{AnalysisResult, InterferenceAnalyzer};
use crate::cpi_stack::Resource;
use crate::metrics::BehaviorVector;
use crate::placement::{CandidateMachine, PlacementManager, ResidentVm};
use crate::repository::BehaviorRepository;
use crate::synthetic::SyntheticBenchmark;
use crate::warning::{WarningConfig, WarningDecision, WarningSystem};

/// Configuration of the end-to-end controller.
#[derive(Debug, Clone, PartialEq)]
pub struct DeepDiveConfig {
    /// Operator-defined performance threshold: degradations above this are
    /// treated as interference worth acting on (§4.2).
    pub performance_threshold: f64,
    /// Warning-system configuration.
    pub warning: WarningConfig,
    /// Number of recent epochs replayed in the sandbox per analysis.
    pub analysis_window: usize,
    /// Epochs to wait after analyzing a VM before analyzing it again
    /// (a simple controller against oscillating invocations, §4.4).
    pub analysis_cooldown: u64,
    /// Epochs to wait before re-analyzing a VM whose interference was just
    /// *confirmed*.  Re-confirming an ongoing episode is pure overhead, so
    /// this is typically several times the ordinary cooldown.
    pub confirmed_cooldown: u64,
    /// Whether confirmed interference triggers an automatic migration.
    pub auto_migrate: bool,
    /// Maximum predicted interference accepted at a migration destination.
    pub acceptable_destination_interference: f64,
    /// Whether the global-information check may consult peer VMs running the
    /// same application (disable to reproduce the "local only" curves).
    pub use_global_information: bool,
    /// Training samples for the synthetic benchmark (trained lazily on the
    /// first placement decision).
    pub synthetic_training_samples: usize,
    /// RNG seed for the synthetic benchmark training.
    pub seed: u64,
    /// Epochs a warning may wait for its sandbox pool to come back from an
    /// outage before the controller gives up on analyzing and falls back to
    /// a warning-only (degraded) decision.
    pub analysis_deferral_epochs: u64,
    /// Retry budget for failed mitigation migrations (transient failures
    /// and full destinations back off exponentially, then give up).
    pub migration_retry_attempts: u32,
    /// Failure-domain spread preference for mitigation migrations: with
    /// `Some(topology)`, acceptable destinations outside the afflicted
    /// machine's power domain win over same-domain ones (see
    /// [`PlacementManager::with_spread`]).  `None` (the default) picks
    /// purely by predicted interference.
    pub spread_topology: Option<cloudsim::Topology>,
}

impl Default for DeepDiveConfig {
    fn default() -> Self {
        Self {
            performance_threshold: 0.15,
            warning: WarningConfig::default(),
            analysis_window: 5,
            analysis_cooldown: 30,
            confirmed_cooldown: 60,
            auto_migrate: true,
            acceptable_destination_interference: 0.15,
            use_global_information: true,
            synthetic_training_samples: 150,
            seed: 0xDEE9,
            analysis_deferral_epochs: 12,
            migration_retry_attempts: 3,
            spread_topology: None,
        }
    }
}

/// Counters the evaluation harness reads after (or during) a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct DeepDiveStats {
    /// Epoch-level warning evaluations performed.
    pub evaluations: u64,
    /// Analyzer invocations (bootstrap + suspected interference).
    pub analyzer_invocations: u64,
    /// Analyses that confirmed interference above the threshold.
    pub interference_confirmed: u64,
    /// Analyses that turned out to be false alarms (workload changes).
    pub false_alarms: u64,
    /// Migrations executed.
    pub migrations: u64,
    /// Total sandbox/profiling time consumed, in seconds (Fig. 12's y-axis).
    pub profiling_seconds: f64,
    /// Behaviours accepted via the global-information check.
    pub global_matches: u64,
    /// Analyses whose victim was hosted on a machine model with no matching
    /// sandbox pool, so the replay fell back to the fleet's first pool and
    /// compared counters across models.  Nonzero means biased degradation
    /// estimates; a fleet built with [`DeepDive::for_cluster`] keeps this at
    /// zero by construction.
    pub sandbox_spec_fallbacks: u64,
    /// Analyses deferred because the victim's sandbox pool was inside an
    /// outage window (each deferral episode is counted once).
    pub analyses_deferred: u64,
    /// Deferred analyses whose deadline expired with the pool still down:
    /// the controller fell back to a warning-only decision instead of
    /// analyzing against the wrong pool.
    pub degraded_decisions: u64,
    /// Mitigation migrations re-scheduled with backoff after a transient
    /// failure or a full destination.
    pub migration_retries: u64,
}

/// Events the controller emits each epoch, for logging and for the benches'
/// detection-rate accounting.
///
/// The `Analyzed` variant carries a full [`AnalysisResult`] and dwarfs the
/// others; events are transient per-epoch values that callers consume
/// immediately, so boxing it would only add indirection.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum EpochEvent {
    /// The analyzer ran for a VM and produced a result.
    Analyzed {
        /// The VM that was analyzed.
        vm: VmId,
        /// What the warning system said to trigger the analysis.
        trigger: WarningDecision,
        /// The analyzer's verdict.
        result: AnalysisResult,
    },
    /// A VM was migrated to mitigate confirmed interference.
    Migrated {
        /// The migrated VM.
        vm: VmId,
        /// Source machine.
        from: PmId,
        /// Destination machine.
        to: PmId,
        /// The culprit resource that motivated the move.
        culprit: Resource,
    },
    /// A migration was recommended but could not be executed.
    MigrationSkipped {
        /// The VM that should have moved.
        vm: VmId,
        /// Why the migration did not happen.
        reason: String,
    },
    /// A warning escalated to analysis, but the victim's sandbox pool is
    /// inside an outage window: the analysis waits for the pool (until
    /// `deadline`) instead of replaying against the wrong hardware.
    AnalysisDeferred {
        /// The VM whose analysis is waiting.
        vm: VmId,
        /// Epoch at which the controller stops waiting and degrades.
        deadline: u64,
    },
    /// A deferred analysis hit its deadline with the pool still down; the
    /// controller recorded a warning-only (degraded) decision and applied
    /// the ordinary cooldown instead of analyzing or panicking.
    AnalysisDegraded {
        /// The VM whose analysis was abandoned.
        vm: VmId,
    },
}

/// An analysis parked while the victim's sandbox pool rides out an outage
/// window.
#[derive(Debug, Clone, Copy)]
struct DeferredAnalysis {
    vm: VmId,
    /// Epoch at which waiting turns into a degraded (warning-only) decision.
    deadline: u64,
}

/// A mitigation migration parked for a backed-off retry after a transient
/// failure or a full destination.
#[derive(Debug, Clone, Copy)]
struct PendingMigration {
    /// The interference victim whose episode is being mitigated (the VM to
    /// move is re-decided from fresh reports at retry time).
    victim: VmId,
    culprit: Resource,
    /// Attempts already consumed, the original try included.
    attempts: u32,
    /// Earliest epoch the retry may run.
    next_epoch: u64,
}

/// The end-to-end DeepDive system.
pub struct DeepDive {
    config: DeepDiveConfig,
    warning: WarningSystem,
    analyzer: InterferenceAnalyzer,
    repository: BehaviorRepository,
    proxy: RequestProxy,
    /// One sandbox pool per machine model; each analysis replays in the pool
    /// matching the victim's host so counters are never compared across
    /// models (a uniform fleet reproduces the paper's single-pool setup).
    fleet: SandboxFleet,
    placement: PlacementManager,
    /// One trained synthetic benchmark per machine model (keyed by spec
    /// name), trained lazily the first time a placement decision needs it.
    /// A `BTreeMap` so that if per-model iteration ever reaches the worker
    /// pool or an RNG draw, the order is the key order, never hash order.
    synthetic: BTreeMap<String, SyntheticBenchmark>,
    /// Profiling seconds consumed per sandbox pool, parallel to
    /// `fleet.pools()` — the per-farm load the Figs. 12–14 queueing
    /// experiments size profiling capacity from.
    profiling_by_pool: Vec<f64>,
    stats: DeepDiveStats,
    recent_counters: HashMap<VmId, VecDeque<CounterSnapshot>>,
    cooldown_until: HashMap<VmId, u64>,
    /// Counter-derived fault schedule shared with the datacenter service;
    /// `None` (or a disabled plane) leaves every degradation path inert.
    fault_plane: Option<cloudsim::FaultPlane>,
    /// Analyses waiting out a sandbox-pool outage, in deferral order.
    deferred: Vec<DeferredAnalysis>,
    /// Mitigation migrations awaiting a backed-off retry, in schedule order.
    pending_migrations: Vec<PendingMigration>,
    /// Persistent worker pool the controller fans independent work over —
    /// per-application model refits and synthetic-benchmark training.
    /// Typically the epoch engine's own pool
    /// ([`DeepDive::use_worker_pool`]), so stepping and the control plane
    /// share one set of threads; `None` keeps every path serial.  Results
    /// are bit-identical either way.
    pool: Option<Arc<WorkerPool>>,
    // Reusable per-epoch scratch: cleared (not dropped) every epoch so the
    // steady-state warning path performs no heap allocation.
    /// Current behaviour of every reporting VM.
    behavior_scratch: HashMap<VmId, BehaviorVector>,
    /// Reporting VMs grouped by application (the global-information index).
    by_app_scratch: HashMap<AppId, Vec<VmId>>,
    /// Applications reporting this epoch (the refresh sweep's work list).
    apps_scratch: Vec<AppId>,
    /// Same-application peer behaviours for the VM under evaluation.
    peer_scratch: Vec<BehaviorVector>,
    /// Analysis window handed to the interference analyzer.
    window_scratch: Vec<CounterSnapshot>,
}

/// Machines per pool when the fleet is derived from a cluster
/// ([`DeepDive::for_cluster`]); matches [`cloudsim::Sandbox::xeon_pool`]'s
/// historical default so uniform clusters behave identically either way.
const DEFAULT_POOL_MACHINES: usize = 4;
/// Cloning overhead for derived fleets, in seconds (the paper's testbed
/// value, as in [`cloudsim::Sandbox::xeon_pool`]).
const DEFAULT_CLONE_OVERHEAD_SECONDS: f64 = 30.0;

impl DeepDive {
    /// Creates the controller with a sandbox fleet for the analyzer.
    ///
    /// Accepts anything convertible into a [`SandboxFleet`]; passing a bare
    /// [`cloudsim::Sandbox`] builds a uniform single-pool fleet (the
    /// paper's homogeneous setup).  For a mixed-hardware cluster, prefer
    /// [`DeepDive::for_cluster`], which derives one pool per machine model
    /// actually present instead of hard-coding one.
    pub fn new(config: DeepDiveConfig, sandboxes: impl Into<SandboxFleet>) -> Self {
        let fleet = sandboxes.into();
        let analyzer = InterferenceAnalyzer::new(config.performance_threshold);
        let mut placement = PlacementManager::new(config.acceptable_destination_interference);
        if let Some(topology) = config.spread_topology {
            placement = placement.with_spread(topology);
        }
        let warning = WarningSystem::new(config.warning.clone());
        let profiling_by_pool = vec![0.0; fleet.pools().len()];
        Self {
            config,
            warning,
            analyzer,
            repository: BehaviorRepository::new(),
            proxy: RequestProxy::with_default_window(),
            fleet,
            placement,
            synthetic: BTreeMap::new(),
            profiling_by_pool,
            stats: DeepDiveStats::default(),
            recent_counters: HashMap::new(),
            cooldown_until: HashMap::new(),
            fault_plane: None,
            deferred: Vec::new(),
            pending_migrations: Vec::new(),
            pool: None,
            behavior_scratch: HashMap::new(),
            by_app_scratch: HashMap::new(),
            apps_scratch: Vec::new(),
            peer_scratch: Vec::new(),
            window_scratch: Vec::new(),
        }
    }

    /// Creates the controller with the sandbox fleet the cluster actually
    /// needs: one pool per machine model present in it (four machines per
    /// pool, the paper's 30-second cloning overhead).
    ///
    /// This is the right default for any cluster — on a uniform fleet it is
    /// equivalent to the old `DeepDive::new(config, Sandbox::xeon_pool(4))`
    /// construction (pinned by `tests/sandbox_fleet.rs`), and on a mixed
    /// fleet it guarantees every analysis replays on the victim's host
    /// model (`stats().sandbox_spec_fallbacks` stays zero).
    pub fn for_cluster(config: DeepDiveConfig, cluster: &Cluster) -> Self {
        let fleet = SandboxFleet::for_cluster(
            cluster,
            DEFAULT_POOL_MACHINES,
            DEFAULT_CLONE_OVERHEAD_SECONDS,
        );
        Self::new(config, fleet)
    }

    /// Fans the controller's independent work — per-application model
    /// refits, synthetic-benchmark training — out over a persistent
    /// [`WorkerPool`].  Pass the epoch engine's pool
    /// (`engine.worker_pool().cloned()` via the shared `Arc`) so the control
    /// plane rides the same threads that step the cluster: the engine's
    /// barrier has released the workers by the time `process_epoch` runs.
    ///
    /// Purely a throughput knob: every pooled path is bit-identical to its
    /// serial equivalent (each refit and each training sample is a pure
    /// function of its inputs), pinned by `tests/warning_equivalence.rs`
    /// and the controller equivalence test below.
    pub fn use_worker_pool(&mut self, pool: Arc<WorkerPool>) {
        self.pool = Some(pool);
    }

    /// The worker pool the control plane fans work over, if any.
    pub fn worker_pool(&self) -> Option<&Arc<WorkerPool>> {
        self.pool.as_ref()
    }

    /// Trains the synthetic benchmark for every machine model in `cluster`
    /// up front — one independent training job per model, fanned over the
    /// worker pool when one is attached — instead of lazily on the first
    /// placement decision per model.  Already-trained models are kept.
    ///
    /// Training is a pure function of `(spec, samples, seed)`, so eager,
    /// lazy, pooled and serial training all produce bit-identical
    /// benchmarks; pretraining only moves the cost out of the first
    /// mitigation episode (and, with a pool, overlaps the models).
    pub fn pretrain_benchmarks(&mut self, cluster: &Cluster) {
        let mut specs: Vec<MachineSpec> = Vec::new();
        for machine in cluster.machines() {
            if !self.synthetic.contains_key(&machine.spec.name)
                && !specs.iter().any(|s| s.name == machine.spec.name)
            {
                specs.push(machine.spec.clone());
            }
        }
        let samples = self.config.synthetic_training_samples;
        let seed = self.config.seed;
        // One job per machine model; each trains serially inside its job
        // (a nested scatter on the same pool would deadlock), so the
        // parallelism is across models.
        let train = |spec: &mut MachineSpec| SyntheticBenchmark::train(spec.clone(), samples, seed);
        let trained: Vec<SyntheticBenchmark> = match &self.pool {
            Some(pool) => pool.scatter_map(&mut specs, &train),
            None => specs.iter_mut().map(train).collect(),
        };
        for benchmark in trained {
            self.synthetic
                .insert(benchmark.spec.name.clone(), benchmark);
        }
    }

    /// Attaches the fault plane whose sandbox-outage and migration-failure
    /// schedules the controller must degrade around; mitigation also skips
    /// destinations that are down or draining.  Share the plane (it
    /// is `Copy`) with the datacenter service so both layers see the same
    /// schedule.  A disabled plane is byte-for-byte inert.
    pub fn set_fault_plane(&mut self, plane: cloudsim::FaultPlane) {
        self.fault_plane = Some(plane);
    }

    /// The attached fault plane, if any.
    pub fn fault_plane(&self) -> Option<&cloudsim::FaultPlane> {
        self.fault_plane.as_ref()
    }

    /// Analyses currently waiting out a sandbox-pool outage.
    pub fn deferred_analyses(&self) -> usize {
        self.deferred.len()
    }

    /// Mitigation migrations currently awaiting a backed-off retry.
    pub fn pending_migrations(&self) -> usize {
        self.pending_migrations.len()
    }

    /// The running statistics.
    pub fn stats(&self) -> DeepDiveStats {
        self.stats
    }

    /// The sandbox fleet backing the analyzer.
    pub fn sandbox_fleet(&self) -> &SandboxFleet {
        &self.fleet
    }

    /// Profiling seconds consumed per sandbox pool, as `(machine model,
    /// seconds)` in pool order.  The sum equals
    /// [`DeepDiveStats::profiling_seconds`]; the split is what sizes each
    /// per-model profiling farm in the Figs. 12–14 queueing picture.
    pub fn profiling_seconds_by_pool(&self) -> impl Iterator<Item = (&str, f64)> + '_ {
        self.fleet
            .pools()
            .iter()
            .zip(&self.profiling_by_pool)
            .map(|(pool, &seconds)| (pool.spec.name.as_str(), seconds))
    }

    /// The behaviour repository (read access for the evaluation).
    pub fn repository(&self) -> &BehaviorRepository {
        &self.repository
    }

    /// The configuration in use.
    pub fn config(&self) -> &DeepDiveConfig {
        &self.config
    }

    /// True when the warning system still treats this application
    /// conservatively (no learned clusters yet).
    pub fn in_conservative_mode(&self, app: AppId) -> bool {
        self.warning.in_conservative_mode(app)
    }

    /// Processes one epoch of cluster reports: Algorithm 1 for every VM, and
    /// Algorithm 2 (plus placement) for whatever the warning system escalates.
    ///
    /// The warning models are refreshed **once per application per epoch**,
    /// before the per-VM loop (an O(1) generation check per app in the steady
    /// state).  Behaviours the epoch itself adds to the repository are picked
    /// up by the next epoch's refresh.
    pub fn process_epoch(
        &mut self,
        cluster: &mut Cluster,
        reports: &[VmEpochReport],
    ) -> Vec<EpochEvent> {
        let mut events = Vec::new();
        if reports.is_empty() {
            return events;
        }
        let epoch = reports[0].epoch;

        // Run mitigation migrations whose backoff expired before anything
        // else this epoch, so a retry sees the freshest reports.
        events.extend(self.drain_pending_migrations(cluster, reports, epoch));

        // Record the duplicated request streams and the counter history.
        self.proxy.record_reports(reports);
        for r in reports {
            let history = self.recent_counters.entry(r.vm_id).or_default();
            history.push_back(r.counters);
            while history.len() > self.config.analysis_window {
                history.pop_front();
            }
        }

        // Current behaviour of every VM, grouped by application (the global
        // information the warning system may consult).  Rebuilt into scratch
        // maps that keep their allocations across epochs; with a stable VM
        // population this allocates nothing.
        self.behavior_scratch.clear();
        // Clearing every group touches each exactly once; nothing observes
        // the visit order.  simlint: order-independent
        for group in self.by_app_scratch.values_mut() {
            group.clear();
        }
        for r in reports {
            self.behavior_scratch
                .insert(r.vm_id, BehaviorVector::from_counters(&r.counters));
            self.by_app_scratch.entry(r.app).or_default().push(r.vm_id);
        }

        // One model refresh per application per epoch.  Each refresh is O(1)
        // when that application's repository generation is unchanged, and
        // when several applications do need a refit the fits fan out over
        // the worker pool (bit-identical to the serial sweep).  The work
        // list is **sorted** before it reaches the pool: models are
        // independent so results would match in any order, but the sort
        // keeps scatter job assignment, refit accounting and any future
        // order-sensitive consumer a pure function of the reports — never
        // of `by_app_scratch`'s per-process hash order.
        self.apps_scratch.clear();
        self.apps_scratch.extend(
            self.by_app_scratch
                // Hash-order collection, sorted below.  simlint: order-independent
                .iter()
                .filter(|(_, vms)| !vms.is_empty())
                .map(|(&app, _)| app),
        );
        self.apps_scratch.sort_unstable();
        self.warning
            .refresh_models(&self.apps_scratch, &self.repository, self.pool.as_deref());

        for report in reports {
            self.stats.evaluations += 1;
            let behavior = self.behavior_scratch[&report.vm_id];
            // Skip idle VMs: an empty behaviour carries no signal.
            if report.counters.inst_retired <= 0.0 {
                continue;
            }
            self.peer_scratch.clear();
            if self.config.use_global_information {
                for id in &self.by_app_scratch[&report.app] {
                    if *id != report.vm_id {
                        self.peer_scratch.push(self.behavior_scratch[id]);
                    }
                }
            }
            let decision = self
                .warning
                .evaluate(report.app, &behavior, &self.peer_scratch);
            match decision {
                WarningDecision::NormalLocal => {}
                WarningDecision::NormalGlobal => {
                    // Workload change shared across the application's VMs:
                    // extend the set of known behaviours without profiling.
                    self.stats.global_matches += 1;
                    self.repository.record_normal(report.app, behavior, epoch);
                }
                WarningDecision::SuspectInterference | WarningDecision::Bootstrap => {
                    if self
                        .cooldown_until
                        .get(&report.vm_id)
                        .is_some_and(|until| epoch < *until)
                    {
                        continue;
                    }
                    // Route the analysis to the sandbox pool matching the
                    // victim's host model.
                    let host_spec = self.host_spec(cluster, report.pm_id);
                    if let Some(plane) = self.fault_plane.filter(|p| p.is_enabled()) {
                        let (pool_idx, _) = self.fleet.select_index(&host_spec);
                        if plane.sandbox_down(pool_idx, epoch) {
                            // The victim's pool is inside an outage window:
                            // wait for it rather than replay against the
                            // wrong hardware — and once the deadline
                            // passes, degrade to a warning-only decision
                            // rather than panic or analyze blind.
                            match self.deferred.iter().position(|d| d.vm == report.vm_id) {
                                None => {
                                    let deadline = epoch + self.config.analysis_deferral_epochs;
                                    self.deferred.push(DeferredAnalysis {
                                        vm: report.vm_id,
                                        deadline,
                                    });
                                    self.stats.analyses_deferred += 1;
                                    events.push(EpochEvent::AnalysisDeferred {
                                        vm: report.vm_id,
                                        deadline,
                                    });
                                }
                                Some(pos) if epoch >= self.deferred[pos].deadline => {
                                    self.deferred.remove(pos);
                                    self.stats.degraded_decisions += 1;
                                    self.cooldown_until.insert(
                                        report.vm_id,
                                        epoch + self.config.analysis_cooldown,
                                    );
                                    events.push(EpochEvent::AnalysisDegraded { vm: report.vm_id });
                                }
                                Some(_) => {}
                            }
                            continue;
                        }
                        // Pool came back before the deadline: the deferral
                        // is over, analyze normally.
                        if let Some(pos) = self.deferred.iter().position(|d| d.vm == report.vm_id) {
                            self.deferred.remove(pos);
                        }
                    }
                    let result = self.run_analysis(report, &host_spec);
                    let cooldown = if result.interference_confirmed {
                        self.config
                            .confirmed_cooldown
                            .max(self.config.analysis_cooldown)
                    } else {
                        self.config.analysis_cooldown
                    };
                    self.cooldown_until.insert(report.vm_id, epoch + cooldown);
                    events.push(EpochEvent::Analyzed {
                        vm: report.vm_id,
                        trigger: decision,
                        result: result.clone(),
                    });
                    if result.interference_confirmed {
                        if let Some(culprit) = result.culprit {
                            if self.config.auto_migrate {
                                events.extend(self.mitigate(cluster, reports, report, culprit, 0));
                            }
                        }
                    }
                }
            }
        }
        events
    }

    /// The machine model hosting `pm`.  Reports always come from machines
    /// in `cluster`, so the fallback to the fleet's first pool model is
    /// belt-and-braces; an actual cross-model fallback is detected (and
    /// counted) by the fleet selection in [`DeepDive::run_analysis`].
    fn host_spec(&self, cluster: &Cluster, pm: PmId) -> MachineSpec {
        cluster
            .machine(pm)
            .map(|m| m.spec.clone())
            .unwrap_or_else(|| self.fleet.pools()[0].spec.clone())
    }

    /// Runs the interference analyzer for one VM in the sandbox pool
    /// matching `host_spec` and updates the repository.
    fn run_analysis(&mut self, report: &VmEpochReport, host_spec: &MachineSpec) -> AnalysisResult {
        self.stats.analyzer_invocations += 1;
        let (pool_idx, matched) = self.fleet.select_index(host_spec);
        if !matched {
            // Cross-model replay: the estimate is biased (the old
            // single-pool behaviour on mixed fleets); surface it in stats.
            self.stats.sandbox_spec_fallbacks += 1;
        }
        // The analysis window lives in reused scratch (taken out of `self`
        // for the duration of the borrow-heavy analyzer call).
        let mut window = std::mem::take(&mut self.window_scratch);
        window.clear();
        match self.recent_counters.get(&report.vm_id) {
            Some(history) => window.extend(history.iter().copied()),
            None => window.push(report.counters),
        }
        let mut replay = self
            .proxy
            .replay_last(report.vm_id, self.config.analysis_window);
        if replay.is_empty() {
            replay.push(report.demand.clone());
        }
        let result = self.analyzer.analyze(
            report.vm_id,
            &window,
            &replay,
            &self.fleet.pools()[pool_idx],
            2,
        );
        self.window_scratch = window;
        self.stats.profiling_seconds += result.profiling_seconds;
        self.profiling_by_pool[pool_idx] += result.profiling_seconds;
        // Every isolation epoch is a verified normal behaviour — the set S
        // the analyzer hands the warning system (§4.1).
        for behavior in &result.isolation_behaviors {
            self.repository
                .record_normal(report.app, *behavior, report.epoch);
        }
        if result.interference_confirmed {
            self.stats.interference_confirmed += 1;
            self.repository.record_interference(
                report.app,
                result.production_behavior,
                report.epoch,
            );
        } else {
            self.stats.false_alarms += 1;
            // A false alarm means the production behaviour is genuinely
            // normal (e.g. a workload change): learn it.
            self.repository
                .record_normal(report.app, result.production_behavior, report.epoch);
        }
        result
    }

    /// Runs every pending-migration retry whose backoff expired, deciding
    /// the move afresh from this epoch's reports.
    fn drain_pending_migrations(
        &mut self,
        cluster: &mut Cluster,
        reports: &[VmEpochReport],
        epoch: u64,
    ) -> Vec<EpochEvent> {
        let mut events = Vec::new();
        if self.pending_migrations.is_empty() {
            return events;
        }
        let mut due = Vec::new();
        self.pending_migrations.retain(|pending| {
            if pending.next_epoch <= epoch {
                due.push(*pending);
                false
            } else {
                true
            }
        });
        for pending in due {
            match reports.iter().find(|r| r.vm_id == pending.victim) {
                Some(victim) => {
                    events.extend(self.mitigate(
                        cluster,
                        reports,
                        victim,
                        pending.culprit,
                        pending.attempts,
                    ));
                }
                None => events.push(EpochEvent::MigrationSkipped {
                    vm: pending.victim,
                    reason: "victim stopped reporting before the migration retry".to_string(),
                }),
            }
        }
        events
    }

    /// Books a backed-off retry for a failed mitigation, or reports the
    /// budget exhausted.  `attempt` counts tries already consumed (the
    /// original included); waits double per attempt (1, 2, 4, … epochs).
    fn schedule_migration_retry(
        &mut self,
        victim: VmId,
        culprit: Resource,
        attempt: u32,
        epoch: u64,
    ) -> Option<EpochEvent> {
        if attempt >= self.config.migration_retry_attempts {
            return Some(EpochEvent::MigrationSkipped {
                vm: victim,
                reason: "migration retry budget exhausted".to_string(),
            });
        }
        self.stats.migration_retries += 1;
        self.pending_migrations.push(PendingMigration {
            victim,
            culprit,
            attempts: attempt + 1,
            next_epoch: epoch + (1u64 << attempt.min(16)),
        });
        None
    }

    /// True while `pm` takes no new VM: inside the fault plane's crash
    /// window, or in a maintenance drain's notice window (the service is
    /// migrating its residents out).
    fn refuses_placements(&self, pm: PmId, epoch: u64) -> bool {
        self.fault_plane
            .is_some_and(|plane| plane.machine_down(pm, epoch) || plane.machine_draining(pm, epoch))
    }

    /// Mitigates confirmed interference on the machine hosting `victim`.
    /// `attempt` is zero on the first try and counts up across
    /// backed-off retries of the same episode.
    fn mitigate(
        &mut self,
        cluster: &mut Cluster,
        reports: &[VmEpochReport],
        victim: &VmEpochReport,
        culprit: Resource,
        attempt: u32,
    ) -> Vec<EpochEvent> {
        let mut events = Vec::new();
        let pm = victim.pm_id;
        let epoch = victim.epoch;
        // Residents of the afflicted machine, from this epoch's reports.
        let residents: Vec<ResidentVm> = reports
            .iter()
            .filter(|r| r.pm_id == pm)
            .map(|r| ResidentVm {
                vm_id: r.vm_id,
                counters: r.counters,
                behavior: BehaviorVector::from_counters(&r.counters),
                demand: r.demand.clone(),
                vcpus: 2,
            })
            .collect();
        if residents.len() < 2 {
            events.push(EpochEvent::MigrationSkipped {
                vm: victim.vm_id,
                reason: "no co-located VM to migrate away".to_string(),
            });
            return events;
        }
        // Candidate destinations: every other machine, each with its own
        // hardware model and its residents' latest demands, so predictions
        // run against the destination's actual spec.
        let candidates: Vec<CandidateMachine> = cluster
            .machines()
            .iter()
            .filter(|m| m.id != pm && !self.refuses_placements(m.id, epoch))
            .map(|m| CandidateMachine {
                pm_id: m.id,
                spec: m.spec.clone(),
                resident_demands: reports
                    .iter()
                    .filter(|r| r.pm_id == m.id)
                    .map(|r| r.demand.clone())
                    .collect(),
                free_cores: m.free_cores(),
            })
            .collect();
        if candidates.is_empty() {
            events.push(EpochEvent::MigrationSkipped {
                vm: victim.vm_id,
                reason: "no candidate destination machine".to_string(),
            });
            return events;
        }

        // Train the synthetic benchmark lazily, once per server type: the
        // mimic inverts behaviours observed on the afflicted machine, so it
        // is trained on that machine's model.  With a worker pool attached
        // the sample resolves ride the pool; the fitted model is
        // bit-identical either way (use `pretrain_benchmarks` to move this
        // cost out of the episode entirely).
        let host_spec = self.host_spec(cluster, pm);
        if !self.synthetic.contains_key(&host_spec.name) {
            let samples = self.config.synthetic_training_samples;
            let seed = self.config.seed;
            let benchmark = match &self.pool {
                Some(pool) => {
                    SyntheticBenchmark::train_with_pool(host_spec.clone(), samples, seed, pool)
                }
                None => SyntheticBenchmark::train(host_spec.clone(), samples, seed),
            };
            self.synthetic.insert(host_spec.name.clone(), benchmark);
        }
        let benchmark = self
            .synthetic
            .get(&host_spec.name)
            .expect("benchmark trained above");

        let decision = self
            .placement
            .decide(&residents, culprit, pm, &candidates, benchmark);
        match decision.destination {
            Some(destination) => {
                // A transiently failing migration (the fault plane's
                // per-(vm, epoch) stream) is retried with backoff, like a
                // full destination below — never silently dropped.
                let transient_failure = self
                    .fault_plane
                    .is_some_and(|plane| plane.migration_fails(decision.vm_to_migrate, epoch));
                if transient_failure {
                    events.push(EpochEvent::MigrationSkipped {
                        vm: decision.vm_to_migrate,
                        reason: "transient migration failure".to_string(),
                    });
                    events.extend(self.schedule_migration_retry(
                        victim.vm_id,
                        culprit,
                        attempt,
                        epoch,
                    ));
                    return events;
                }
                match cluster.migrate(decision.vm_to_migrate, destination) {
                    Ok(_cost) => {
                        self.stats.migrations += 1;
                        events.push(EpochEvent::Migrated {
                            vm: decision.vm_to_migrate,
                            from: pm,
                            to: destination,
                            culprit,
                        });
                    }
                    Err(ClusterError::NoCapacity { .. }) => {
                        events.push(EpochEvent::MigrationSkipped {
                            vm: decision.vm_to_migrate,
                            reason: "destination ran out of capacity".to_string(),
                        });
                        events.extend(self.schedule_migration_retry(
                            victim.vm_id,
                            culprit,
                            attempt,
                            epoch,
                        ));
                    }
                    Err(e) => {
                        events.push(EpochEvent::MigrationSkipped {
                            vm: decision.vm_to_migrate,
                            reason: e.to_string(),
                        });
                    }
                }
            }
            None => {
                events.push(EpochEvent::MigrationSkipped {
                    vm: decision.vm_to_migrate,
                    reason: "every candidate destination would interfere too much".to_string(),
                });
            }
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudsim::{ClusterSeed, EpochEngine, Scheduler};
    use hwsim::MachineSpec;
    use workloads::{ClientEmulator, DataServing, MemoryStress};

    fn serving_vm(id: u64, app: u64) -> cloudsim::Vm {
        cloudsim::Vm::new(
            VmId(id),
            Box::new(DataServing::with_defaults(AppId(app))),
            ClientEmulator::new(8_000.0, 4.0),
        )
    }

    fn aggressor_vm(id: u64) -> cloudsim::Vm {
        cloudsim::Vm::new(
            VmId(id),
            Box::new(MemoryStress::new(AppId(900), 512.0)),
            ClientEmulator::new(1.0, 1.0),
        )
    }

    /// Builds the controller the recommended way: fleet derived from the
    /// cluster's machine models (one pool per model), never hard-coded.
    fn controller(auto_migrate: bool, cluster: &Cluster) -> DeepDive {
        let config = DeepDiveConfig {
            auto_migrate,
            synthetic_training_samples: 80,
            ..Default::default()
        };
        DeepDive::for_cluster(config, cluster)
    }

    /// Runs `epochs` epochs through `engine` and returns all events.
    fn run(
        cluster: &mut Cluster,
        deepdive: &mut DeepDive,
        engine: &EpochEngine,
        epochs: usize,
        load: f64,
    ) -> Vec<EpochEvent> {
        let mut events = Vec::new();
        for _ in 0..epochs {
            let reports = engine.step(cluster, |_| load);
            events.extend(deepdive.process_epoch(cluster, &reports));
        }
        events
    }

    #[test]
    fn bootstrap_learns_then_goes_quiet() {
        let mut cluster = Cluster::homogeneous(1, MachineSpec::xeon_x5472(), Scheduler::default());
        cluster.place_on(PmId(0), serving_vm(1, 1)).unwrap();
        let mut dd = controller(false, &cluster);
        let engine = EpochEngine::serial(ClusterSeed::new(2));
        run(&mut cluster, &mut dd, &engine, 60, 0.8);
        let stats = dd.stats();
        assert!(
            stats.analyzer_invocations >= 1,
            "bootstrap must invoke the analyzer"
        );
        assert!(
            stats.interference_confirmed == 0,
            "no interference was present"
        );
        assert!(
            !dd.in_conservative_mode(AppId(1)),
            "clusters should be learned by now"
        );
        // Once learned, further quiet epochs must not trigger the analyzer.
        let before = dd.stats().analyzer_invocations;
        run(&mut cluster, &mut dd, &engine, 40, 0.8);
        let after = dd.stats().analyzer_invocations;
        assert!(
            after - before <= 1,
            "learned behaviour keeps firing the analyzer"
        );
    }

    #[test]
    fn injected_interference_is_detected_and_mitigated() {
        let mut cluster = Cluster::homogeneous(2, MachineSpec::xeon_x5472(), Scheduler::default());
        cluster.place_on(PmId(0), serving_vm(1, 1)).unwrap();
        let mut dd = controller(true, &cluster);
        let engine = EpochEngine::serial(ClusterSeed::new(3));
        // Learn normal behaviour first.
        run(&mut cluster, &mut dd, &engine, 50, 0.8);
        let confirmed_before = dd.stats().interference_confirmed;
        // Inject a cache aggressor next to the victim.
        cluster.place_on(PmId(0), aggressor_vm(99)).unwrap();
        let events = run(&mut cluster, &mut dd, &engine, 40, 0.8);
        let stats = dd.stats();
        assert!(
            stats.interference_confirmed > confirmed_before,
            "interference was never confirmed: {stats:?}"
        );
        // The aggressor (most aggressive on the culprit resource) must have
        // been migrated to the idle machine.
        let migrated = events.iter().any(|e| matches!(e, EpochEvent::Migrated { vm, to, .. } if *vm == VmId(99) && *to == PmId(1)));
        assert!(migrated, "aggressor was not migrated: {events:?}");
        assert_eq!(cluster.locate(VmId(99)), Some(PmId(1)));
        assert_eq!(cluster.locate(VmId(1)), Some(PmId(0)));
    }

    #[test]
    fn profiling_time_accumulates_only_when_analyzer_runs() {
        let mut cluster = Cluster::homogeneous(1, MachineSpec::xeon_x5472(), Scheduler::default());
        cluster.place_on(PmId(0), serving_vm(1, 1)).unwrap();
        let mut dd = controller(false, &cluster);
        let engine = EpochEngine::serial(ClusterSeed::new(4));
        run(&mut cluster, &mut dd, &engine, 40, 0.8);
        let after_learning = dd.stats().profiling_seconds;
        assert!(after_learning > 0.0);
        run(&mut cluster, &mut dd, &engine, 40, 0.8);
        let later = dd.stats().profiling_seconds;
        // Nearly flat once normal behaviour is known (Fig. 12's plateau).
        assert!(later - after_learning <= after_learning * 0.5 + 1e-9);
    }

    #[test]
    fn global_information_suppresses_analyses_for_shared_load_changes() {
        // Nine VMs of the same app across machines; a qualitative load shift
        // hits all of them at once.  With global information the analyzer
        // should be invoked far fewer times than nine.
        let mut cluster = Cluster::homogeneous(5, MachineSpec::xeon_x5472(), Scheduler::default());
        for i in 0..9 {
            cluster.place_first_fit(serving_vm(i, 1)).unwrap();
        }
        let mut dd = controller(false, &cluster);
        let engine = EpochEngine::serial(ClusterSeed::new(5));
        run(&mut cluster, &mut dd, &engine, 40, 0.8);
        let before = dd.stats();
        // A qualitative change: load jumps for every instance simultaneously.
        run(&mut cluster, &mut dd, &engine, 10, 0.3);
        let after = dd.stats();
        assert!(
            after.global_matches > before.global_matches
                || after.analyzer_invocations - before.analyzer_invocations < 9,
            "global information had no effect: {after:?}"
        );
    }

    #[test]
    fn a_sandbox_outage_defers_then_degrades_instead_of_analyzing() {
        use cloudsim::faults::{FaultConfig, FaultPlane};

        let mut cluster = Cluster::homogeneous(1, MachineSpec::xeon_x5472(), Scheduler::default());
        cluster.place_on(PmId(0), serving_vm(1, 1)).unwrap();
        let mut dd = controller(false, &cluster);
        // The pool is down every epoch: analyses can never run, so the
        // controller must wait out the deferral window and then degrade.
        dd.set_fault_plane(FaultPlane::new(
            3,
            FaultConfig {
                sandbox_outage_per_epoch: 1.0,
                outage_epochs: (1, 1),
                ..FaultConfig::disabled()
            },
        ));
        let engine = EpochEngine::serial(ClusterSeed::new(2));
        let mut events = Vec::new();
        for _ in 0..60 {
            let reports = engine.step(&mut cluster, |_| 0.8);
            events.extend(dd.process_epoch(&mut cluster, &reports));
        }
        let stats = dd.stats();
        assert_eq!(
            stats.analyzer_invocations, 0,
            "never analyze against a downed pool"
        );
        assert!(
            stats.analyses_deferred >= 1,
            "warnings must defer: {stats:?}"
        );
        assert!(
            stats.degraded_decisions >= 1,
            "deadlines must degrade: {stats:?}"
        );
        assert!(events
            .iter()
            .any(|e| matches!(e, EpochEvent::AnalysisDeferred { vm, .. } if *vm == VmId(1))));
        assert!(events
            .iter()
            .any(|e| matches!(e, EpochEvent::AnalysisDegraded { vm } if *vm == VmId(1))));
    }

    #[test]
    fn failed_migrations_retry_with_backoff_until_the_budget_runs_out() {
        use cloudsim::faults::{FaultConfig, FaultPlane};

        let mut cluster = Cluster::homogeneous(2, MachineSpec::xeon_x5472(), Scheduler::default());
        cluster.place_on(PmId(0), serving_vm(1, 1)).unwrap();
        let mut dd = controller(true, &cluster);
        // Every migration attempt fails transiently: the episode must back
        // off through the retry budget and then give up loudly.
        dd.set_fault_plane(FaultPlane::new(
            9,
            FaultConfig {
                migration_failure: 1.0,
                ..FaultConfig::disabled()
            },
        ));
        let engine = EpochEngine::serial(ClusterSeed::new(3));
        run(&mut cluster, &mut dd, &engine, 50, 0.8);
        cluster.place_on(PmId(0), aggressor_vm(99)).unwrap();
        let events = run(&mut cluster, &mut dd, &engine, 40, 0.8);
        let stats = dd.stats();
        assert!(stats.interference_confirmed >= 1, "{stats:?}");
        assert_eq!(stats.migrations, 0, "no migration can succeed: {events:?}");
        assert!(
            stats.migration_retries >= 1,
            "failures must be retried: {stats:?}"
        );
        assert!(
            events.iter().any(|e| matches!(
                e,
                EpochEvent::MigrationSkipped { reason, .. }
                    if reason == "migration retry budget exhausted"
            )),
            "budget exhaustion must be reported: {events:?}"
        );
        assert_eq!(cluster.locate(VmId(99)), Some(PmId(0)), "nothing moved");
    }

    #[test]
    fn mitigation_never_lands_on_a_draining_machine() {
        use cloudsim::faults::{FaultConfig, FaultPlane};

        // Drains only, with a notice longer than the run.  Scan fault seeds
        // for one under which machine 1 is draining from before the
        // aggressor arrives to the end of the run while machines 0 and 2
        // stay up and undrained.
        const EPOCHS: u64 = 90;
        let config = FaultConfig {
            machine_drain_per_epoch: 0.01,
            drain_notice_epochs: 1_000,
            ..FaultConfig::disabled()
        };
        let untouched = |plane: &FaultPlane, pm: PmId| {
            (0..EPOCHS).all(|e| !plane.machine_draining(pm, e) && !plane.machine_down(pm, e))
        };
        let plane = (0..10_000)
            .map(|seed| FaultPlane::new(seed, config))
            .find(|plane| {
                (40..EPOCHS).all(|e| plane.machine_draining(PmId(1), e))
                    && untouched(plane, PmId(0))
                    && untouched(plane, PmId(2))
            })
            .expect("some seed drains machine 1 alone");

        let mut cluster = Cluster::homogeneous(3, MachineSpec::xeon_x5472(), Scheduler::default());
        cluster.place_on(PmId(0), serving_vm(1, 1)).unwrap();
        let mut dd = controller(true, &cluster);
        dd.set_fault_plane(plane);
        let engine = EpochEngine::serial(ClusterSeed::new(3));
        run(&mut cluster, &mut dd, &engine, 50, 0.8);
        cluster.place_on(PmId(0), aggressor_vm(99)).unwrap();
        let events = run(&mut cluster, &mut dd, &engine, 40, 0.8);
        assert!(
            !events
                .iter()
                .any(|e| matches!(e, EpochEvent::Migrated { to, .. } if *to == PmId(1))),
            "migrated onto the draining machine: {events:?}"
        );
        assert_eq!(cluster.locate(VmId(99)), Some(PmId(2)), "{events:?}");
    }

    #[test]
    fn a_disabled_fault_plane_leaves_the_controller_unchanged() {
        use cloudsim::faults::{FaultConfig, FaultPlane};

        let run_once = |attach_disabled_plane: bool| {
            let mut cluster =
                Cluster::homogeneous(2, MachineSpec::xeon_x5472(), Scheduler::default());
            cluster.place_on(PmId(0), serving_vm(1, 1)).unwrap();
            let mut dd = controller(true, &cluster);
            if attach_disabled_plane {
                dd.set_fault_plane(FaultPlane::new(55, FaultConfig::disabled()));
            }
            let engine = EpochEngine::serial(ClusterSeed::new(3));
            let mut events = run(&mut cluster, &mut dd, &engine, 50, 0.8);
            cluster.place_on(PmId(0), aggressor_vm(99)).unwrap();
            events.extend(run(&mut cluster, &mut dd, &engine, 30, 0.8));
            (events, dd.stats(), cluster.locate(VmId(99)))
        };
        assert_eq!(run_once(false), run_once(true));
    }

    #[test]
    fn stats_start_at_zero() {
        let cluster = Cluster::homogeneous(1, MachineSpec::xeon_x5472(), Scheduler::default());
        let dd = controller(true, &cluster);
        assert_eq!(dd.stats(), DeepDiveStats::default());
        assert!(dd.repository().known_apps().is_empty());
        assert!(dd.profiling_seconds_by_pool().all(|(_, s)| s == 0.0));
    }

    #[test]
    fn for_cluster_derives_one_pool_per_machine_model() {
        let mixed = Cluster::heterogeneous(
            &[
                (MachineSpec::xeon_x5472(), 2),
                (MachineSpec::core_i7_nehalem(), 2),
            ],
            Scheduler::default(),
        );
        let dd = DeepDive::for_cluster(DeepDiveConfig::default(), &mixed);
        let fleet = dd.sandbox_fleet();
        assert_eq!(fleet.pools().len(), 2);
        for machine in mixed.machines() {
            assert!(
                fleet.pool_for(&machine.spec).is_some(),
                "no pool for {}",
                machine.spec.name
            );
        }
        // The uniform constructor keeps hard-coding possible but explicit.
        let uniform = DeepDive::new(DeepDiveConfig::default(), cloudsim::Sandbox::xeon_pool(4));
        assert!(uniform.sandbox_fleet().is_uniform());
    }

    #[test]
    fn pooled_controller_run_is_bit_identical_to_serial() {
        use cloudsim::ExecutionMode;

        // Three apps across three machines plus an aggressor, long enough to
        // cover bootstrap, multi-app refits, confirmed interference, lazy
        // benchmark training and migration — the full control plane.
        let build = || {
            let mut cluster =
                Cluster::homogeneous(4, MachineSpec::xeon_x5472(), Scheduler::default());
            for i in 0..5 {
                cluster
                    .place_first_fit(serving_vm(i, 1 + i % 3))
                    .expect("room");
            }
            // First-fit packs two VMs per machine, so PM 2 has one slot
            // left for the aggressor and PM 3 stays free as a destination.
            cluster.place_on(PmId(2), aggressor_vm(99)).unwrap();
            cluster
        };

        let serial_engine = EpochEngine::serial(ClusterSeed::new(5));
        let mut serial_cluster = build();
        let mut serial_dd = controller(true, &serial_cluster);
        let serial_events = run(&mut serial_cluster, &mut serial_dd, &serial_engine, 50, 0.8);

        let pooled_engine =
            EpochEngine::new(ClusterSeed::new(5), ExecutionMode::Pooled { threads: 3 });
        let mut pooled_cluster = build();
        let mut pooled_dd = controller(true, &pooled_cluster);
        pooled_dd.use_worker_pool(Arc::clone(
            pooled_engine.worker_pool().expect("pooled engine"),
        ));
        pooled_dd.pretrain_benchmarks(&pooled_cluster);
        let pooled_events = run(&mut pooled_cluster, &mut pooled_dd, &pooled_engine, 50, 0.8);

        assert_eq!(serial_events, pooled_events, "event streams diverged");
        assert_eq!(serial_dd.stats(), pooled_dd.stats(), "stats diverged");
        assert_eq!(
            serial_cluster.locate(VmId(99)),
            pooled_cluster.locate(VmId(99)),
            "final placements diverged"
        );
    }

    #[test]
    fn profiling_time_is_accounted_against_the_matching_pool() {
        // One i7-hosted tenant on a mixed cluster: every analysis must book
        // its profiling seconds against the i7 pool, none against the Xeon
        // pool, and no spec fallbacks may occur.
        let mut cluster = Cluster::heterogeneous(
            &[
                (MachineSpec::xeon_x5472(), 1),
                (MachineSpec::core_i7_nehalem(), 1),
            ],
            Scheduler::default(),
        );
        cluster.place_on(PmId(1), serving_vm(1, 1)).unwrap();
        let mut dd = controller(false, &cluster);
        let engine = EpochEngine::serial(ClusterSeed::new(7));
        run(&mut cluster, &mut dd, &engine, 40, 0.8);
        let stats = dd.stats();
        assert!(stats.analyzer_invocations >= 1);
        assert_eq!(stats.sandbox_spec_fallbacks, 0);
        let by_pool: Vec<(String, f64)> = dd
            .profiling_seconds_by_pool()
            .map(|(name, s)| (name.to_string(), s))
            .collect();
        let i7 = MachineSpec::core_i7_nehalem();
        let total: f64 = by_pool.iter().map(|(_, s)| s).sum();
        assert!((total - stats.profiling_seconds).abs() < 1e-9);
        for (name, seconds) in &by_pool {
            if *name == i7.name {
                assert!(*seconds > 0.0, "i7 pool never used: {by_pool:?}");
            } else {
                assert_eq!(*seconds, 0.0, "wrong pool charged: {by_pool:?}");
            }
        }
    }
    #[test]
    fn streams_are_identical_across_insertion_orders() {
        // Two controllers over byte-identical clusters, but with their
        // per-model synthetic benchmarks inserted in opposite orders
        // (xeon→i7 vs i7→xeon) and the tenants placed in opposite orders.
        // If any control-plane decision leaked map insertion/iteration
        // order — the bug class the `synthetic` BTreeMap and the sorted
        // `apps_scratch` rebuild exist to prevent — the event or stat
        // streams would diverge.
        let xeon = MachineSpec::xeon_x5472();
        let i7 = MachineSpec::core_i7_nehalem();
        let build = |reversed: bool| {
            let mut cluster =
                Cluster::heterogeneous(&[(xeon.clone(), 1), (i7.clone(), 1)], Scheduler::default());
            let placements = [(PmId(0), 1u64, 1u64), (PmId(1), 2, 2)];
            let order: Vec<_> = if reversed {
                placements.iter().rev().collect()
            } else {
                placements.iter().collect()
            };
            for &&(pm, vm, app) in &order {
                cluster.place_on(pm, serving_vm(vm, app)).unwrap();
            }
            cluster
        };
        let xeon_only = Cluster::homogeneous(1, xeon.clone(), Scheduler::default());
        let i7_only = Cluster::homogeneous(1, i7.clone(), Scheduler::default());
        let config = DeepDiveConfig {
            auto_migrate: true,
            synthetic_training_samples: 80,
            ..Default::default()
        };

        let mut cluster_a = build(false);
        let mut dd_a = DeepDive::for_cluster(config.clone(), &cluster_a);
        dd_a.pretrain_benchmarks(&xeon_only);
        dd_a.pretrain_benchmarks(&i7_only);

        let mut cluster_b = build(true);
        let mut dd_b = DeepDive::for_cluster(config, &cluster_b);
        dd_b.pretrain_benchmarks(&i7_only);
        dd_b.pretrain_benchmarks(&xeon_only);

        let engine_a = EpochEngine::serial(ClusterSeed::new(11));
        let engine_b = EpochEngine::serial(ClusterSeed::new(11));
        let mut events_a = run(&mut cluster_a, &mut dd_a, &engine_a, 50, 0.8);
        let mut events_b = run(&mut cluster_b, &mut dd_b, &engine_b, 50, 0.8);
        // Inject the same aggressor into both and keep going: confirmed
        // interference, migration planning and refits all replay the same
        // decision path over the differently-populated internal maps.
        cluster_a.place_on(PmId(0), aggressor_vm(99)).unwrap();
        cluster_b.place_on(PmId(0), aggressor_vm(99)).unwrap();
        events_a.extend(run(&mut cluster_a, &mut dd_a, &engine_a, 40, 0.8));
        events_b.extend(run(&mut cluster_b, &mut dd_b, &engine_b, 40, 0.8));

        assert_eq!(events_a, events_b, "event streams diverged");
        assert_eq!(dd_a.stats(), dd_b.stats(), "stats diverged");
        assert_eq!(
            cluster_a.locate(VmId(99)),
            cluster_b.locate(VmId(99)),
            "final placements diverged"
        );
    }
}

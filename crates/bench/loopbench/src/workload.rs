//! The three closed-loop workloads and one episode of each.
//!
//! An episode generates its inputs from the seed, builds the system, then
//! runs a fixed number of simulated epochs.  Each epoch is one closed-loop
//! step — the service (or the engine) steps the fleet, the controller
//! processes the reports, its migrations feed back — and is timed from the
//! first call into the system to the return of the last one.  Consuming
//! the outputs (digest, counters) happens outside that window.
//!
//! * `mailfarm` — Hotmail sessions (diurnal Poisson arrivals, Zipf α = 1.8
//!   over 500 apps), spread placement, no faults.  A few apps own most VMs,
//!   so the controller's same-app peer gathering dominates; idle tails make
//!   machines quiescent, so the engine's replay path runs too.
//! * `tenant-churn` — EC2 sessions (bursty lognormal arrivals, loads
//!   0.3–0.9), every VM its own app (no global information), with a mixed
//!   fault plane.  Peer work is zero; bootstrap analyses, fault sweeps and
//!   evacuation placement dominate.
//! * `interference` — a fixed Data Serving / Web Search / Data Analytics
//!   tenant fleet with the paper's paired stress aggressors injected on
//!   random hosts for bounded episodes, auto-migrate on.  The only workload
//!   that confirms interference, so detection, placement, synthetic
//!   training and migration are measured here.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use cloudsim::service::{DatacenterService, ServiceConfig};
use cloudsim::{
    Cluster, ClusterSeed, EpochEngine, ExecutionMode, FaultConfig, FaultPlane, PmId, Scheduler,
    Topology, Vm, VmEpochReport, VmId,
};
use deepdive::controller::{DeepDive, DeepDiveConfig, EpochEvent};
use deepdive::warning::WarningConfig;
use hwsim::{MachineSpec, EPOCH_SECONDS};
use traces::{InterferenceSchedule, LoadTrace, VmSession};
use workloads::{
    AppId, ClientEmulator, DataAnalytics, DataServing, DiskStress, MemoryStress, NetworkStress,
    WebSearch, Workload as AppWorkload,
};

use crate::gate::{Check, Digest};
use crate::trace::Tracer;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Hotmail sessions, concentrated apps, spread placement, no faults.
    Mailfarm,
    /// EC2 sessions, one app per VM, mixed fault plane.
    TenantChurn,
    /// Fixed tenant fleet with injected stress aggressors.
    Interference,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::Mailfarm,
        Workload::TenantChurn,
        Workload::Interference,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Mailfarm => "mailfarm",
            Workload::TenantChurn => "tenant-churn",
            Workload::Interference => "interference",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How big one episode is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Size {
    /// Physical machines.
    pub machines: usize,
    /// Closed-loop epochs per episode.
    pub epochs: u64,
    /// Service workloads: sessions offered.  A fixed count, so every seed
    /// offers the same amount of work.
    pub sessions: usize,
    /// Service workloads: the preset's arrival rate per day of session
    /// time, which with the preset's lifetimes sets how many VMs are
    /// resident at once.
    pub arrivals_per_day: f64,
    /// Service workloads: epochs the sessions' arrivals are scaled to
    /// span; lifetimes scale by the same factor, and the epochs after it
    /// are the lifetimes' tails.
    pub arrival_epochs: f64,
    /// Interference: epochs per day of the load trace and the aggressor
    /// schedules.
    pub epochs_per_day: f64,
    /// Interference: aggressor slots, each an independent episode
    /// schedule with at most one aggressor active at a time.
    pub aggressor_slots: usize,
}

impl Size {
    /// The measured size.
    pub fn full(workload: Workload) -> Self {
        match workload {
            Workload::Mailfarm => Self {
                machines: 1000,
                epochs: 1200,
                sessions: 16_000,
                arrivals_per_day: 16_000.0,
                arrival_epochs: 800.0,
                epochs_per_day: 0.0,
                aggressor_slots: 0,
            },
            Workload::TenantChurn => Self {
                machines: 1000,
                epochs: 1200,
                sessions: 14_000,
                arrivals_per_day: 14_000.0,
                arrival_epochs: 800.0,
                epochs_per_day: 0.0,
                aggressor_slots: 0,
            },
            Workload::Interference => Self {
                machines: 384,
                epochs: 1200,
                sessions: 0,
                arrivals_per_day: 0.0,
                arrival_epochs: 0.0,
                epochs_per_day: 200.0,
                aggressor_slots: 48,
            },
        }
    }

    /// A tiny size for smoke runs and the benchmark's own tests.
    pub fn smoke(workload: Workload) -> Self {
        let full = Self::full(workload);
        match workload {
            Workload::Mailfarm | Workload::TenantChurn => Self {
                machines: 24,
                epochs: 160,
                sessions: full.sessions * 24 / full.machines,
                arrivals_per_day: full.arrivals_per_day * 24.0 / full.machines as f64,
                arrival_epochs: 100.0,
                ..full
            },
            Workload::Interference => Self {
                machines: 12,
                epochs: 200,
                epochs_per_day: 100.0,
                aggressor_slots: 3,
                ..full
            },
        }
    }
}

/// Host time of each set-up step.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SetupTimes {
    /// `traces` generators plus the benchmark's transformations.
    pub generate: Duration,
    /// `DatacenterService::new` plus its engine and fault plane.
    pub service_new: Duration,
    /// Fixed fleet construction (`interference` only).
    pub cluster_new: Duration,
    /// `DeepDive::for_cluster` plus its pool and fault plane.
    pub controller_new: Duration,
}

impl SetupTimes {
    /// Total set-up time.
    pub fn total(&self) -> Duration {
        self.generate + self.service_new + self.cluster_new + self.controller_new
    }
}

/// Counters accumulated from the outputs, outside the timed window.
#[derive(Debug, Clone, Default)]
pub struct Accounting {
    /// Digest of every report and event so far.
    pub digest: Digest,
    /// Epochs stepped.
    pub epochs: u64,
    /// Reports seen (one per resident VM per epoch).
    pub vm_epochs: u64,
    /// Σ over reports with activity of the same-app reports beside them:
    /// the peers the global-information check gathers.
    pub peer_pairs: u64,
    /// Σ over epochs of the distinct apps reporting.
    pub apps_reporting: u64,
    /// `Analyzed` events.
    pub analyzed: u64,
    /// `Analyzed` events that confirmed interference.
    pub confirmed: u64,
    /// `Migrated` events.
    pub migrated: u64,
    /// `MigrationSkipped` events.
    pub skipped: u64,
    /// `AnalysisDeferred` events.
    pub deferred: u64,
    /// `AnalysisDegraded` events.
    pub degraded: u64,
    /// Σ of the analyses' sandbox seconds.
    pub profiling_s: f64,
    /// Per epoch: did the controller run at least one analysis?
    pub analysis_epochs: Vec<bool>,
    app_counts: HashMap<u64, u64>,
}

impl Accounting {
    fn record(&mut self, reports: &[VmEpochReport], events: &[EpochEvent]) {
        self.digest.reports(reports);
        self.digest.events(events);
        self.epochs += 1;
        self.vm_epochs += reports.len() as u64;
        self.app_counts.clear();
        for r in reports {
            *self.app_counts.entry(r.app.0).or_default() += 1;
        }
        self.apps_reporting += self.app_counts.len() as u64;
        for r in reports {
            // The controller skips idle reports before gathering peers.
            if r.counters.inst_retired > 0.0 {
                self.peer_pairs += self.app_counts[&r.app.0] - 1;
            }
        }
        let mut analysis = false;
        for event in events {
            match event {
                EpochEvent::Analyzed { result, .. } => {
                    analysis = true;
                    self.analyzed += 1;
                    self.confirmed += u64::from(result.interference_confirmed);
                    self.profiling_s += result.profiling_seconds;
                }
                EpochEvent::Migrated { .. } => self.migrated += 1,
                EpochEvent::MigrationSkipped { .. } => self.skipped += 1,
                EpochEvent::AnalysisDeferred { .. } => self.deferred += 1,
                EpochEvent::AnalysisDegraded { .. } => self.degraded += 1,
            }
        }
        self.analysis_epochs.push(analysis);
    }
}

/// What an episode's end state says, beyond the per-epoch accounting.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Simulated per-layer counters, by metric name.
    pub counters: Vec<(&'static str, f64)>,
    /// Operations the workload attempted: sessions due, or aggressor
    /// episodes.
    pub ops_attempted: u64,
    /// Operations that failed: sessions abandoned or still parked at the
    /// end, or aggressor episodes never detected.
    pub ops_failed: u64,
    /// Correctness checks on the end state.
    pub checks: Vec<Check>,
}

/// The system under test, ready to step.
pub enum Loop {
    /// `mailfarm` and `tenant-churn`.
    Service(Box<ServiceLoop>),
    /// `interference`.
    Interference(Box<InterferenceLoop>),
}

/// The datacenter service with the controller on top.
pub struct ServiceLoop {
    service: DatacenterService,
    controller: DeepDive,
    /// Session arrival instants, sorted, for counting sessions due.
    arrivals_s: Vec<f64>,
}

/// A fixed tenant fleet with aggressor episodes.
pub struct InterferenceLoop {
    cluster: Cluster,
    engine: EpochEngine,
    controller: DeepDive,
    load: LoadTrace,
    epochs_per_hour: f64,
    tenants: Vec<(VmId, Tenant)>,
    plan: Vec<PlannedEpisode>,
    next_planned: usize,
    active: Vec<ActiveAggressor>,
    epoch: u64,
    placed: u64,
    removed: u64,
    /// Started episodes: was interference confirmed on a tenant sharing
    /// the aggressor's host while it was active?
    detected: Vec<bool>,
    /// Analyses of VMs whose host had no active aggressor.
    false_alarms: u64,
}

#[derive(Debug, Clone, Copy)]
enum Tenant {
    DataServing,
    WebSearch,
    DataAnalytics,
}

#[derive(Debug, Clone, Copy)]
struct PlannedEpisode {
    start: u64,
    end: u64,
    victim_hint: usize,
    intensity: f64,
}

#[derive(Debug, Clone, Copy)]
struct ActiveAggressor {
    vm: VmId,
    end: u64,
    episode: usize,
}

/// VM ids at or above this are aggressors.
const AGGRESSOR_BASE: u64 = 1 << 40;

/// Machines per rack and racks per power domain for the fault and spread
/// topologies: 100 machines behind one power feed.
const TOPOLOGY: Topology = Topology::new(20, 5);

/// The `tenant-churn` fault plane: every fault family at once — machine
/// crashes, rack and power-domain outages, maintenance drains, transient
/// migration failures and sandbox outages.
fn mixed_faults() -> FaultConfig {
    FaultConfig {
        topology: TOPOLOGY,
        machine_crash_per_epoch: 0.001,
        repair_epochs: (4, 12),
        rack_outage_per_epoch: 0.0005,
        rack_outage_epochs: (4, 12),
        domain_outage_per_epoch: 0.0002,
        domain_outage_epochs: (2, 6),
        machine_drain_per_epoch: 0.001,
        drain_notice_epochs: 8,
        maintenance_epochs: (4, 12),
        migration_failure: 0.08,
        sandbox_outage_per_epoch: 0.002,
        outage_epochs: (8, 24),
    }
}

/// Derives a sub-seed for one input stream.
fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Generates exactly `size.sessions` sessions and scales session time so
/// their arrivals span `size.arrival_epochs` epochs.
fn sessions(workload: Workload, size: Size, seed: u64) -> Vec<VmSession> {
    let (count, rate) = (size.sessions, size.arrivals_per_day);
    // Diurnal thinning and bursty gaps deliver fewer sessions than the
    // rate, so start from three times the nominal horizon (enough for
    // every seed tried) and widen it until enough arrived.
    let mut days = 3.0 * count as f64 / rate;
    let mut sessions = loop {
        let sessions = match workload {
            Workload::Mailfarm => traces::hotmail_sessions(rate, days, seed),
            _ => traces::ec2_sessions(rate, days, seed),
        };
        if sessions.len() >= count {
            break sessions;
        }
        days *= 2.0;
    };
    sessions.truncate(count);
    let last = sessions.last().map_or(1.0, |s| s.arrival_s.max(1.0));
    let scale = size.arrival_epochs * EPOCH_SECONDS / last;
    for (i, s) in sessions.iter_mut().enumerate() {
        s.arrival_s *= scale;
        s.lifetime_s *= scale;
        if workload == Workload::TenantChurn {
            // No global information: every VM runs an app of its own.
            s.app_rank = i + 1;
        }
    }
    sessions
}

/// Generates the inputs and builds the system for one episode.
pub fn setup(workload: Workload, size: Size, seed: u64, mode: ExecutionMode) -> (Loop, SetupTimes) {
    match workload {
        Workload::Mailfarm | Workload::TenantChurn => setup_service(workload, size, seed, mode),
        Workload::Interference => setup_interference(size, seed, mode),
    }
}

fn setup_service(
    workload: Workload,
    size: Size,
    seed: u64,
    mode: ExecutionMode,
) -> (Loop, SetupTimes) {
    let mut times = SetupTimes::default();
    let t = Instant::now();
    let sessions = sessions(workload, size, sub_seed(seed, 1));
    let arrivals_s: Vec<f64> = sessions.iter().map(|s| s.arrival_s).collect();
    times.generate = t.elapsed();

    let t = Instant::now();
    let mut config = ServiceConfig::xeon_fleet(size.machines, sub_seed(seed, 2));
    if workload == Workload::Mailfarm {
        config = config.with_spread(TOPOLOGY);
    }
    let cluster_seed = config.seed;
    let mut service = DatacenterService::new(config, sessions);
    *service.engine_mut() = EpochEngine::new(cluster_seed, mode);
    let plane = (workload == Workload::TenantChurn)
        .then(|| FaultPlane::new(sub_seed(seed, 3), mixed_faults()));
    if let Some(plane) = plane {
        service.set_fault_plane(plane);
    }
    times.service_new = t.elapsed();

    let t = Instant::now();
    let config = DeepDiveConfig {
        seed: sub_seed(seed, 4),
        spread_topology: (workload == Workload::Mailfarm).then_some(TOPOLOGY),
        ..DeepDiveConfig::default()
    };
    let mut controller = DeepDive::for_cluster(config, service.cluster());
    if let Some(pool) = service.engine().worker_pool() {
        controller.use_worker_pool(pool.clone());
    }
    if let Some(plane) = plane {
        controller.set_fault_plane(plane);
    }
    times.controller_new = t.elapsed();

    let state = ServiceLoop {
        service,
        controller,
        arrivals_s,
    };
    (Loop::Service(Box::new(state)), times)
}

fn setup_interference(size: Size, seed: u64, mode: ExecutionMode) -> (Loop, SetupTimes) {
    let mut times = SetupTimes::default();
    let t = Instant::now();
    let days = (size.epochs as f64 / size.epochs_per_day).ceil().max(1.0) as usize;
    let load = LoadTrace::diurnal(days, 0.3, 0.9, sub_seed(seed, 5));
    let epoch_of = |s: u64| (s as f64 * size.epochs_per_day / 86_400.0) as u64;
    let mut plan = Vec::new();
    for slot in 0..size.aggressor_slots as u64 {
        // Four episodes per slot per day, each two to four hours long.
        let schedule = InterferenceSchedule::generate(
            days,
            4,
            2 * 3_600,
            4 * 3_600,
            sub_seed(seed, 100 + slot),
        );
        for (i, e) in schedule.episodes.iter().enumerate() {
            let start = epoch_of(e.start_s);
            let end = epoch_of(e.end_s()).max(start + 1);
            if start >= size.epochs {
                continue;
            }
            plan.push(PlannedEpisode {
                start,
                end,
                victim_hint: sub_seed(seed, (slot << 32) | i as u64) as usize,
                intensity: e.intensity,
            });
        }
    }
    plan.sort_by_key(|p| (p.start, p.end, p.victim_hint));
    times.generate = t.elapsed();

    let t = Instant::now();
    let mut cluster = Cluster::homogeneous(
        size.machines,
        MachineSpec::xeon_x5472(),
        Scheduler::default(),
    );
    // One tenant per machine: every host has room for an aggressor, and
    // co-location (hence interference) comes only from aggressors and the
    // controller's own migrations.
    let mut tenants = Vec::with_capacity(size.machines);
    for i in 0..size.machines {
        let kind = [
            Tenant::DataServing,
            Tenant::WebSearch,
            Tenant::DataAnalytics,
        ][i % 3];
        let id = VmId(i as u64);
        cluster
            .place_on(PmId(i as u64), tenant_vm(id, kind))
            .expect("an empty machine admits a tenant");
        tenants.push((id, kind));
    }
    let engine = EpochEngine::new(ClusterSeed::new(sub_seed(seed, 6)), mode);
    times.cluster_new = t.elapsed();

    let t = Instant::now();
    let config = DeepDiveConfig {
        analysis_window: 4,
        analysis_cooldown: 5,
        confirmed_cooldown: 15,
        performance_threshold: 0.12,
        warning: WarningConfig {
            min_behaviors_for_clustering: 8,
            ..WarningConfig::default()
        },
        seed: sub_seed(seed, 4),
        ..DeepDiveConfig::default()
    };
    let mut controller = DeepDive::for_cluster(config, &cluster);
    if let Some(pool) = engine.worker_pool() {
        controller.use_worker_pool(pool.clone());
    }
    times.controller_new = t.elapsed();

    let state = InterferenceLoop {
        cluster,
        engine,
        controller,
        load,
        epochs_per_hour: size.epochs_per_day / 24.0,
        tenants,
        plan,
        next_planned: 0,
        active: Vec::new(),
        epoch: 0,
        placed: 0,
        removed: 0,
        detected: Vec::new(),
        false_alarms: 0,
    };
    (Loop::Interference(Box::new(state)), times)
}

fn tenant_vm(id: VmId, kind: Tenant) -> Vm {
    let (workload, client): (Box<dyn AppWorkload>, _) = match kind {
        Tenant::DataServing => (
            Box::new(DataServing::with_defaults(AppId(1))),
            ClientEmulator::new(8_000.0, 4.0),
        ),
        Tenant::WebSearch => (
            Box::new(WebSearch::with_defaults(AppId(2))),
            ClientEmulator::new(1_200.0, 25.0),
        ),
        Tenant::DataAnalytics => (
            Box::new(DataAnalytics::worker(AppId(3))),
            ClientEmulator::new(40.0, 400.0),
        ),
    };
    Vm::new(id, workload, client)
}

/// The stress VM the paper pairs with a victim (§5.3): memory stress for
/// Data Serving, disk stress for Web Search, network stress for Data
/// Analytics, at an intensity mapped onto the paper's sweeps.
fn aggressor_vm(id: VmId, victim: Tenant, intensity: f64) -> Vm {
    let x = (0.5 + 0.5 * intensity).clamp(0.0, 1.0);
    let workload: Box<dyn AppWorkload> = match victim {
        Tenant::DataServing => Box::new(MemoryStress::new(AppId(900), 6.0 + x * (512.0 - 6.0))),
        Tenant::DataAnalytics => Box::new(NetworkStress::new(AppId(901), 50.0 + x * 650.0)),
        Tenant::WebSearch => Box::new(DiskStress::new(AppId(902), 1.0 + x * 9.0)),
    };
    Vm::new(id, workload, ClientEmulator::new(1.0, 1.0))
}

impl Loop {
    /// One closed-loop epoch: every call into the system, with a span
    /// around each layer call when tracing.
    pub fn step(&mut self, tracer: &mut Tracer) -> (Vec<VmEpochReport>, Vec<EpochEvent>) {
        match self {
            Loop::Service(s) => s.step(tracer),
            Loop::Interference(s) => s.step(tracer),
        }
    }

    /// Folds one epoch's outputs into the accounting (untimed).
    pub fn account(
        &mut self,
        reports: &[VmEpochReport],
        events: &[EpochEvent],
        acc: &mut Accounting,
    ) {
        acc.record(reports, events);
        if let Loop::Interference(s) = self {
            s.account(reports, events);
        }
    }

    /// Pool lanes the engine and controller share.
    pub fn lanes(&self) -> usize {
        let engine = match self {
            Loop::Service(s) => s.service.engine(),
            Loop::Interference(s) => &s.engine,
        };
        engine.worker_pool().map_or(1, |p| p.lanes())
    }

    /// Checks the end state and reads the simulated counters.
    pub fn finish(&self, acc: &Accounting) -> Outcome {
        let mut outcome = match self {
            Loop::Service(s) => s.finish(acc),
            Loop::Interference(s) => s.finish(acc),
        };
        let (controller, cluster) = match self {
            Loop::Service(s) => (&s.controller, s.service.cluster()),
            Loop::Interference(s) => (&s.controller, &s.cluster),
        };
        let stats = controller.stats();
        outcome.checks.extend([
            Check::equal(
                "controller_analyses_match_events",
                stats.analyzer_invocations,
                acc.analyzed,
            ),
            Check::equal(
                "controller_confirmed_match_events",
                stats.interference_confirmed,
                acc.confirmed,
            ),
            Check::equal(
                "controller_migrations_match_events",
                stats.migrations,
                acc.migrated,
            ),
            Check::equal(
                "controller_deferrals_match_events",
                stats.analyses_deferred,
                acc.deferred,
            ),
            Check::equal(
                "controller_degraded_match_events",
                stats.degraded_decisions,
                acc.degraded,
            ),
            Check::close(
                "controller_profiling_matches_events",
                stats.profiling_seconds,
                acc.profiling_s,
            ),
        ]);
        let resolved = cluster.total_resolves();
        let quiescent = cluster.total_quiescent_steps();
        let pct = |part: u64, whole: u64| {
            if whole == 0 {
                0.0
            } else {
                100.0 * part as f64 / whole as f64
            }
        };
        outcome.counters.extend([
            ("engine.resolved_machine_epochs", resolved as f64),
            ("engine.quiescent_machine_epochs", quiescent as f64),
            (
                "engine.quiescent_share",
                pct(quiescent, resolved + quiescent) / 100.0,
            ),
            ("controller.analyses", acc.analyzed as f64),
            ("controller.confirm_pct", pct(acc.confirmed, acc.analyzed)),
            ("controller.peer_pairs", acc.peer_pairs as f64),
            (
                "controller.apps_reporting",
                acc.apps_reporting as f64 / acc.epochs.max(1) as f64,
            ),
            ("controller.migrations", stats.migrations as f64),
            ("controller.migration_skips", acc.skipped as f64),
            ("controller.deferred", stats.analyses_deferred as f64),
            ("controller.degraded", stats.degraded_decisions as f64),
            (
                "controller.migration_retries",
                stats.migration_retries as f64,
            ),
            ("controller.profiling_s", stats.profiling_seconds),
        ]);
        outcome
    }
}

impl ServiceLoop {
    fn step(&mut self, tracer: &mut Tracer) -> (Vec<VmEpochReport>, Vec<EpochEvent>) {
        tracer.begin("service.step_epoch");
        let reports = self.service.step_epoch();
        tracer.end();
        tracer.begin("controller.process_epoch");
        let events = self
            .controller
            .process_epoch(self.service.cluster_mut(), &reports);
        tracer.end();
        for event in &events {
            if let EpochEvent::Migrated { from, .. } = event {
                self.service.note_capacity_freed(*from);
            }
        }
        (reports, events)
    }

    fn finish(&self, acc: &Accounting) -> Outcome {
        let stats = self.service.stats();
        // Events up to the last stepped epoch's boundary have been applied.
        let last_boundary = acc.epochs.saturating_sub(1) as f64 * EPOCH_SECONDS;
        let due = self.arrivals_s.partition_point(|&t| t <= last_boundary) as u64;
        let resident = self.service.cluster().vm_count() as u64;
        let parked = self.service.parked() as u64;
        let failed = stats.abandonments + parked;
        let retry_success = if stats.retries == 0 {
            0.0
        } else {
            100.0 * stats.retry_admissions as f64 / stats.retries as f64
        };
        Outcome {
            counters: vec![
                ("service.evacuations", stats.evacuations as f64),
                ("service.drain_migrations", stats.drain_migrations as f64),
                ("service.retries", stats.retries as f64),
                ("service.retry_success_pct", retry_success),
                ("service.abandonments", stats.abandonments as f64),
                // No aggressors: every analysis is a false alarm by Fig. 8's
                // definition, and there is no episode to detect.
                ("controller.episodes", 0.0),
                ("controller.detection_pct", 0.0),
                (
                    "controller.false_alarm_pct",
                    if acc.analyzed == 0 { 0.0 } else { 100.0 },
                ),
            ],
            ops_attempted: due,
            ops_failed: failed,
            checks: vec![
                Check::audit("service_audit_clean", &self.service.audit()),
                Check::equal(
                    "sessions_conserved",
                    due,
                    stats.departures + resident + parked + stats.abandonments,
                ),
                Check::equal("vm_epochs_match_reports", stats.vm_epochs, acc.vm_epochs),
                Check::equal("no_placement_errors", stats.placement_errors, 0),
            ],
        }
    }
}

impl InterferenceLoop {
    fn step(&mut self, tracer: &mut Tracer) -> (Vec<VmEpochReport>, Vec<EpochEvent>) {
        tracer.begin("cluster.churn");
        self.churn();
        tracer.end();
        let load = self
            .load
            .load_at_hour((self.epoch as f64 / self.epochs_per_hour) as usize);
        tracer.begin("engine.step");
        let reports = self.engine.step(&mut self.cluster, |vm| {
            if vm.0 >= AGGRESSOR_BASE {
                1.0
            } else {
                load
            }
        });
        tracer.end();
        tracer.begin("controller.process_epoch");
        let events = self.controller.process_epoch(&mut self.cluster, &reports);
        tracer.end();
        self.epoch += 1;
        (reports, events)
    }

    /// Ends expired episodes and starts due ones.  A due episode lands
    /// next to the first tenant, from its hinted one on, whose host has a
    /// free slot and no aggressor yet.
    fn churn(&mut self) {
        let epoch = self.epoch;
        let mut i = 0;
        while i < self.active.len() {
            if self.active[i].end <= epoch {
                let ended = self.active.swap_remove(i);
                self.cluster
                    .remove_vm(ended.vm)
                    .expect("an active aggressor is resident");
                self.removed += 1;
            } else {
                i += 1;
            }
        }
        while let Some(planned) = self.plan.get(self.next_planned).copied() {
            if planned.start > epoch {
                break;
            }
            self.next_planned += 1;
            let busy: Vec<PmId> = self
                .active
                .iter()
                .filter_map(|a| self.cluster.locate(a.vm))
                .collect();
            let n = self.tenants.len();
            let target = (0..n)
                .map(|k| self.tenants[(planned.victim_hint + k) % n])
                .find_map(|(vm, kind)| {
                    let host = self.cluster.locate(vm)?;
                    let free = self.cluster.machine(host)?.free_cores() >= 2;
                    (free && !busy.contains(&host)).then_some((host, kind))
                });
            let Some((host, kind)) = target else {
                continue;
            };
            let episode = self.detected.len();
            let vm = VmId(AGGRESSOR_BASE + episode as u64);
            self.cluster
                .place_on(host, aggressor_vm(vm, kind, planned.intensity))
                .expect("the host was checked for a free slot");
            self.placed += 1;
            self.detected.push(false);
            self.active.push(ActiveAggressor {
                vm,
                end: planned.end,
                episode,
            });
        }
    }

    /// Scores detections and false alarms against this epoch's aggressor
    /// hosts, read from the reports themselves.
    fn account(&mut self, reports: &[VmEpochReport], events: &[EpochEvent]) {
        let aggressor_hosts: Vec<(PmId, usize)> = self
            .active
            .iter()
            .filter_map(|a| {
                let report = reports.iter().rev().find(|r| r.vm_id == a.vm)?;
                Some((report.pm_id, a.episode))
            })
            .collect();
        for event in events {
            let EpochEvent::Analyzed { vm, result, .. } = event else {
                continue;
            };
            let Some(host) = reports.iter().find(|r| r.vm_id == *vm).map(|r| r.pm_id) else {
                continue;
            };
            let episode = aggressor_hosts
                .iter()
                .find(|(h, _)| *h == host)
                .map(|&(_, e)| e);
            match episode {
                None => self.false_alarms += 1,
                Some(e) if result.interference_confirmed && vm.0 < AGGRESSOR_BASE => {
                    self.detected[e] = true;
                }
                Some(_) => {}
            }
        }
    }

    fn finish(&self, acc: &Accounting) -> Outcome {
        let episodes = self.detected.len() as u64;
        let detected = self.detected.iter().filter(|&&d| d).count() as u64;
        let tenants_resident = self
            .tenants
            .iter()
            .filter(|(vm, _)| self.cluster.locate(*vm).is_some())
            .count() as u64;
        let pct = |part: u64, whole: u64| {
            if whole == 0 {
                0.0
            } else {
                100.0 * part as f64 / whole as f64
            }
        };
        Outcome {
            counters: vec![
                ("controller.episodes", episodes as f64),
                ("controller.detection_pct", pct(detected, episodes)),
                (
                    "controller.false_alarm_pct",
                    pct(self.false_alarms, acc.analyzed),
                ),
            ],
            ops_attempted: episodes,
            ops_failed: episodes - detected,
            checks: vec![
                Check::audit(
                    "cluster_audit_clean",
                    &cloudsim::audit::check_cluster(&self.cluster),
                ),
                Check::equal(
                    "vms_conserved",
                    self.cluster.vm_count() as u64,
                    self.tenants.len() as u64 + self.placed - self.removed,
                ),
                Check::equal(
                    "tenants_resident",
                    tenants_resident,
                    self.tenants.len() as u64,
                ),
            ],
        }
    }
}

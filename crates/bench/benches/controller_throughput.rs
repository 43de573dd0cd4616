//! Control-plane throughput: warning-path evaluations/sec through the
//! generation-checked, warm-started [`WarningSystem`] versus the pre-refactor
//! cold-refit baseline.
//!
//! The warning system is the paper's "cheap, always-on" first line (§4.1):
//! every VM is evaluated every epoch, and the per-application cluster models
//! must track a repository that keeps growing as behaviours are verified.
//! Before this refactor the controller called `refresh_model` once per VM
//! per epoch, every call cloned the application's entire behaviour store,
//! and any repository growth triggered a full 100-iteration EM fit from a
//! k-means++ start.  The rebuilt path refreshes once per application per
//! epoch, short-circuits in O(1) on an unchanged repository generation,
//! borrows the store instead of cloning it, and warm-starts refits from the
//! previous model (with a periodic cold refit bounding drift).
//!
//! The bench replays that exact contrast on 256- and 1024-VM fleets whose
//! repository gains one verified behaviour per epoch (so every epoch
//! invalidates one application's model): the *cold baseline* is a frozen
//! copy of the seed refresh/evaluate path, the *generation+warm* path is the
//! live `WarningSystem` driven the way the controller now drives it.  Both
//! include their refresh cost in the measured evaluations/sec.  A separate
//! measurement reports the per-refresh cost (µs) of warm-started vs cold
//! refits on a grown repository.
//!
//! A third section measures the **refit fan-out**: refits/sec through
//! [`WarningSystem::refresh_models`] when every application's repository
//! generation changed in the same epoch — the serial per-app loop versus
//! the same sweep scattered over a persistent [`WorkerPool`] (the way the
//! controller drives it when handed a pool).  The pooled sweep is
//! bit-identical to the serial one (pinned by
//! `tests/warning_equivalence.rs`), so these rows isolate pure scheduling
//! cost vs multi-core win.
//!
//! Results are printed as a table and dumped to `BENCH_controller.json` at
//! the workspace root (with `available_parallelism`, following the
//! `BENCH_cluster.json` caveat convention).  Fan-out rows claiming more
//! threads than the runner has cores carry `"overhead_only": true` —
//! `check_bench_json` enforces the flag.  `--smoke` (the CI step) shrinks
//! the measurement budget.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use analytics::constrained::{fit_constrained, ConstrainedModel};
use cloudsim::WorkerPool;
use criterion::{criterion_group, Criterion};
use deepdive::metrics::{BehaviorVector, DIMENSIONS};
use deepdive::repository::BehaviorRepository;
use deepdive::warning::{WarningConfig, WarningDecision, WarningSystem};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use workloads::AppId;

/// Verified behaviours per application seeded before the measured run: deep
/// enough that the baseline's per-VM store clone is the realistic size of a
/// long-running cluster's history.
const SEED_HISTORY: usize = 200;

/// Repository capacity: large enough that the grown history never saturates
/// it (a saturated store freezes the baseline's length-based staleness check,
/// which would let the baseline skip refits it owes).
const REPOSITORY_CAPACITY: usize = 4096;

/// Frozen copy of the pre-refactor warning-system refresh/evaluate path (the
/// seed's `WarningSystem` + the controller's per-VM `refresh_model` call):
/// clones the application's behaviour store by value on every refresh,
/// re-extracts the labelled points, compares entry *counts* for staleness
/// and re-fits from scratch (100 EM iterations, k-means++ start) whenever
/// the repository grew.  This is the baseline the generation+warm-start
/// path is measured against.
struct ColdWarningSystem {
    config: WarningConfig,
    models: HashMap<u64, ConstrainedModel>,
    fitted_on: HashMap<u64, usize>,
}

impl ColdWarningSystem {
    fn new(config: WarningConfig) -> Self {
        Self {
            config,
            models: HashMap::new(),
            fitted_on: HashMap::new(),
        }
    }

    fn refresh_model(&mut self, app: AppId, repository: &BehaviorRepository) {
        // The pre-refactor `BehaviorRepository::behaviors` returned the
        // store by value; the clone is part of the measured baseline.
        let behaviors = repository.behaviors(app).clone();
        let n = behaviors.len();
        if n < self.config.min_behaviors_for_clustering {
            self.models.remove(&app.0);
            self.fitted_on.remove(&app.0);
            return;
        }
        if self.fitted_on.get(&app.0) == Some(&n) {
            return;
        }
        let model = fit_constrained(
            &behaviors.labelled(),
            self.config.clusters_per_app,
            self.config.sigma_multiplier,
            self.config.seed ^ app.0,
        );
        self.models.insert(app.0, model);
        self.fitted_on.insert(app.0, n);
    }

    fn evaluate(&self, app: AppId, behavior: &BehaviorVector) -> WarningDecision {
        let Some(model) = self.models.get(&app.0) else {
            return WarningDecision::Bootstrap;
        };
        // The seed path allocated a fresh Vec per evaluation.
        if model.accepts(&behavior.to_vec()) {
            return WarningDecision::NormalLocal;
        }
        WarningDecision::SuspectInterference
    }
}

/// Cluster center of an application in the metric space: distinct operating
/// points per app, all dimensions positive.
fn app_center(app: usize) -> [f64; DIMENSIONS] {
    let mut center = [0.0; DIMENSIONS];
    for (d, slot) in center.iter_mut().enumerate() {
        *slot = 0.8 + 0.37 * (app % 7) as f64 + 0.21 * d as f64;
    }
    center
}

/// A behaviour near (`spread` ≈ 0.01) or far (`spread` ≥ 4) from the app's
/// center.
fn behavior_near(app: usize, spread: f64, rng: &mut StdRng) -> BehaviorVector {
    let mut values = app_center(app);
    for v in values.iter_mut() {
        let factor = 1.0 + spread * rng.gen_range(-1.0..1.0);
        *v = (*v * factor).abs().max(1e-3);
    }
    BehaviorVector::from_vec(&values)
}

/// One fleet configuration plus everything a measured round consumes.
struct Workbench {
    apps: usize,
    /// Per-VM evaluation behaviours (VM `i` runs app `i % apps`); mostly
    /// inliers with a sprinkling of outliers so both decision branches run.
    stream: Vec<BehaviorVector>,
    /// Fresh behaviours fed to the repository, one per epoch, rotating
    /// through the apps.
    growth: Vec<BehaviorVector>,
}

impl Workbench {
    fn build(vms: usize, apps: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(vms as u64);
        let stream = (0..vms)
            .map(|i| {
                let spread = if i % 64 == 63 { 4.0 } else { 0.01 };
                behavior_near(i % apps, spread, &mut rng)
            })
            .collect();
        let growth = (0..1024)
            .map(|e| behavior_near(e % apps, 0.01, &mut rng))
            .collect();
        Self {
            apps,
            stream,
            growth,
        }
    }

    /// A freshly seeded repository: `SEED_HISTORY` verified normals plus two
    /// labelled interference points per application.
    fn repository(&self) -> BehaviorRepository {
        let mut repo = BehaviorRepository::with_capacity(REPOSITORY_CAPACITY);
        for app in 0..self.apps {
            let mut rng = StdRng::seed_from_u64(7919 * app as u64 + 1);
            for e in 0..SEED_HISTORY {
                repo.record_normal(
                    AppId(app as u64),
                    behavior_near(app, 0.01, &mut rng),
                    e as u64,
                );
            }
            for e in 0..2 {
                repo.record_interference(
                    AppId(app as u64),
                    behavior_near(app, 5.0, &mut rng),
                    (SEED_HISTORY + e) as u64,
                );
            }
        }
        repo
    }
}

/// Runs `epoch` once per round for at least `budget`; each round performs
/// one repository growth plus a full fleet sweep (refresh + `vms`
/// evaluations).  Returns evaluations/sec including the refresh cost.
fn measure_evals_per_sec<F: FnMut(u64)>(vms: usize, budget: Duration, mut epoch: F) -> f64 {
    epoch(0); // Warm-up: fit the initial models outside the timed window.
    let start = Instant::now();
    let mut rounds = 0u64;
    while start.elapsed() < budget {
        epoch(rounds + 1);
        rounds += 1;
    }
    vms as f64 * rounds as f64 / start.elapsed().as_secs_f64()
}

struct Measurement {
    vms: usize,
    apps: usize,
    path: &'static str,
    evals_per_sec: f64,
    speedup: f64,
}

fn run_measurements(budget: Duration) -> Vec<Measurement> {
    let mut results = Vec::new();
    for (vms, apps) in [(256usize, 8usize), (1024, 16)] {
        let bench = Workbench::build(vms, apps);

        // Generation + warm-start path, driven the way the controller now
        // drives it: one refresh per app per epoch, then the fleet sweep.
        let mut repo = bench.repository();
        let mut warm = WarningSystem::new(WarningConfig::default());
        let mut decisions = 0usize;
        let warm_rate = measure_evals_per_sec(vms, budget, |round| {
            let growth = &bench.growth[(round as usize) % bench.growth.len()];
            repo.record_normal(AppId(round % apps as u64), *growth, round);
            for app in 0..apps {
                warm.refresh_model(AppId(app as u64), &repo);
            }
            for (i, behavior) in bench.stream.iter().enumerate() {
                let d = warm.evaluate(AppId((i % apps) as u64), behavior, &[]);
                decisions += d.triggers_analyzer() as usize;
            }
        });
        criterion::black_box(decisions);

        // Cold baseline: per-VM refresh (store clone each call) + full
        // from-scratch refit whenever the repository grew.
        let mut repo = bench.repository();
        let mut cold = ColdWarningSystem::new(WarningConfig::default());
        let mut decisions = 0usize;
        let cold_rate = measure_evals_per_sec(vms, budget, |round| {
            let growth = &bench.growth[(round as usize) % bench.growth.len()];
            repo.record_normal(AppId(round % apps as u64), *growth, round);
            for (i, behavior) in bench.stream.iter().enumerate() {
                let app = AppId((i % apps) as u64);
                cold.refresh_model(app, &repo);
                let d = cold.evaluate(app, behavior);
                decisions += d.triggers_analyzer() as usize;
            }
        });
        criterion::black_box(decisions);

        results.push(Measurement {
            vms,
            apps,
            path: "generation_warm",
            evals_per_sec: warm_rate,
            speedup: warm_rate / cold_rate,
        });
        results.push(Measurement {
            vms,
            apps,
            path: "cold_baseline",
            evals_per_sec: cold_rate,
            speedup: 1.0,
        });
    }
    results
}

/// One refit fan-out measurement: the sweep discipline, its lane count and
/// the achieved refit rate.
struct SweepMeasurement {
    apps: usize,
    sweep: String,
    threads: usize,
    refits_per_sec: f64,
    speedup_vs_serial: f64,
}

/// Refits/sec through [`WarningSystem::refresh_models`] when **every**
/// application's repository generation changed in the same epoch — the
/// worst-case sweep the controller can face.  `pool: None` is the serial
/// per-app loop; `Some(pool)` scatters the fits over the pool's lanes and
/// installs the results in input order (bit-identical results either way).
fn measure_refit_sweep_per_sec(apps: usize, pool: Option<&WorkerPool>, budget: Duration) -> f64 {
    let bench = Workbench::build(apps * 16, apps);
    let mut repo = bench.repository();
    let ids: Vec<AppId> = (0..apps as u64).map(AppId).collect();
    let mut ws = WarningSystem::new(WarningConfig::default());
    ws.refresh_models(&ids, &repo, pool); // Warm-up: initial cold fits.
    let mut rng = StdRng::seed_from_u64(0xFA4);
    let mut epoch = (SEED_HISTORY + 2) as u64;
    let start = Instant::now();
    let mut rounds = 0u64;
    while start.elapsed() < budget {
        for &app in &ids {
            repo.record_normal(app, behavior_near(app.0 as usize, 0.01, &mut rng), epoch);
            epoch += 1;
        }
        ws.refresh_models(&ids, &repo, pool);
        rounds += 1;
    }
    apps as f64 * rounds as f64 / start.elapsed().as_secs_f64()
}

fn run_sweep_measurements(budget: Duration) -> Vec<SweepMeasurement> {
    const SWEEP_APPS: usize = 16;
    let serial = measure_refit_sweep_per_sec(SWEEP_APPS, None, budget);
    let pool = WorkerPool::for_threads(4);
    let pooled = measure_refit_sweep_per_sec(SWEEP_APPS, Some(&pool), budget);
    vec![
        SweepMeasurement {
            apps: SWEEP_APPS,
            sweep: "serial".to_string(),
            threads: 1,
            refits_per_sec: serial,
            speedup_vs_serial: 1.0,
        },
        SweepMeasurement {
            apps: SWEEP_APPS,
            sweep: format!("pooled-{}", pool.lanes()),
            threads: pool.lanes(),
            refits_per_sec: pooled,
            speedup_vs_serial: pooled / serial,
        },
    ]
}

/// Per-refresh cost in µs on a grown repository: every iteration records one
/// behaviour (invalidating the model) and refreshes.  `cold_refit_interval:
/// 1` forces the cold path through the same `WarningSystem` API.
fn measure_refresh_cost_us(cold_refit_interval: u64, budget: Duration) -> f64 {
    let bench = Workbench::build(64, 1);
    let mut repo = bench.repository();
    let mut ws = WarningSystem::new(WarningConfig {
        cold_refit_interval,
        ..Default::default()
    });
    ws.refresh_model(AppId(0), &repo);
    let start = Instant::now();
    let mut refreshes = 0u64;
    while start.elapsed() < budget {
        let growth = &bench.growth[(refreshes as usize) % bench.growth.len()];
        repo.record_normal(AppId(0), *growth, refreshes);
        ws.refresh_model(AppId(0), &repo);
        refreshes += 1;
    }
    start.elapsed().as_secs_f64() * 1.0e6 / refreshes as f64
}

fn print_table(results: &[Measurement], sweeps: &[SweepMeasurement], warm_us: f64, cold_us: f64) {
    println!("# Controller throughput — generation+warm-start warning path vs cold-refit baseline");
    println!("vms,apps,path,evals_per_sec,speedup_vs_cold");
    for r in results {
        println!(
            "{},{},{},{:.0},{:.2}",
            r.vms, r.apps, r.path, r.evals_per_sec, r.speedup
        );
    }
    println!(
        "# refresh cost on a grown repository ({SEED_HISTORY}+ entries): \
         warm-started {warm_us:.0} us, cold {cold_us:.0} us per refit"
    );
    println!("# refit fan-out (every app invalidated per epoch)");
    println!("apps,sweep,threads,refits_per_sec,speedup_vs_serial");
    for s in sweeps {
        println!(
            "{},{},{},{:.0},{:.2}",
            s.apps, s.sweep, s.threads, s.refits_per_sec, s.speedup_vs_serial
        );
    }
}

/// Dumps the measurements to `BENCH_controller.json` at the workspace root so
/// successive PRs can track the control-plane trajectory.
fn dump_json(
    results: &[Measurement],
    sweeps: &[SweepMeasurement],
    warm_us: f64,
    cold_us: f64,
    smoke: bool,
) {
    let mut entries: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "  {{\"vms\": {}, \"apps\": {}, \"path\": \"{}\", \
                 \"evals_per_sec\": {:.0}, \"speedup_vs_cold\": {:.2}, {}}}",
                r.vms,
                r.apps,
                r.path,
                r.evals_per_sec,
                r.speedup,
                bench::dump::host_fields(1)
            )
        })
        .collect();
    for s in sweeps {
        entries.push(format!(
            "  {{\"apps\": {}, \"sweep\": \"{}\", \"threads\": {}, \
             \"refits_per_sec\": {:.0}, \"speedup_vs_serial\": {:.2}, {}}}",
            s.apps,
            s.sweep,
            s.threads,
            s.refits_per_sec,
            s.speedup_vs_serial,
            bench::dump::host_fields(s.threads)
        ));
    }
    entries.push(format!(
        "  {{\"refresh_warm_us\": {warm_us:.1}, \"refresh_cold_us\": {cold_us:.1}, \
         \"seed_history\": {SEED_HISTORY}, {}}}",
        bench::dump::host_fields(1)
    ));
    let json = format!("[\n{}\n]\n", entries.join(",\n"));
    bench::dump::write_dump("controller", smoke, &json);
}

fn bench_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("controller_throughput");
    group.sample_size(20);
    let bench = Workbench::build(256, 8);
    let repo = bench.repository();
    let mut ws = WarningSystem::new(WarningConfig::default());
    for app in 0..bench.apps {
        ws.refresh_model(AppId(app as u64), &repo);
    }
    group.bench_function("evaluate_256vms", |b| {
        b.iter(|| {
            let mut suspects = 0usize;
            for (i, behavior) in bench.stream.iter().enumerate() {
                let d = ws.evaluate(AppId((i % bench.apps) as u64), behavior, &[]);
                suspects += d.triggers_analyzer() as usize;
            }
            suspects
        })
    });
    group.bench_function("refresh_unchanged_generation_8apps", |b| {
        b.iter(|| {
            for app in 0..bench.apps {
                ws.refresh_model(AppId(app as u64), &repo);
            }
            ws.modeled_apps()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_kernel);

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let budget = if smoke {
        Duration::from_millis(20)
    } else {
        Duration::from_millis(400)
    };
    let results = run_measurements(budget);
    let sweeps = run_sweep_measurements(budget.min(Duration::from_millis(250)));
    let refresh_budget = budget.min(Duration::from_millis(150));
    let warm_us =
        measure_refresh_cost_us(WarningConfig::default().cold_refit_interval, refresh_budget);
    let cold_us = measure_refresh_cost_us(1, refresh_budget);
    print_table(&results, &sweeps, warm_us, cold_us);
    // Smoke runs dump too (to the .smoke.json sibling): CI validates the
    // freshly written file with `cargo run -p bench --bin check_bench_json`,
    // so a bench that breaks its own dump fails the build instead of
    // silently corrupting the cross-PR trajectory.
    dump_json(&results, &sweeps, warm_us, cold_us, smoke);
    benches();
}

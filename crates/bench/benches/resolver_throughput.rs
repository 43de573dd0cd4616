//! Resolver throughput: VMs resolved per second through the reusable
//! [`EpochResolver`] versus the pre-refactor allocating resolve path.
//!
//! This is the hot-path microbenchmark behind the ROADMAP's first scaling
//! item: every epoch of every simulated machine funnels through epoch
//! resolution, so the fleet size a simulation can sustain is directly
//! proportional to this number.  The bench resolves a fleet of machines at
//! 4, 16 and 64 VMs per machine, on homogeneous Xeon X5472 and Core
//! i7/Nehalem fleets and on a mixed fleet alternating the two specs, and
//! reports both paths plus their speedup.
//!
//! Besides the human-readable table (and the usual Criterion kernels), the
//! run dumps machine-readable numbers to `BENCH_resolver.json` at the
//! workspace root for trajectory tracking across PRs.  Passing `--smoke` (the
//! CI smoke step) shrinks the measurement budget to keep the run fast.

use std::time::{Duration, Instant};

use criterion::{criterion_group, Criterion};
use hwsim::cache::resolve_cache_group;
use hwsim::contention::{EpochOutcome, PlacedDemand, StallBreakdown};
use hwsim::core::core_cycles;
use hwsim::counters::CounterSnapshot;
use hwsim::disk::resolve_disk;
use hwsim::membus::resolve_bus;
use hwsim::nic::resolve_nic;
use hwsim::{EpochResolver, MachineSpec, ResourceDemand, CACHE_LINE_BYTES};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fraction of memory references that are loads — must match the resolver.
const LOAD_FRACTION: f64 = 0.7;

/// Frozen copy of the pre-refactor allocating resolve pipeline:
/// the baseline the reusable resolver is measured against.  (The same copy
/// backs the bit-identical equivalence proptest in
/// `crates/hwsim/tests/resolver_equivalence.rs`.)
fn allocating_resolve(
    spec: &MachineSpec,
    placements: &[PlacedDemand],
    epoch_seconds: f64,
) -> Vec<EpochOutcome> {
    if placements.is_empty() {
        return Vec::new();
    }

    let mut effective_mpki = vec![0.0_f64; placements.len()];
    for group in 0..spec.cache_groups() {
        let members: Vec<usize> = placements
            .iter()
            .enumerate()
            .filter(|(_, p)| p.cache_group == group)
            .map(|(i, _)| i)
            .collect();
        if members.is_empty() {
            continue;
        }
        let demands: Vec<&ResourceDemand> =
            members.iter().map(|&i| &placements[i].demand).collect();
        let outcomes = resolve_cache_group(spec.shared_cache_mb, &demands);
        for (slot, outcome) in members.iter().zip(outcomes) {
            effective_mpki[*slot] = outcome.effective_mpki;
        }
    }

    let llc_misses: Vec<f64> = placements
        .iter()
        .zip(&effective_mpki)
        .map(|(p, &mpki)| mpki / 1_000.0 * p.demand.instructions)
        .collect();
    let ifetch_misses: Vec<f64> = placements
        .iter()
        .map(|p| p.demand.ifetch_mpki / 1_000.0 * p.demand.instructions)
        .collect();
    let bus_traffic_mb: f64 = llc_misses
        .iter()
        .zip(&ifetch_misses)
        .map(|(&d, &i)| (d + i) * CACHE_LINE_BYTES / (1024.0 * 1024.0))
        .sum();
    let bus = resolve_bus(spec.memory_bandwidth_mbps, bus_traffic_mb, epoch_seconds);

    let demand_refs: Vec<&ResourceDemand> = placements.iter().map(|p| &p.demand).collect();
    let disk = resolve_disk(
        spec.disk_seq_mbps,
        spec.disk_rand_mbps,
        &demand_refs,
        epoch_seconds,
    );
    let nic = resolve_nic(spec.nic_mbps, &demand_refs, epoch_seconds);

    placements
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let d = &p.demand;
            let core = core_cycles(d.instructions, d.base_cpi, d.branch_mpki);

            let llc_accesses = d.l1_mpki / 1_000.0 * d.instructions;
            let llc_miss = llc_misses[i];
            let llc_hit = (llc_accesses - llc_miss).max(0.0);

            let llc_hit_cycles = llc_hit * spec.shared_cache_hit_cycles;
            let llc_miss_cycles = llc_miss * spec.memory_latency_cycles;
            let bus_queue_cycles = llc_miss * spec.memory_latency_cycles * bus.queueing_overhead();

            let parallelism = d.parallelism.max(1.0).min(p.vcpus as f64);
            let to_seconds = |cycles: f64| cycles / (spec.clock_hz * parallelism);

            let breakdown = StallBreakdown {
                core_seconds: to_seconds(core.total()),
                llc_miss_seconds: to_seconds(llc_hit_cycles + llc_miss_cycles),
                bus_queue_seconds: to_seconds(bus_queue_cycles),
                disk_seconds: disk[i].stall_seconds,
                net_seconds: nic[i].stall_seconds,
            };

            let needed = breakdown.total();
            let achieved_fraction = if needed <= 0.0 {
                1.0
            } else {
                (epoch_seconds / needed).min(1.0)
            };

            let f = achieved_fraction;
            let inst_retired = d.instructions * f;
            let cpu_cycles =
                (core.total() + llc_hit_cycles + llc_miss_cycles + bus_queue_cycles) * f;
            let counters = CounterSnapshot {
                cpu_unhalted: cpu_cycles,
                inst_retired,
                l1d_repl: llc_accesses * f,
                l2_ifetch: d.ifetch_mpki / 1_000.0 * d.instructions * f,
                l2_lines_in: llc_miss * f,
                mem_load: d.mem_refs_per_instr * inst_retired * LOAD_FRACTION,
                resource_stalls: (llc_hit_cycles + llc_miss_cycles + bus_queue_cycles) * f,
                bus_tran_any: (llc_miss + ifetch_misses[i]) * f,
                bus_trans_ifetch: ifetch_misses[i] * f,
                bus_tran_brd: llc_miss * f,
                bus_req_out: llc_miss * spec.memory_latency_cycles * bus.latency_multiplier * f,
                br_miss_pred: d.branch_mpki / 1_000.0 * inst_retired,
                disk_stall_seconds: disk[i].stall_seconds
                    * f.min(disk[i].completed_fraction).clamp(0.0, 1.0),
                net_stall_seconds: nic[i].stall_seconds
                    * f.min(nic[i].completed_fraction).clamp(0.0, 1.0),
            };

            EpochOutcome {
                vm_id: p.vm_id,
                counters,
                achieved_fraction,
                demanded_instructions: d.instructions,
                breakdown,
            }
        })
        .collect()
}

/// Builds a realistic placement mix for one machine: cache-friendly servers,
/// cache-thrashing aggressors and I/O-heavy VMs, packed two per cache group.
fn make_placements(spec: &MachineSpec, vms: usize, seed: u64) -> Vec<PlacedDemand> {
    let mut rng = StdRng::seed_from_u64(seed);
    let groups = spec.cache_groups().max(1);
    (0..vms)
        .map(|i| {
            let demand = match i % 3 {
                0 => ResourceDemand::builder()
                    .instructions(rng.gen_range(1.0e9..3.0e9))
                    .working_set_mb(rng.gen_range(2.0..10.0))
                    .l1_mpki(rng.gen_range(10.0..30.0))
                    .llc_mpki_solo(rng.gen_range(0.5..2.0))
                    .locality(0.6)
                    .parallelism(2.0)
                    .net_tx_mb(rng.gen_range(0.0..30.0))
                    .build(),
                1 => ResourceDemand::builder()
                    .instructions(rng.gen_range(1.0e9..4.0e9))
                    .working_set_mb(rng.gen_range(128.0..512.0))
                    .l1_mpki(rng.gen_range(30.0..60.0))
                    .llc_mpki_solo(rng.gen_range(10.0..35.0))
                    .locality(0.1)
                    .parallelism(2.0)
                    .build(),
                _ => ResourceDemand::builder()
                    .instructions(rng.gen_range(2.0e8..8.0e8))
                    .disk_read_mb(rng.gen_range(5.0..40.0))
                    .disk_seq_fraction(0.8)
                    .net_tx_mb(rng.gen_range(10.0..60.0))
                    .net_rx_mb(rng.gen_range(0.0..20.0))
                    .build(),
            };
            PlacedDemand::new(i as u64, demand, 2, (i / 2) % groups)
        })
        .collect()
}

/// One fleet configuration: a spec (and placements) per simulated machine.
struct Fleet {
    name: &'static str,
    machines: Vec<(MachineSpec, Vec<PlacedDemand>)>,
}

impl Fleet {
    fn build(name: &'static str, specs: &[MachineSpec], count: usize, vms: usize) -> Self {
        let machines = (0..count)
            .map(|m| {
                let spec = specs[m % specs.len()].clone();
                let placements = make_placements(&spec, vms, (vms * 1000 + m) as u64);
                (spec, placements)
            })
            .collect();
        Self { name, machines }
    }

    fn vms_per_epoch(&self) -> usize {
        self.machines.iter().map(|(_, p)| p.len()).sum()
    }
}

/// Runs `round` repeatedly for at least `budget`, returning VM resolutions
/// per second.  `round` resolves every machine in the fleet once.
fn measure_vms_per_sec<F: FnMut()>(vms_per_round: usize, budget: Duration, mut round: F) -> f64 {
    // Warm-up: grow scratch buffers and fault in code before timing.
    round();
    let start = Instant::now();
    let mut rounds = 0u64;
    while start.elapsed() < budget {
        round();
        rounds += 1;
    }
    let elapsed = start.elapsed().as_secs_f64();
    vms_per_round as f64 * rounds as f64 / elapsed
}

struct Measurement {
    fleet: &'static str,
    vms_per_machine: usize,
    reused_vms_per_sec: f64,
    alloc_vms_per_sec: f64,
}

impl Measurement {
    fn speedup(&self) -> f64 {
        self.reused_vms_per_sec / self.alloc_vms_per_sec
    }
}

fn run_measurements(budget: Duration) -> Vec<Measurement> {
    let xeon = MachineSpec::xeon_x5472();
    let i7 = MachineSpec::core_i7_nehalem();
    let mut results = Vec::new();
    // 1 VM/machine is the solo-resolve shape of sandbox replay and synthetic
    // training; 4 is the Xeon's real capacity with 2-vCPU VMs; 16 and 64
    // stress the resolver past physical density.
    for vms in [1usize, 4, 16, 64] {
        let fleets = [
            Fleet::build("xeon_x5472", std::slice::from_ref(&xeon), 32, vms),
            Fleet::build("core_i7_nehalem", std::slice::from_ref(&i7), 32, vms),
            Fleet::build("mixed", &[xeon.clone(), i7.clone()], 32, vms),
        ];
        for fleet in fleets {
            let vms_per_round = fleet.vms_per_epoch();

            // Reused path: one resolver and one outcome buffer per machine,
            // exactly how `cloudsim::pm::PhysicalMachine` holds them.
            let mut resolvers: Vec<(EpochResolver, Vec<EpochOutcome>)> = fleet
                .machines
                .iter()
                .map(|(spec, _)| (EpochResolver::new(spec.clone()), Vec::new()))
                .collect();
            let reused = measure_vms_per_sec(vms_per_round, budget, || {
                for ((_, placements), (resolver, out)) in
                    fleet.machines.iter().zip(resolvers.iter_mut())
                {
                    resolver.resolve_into(placements, 1.0, out);
                    criterion::black_box(out);
                }
            });

            // Baseline: the pre-refactor allocating pipeline per call.
            let alloc = measure_vms_per_sec(vms_per_round, budget, || {
                for (spec, placements) in fleet.machines.iter() {
                    criterion::black_box(allocating_resolve(spec, placements, 1.0));
                }
            });

            results.push(Measurement {
                fleet: fleet.name,
                vms_per_machine: vms,
                reused_vms_per_sec: reused,
                alloc_vms_per_sec: alloc,
            });
        }
    }
    results
}

fn print_table(results: &[Measurement]) {
    println!("# Resolver throughput — reusable EpochResolver vs allocating resolve");
    println!("fleet,vms_per_machine,reused_vms_per_sec,alloc_vms_per_sec,speedup");
    for r in results {
        println!(
            "{},{},{:.0},{:.0},{:.2}",
            r.fleet,
            r.vms_per_machine,
            r.reused_vms_per_sec,
            r.alloc_vms_per_sec,
            r.speedup()
        );
    }
}

/// Dumps the measurements to `BENCH_resolver.json` at the workspace root so
/// successive PRs can track the trajectory of this hot path.  The runner's
/// `available_parallelism` is recorded per row (as in the cluster and
/// controller dumps) so single-core container numbers are never mistaken
/// for multi-core ones; `cargo run -p bench --bin check_bench_json`
/// validates the dump in CI.
fn dump_json(results: &[Measurement], smoke: bool) {
    let entries: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "  {{\"fleet\": \"{}\", \"vms_per_machine\": {}, \
                 \"reused_vms_per_sec\": {:.0}, \"alloc_vms_per_sec\": {:.0}, \
                 \"speedup\": {:.2}, {}}}",
                r.fleet,
                r.vms_per_machine,
                r.reused_vms_per_sec,
                r.alloc_vms_per_sec,
                r.speedup(),
                bench::dump::host_fields(1)
            )
        })
        .collect();
    let json = format!("[\n{}\n]\n", entries.join(",\n"));
    bench::dump::write_dump("resolver", smoke, &json);
}

fn bench_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("resolver_throughput");
    group.sample_size(20);
    let spec = MachineSpec::xeon_x5472();
    let placements = make_placements(&spec, 16, 7);
    let mut resolver = EpochResolver::new(spec.clone());
    let mut out = Vec::new();
    group.bench_function("reused_xeon_16vms", |b| {
        b.iter(|| {
            resolver.resolve_into(&placements, 1.0, &mut out);
            out.len()
        })
    });
    group.bench_function("alloc_xeon_16vms", |b| {
        b.iter(|| allocating_resolve(&spec, &placements, 1.0).len())
    });
    group.finish();
}

criterion_group!(benches, bench_kernel);

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let budget = if smoke {
        Duration::from_millis(10)
    } else {
        Duration::from_millis(300)
    };
    let results = run_measurements(budget);
    print_table(&results);
    // Smoke runs dump too (to the .smoke.json sibling): CI validates the
    // freshly written file with `cargo run -p bench --bin check_bench_json`,
    // so a bench that breaks its own dump fails the build instead of
    // silently corrupting the cross-PR trajectory.
    dump_json(&results, smoke);
    benches();
}

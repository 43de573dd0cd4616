//! The VM-placement manager (§4.3).
//!
//! Once the analyzer confirms interference and names a culprit resource, the
//! placement manager:
//!
//! 1. selects the VM that uses the culprit resource most aggressively on the
//!    affected machine (the paper's default mitigation policy),
//! 2. runs a synthetic clone of that VM on every candidate destination
//!    machine — *without* migrating anything — to predict how much
//!    interference the move would cause there, and
//! 3. recommends the destination with the least predicted interference, or
//!    nothing if every candidate would be worse than an operator-set limit.
//!
//! Candidate evaluation works on the candidates' most recent per-VM demand
//! snapshots: placing the clone's demand next to them and resolving one
//! epoch of contention is exactly "running the benchmark for a short time on
//! another machine (with other VMs present)".
//!
//! Each [`CandidateMachine`] carries its own [`MachineSpec`], so on a
//! heterogeneous cluster the clone is evaluated against every destination's
//! *actual* hardware model — a memory-bus hog predicts far worse on an
//! FSB-attached Xeon than on a QuickPath i7, and the manager sees that.

use cloudsim::{PmId, Topology, VmId};
use hwsim::contention::PlacedDemand;
use hwsim::{CounterSnapshot, EpochResolver, MachineSpec, ResourceDemand};
use serde::{Deserialize, Serialize};

use crate::cpi_stack::Resource;
use crate::metrics::BehaviorVector;
use crate::synthetic::SyntheticBenchmark;

/// A VM on the interference-afflicted machine, as seen by the placement
/// manager: its latest counters (for the aggressiveness ranking) and its
/// latest behaviour (for the synthetic clone).
#[derive(Debug, Clone, PartialEq)]
pub struct ResidentVm {
    /// The VM.
    pub vm_id: VmId,
    /// Its most recent counter snapshot.
    pub counters: CounterSnapshot,
    /// Its most recent normalized behaviour.
    pub behavior: BehaviorVector,
    /// Its most recent intrinsic demand (used when the VM stays put and a
    /// clone is evaluated next to it).
    pub demand: ResourceDemand,
    /// vCPUs allocated to the VM.
    pub vcpus: usize,
}

/// A candidate destination machine.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateMachine {
    /// The machine.
    pub pm_id: PmId,
    /// The machine's hardware model — interference is predicted against the
    /// destination's own spec, not some fleet-wide constant.
    pub spec: MachineSpec,
    /// Latest demands of the VMs already hosted there.
    pub resident_demands: Vec<ResourceDemand>,
    /// Free cores available for the incoming VM.
    pub free_cores: usize,
}

/// Predicted outcome of migrating the aggressor to one candidate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CandidatePrediction {
    /// The candidate machine.
    pub pm_id: PmId,
    /// Predicted interference on the destination: the largest fractional
    /// slowdown among the clone and the VMs already resident there.
    pub predicted_interference: f64,
}

/// The placement manager's recommendation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementDecision {
    /// The VM selected for migration (most aggressive on the culprit).
    pub vm_to_migrate: VmId,
    /// The chosen destination, or `None` when every candidate would suffer
    /// more than the acceptable interference limit.
    pub destination: Option<PmId>,
    /// Predictions for every evaluated candidate (sorted by machine id).
    pub predictions: Vec<CandidatePrediction>,
}

/// The placement manager.
#[derive(Debug, Clone)]
pub struct PlacementManager {
    /// Maximum predicted interference the manager accepts at a destination.
    pub acceptable_interference: f64,
    /// Failure-domain spread preference: with `Some(topology)`, acceptable
    /// destinations in a *different* power domain than the afflicted
    /// machine win over same-domain ones (interference still breaks ties
    /// within each group).  `None` picks purely by predicted interference.
    pub spread: Option<Topology>,
}

impl PlacementManager {
    /// Creates a placement manager.  The manager is machine-model agnostic:
    /// every prediction resolves contention against the candidate machine's
    /// own [`MachineSpec`].
    ///
    /// # Panics
    /// Panics if the acceptable-interference limit is not a fraction in
    /// `(0, 1]`.
    pub fn new(acceptable_interference: f64) -> Self {
        assert!(
            acceptable_interference > 0.0 && acceptable_interference <= 1.0,
            "acceptable interference must be a fraction in (0, 1]"
        );
        Self {
            acceptable_interference,
            spread: None,
        }
    }

    /// Enables the failure-domain spread preference under `topology`.
    pub fn with_spread(mut self, topology: Topology) -> Self {
        self.spread = Some(topology);
        self
    }

    /// Ranks a VM's aggressiveness on a resource from its normalized
    /// behaviour.
    ///
    /// Normalizing by instructions retired matters here: when a shared
    /// resource saturates, every co-located VM ends up with roughly the same
    /// *absolute* throughput on that resource (they share it), so absolute
    /// counters cannot tell victim from culprit.  Per-instruction pressure
    /// can: the aggressor hammers the resource on every instruction it
    /// retires, the victim does not.
    pub fn aggressiveness(behavior: &BehaviorVector, resource: Resource) -> f64 {
        // Dimension indices follow `metrics::DIMENSION_NAMES`.
        match resource {
            Resource::Core => behavior.values[0],        // cpi
            Resource::CacheMemory => behavior.values[2], // llc_lines_in_pki
            Resource::MemoryBus => behavior.values[6],   // bus_outstanding_pki
            Resource::Disk => behavior.values[8],        // disk_stall_s_per_gi
            Resource::Network => behavior.values[9],     // net_stall_s_per_gi
        }
    }

    /// Selects the most aggressive VM on the culprit resource.
    ///
    /// # Panics
    /// Panics if `residents` is empty.
    pub fn select_aggressor(residents: &[ResidentVm], culprit: Resource) -> VmId {
        assert!(!residents.is_empty(), "no resident VMs to choose from");
        residents
            .iter()
            .max_by(|a, b| {
                Self::aggressiveness(&a.behavior, culprit)
                    .partial_cmp(&Self::aggressiveness(&b.behavior, culprit))
                    .expect("finite aggressiveness")
            })
            .map(|v| v.vm_id)
            .expect("non-empty residents")
    }

    /// Predicts the interference the aggressor's synthetic clone would cause
    /// on one candidate machine: place the clone next to the candidate's
    /// residents, resolve one epoch *on the candidate's own hardware model*,
    /// and report the worst fractional slowdown relative to each workload
    /// running uncontended there.
    ///
    /// `resolver` must be built for the candidate's machine model; callers
    /// scoring several candidates reuse one resolver per model, so every
    /// resolve after the first is allocation-free on the scratch side.
    ///
    /// # Panics
    /// Panics if `resolver` was built for a different machine spec than the
    /// candidate's.
    pub fn predict_on_candidate(
        &self,
        resolver: &mut EpochResolver,
        clone_demand: &ResourceDemand,
        clone_vcpus: usize,
        candidate: &CandidateMachine,
    ) -> f64 {
        let spec = &candidate.spec;
        assert!(
            resolver.spec() == spec,
            "resolver built for {:?}, candidate {} is a {:?}",
            resolver.spec().name,
            candidate.pm_id,
            spec.name
        );
        // Baselines: every demand resolved alone on an idle machine of the
        // candidate's model.
        let mut solo_fraction = |demand: &ResourceDemand, vcpus: usize| -> f64 {
            resolver.resolve(&[PlacedDemand::new(0, demand.clone(), vcpus, 0)])[0].achieved_fraction
        };

        let mut placements = Vec::with_capacity(candidate.resident_demands.len() + 1);
        let mut baselines = Vec::with_capacity(candidate.resident_demands.len() + 1);
        for (i, demand) in candidate.resident_demands.iter().enumerate() {
            placements.push(PlacedDemand::new(
                i as u64,
                demand.clone(),
                2,
                (i / 2) % spec.cache_groups().max(1),
            ));
            baselines.push(solo_fraction(demand, 2));
        }
        let clone_slot = placements.len();
        placements.push(PlacedDemand::new(
            u64::MAX,
            clone_demand.clone(),
            clone_vcpus,
            (clone_slot / 2) % spec.cache_groups().max(1),
        ));
        baselines.push(solo_fraction(clone_demand, clone_vcpus));

        let outcomes = resolver.resolve(&placements);
        outcomes
            .iter()
            .zip(&baselines)
            .map(|(o, &solo)| {
                if solo <= 0.0 {
                    0.0
                } else {
                    ((solo - o.achieved_fraction) / solo).max(0.0)
                }
            })
            .fold(0.0, f64::max)
    }

    /// Full placement decision for a confirmed interference case.
    ///
    /// * `residents` — the VMs on the afflicted machine.
    /// * `culprit` — the resource the analyzer blamed.
    /// * `source` — the afflicted machine itself (the migration source;
    ///   only consulted by the spread preference).
    /// * `candidates` — possible destination machines (the afflicted machine
    ///   itself must not be among them).
    /// * `benchmark` — the trained synthetic benchmark for this server type.
    pub fn decide(
        &self,
        residents: &[ResidentVm],
        culprit: Resource,
        source: PmId,
        candidates: &[CandidateMachine],
        benchmark: &SyntheticBenchmark,
    ) -> PlacementDecision {
        let aggressor_id = Self::select_aggressor(residents, culprit);
        let aggressor = residents
            .iter()
            .find(|r| r.vm_id == aggressor_id)
            .expect("aggressor is a resident");

        // Build the synthetic clone that mimics the aggressor at its
        // *demanded* work rate. The counters' inst_retired is throttled by
        // the very contention that triggered this decision, so pinning the
        // clone to it would underestimate the load the VM brings to an
        // uncontended destination.
        let clone_inputs = benchmark.mimic(&aggressor.behavior, aggressor.demand.instructions);
        let clone_demand = clone_inputs.demand();

        // One resolver per machine model among the candidates, reused
        // across every candidate of that model.
        let mut resolvers: Vec<EpochResolver> = Vec::new();
        let mut predictions: Vec<CandidatePrediction> = Vec::new();
        for c in candidates
            .iter()
            .filter(|c| c.free_cores >= aggressor.vcpus)
        {
            let index = match resolvers.iter().position(|r| r.spec() == &c.spec) {
                Some(index) => index,
                None => {
                    resolvers.push(EpochResolver::new(c.spec.clone()));
                    resolvers.len() - 1
                }
            };
            predictions.push(CandidatePrediction {
                pm_id: c.pm_id,
                predicted_interference: self.predict_on_candidate(
                    &mut resolvers[index],
                    &clone_demand,
                    aggressor.vcpus,
                    c,
                ),
            });
        }
        predictions.sort_by_key(|p| p.pm_id);

        let best_of = |preds: &mut dyn Iterator<Item = &CandidatePrediction>| {
            preds
                .min_by(|a, b| {
                    a.predicted_interference
                        .partial_cmp(&b.predicted_interference)
                        .expect("finite predictions")
                })
                .filter(|p| p.predicted_interference <= self.acceptable_interference)
                .map(|p| p.pm_id)
        };
        // With a spread topology, an acceptable destination outside the
        // source's power domain beats any same-domain one — the migration
        // doubles as a failure-domain spread move.  Fall back to the plain
        // minimum when no cross-domain candidate is acceptable.
        let destination = match &self.spread {
            Some(topology) => {
                let source_domain = topology.domain_of(source);
                best_of(
                    &mut predictions
                        .iter()
                        .filter(|p| topology.domain_of(p.pm_id) != source_domain),
                )
                .or_else(|| best_of(&mut predictions.iter()))
            }
            None => best_of(&mut predictions.iter()),
        };

        PlacementDecision {
            vm_to_migrate: aggressor_id,
            destination,
            predictions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwsim::ResourceDemand;
    use workloads::AppId;

    fn counters_with(llc: f64, net_stall: f64, disk_stall: f64) -> CounterSnapshot {
        CounterSnapshot {
            cpu_unhalted: 3.0e9,
            inst_retired: 2.0e9,
            l2_lines_in: llc,
            net_stall_seconds: net_stall,
            disk_stall_seconds: disk_stall,
            bus_tran_any: llc,
            ..CounterSnapshot::zero()
        }
    }

    fn quiet_demand() -> ResourceDemand {
        ResourceDemand::builder()
            .instructions(1.0e9)
            .working_set_mb(4.0)
            .l1_mpki(12.0)
            .llc_mpki_solo(0.5)
            .parallelism(2.0)
            .build()
    }

    fn busy_memory_demand() -> ResourceDemand {
        ResourceDemand::builder()
            .instructions(2.5e9)
            .working_set_mb(512.0)
            .l1_mpki(70.0)
            .llc_mpki_solo(45.0)
            .locality(0.0)
            .parallelism(2.0)
            .build()
    }

    fn resident(id: u64, counters: CounterSnapshot) -> ResidentVm {
        ResidentVm {
            vm_id: VmId(id),
            behavior: BehaviorVector::from_counters(&counters),
            counters,
            demand: quiet_demand(),
            vcpus: 2,
        }
    }

    fn manager() -> PlacementManager {
        PlacementManager::new(0.15)
    }

    fn xeon_candidate(
        id: u64,
        resident_demands: Vec<ResourceDemand>,
        free_cores: usize,
    ) -> CandidateMachine {
        CandidateMachine {
            pm_id: PmId(id),
            spec: MachineSpec::xeon_x5472(),
            resident_demands,
            free_cores,
        }
    }

    #[test]
    fn aggressor_selection_follows_the_culprit_resource() {
        let cache_hog = resident(1, counters_with(5.0e7, 0.0, 0.0));
        let net_hog = resident(2, counters_with(1.0e6, 0.6, 0.0));
        let disk_hog = resident(3, counters_with(1.0e6, 0.0, 0.7));
        let residents = vec![cache_hog, net_hog, disk_hog];
        assert_eq!(
            PlacementManager::select_aggressor(&residents, Resource::CacheMemory),
            VmId(1)
        );
        assert_eq!(
            PlacementManager::select_aggressor(&residents, Resource::Network),
            VmId(2)
        );
        assert_eq!(
            PlacementManager::select_aggressor(&residents, Resource::Disk),
            VmId(3)
        );
    }

    #[test]
    fn prediction_is_low_on_an_empty_machine_and_high_on_a_loaded_one() {
        let m = manager();
        let clone_demand = busy_memory_demand();
        let empty = xeon_candidate(1, vec![], 8);
        let loaded = xeon_candidate(2, vec![busy_memory_demand(), quiet_demand()], 4);
        let mut resolver = EpochResolver::new(MachineSpec::xeon_x5472());
        let empty_pred = m.predict_on_candidate(&mut resolver, &clone_demand, 2, &empty);
        let loaded_pred = m.predict_on_candidate(&mut resolver, &clone_demand, 2, &loaded);
        assert!(empty_pred < 0.05, "empty machine prediction {empty_pred}");
        assert!(
            loaded_pred > empty_pred,
            "loaded {loaded_pred} vs empty {empty_pred}"
        );
    }

    #[test]
    fn prediction_respects_the_candidate_machine_model() {
        // The same memory-bus-hungry clone lands next to the same resident
        // on a Xeon (FSB) and an i7 (QuickPath) candidate.  The two machine
        // models must yield materially different predictions — on the Xeon
        // the *solo* baseline is already FSB-throttled, so the relative
        // extra slowdown is far smaller than on the i7, whose clean solo
        // baseline exposes the full cache/bus contention.  A spec-blind
        // manager would report the same number for both.
        let m = manager();
        let clone_demand = busy_memory_demand();
        let residents = vec![busy_memory_demand()];
        let xeon = xeon_candidate(1, residents.clone(), 6);
        let i7 = CandidateMachine {
            pm_id: PmId(2),
            spec: MachineSpec::core_i7_nehalem(),
            resident_demands: residents,
            free_cores: 6,
        };
        let on_xeon = m.predict_on_candidate(
            &mut EpochResolver::new(xeon.spec.clone()),
            &clone_demand,
            2,
            &xeon,
        );
        let on_i7 = m.predict_on_candidate(
            &mut EpochResolver::new(i7.spec.clone()),
            &clone_demand,
            2,
            &i7,
        );
        assert!(
            (on_xeon - on_i7).abs() > 0.05,
            "spec-blind prediction: xeon {on_xeon} vs i7 {on_i7}"
        );
    }

    #[test]
    fn decision_prefers_the_least_interfering_destination() {
        let m = manager();
        let benchmark = SyntheticBenchmark::train(MachineSpec::xeon_x5472(), 120, 3);
        // The aggressor is a cache hog; the victim is quiet.
        let contended = EpochResolver::new(MachineSpec::xeon_x5472()).resolve(&[
            PlacedDemand::new(1, quiet_demand(), 2, 0),
            PlacedDemand::new(2, busy_memory_demand(), 2, 0),
        ]);
        let residents = vec![
            ResidentVm {
                vm_id: VmId(1),
                counters: contended[0].counters,
                behavior: BehaviorVector::from_counters(&contended[0].counters),
                demand: quiet_demand(),
                vcpus: 2,
            },
            ResidentVm {
                vm_id: VmId(2),
                counters: contended[1].counters,
                behavior: BehaviorVector::from_counters(&contended[1].counters),
                demand: busy_memory_demand(),
                vcpus: 2,
            },
        ];
        let candidates = vec![
            xeon_candidate(10, vec![busy_memory_demand(), busy_memory_demand()], 4),
            xeon_candidate(11, vec![], 8),
        ];
        let decision = m.decide(
            &residents,
            Resource::CacheMemory,
            PmId(0),
            &candidates,
            &benchmark,
        );
        assert_eq!(
            decision.vm_to_migrate,
            VmId(2),
            "the cache hog must be selected"
        );
        assert_eq!(
            decision.destination,
            Some(PmId(11)),
            "the idle machine wins"
        );
        assert_eq!(decision.predictions.len(), 2);
    }

    #[test]
    fn decision_declines_when_every_candidate_is_bad() {
        let m = PlacementManager::new(0.01);
        let benchmark = SyntheticBenchmark::train(MachineSpec::xeon_x5472(), 120, 3);
        let residents = vec![resident(1, counters_with(5.0e7, 0.0, 0.0))];
        let candidates = vec![xeon_candidate(
            10,
            vec![
                busy_memory_demand(),
                busy_memory_demand(),
                busy_memory_demand(),
            ],
            2,
        )];
        let decision = m.decide(
            &residents,
            Resource::CacheMemory,
            PmId(0),
            &candidates,
            &benchmark,
        );
        assert_eq!(decision.destination, None);
    }

    #[test]
    fn candidates_without_capacity_are_skipped() {
        let m = manager();
        let benchmark = SyntheticBenchmark::train(MachineSpec::xeon_x5472(), 120, 3);
        let residents = vec![resident(1, counters_with(5.0e7, 0.0, 0.0))];
        let candidates = vec![xeon_candidate(10, vec![quiet_demand()], 0)];
        let decision = m.decide(
            &residents,
            Resource::CacheMemory,
            PmId(0),
            &candidates,
            &benchmark,
        );
        assert!(decision.predictions.is_empty());
        assert_eq!(decision.destination, None);
    }

    #[test]
    fn spread_prefers_an_acceptable_cross_domain_destination() {
        // Machines 0..4 are power domain 0, 4..8 domain 1 (one machine per
        // rack, four racks per domain).  The source is machine 0; both
        // candidates are idle (equally acceptable), but machine 5 sits in
        // the other domain.
        let topology = Topology::new(1, 4);
        let benchmark = SyntheticBenchmark::train(MachineSpec::xeon_x5472(), 120, 3);
        let residents = vec![resident(1, counters_with(5.0e7, 0.0, 0.0))];
        let candidates = vec![xeon_candidate(1, vec![], 8), xeon_candidate(5, vec![], 8)];
        let plain = manager().decide(
            &residents,
            Resource::CacheMemory,
            PmId(0),
            &candidates,
            &benchmark,
        );
        assert_eq!(
            plain.destination,
            Some(PmId(1)),
            "spread off: lowest machine id wins the interference tie"
        );
        let spread = manager().with_spread(topology).decide(
            &residents,
            Resource::CacheMemory,
            PmId(0),
            &candidates,
            &benchmark,
        );
        assert_eq!(
            spread.vm_to_migrate, plain.vm_to_migrate,
            "spread only reorders destinations"
        );
        assert_eq!(
            spread.destination,
            Some(PmId(5)),
            "spread on: the cross-domain candidate wins"
        );
        // With no cross-domain candidate at all, the preference falls back
        // to the plain minimum instead of declining.
        let same_domain = vec![xeon_candidate(1, vec![], 8)];
        let fallback = manager().with_spread(topology).decide(
            &residents,
            Resource::CacheMemory,
            PmId(0),
            &same_domain,
            &benchmark,
        );
        assert_eq!(fallback.destination, Some(PmId(1)));
    }

    #[test]
    #[should_panic(expected = "no resident VMs")]
    fn empty_residents_rejected() {
        PlacementManager::select_aggressor(&[], Resource::Disk);
    }

    #[test]
    #[should_panic(expected = "acceptable interference")]
    fn invalid_limit_rejected() {
        PlacementManager::new(0.0);
    }

    #[test]
    fn synthetic_clone_uses_app_namespace_for_identity() {
        // Smoke-check that the clone built by the benchmark carries the app
        // identity it was asked to impersonate.
        let benchmark = SyntheticBenchmark::train(MachineSpec::xeon_x5472(), 120, 3);
        let target = BehaviorVector::from_counters(&counters_with(5.0e7, 0.0, 0.0));
        let clone = benchmark.clone_for(AppId(42), &target, 2.0e9);
        assert_eq!(workloads::Workload::app_id(&clone), AppId(42));
    }
}

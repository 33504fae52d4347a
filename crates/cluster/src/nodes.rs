//! The node plane: per-node GPU runtimes and their stepper.
//!
//! [`ClusterSim`](crate::ClusterSim) is layered into a **control plane**
//! (arrival ingest, routing, placement, elasticity, reporting — see
//! `dispatch`, `lifecycle`, `elasticity`) and this **node plane**: each
//! worker node's GPUs live in a [`NodeRuntime`] owning one [`GpuSlot`]
//! (engine + share policy + sampling accumulators) per card, and the
//! [`NodePlane`] owns all runtimes plus the cluster-wide occupancy
//! counter.
//!
//! Within one quantum no two GPUs share state (grants are local to a
//! card), so the plane steps each node's GPUs into that node's own
//! buffers and then merges the per-node outcomes in ascending node order
//! for the control plane to handle.

use std::collections::BTreeSet;

use dilu_gpu::{Completion, GpuEngine, GpuError, InstanceId, SlotConfig, StepOutcome};
use dilu_metrics::IdleReplayStats;
use dilu_sim::{SimDuration, SimTime};

use crate::{ClusterSpec, GpuAddr, PolicyFactory};

// The idle-replay cap is the share policy's own convergence bound
// (`SharePolicy::idle_history_cycles`): policy state is a fixed point once
// every kernel-rate window has filled with zeros and every multiplicative
// grant ramp has hit its ceiling, so replaying more trailing idle cycles
// than that cannot change any subsequent grant. Each `GpuSlot` asks its
// policy rather than assuming a constant — a policy with a longer memory
// (wider window, shallower ramp) raises its own cap instead of silently
// breaking the event-driven ≡ dense equivalence. The cap is only an upper
// bound: the engine ends a replay as soon as the policy reports
// `SharePolicy::idle_converged`.

/// One GPU of the node plane: the engine, its share policy, and the
/// event-core bookkeeping that keeps skipped quanta invisible.
pub(crate) struct GpuSlot {
    pub(crate) engine: GpuEngine,
    pub(crate) policy: Box<dyn dilu_gpu::SharePolicy>,
    /// Σ effective SM fraction over the quanta stepped since the last
    /// metrics sample (skipped quanta contribute exactly 0).
    pub(crate) used_accum: f64,
    /// Start of the last stepped quantum; `None` before the first step.
    /// The event core uses the gap to this instant to replay skipped idle
    /// cycles into the share policy.
    pub(crate) last_step: Option<SimTime>,
    /// Idle replays run on this GPU (reported by the phase profile).
    pub(crate) replay: IdleReplayStats,
}

impl GpuSlot {
    /// Advances this GPU by the quantum starting at `now`, first replaying
    /// any skipped idle cycles into its share policy (capped by the
    /// policy's own [`idle_history_cycles`] bound) so derived policy state
    /// evolves as under dense stepping.
    ///
    /// [`idle_history_cycles`]: dilu_gpu::SharePolicy::idle_history_cycles
    pub(crate) fn advance(&mut self, now: SimTime, quantum: SimDuration, out: &mut StepOutcome) {
        let gap_cycles = match self.last_step {
            Some(last) => {
                let expected = last + quantum;
                if now > expected {
                    (now - expected).as_micros() / quantum.as_micros()
                } else {
                    0
                }
            }
            None => now.as_micros() / quantum.as_micros(),
        };
        if gap_cycles > 0 {
            let replay = gap_cycles.min(self.policy.idle_history_cycles().max(1));
            let from = now - quantum * replay;
            let run = self.engine.idle_fastforward(from, replay, self.policy.as_mut());
            self.replay.record(replay, run);
        }
        self.last_step = Some(now);
        self.engine.step_into(now, self.policy.as_mut(), out);
    }

    /// Catches this GPU's share policy up to the current wake, before new
    /// work is queued on it (the idle→busy transition), so the replayed
    /// cycles present the historically accurate workless views.
    ///
    /// `post_step` says whether this wake's GPU phase has already run: a
    /// push from the completion handlers lands *after* it (the dense
    /// stepper would have idle-stepped this GPU at `now` too, so the
    /// replay includes `now`), while a push from the dispatch or
    /// promotion phases lands *before* it (the quantum at `now` is about
    /// to be stepped normally and must not be replayed).
    pub(crate) fn catch_up(&mut self, now: SimTime, quantum: SimDuration, post_step: bool) {
        let expected = match self.last_step {
            Some(last) => last + quantum,
            None => SimTime::ZERO,
        };
        let through = if post_step {
            now
        } else if now.as_micros() >= quantum.as_micros() {
            now - quantum
        } else {
            return;
        };
        if through < expected {
            return;
        }
        let gap_cycles = (through - expected).as_micros() / quantum.as_micros() + 1;
        let replay = gap_cycles.min(self.policy.idle_history_cycles().max(1));
        let from = through - quantum * (replay - 1);
        let run = self.engine.idle_fastforward(from, replay, self.policy.as_mut());
        self.replay.record(replay, run);
        self.last_step = Some(through);
    }
}

/// One worker node's GPU runtime: its [`GpuSlot`]s, the set of local GPUs
/// currently holding work, and reusable per-node step outcome buffers.
pub(crate) struct NodeRuntime {
    slots: Vec<GpuSlot>,
    /// Local GPU indices holding queued or active work; only these are
    /// stepped by the event core.
    busy: BTreeSet<u32>,
    /// Completions from the last step, in local GPU order.
    completions: Vec<Completion>,
    /// Kernel blocks issued per engine slot during the last step.
    issued: Vec<(InstanceId, u64)>,
    /// Reused engine step outcome (hot-loop allocation avoidance).
    scratch: StepOutcome,
    /// Reused drained-GPU scratch for the busy-set sweep.
    drained: Vec<u32>,
}

impl NodeRuntime {
    /// Steps exactly the local GPUs holding work, dropping drained ones
    /// from the busy set. Outcomes land in the node buffers for the plane
    /// to merge in node order.
    fn step_busy(&mut self, now: SimTime, quantum: SimDuration) {
        let mut out = std::mem::take(&mut self.scratch);
        self.drained.clear();
        for &local in &self.busy {
            let slot = &mut self.slots[local as usize];
            slot.advance(now, quantum, &mut out);
            slot.used_accum += out.total_used.as_fraction();
            self.completions.append(&mut out.completions);
            self.issued.append(&mut out.blocks_issued);
            if slot.engine.next_event_at(now).is_none() {
                // Drained: the GPU reports no next interesting instant, so
                // it simply stops being scheduled.
                self.drained.push(local);
            }
        }
        for &local in &self.drained {
            self.busy.remove(&local);
        }
        self.scratch = out;
    }

    /// The dense phase: every local GPU, busy or not.
    fn step_all(&mut self, now: SimTime, quantum: SimDuration) {
        let mut out = std::mem::take(&mut self.scratch);
        for slot in &mut self.slots {
            slot.advance(now, quantum, &mut out);
            slot.used_accum += out.total_used.as_fraction();
            self.completions.append(&mut out.completions);
            self.issued.append(&mut out.blocks_issued);
        }
        self.scratch = out;
    }
}

/// All node runtimes plus cluster-wide occupancy accounting.
pub(crate) struct NodePlane {
    nodes: Vec<NodeRuntime>,
    /// GPUs with at least one admitted resident (cold-starting instances
    /// reserve their slots at launch, so their GPUs count as occupied).
    /// Maintained at [`admit`](Self::admit)/[`evict`](Self::evict) so
    /// [`occupied`](Self::occupied) is O(1) instead of a cluster scan.
    occupied: u32,
    /// Nodes whose busy set is non-empty (the event core steps only
    /// these).
    busy_nodes: BTreeSet<u32>,
    /// Reused node-id scratch for the busy step (the hot path must stay
    /// allocation-free: one wake per quantum at macro scale).
    ids_buf: Vec<u32>,
}

impl NodePlane {
    pub(crate) fn new(
        spec: &ClusterSpec,
        quantum: SimDuration,
        policy_factory: &dyn PolicyFactory,
    ) -> Self {
        let nodes = (0..spec.nodes)
            .map(|_| NodeRuntime {
                slots: (0..spec.gpus_per_node)
                    .map(|_| GpuSlot {
                        engine: GpuEngine::with_quantum(spec.gpu_mem_bytes, quantum),
                        policy: policy_factory.make(),
                        used_accum: 0.0,
                        last_step: None,
                        replay: IdleReplayStats::default(),
                    })
                    .collect(),
                busy: BTreeSet::new(),
                completions: Vec::new(),
                issued: Vec::new(),
                scratch: StepOutcome::default(),
                drained: Vec::new(),
            })
            .collect();
        NodePlane { nodes, occupied: 0, busy_nodes: BTreeSet::new(), ids_buf: Vec::new() }
    }

    /// Number of GPUs hosting at least one admitted instance, O(1).
    pub(crate) fn occupied(&self) -> u32 {
        self.occupied
    }

    pub(crate) fn slot_mut(&mut self, addr: GpuAddr) -> &mut GpuSlot {
        &mut self.nodes[addr.node as usize].slots[addr.gpu as usize]
    }

    /// All slots, mutable, in node-major (dense `gpu_addrs()`) order.
    pub(crate) fn slots_mut(&mut self) -> impl Iterator<Item = &mut GpuSlot> {
        self.nodes.iter_mut().flat_map(|n| n.slots.iter_mut())
    }

    /// Idle-replay counters summed over every GPU.
    pub(crate) fn idle_replay(&self) -> IdleReplayStats {
        let mut total = IdleReplayStats::default();
        for slot in self.nodes.iter().flat_map(|n| &n.slots) {
            total.merge(&slot.replay);
        }
        total
    }

    /// Admits an engine slot on `addr`, maintaining the occupancy counter.
    pub(crate) fn admit(
        &mut self,
        addr: GpuAddr,
        id: InstanceId,
        config: SlotConfig,
    ) -> Result<(), GpuError> {
        let slot = self.slot_mut(addr);
        let was_empty = slot.engine.resident_count() == 0;
        slot.engine.admit(id, config)?;
        if was_empty {
            self.occupied += 1;
        }
        Ok(())
    }

    /// Evicts an engine slot from `addr`, maintaining the occupancy
    /// counter.
    pub(crate) fn evict(&mut self, addr: GpuAddr, id: InstanceId) {
        let slot = self.slot_mut(addr);
        if slot.engine.evict(id).is_ok() && slot.engine.resident_count() == 0 {
            self.occupied = self.occupied.saturating_sub(1);
        }
    }

    /// Marks a GPU as holding work; returns `true` when it was idle before
    /// (the caller then replays the idle gap into its policy).
    pub(crate) fn mark_busy(&mut self, addr: GpuAddr) -> bool {
        let node = &mut self.nodes[addr.node as usize];
        let newly = node.busy.insert(addr.gpu);
        if newly {
            self.busy_nodes.insert(addr.node);
        }
        newly
    }

    /// `true` while any GPU holds queued or active work.
    pub(crate) fn has_busy(&self) -> bool {
        !self.busy_nodes.is_empty()
    }

    /// Rebuilds the busy sets from engine state (event-core entry: in
    /// between `run_until` calls deployments need no busy bookkeeping).
    pub(crate) fn rebuild_busy(&mut self) {
        self.busy_nodes.clear();
        for (id, node) in self.nodes.iter_mut().enumerate() {
            node.busy.clear();
            for (local, slot) in node.slots.iter().enumerate() {
                if !slot.engine.is_idle() {
                    node.busy.insert(local as u32);
                }
            }
            if !node.busy.is_empty() {
                self.busy_nodes.insert(id as u32);
            }
        }
    }

    /// Event-core step for the quantum starting at `now`: steps the GPUs
    /// holding work on every busy node, then merges per-node outcomes into
    /// `completions`/`issued` **in ascending node order** and retires
    /// nodes whose GPUs all drained.
    pub(crate) fn step_busy(
        &mut self,
        now: SimTime,
        quantum: SimDuration,
        completions: &mut Vec<Completion>,
        issued: &mut Vec<(InstanceId, u64)>,
    ) {
        let mut ids = std::mem::take(&mut self.ids_buf);
        ids.clear();
        ids.extend(self.busy_nodes.iter().copied());
        for &id in &ids {
            self.nodes[id as usize].step_busy(now, quantum);
        }
        for &id in &ids {
            let node = &mut self.nodes[id as usize];
            completions.append(&mut node.completions);
            issued.append(&mut node.issued);
            if node.busy.is_empty() {
                self.busy_nodes.remove(&id);
            }
        }
        self.ids_buf = ids;
    }

    /// Dense step for the quantum starting at `now`: steps every GPU of
    /// every node, then merges per-node outcomes in ascending node order.
    pub(crate) fn step_all(
        &mut self,
        now: SimTime,
        quantum: SimDuration,
        completions: &mut Vec<Completion>,
        issued: &mut Vec<(InstanceId, u64)>,
    ) {
        for node in &mut self.nodes {
            node.step_all(now, quantum);
        }
        for node in &mut self.nodes {
            completions.append(&mut node.completions);
            issued.append(&mut node.issued);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dilu_gpu::policies::FairSharePolicy;
    use dilu_gpu::{SmRate, TaskClass, GB};

    fn plane(nodes: u32, gpus_per_node: u32) -> NodePlane {
        let spec = ClusterSpec { nodes, gpus_per_node, gpu_mem_bytes: 40 * GB };
        let factory = crate::named("fair", || Box::new(FairSharePolicy));
        NodePlane::new(&spec, SimDuration::from_millis(5), &factory)
    }

    fn config(mem: u64) -> SlotConfig {
        SlotConfig {
            class: TaskClass::SloSensitive,
            request: SmRate::from_percent(30.0),
            limit: SmRate::from_percent(60.0),
            mem_bytes: mem,
        }
    }

    #[test]
    fn occupancy_counter_tracks_admits_and_evicts() {
        let mut plane = plane(2, 2);
        let a = GpuAddr { node: 0, gpu: 1 };
        let b = GpuAddr { node: 1, gpu: 0 };
        assert_eq!(plane.occupied(), 0);
        plane.admit(a, InstanceId(1), config(GB)).unwrap();
        plane.admit(a, InstanceId(2), config(GB)).unwrap();
        plane.admit(b, InstanceId(3), config(GB)).unwrap();
        assert_eq!(plane.occupied(), 2, "two residents on one GPU count once");
        plane.evict(a, InstanceId(1));
        assert_eq!(plane.occupied(), 2, "GPU stays occupied while a resident remains");
        plane.evict(a, InstanceId(2));
        plane.evict(b, InstanceId(3));
        assert_eq!(plane.occupied(), 0);
        // Double eviction and unknown ids must not underflow.
        plane.evict(b, InstanceId(3));
        assert_eq!(plane.occupied(), 0);
    }

    #[test]
    fn failed_admission_leaves_occupancy_unchanged() {
        let mut plane = plane(1, 1);
        let addr = GpuAddr { node: 0, gpu: 0 };
        assert!(plane.admit(addr, InstanceId(1), config(100 * GB)).is_err());
        assert_eq!(plane.occupied(), 0);
    }
}

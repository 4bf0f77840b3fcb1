//! The grid simulation: event-driven wheel with a legacy tick oracle.
//!
//! One step = one unit of simulated time. Within a step: arriving
//! messages are delivered, each resource's database grows, each resource
//! scans its budget and reacts, and — every `candidate_every` steps —
//! runs the candidate-generation cycle. Cross-resource interaction
//! happens only through the message queue, so per-phase parallelism is
//! race-free.
//!
//! Two drivers share those phase semantics:
//!
//! * [`Simulation::run_event_driven`] — the scheduler. Every phase is a
//!   [`Pass`] event on a hierarchical [`TimerWheel`]; timestamps with no
//!   pending pass are skipped outright, so idle resources cost nothing
//!   and a 10⁵-node grid advances at the cost of its *active* frontier.
//!   Per-resource work is gated by tracking sets (`scan_armed`, `dirty`)
//!   maintained by the passes themselves.
//! * [`Simulation::step`] / [`Simulation::run`] — the legacy global-tick
//!   loop, kept as the differential oracle: the wheel-vs-tick suite pins
//!   identical solutions, verdicts and [`ChaosReport`]s under the same
//!   seed (the same role `modpow_legacy` plays for the Montgomery
//!   kernel).
//!
//! Determinism-under-seed holds in both drivers: passes fire in a fixed
//! phase order per timestamp, same-time wheel events pop in schedule
//! order, per-batch message sorts are unchanged, and every RNG draw is
//! sequenced at schedule time — so the per-directed-edge message
//! sequences (which the fault layer keys on) are byte-identical.

use std::collections::{BTreeMap, BTreeSet};

use gridmine_arm::{Database, Item, Ratio, RuleSet};
use gridmine_core::resource::{wire_grid, wire_pair};
use gridmine_core::{
    BrokerBehavior, ChaosReport, DegradeReason, GridKeys, RecoveryMode, ResourceStatus,
    SecureResource, Verdict, WireMsg,
};
use gridmine_majority::CandidateGenerator;
use gridmine_obs::{emit, Event, SharedRecorder};
use gridmine_paillier::HomCipher;
use gridmine_topology::faults::{Delivery, FaultPlan, FaultyLink, ResourceFault};
use gridmine_topology::Overlay;
use rayon::prelude::*;

use crate::config::SimConfig;
use crate::wheel::TimerWheel;
use crate::workload::GrowthPlan;

// The anti-entropy resend cadence now lives in
// `gridmine_core::RetryPolicy::resend_every` (default 5 steps, the
// value previously hard-coded here).

/// Per-resource result of a parallel scan pass: (had backlog before,
/// keep the scan armed, outgoing messages). `None` for resources the
/// pass skipped.
type ScanOutcome<C> = Option<(bool, bool, Vec<WireMsg<C>>)>;

/// Per-resource result of a parallel candidate pass: (candidate count
/// before, count after, outgoing messages). `None` for skipped
/// resources.
type CandidateOutcome<C> = Option<(usize, usize, Vec<WireMsg<C>>)>;

/// One phase of a simulation timestamp, as a timer-wheel event. The
/// declaration order is the within-timestamp firing order and mirrors the
/// legacy tick loop's phases exactly: faults, delivery, growth, scans,
/// anti-entropy, rejoin healing, checkpoints, candidate generation, and a
/// no-op liveness wake (deferred degradation checks run in the timestamp
/// finalizer).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Pass {
    Faults,
    Deliver,
    Growth,
    Scan,
    AntiEntropy,
    Healing,
    Checkpoint,
    Candidates,
    Wake,
}

/// The event-driven scheduler state. `None` while the simulation is (or
/// was last) driven by the legacy tick loop; armed lazily by
/// [`Simulation::run_event_driven`] and invalidated by any mutation the
/// bookkeeping cannot track (manual ticks, membership changes, fault or
/// recovery re-arming).
struct SchedState {
    timer: TimerWheel<Pass>,
    /// Future `(time, pass)` pairs already in the wheel, for dedup.
    scheduled: BTreeSet<(u64, Pass)>,
    /// Passes still to fire at the timestamp being processed.
    agenda: BTreeSet<Pass>,
    /// True while inside `process_timestamp` (same-time ensure calls go
    /// to the agenda instead of the wheel).
    processing: bool,
    /// The pass currently firing; later-ranked passes may still be added
    /// to the current timestamp, earlier ones must wait for the next.
    phase: Pass,
}

/// A running simulation.
pub struct Simulation<C: HomCipher> {
    cfg: SimConfig,
    overlay: Overlay,
    keys: GridKeys<C>,
    items: Vec<Item>,
    resources: Vec<SecureResource<C>>,
    plans: Vec<GrowthPlan>,
    /// Scheduled deliveries: arrival time → receiver → messages, both in
    /// ascending order, message vectors in schedule order (the exact
    /// per-receiver sequences the legacy flat queue produced).
    inflight: BTreeMap<u64, BTreeMap<usize, Vec<WireMsg<C>>>>,
    departed: Vec<bool>,
    /// Fault injection, when armed via [`Simulation::inject_faults`].
    link: Option<FaultyLink>,
    /// Last scheduled arrival per directed edge — under jitter the links
    /// stay FIFO streams (a later message never overtakes a delayed one;
    /// overtaking would read as a timestamp regression, i.e. a replay).
    edge_clock: BTreeMap<(usize, usize), u64>,
    /// Where a crashed resource should re-attach on recovery (the hub its
    /// neighborhood was bridged through when it was routed around).
    crash_parent: Vec<Option<usize>>,
    /// Crash-recovery semantics (see [`Simulation::set_recovery`]).
    mode: RecoveryMode,
    /// Resources rebuilding state after a rejoin: they (and their
    /// neighbors) get periodic resend passes until caught up.
    healing: Vec<bool>,
    /// Structured-event sink ([`gridmine_obs::null`] unless armed).
    rec: SharedRecorder,
    step_no: u64,
    /// Event-driven scheduler, armed while `run_event_driven` drives the
    /// sim. The tracking sets below are only meaningful while it is
    /// `Some`; `arm_wheel` rebuilds them from first principles.
    sched: Option<SchedState>,
    /// Resources that may still have scan backlog (superset).
    scan_armed: BTreeSet<usize>,
    /// Resources whose protocol state changed since their last candidate
    /// pass — the only ones a restricted candidate pass must visit.
    dirty: BTreeSet<usize>,
    /// Resources under external mutation (corrupted brokers): re-examined
    /// by every candidate pass, like the tick loop does for everyone.
    always_dirty: BTreeSet<usize>,
    /// Resources touched at the timestamp being processed (feeds the
    /// finalizer's liveness + verdict sweep).
    touched_now: BTreeSet<usize>,
    /// Resources touched during finalizer repairs, re-examined at the
    /// next timestamp (the tick loop re-examines everyone every step).
    deferred_live: BTreeSet<usize>,
    /// Resources whose growth stream still has transactions.
    growing: BTreeSet<usize>,
    /// Total protocol messages put on the wire.
    pub total_msgs: u64,
    /// Total protocol bytes put on the wire (per the cipher's bandwidth
    /// model).
    pub total_bytes: u64,
    /// Verdicts raised so far, with the step they surfaced at.
    pub verdicts: Vec<(u64, Verdict)>,
    /// Broadcast verdicts to all resources as they surface (attack runs).
    pub broadcast_verdicts: bool,
}

impl<C: HomCipher> Simulation<C>
where
    C::Ct: Send + Sync,
{
    /// Builds a grid: BA topology, spanning tree, one resource per node.
    pub fn new(
        cfg: SimConfig,
        keys: &GridKeys<C>,
        mut plans: Vec<GrowthPlan>,
        items: &[Item],
    ) -> Self {
        cfg.validate();
        assert_eq!(plans.len(), cfg.n_resources, "one growth plan per resource");
        let overlay = if cfg.n_resources == 1 {
            Overlay::from_tree(gridmine_topology::Tree::singleton(), cfg.delay, cfg.seed)
        } else {
            Overlay::barabasi(
                cfg.n_resources,
                cfg.ba_m.min(cfg.n_resources - 1),
                cfg.delay,
                cfg.seed,
            )
        };
        let generator = CandidateGenerator::new(cfg.min_freq, cfg.min_conf);
        let mut resources: Vec<SecureResource<C>> = (0..cfg.n_resources)
            .map(|u| {
                let neighbors: Vec<usize> = overlay.neighbors(u).collect();
                let db = std::mem::take(&mut plans[u].initial);
                let mut r = SecureResource::new(
                    u,
                    keys,
                    neighbors,
                    db,
                    cfg.k,
                    generator,
                    items,
                    cfg.seed ^ (u as u64).wrapping_mul(0x9E37_79B9),
                );
                r.accountant_mut().obfuscate = cfg.obfuscate;
                if cfg.relaxed_gate {
                    r.set_gate_mode(gridmine_core::GateMode::TransactionsOnly);
                }
                r
            })
            .collect();
        wire_grid(&mut resources);
        Simulation {
            cfg,
            overlay,
            keys: keys.clone(),
            items: items.to_vec(),
            resources,
            plans,
            inflight: BTreeMap::new(),
            departed: vec![false; cfg.n_resources],
            link: None,
            edge_clock: BTreeMap::new(),
            crash_parent: vec![None; cfg.n_resources],
            mode: RecoveryMode::Disabled,
            healing: vec![false; cfg.n_resources],
            rec: gridmine_obs::null(),
            step_no: 0,
            sched: None,
            scan_armed: BTreeSet::new(),
            dirty: BTreeSet::new(),
            always_dirty: BTreeSet::new(),
            touched_now: BTreeSet::new(),
            deferred_live: BTreeSet::new(),
            growing: BTreeSet::new(),
            total_msgs: 0,
            total_bytes: 0,
            verdicts: Vec::new(),
            broadcast_verdicts: false,
        }
    }

    /// Current step number.
    pub fn step_no(&self) -> u64 {
        self.step_no
    }

    /// Number of resources currently in the grid (grows with joins,
    /// shrinks with departures). Slot ids are never reused, so this is a
    /// count, not an upper bound on ids.
    pub fn current_size(&self) -> usize {
        self.departed.iter().filter(|&&d| !d).count()
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The overlay topology.
    pub fn overlay(&self) -> &Overlay {
        &self.overlay
    }

    /// Access to a resource (metrics, attack injection).
    pub fn resource(&self, u: usize) -> &SecureResource<C> {
        &self.resources[u]
    }

    /// Mutable access to a resource. External surgery the scheduler's
    /// bookkeeping cannot see — the event-driven state is invalidated and
    /// rebuilt from scratch on the next `run_event_driven`.
    pub fn resource_mut(&mut self, u: usize) -> &mut SecureResource<C> {
        self.sched = None;
        &mut self.resources[u]
    }

    /// Makes one broker malicious. The resource joins the always-dirty
    /// set: every candidate pass re-examines it (as the tick loop
    /// re-examines everyone), so detections that surface without any
    /// message or candidate signal are never missed.
    pub fn corrupt_broker(&mut self, u: usize, behavior: BrokerBehavior) {
        self.resources[u].set_broker_behavior(behavior);
        self.always_dirty.insert(u);
        self.note_effect(u);
    }

    /// Attaches a structured-event recorder: every resource (present and
    /// future joiners) reports protocol events to it, and the engine adds
    /// round/fault/quarantine markers. Attach before [`Simulation::run`]
    /// for a complete log.
    pub fn set_recorder(&mut self, rec: SharedRecorder) {
        for r in self.resources.iter_mut() {
            r.set_recorder(rec.clone());
        }
        self.rec = rec;
    }

    /// Arms deterministic fault injection: every subsequent send goes
    /// through the plan's drop/duplication/jitter decisions and the
    /// crash/recover/depart schedules fire at their ticks (plan ticks =
    /// simulation steps). Same plan + same config ⇒ byte-identical
    /// [`Simulation::chaos_report`].
    pub fn inject_faults(&mut self, plan: FaultPlan) {
        self.link = Some(FaultyLink::new(plan));
        self.sched = None;
    }

    /// The armed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.link.as_ref().map(|l| l.plan())
    }

    /// Selects the crash-recovery semantics (default:
    /// [`RecoveryMode::Disabled`], the legacy keep-state behavior).
    /// With [`RecoveryMode::Checkpoint`] every resource (present and
    /// future joiners) is armed with an in-memory checkpoint + journal
    /// and adopts the policy's retry budget. Call before
    /// [`Simulation::run`].
    pub fn set_recovery(&mut self, mode: RecoveryMode) {
        self.mode = mode;
        self.sched = None;
        if let Some(policy) = mode.policy() {
            for r in self.resources.iter_mut() {
                r.arm_recovery();
                r.set_retry_policy(&policy.retry);
            }
        }
    }

    /// The crash-recovery mode in force.
    pub fn recovery_mode(&self) -> RecoveryMode {
        self.mode
    }

    /// A new resource joins the grid under `parent` (dynamic membership).
    ///
    /// The parent rewires (regenerated shares, remapped audit state —
    /// k-gates preserved), both ends of every affected edge re-exchange
    /// shares and layouts, the parent's other neighbors lift their
    /// duplicate-send suppressors toward it, and everyone affected is
    /// nudged so current aggregates flow into the new world. Returns the
    /// new resource's id.
    pub fn join_resource(&mut self, parent: usize, plan: GrowthPlan) -> usize {
        assert!(parent < self.resources.len(), "parent must exist");
        self.sched = None;
        let mut plan = plan;
        let id = self.overlay.join(parent);
        let generator = CandidateGenerator::new(self.cfg.min_freq, self.cfg.min_conf);
        let db = std::mem::take(&mut plan.initial);
        let mut newcomer = SecureResource::new(
            id,
            &self.keys,
            vec![parent],
            db,
            self.cfg.k,
            generator,
            &self.items,
            self.cfg.seed ^ (id as u64).wrapping_mul(0x9E37_79B9) ^ 0xBEEF,
        );
        newcomer.set_recorder(self.rec.clone());
        self.resources.push(newcomer);
        self.plans.push(plan);
        self.departed.push(false);
        self.crash_parent.push(None);
        self.healing.push(false);
        if self.cfg.relaxed_gate {
            self.resources[id].set_gate_mode(gridmine_core::GateMode::TransactionsOnly);
        }
        self.resources[id].accountant_mut().obfuscate = self.cfg.obfuscate;
        if let Some(policy) = self.mode.policy() {
            self.resources[id].arm_recovery();
            self.resources[id].set_retry_policy(&policy.retry);
        }

        // Parent adopts its grown neighbor set; the whole neighborhood is
        // re-wired and nudged.
        self.rewire_around(parent);
        id
    }

    /// A *leaf* resource departs the grid. Its former neighbor rewires
    /// into a new share epoch, rebuilding its aggregates *without* the
    /// departed subtree — so fresh statistics no longer count the departed
    /// data. Because the k-gates are monotone in the accumulated counts,
    /// already-disclosed answers persist until new data outgrows the
    /// registers; re-convergence to the shrunken database therefore needs
    /// ongoing growth (the protocol's world is append-only, §3). Interior
    /// departures would partition the tree; as in §3, the underlying
    /// overlay mechanism is assumed to repair those, so only the safe case
    /// is modelled.
    ///
    /// # Panics
    /// Panics if `u` is not a present leaf.
    pub fn leave_resource(&mut self, u: usize) {
        self.sched = None;
        let neighbors: Vec<usize> = self.overlay.neighbors(u).collect();
        assert!(neighbors.len() <= 1, "only leaf resources can depart");
        self.overlay.leave(u);
        self.departed[u] = true;
        if let Some(&parent) = neighbors.first() {
            self.rewire_around(parent);
        }
    }

    /// True if resource `u` has departed.
    pub fn is_departed(&self, u: usize) -> bool {
        self.departed[u]
    }

    /// Rebuilds resource `u`'s protocol state for its current overlay
    /// neighbor set and re-wires every incident edge: shares and layouts
    /// are re-exchanged, neighbors lift their duplicate-send suppressors
    /// toward `u` (its recv state restarted), and the neighborhood is
    /// nudged so current aggregates flow into the new epoch.
    fn rewire_around(&mut self, u: usize) {
        let neighbors: Vec<usize> = self.overlay.neighbors(u).collect();
        let epoch = self.step_no.wrapping_mul(0x9E37).wrapping_add(self.resources.len() as u64);
        self.resources[u].rewire(neighbors.clone(), epoch);

        for &v in &neighbors {
            let (a, b) = if u < v {
                let (lo, hi) = self.resources.split_at_mut(v);
                (&mut lo[u], &mut hi[0])
            } else {
                let (lo, hi) = self.resources.split_at_mut(u);
                (&mut hi[0], &mut lo[v])
            };
            wire_pair(a, b);
            self.resources[v].reset_edge(u);
        }

        let mut msgs = Vec::new();
        for w in neighbors.iter().copied().chain([u]) {
            msgs.extend(self.resources[w].nudge());
        }
        self.schedule(msgs);
        for w in neighbors.into_iter().chain([u]) {
            self.mark_touch(w);
        }
    }

    fn schedule(&mut self, mut msgs: Vec<WireMsg<C>>) {
        if self.link.is_some() {
            // Resources iterate hash maps internally, so the order of a
            // batch varies run-to-run — but the per-edge fault decisions
            // are sequence-numbered, so replayable chaos needs a canonical
            // order. The sort is stable and keys on the rule, preserving
            // the per-edge-per-rule FIFO the timestamp traces rely on.
            msgs.sort_by_cached_key(|m| (m.from, m.to, m.cand.to_string()));
        }
        for m in msgs {
            let delay = self.overlay.delay(m.from, m.to).max(1);
            self.total_msgs += 1;
            self.total_bytes += m.counter.wire_bytes() as u64;
            let delivery = match &mut self.link {
                Some(link) => link.on_send(m.from, m.to),
                None => Delivery::clean(),
            };
            // Mirror FaultStats exactly (same rule as the threaded driver)
            // so event counts agree with `chaos_report`.
            if delivery.is_dropped() {
                emit(&self.rec, || Event::MessageDropped { from: m.from as u64, to: m.to as u64 });
                continue;
            }
            if delivery.copies > 1 {
                emit(&self.rec, || Event::MessageDuplicated {
                    from: m.from as u64,
                    to: m.to as u64,
                    copies: u64::from(delivery.copies),
                });
            }
            if delivery.extra_delay > 0 {
                emit(&self.rec, || Event::MessageDelayed {
                    from: m.from as u64,
                    to: m.to as u64,
                    ticks: delivery.extra_delay,
                });
            }
            let mut at = self.step_no + delay + delivery.extra_delay;
            if self.link.is_some() {
                // FIFO links: jitter delays the stream, it never reorders
                // it (see `edge_clock`).
                let clock = self.edge_clock.entry((m.from, m.to)).or_insert(0);
                at = at.max(*clock);
                *clock = at;
            }
            for _ in 0..delivery.copies {
                self.inflight.entry(at).or_default().entry(m.to).or_default().push(m.clone());
            }
            self.ensure_pass(at, Pass::Deliver);
        }
    }

    /// Removes resource `u` from the live grid: the overlay routes around
    /// it (bridging its orphaned neighbors through a hub), the affected
    /// neighborhood rewires into a fresh share epoch, and the resource is
    /// marked degraded. Used for scheduled crashes/departures and for
    /// liveness-driven isolation of self-degraded (e.g. mute-controller)
    /// resources.
    fn quarantine(&mut self, u: usize, reason: DegradeReason) {
        emit(&self.rec, || Event::ResourceQuarantined { resource: u as u64, tick: self.step_no });
        self.note_effect(u);
        let nbrs: Vec<usize> = self.overlay.neighbors(u).collect();
        self.overlay.route_around(u);
        self.departed[u] = true;
        self.resources[u].mark_degraded(reason);
        if reason == DegradeReason::Crashed && self.mode.wipes() {
            // Honest crash semantics: volatile mining state dies with the
            // process. The in-memory recovery log survives (it models the
            // node's disk); legacy `Disabled` mode keeps everything.
            self.resources[u].crash_wipe();
        }
        let Some(&first) = nbrs.first() else { return };
        // The hub is the former neighbor now adjacent to all the others
        // (route_around bridges every orphan through it). Rewire it last,
        // so its closing nudges reach the whole repaired neighborhood
        // under final layouts.
        let hub = nbrs
            .iter()
            .copied()
            .find(|&v| nbrs.iter().all(|&w| w == v || self.overlay.neighbors(v).any(|x| x == w)))
            .unwrap_or(first);
        self.crash_parent[u] = Some(hub);
        // Pre-pass: adopt the repaired neighbor sets everywhere before any
        // share exchange. `wire_pair` needs *both* endpoints' layouts to
        // contain the edge, and route_around creates brand-new orphan↔hub
        // edges, so a one-at-a-time rewire would ask a not-yet-rewired hub
        // for a share toward an orphan it never knew.
        let epoch = self.step_no.wrapping_mul(0x9E37).wrapping_add(self.resources.len() as u64);
        for &v in &nbrs {
            let nv: Vec<usize> = self.overlay.neighbors(v).collect();
            self.resources[v].rewire(nv, epoch);
        }
        for &v in &nbrs {
            if v != hub {
                self.rewire_around(v);
            }
        }
        self.rewire_around(hub);
    }

    /// Re-admits a recovered resource as a leaf under the hub it was
    /// bridged through (falling back to any live resource if the hub has
    /// itself gone down since).
    fn recover(&mut self, u: usize) {
        if !self.departed[u] {
            return;
        }
        let anchor = self.crash_parent[u]
            .filter(|&p| !self.departed[p])
            .or_else(|| (0..self.departed.len()).find(|&v| v != u && !self.departed[v]));
        let Some(anchor) = anchor else { return };
        self.overlay.rejoin(u, anchor);
        self.departed[u] = false;
        self.resources[u].clear_degraded();
        let epoch =
            self.step_no.wrapping_mul(0x9E37).wrapping_add(self.resources.len() as u64) ^ 0xC0DE;
        self.resources[u].rewire(vec![anchor], epoch);
        if self.mode.wipes() {
            if self.mode.policy().is_some() {
                // Checkpoint restore: the journal is untrusted input. A
                // rejection halts the resource with a MaliciousResource
                // verdict (it rejoined the overlay but will never speak);
                // the grid keeps mining around it.
                if self.resources[u].restore_from_log() {
                    self.healing[u] = true;
                }
            } else {
                // Cold rejoin: nothing to restore; anti-entropy resends
                // rebuild the state until the backlog check clears.
                self.healing[u] = true;
            }
            if self.healing[u] {
                self.ensure_healing_next();
            }
        }
        self.mark_touch(u);
        self.rewire_around(anchor);
    }

    /// Fires the fault plan's crash/recover/depart events scheduled for
    /// the current step.
    fn apply_fault_schedule(&mut self) {
        let Some(link) = &mut self.link else { return };
        let t = self.step_no;
        let started = link.plan().outages_at(t);
        let recovered = link.plan().recoveries_at(t);
        let mut reasons: Vec<(usize, DegradeReason)> = Vec::with_capacity(started.len());
        for &u in &started {
            if self.departed[u] {
                continue;
            }
            match link.plan().fault_of(u) {
                Some(ResourceFault::Depart { .. }) => {
                    link.stats_mut().departures += 1;
                    emit(&self.rec, || Event::ResourceDeparted { resource: u as u64, tick: t });
                    reasons.push((u, DegradeReason::Departed));
                }
                _ => {
                    link.stats_mut().crashes += 1;
                    emit(&self.rec, || Event::ResourceCrashed { resource: u as u64, tick: t });
                    reasons.push((u, DegradeReason::Crashed));
                }
            }
        }
        for &u in &recovered {
            if self.departed[u] {
                link.stats_mut().recoveries += 1;
                emit(&self.rec, || Event::ResourceRecovered { resource: u as u64, tick: t });
            }
        }
        for (u, reason) in reasons {
            self.quarantine(u, reason);
        }
        for u in recovered {
            self.recover(u);
        }
    }

    /// Liveness pass: a resource that degraded on its own (mute
    /// controller, audit halt against its own broker) stops serving its
    /// subtree — route the overlay around it so the rest of the grid
    /// keeps converging.
    fn route_around_degraded(&mut self) {
        let stuck: Vec<(usize, DegradeReason)> = self
            .resources
            .iter()
            .enumerate()
            .filter(|(u, _)| !self.departed[*u])
            .filter_map(|(u, r)| r.degraded().map(|reason| (u, reason)))
            .collect();
        for (u, reason) in stuck {
            self.quarantine(u, reason);
        }
    }

    /// What the fault layer did so far: injected faults, SFE retries spent
    /// against mute controllers, resources degraded, and the number of
    /// steps convergence was exposed to faults. Deterministic per plan
    /// seed.
    pub fn chaos_report(&self) -> ChaosReport {
        let faults = self.link.as_ref().map(|l| l.stats()).unwrap_or_default();
        let degraded: Vec<usize> = self
            .resources
            .iter()
            .enumerate()
            .filter(|(_, r)| r.degraded().is_some())
            .map(|(u, _)| u)
            .collect();
        ChaosReport {
            faults,
            retries: self.resources.iter().map(|r| r.retries_spent()).sum(),
            degraded,
            convergence_delay: self
                .link
                .as_ref()
                .and_then(|l| l.plan().onset())
                .map_or(0, |onset| self.step_no.saturating_sub(onset)),
            resends: self.resources.iter().map(|r| r.resends_sent()).sum(),
            checkpoints: self.resources.iter().map(|r| r.recovery_checkpoints()).sum(),
            replays: self.resources.iter().map(|r| r.recovery_replays()).sum(),
            rejected: self.resources.iter().map(|r| r.recovery_rejected()).sum(),
            exhausted: self.resources.iter().map(|r| u64::from(r.retry_exhausted())).sum(),
        }
    }

    fn collect_new_verdicts(&mut self) {
        let mut fresh = Vec::new();
        for r in &self.resources {
            if let Some(v) = r.verdict() {
                if !self.verdicts.iter().any(|&(_, w)| w == v) {
                    fresh.push(v);
                }
            }
        }
        for v in fresh {
            self.verdicts.push((self.step_no, v));
            if self.broadcast_verdicts {
                for r in self.resources.iter_mut() {
                    r.on_verdict_broadcast(v);
                }
            }
        }
    }

    /// Runs one simulation step of the legacy global-tick loop — kept as
    /// the differential oracle for [`Simulation::run_event_driven`]
    /// (wheel-vs-tick equivalence is pinned by the test suite). Manual
    /// ticks invalidate any armed event scheduler; it re-bootstraps on
    /// the next event-driven run.
    pub fn step(&mut self) {
        self.sched = None;
        self.step_no += 1;
        let t = self.step_no;
        emit(&self.rec, || Event::RoundAdvanced { tick: t });

        // Phase 0: scheduled faults fire before anything else this step.
        self.apply_fault_schedule();

        // Phase 1: deliver messages scheduled for this step.
        self.deliver_due(t);

        // Phase 2: database growth (departed resources' partitions are
        // frozen as of their departure).
        let growth = self.cfg.growth_per_step;
        if growth > 0 {
            for (u, (r, plan)) in self.resources.iter_mut().zip(self.plans.iter_mut()).enumerate() {
                if self.departed[u] {
                    continue;
                }
                let txs = plan.take(growth);
                if !txs.is_empty() {
                    r.accountant_mut().append(txs);
                }
            }
        }

        // Phase 3: local processing. A healing resource scans at the
        // recovery policy's catch-up budget (bounding the rejoin burst);
        // everyone else uses the configured budget.
        let budget = self.cfg.scan_budget;
        let catchup = self.mode.catchup_scan_budget() as usize;
        let departed = self.departed.clone();
        let healing = self.healing.clone();
        let wipes = self.mode.wipes();
        let outs: Vec<Vec<WireMsg<C>>> = self
            .resources
            .par_iter_mut()
            .enumerate()
            .map(|(u, r)| {
                if departed[u] {
                    Vec::new()
                } else if wipes && healing[u] {
                    r.step(catchup)
                } else {
                    r.step(budget)
                }
            })
            .collect();
        for out in outs {
            self.schedule(out);
        }

        let resend_every = self.mode.retry().resend_every.max(1);

        // Phase 3b: anti-entropy under lossy links — periodically lift the
        // duplicate-send suppressors and resend current aggregates, so a
        // dropped message is healed instead of being suppressed forever.
        // Resends carry unchanged Lamport traces (idempotent, not replays).
        if t.is_multiple_of(resend_every)
            && self.link.as_ref().is_some_and(|l| l.plan().has_edge_faults())
        {
            self.anti_entropy_pass();
        }

        // Phase 3c: rejoin healing — a recovered resource and its
        // neighbors exchange resends on the retry policy's cadence until
        // it has candidates and no scan backlog. A warm (checkpoint)
        // restore typically clears the check immediately; a cold rejoin
        // keeps paying resends until rebuilt — that cost difference is
        // the measured value of the journal.
        if wipes && t.is_multiple_of(resend_every) {
            self.healing_pass();
        }

        // Phase 3d: checkpoint cadence — snapshot + journal truncation,
        // so replay length stays bounded by the checkpoint interval.
        if let Some(policy) = self.mode.policy() {
            if t.is_multiple_of(policy.checkpoint_every.max(1)) {
                self.checkpoint_pass(t);
            }
        }

        // Phase 4: candidate generation every few cycles.
        if t.is_multiple_of(self.cfg.candidate_every) {
            let outs: Vec<Vec<WireMsg<C>>> =
                self.resources.par_iter_mut().map(|r| r.generate_candidates()).collect();
            for out in outs {
                self.schedule(out);
            }
        }

        // Phase 5: liveness — isolate resources that degraded on their own
        // (e.g. a mute controller exhausted its broker's retry budget).
        self.route_around_degraded();

        self.collect_new_verdicts();
    }

    /// Runs `n` steps of the legacy tick loop (the differential oracle
    /// for [`Simulation::run_event_driven`]).
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    // ─────────────────────── event-driven driver ───────────────────────

    /// Shared delivery body (tick phase 1): messages scheduled for `t`
    /// are handed to their receivers (ascending id, per-receiver schedule
    /// order) and each receiver's replies are scheduled as one batch.
    /// Parallel across receivers when most of the grid is busy,
    /// sequential over the sparse inbox otherwise — output-identical
    /// either way, because `on_receive` has no cross-resource interaction
    /// and every reply lands at `t + delay ≥ t + 1`.
    fn deliver_due(&mut self, t: u64) {
        let Some(inbox) = self.inflight.remove(&t) else { return };
        let n = self.resources.len();
        if inbox.len() * 4 >= n {
            let mut buckets: Vec<Vec<WireMsg<C>>> = (0..n).map(|_| Vec::new()).collect();
            for (to, msgs) in inbox {
                buckets[to] = msgs;
            }
            let departed = self.departed.clone();
            let outs: Vec<(bool, Vec<WireMsg<C>>)> = self
                .resources
                .par_iter_mut()
                .zip(buckets)
                .enumerate()
                .map(|(u, (r, msgs))| {
                    if departed[u] || msgs.is_empty() {
                        return (false, Vec::new());
                    }
                    let mut out = Vec::new();
                    for m in msgs {
                        out.extend(r.on_receive(&m));
                    }
                    (true, out)
                })
                .collect();
            for (u, (received, out)) in outs.into_iter().enumerate() {
                if received {
                    self.mark_touch(u);
                    self.schedule(out);
                }
            }
        } else {
            for (to, msgs) in inbox {
                if to >= n || self.departed[to] {
                    continue;
                }
                let mut out = Vec::new();
                for m in &msgs {
                    out.extend(self.resources[to].on_receive(m));
                }
                self.mark_touch(to);
                self.schedule(out);
            }
        }
    }

    /// Records that `u`'s protocol state changed: it joins the touched
    /// and dirty sets and a candidate pass is guaranteed at the next
    /// cadence point. No-op while the tick loop drives the sim.
    fn note_effect(&mut self, u: usize) {
        if self.sched.is_none() {
            return;
        }
        self.touched_now.insert(u);
        self.dirty.insert(u);
        self.ensure_candidates_next();
    }

    /// [`Simulation::note_effect`] plus scan arming: `u` may now hold
    /// backlog, so a scan pass must look at it — this timestamp if scans
    /// have not fired yet, else the next.
    fn mark_touch(&mut self, u: usize) {
        if self.sched.is_none() {
            return;
        }
        self.note_effect(u);
        self.scan_armed.insert(u);
        self.ensure_pass(self.step_no, Pass::Scan);
    }

    /// Guarantees `pass` fires at `at`: same-timestamp when it still
    /// ranks after the pass currently firing, otherwise clamped forward
    /// to the next timestamp. Deduplicated against the wheel.
    fn ensure_pass(&mut self, at: u64, pass: Pass) {
        let t = self.step_no;
        let Some(s) = self.sched.as_mut() else { return };
        if s.processing && at <= t && pass > s.phase {
            s.agenda.insert(pass);
            return;
        }
        let at = at.max(t + 1);
        if s.scheduled.insert((at, pass)) {
            s.timer.schedule(at, pass);
        }
    }

    /// Guarantees a candidate pass at the next `candidate_every` cadence
    /// point (including the current timestamp while candidates have not
    /// fired yet — the tick loop's phase 4 would still cover it).
    fn ensure_candidates_next(&mut self) {
        let ce = self.cfg.candidate_every.max(1);
        let t = self.step_no;
        let same_t = t.is_multiple_of(ce)
            && self.sched.as_ref().is_some_and(|s| s.processing && Pass::Candidates > s.phase);
        let target = if same_t { t } else { (t / ce + 1) * ce };
        self.ensure_pass(target, Pass::Candidates);
    }

    /// Guarantees a healing pass at the next resend cadence point.
    fn ensure_healing_next(&mut self) {
        let re = self.mode.retry().resend_every.max(1);
        let t = self.step_no;
        let same_t = t.is_multiple_of(re)
            && self.sched.as_ref().is_some_and(|s| s.processing && Pass::Healing > s.phase);
        let target = if same_t { t } else { (t / re + 1) * re };
        self.ensure_pass(target, Pass::Healing);
    }

    /// Bootstraps the event scheduler from the simulation's current
    /// state: pending deliveries, the fault plan's event times, growth /
    /// scan / healing arming, and the recurring cadence passes. The first
    /// candidate pass covers the whole grid (everyone dirty), so the
    /// wheel starts from tick-identical caches.
    fn arm_wheel(&mut self) {
        self.sched = Some(SchedState {
            timer: TimerWheel::new(self.step_no),
            scheduled: BTreeSet::new(),
            agenda: BTreeSet::new(),
            processing: false,
            phase: Pass::Faults,
        });
        self.touched_now.clear();
        self.deferred_live.clear();
        let now = self.step_no;

        let fault_times: Vec<u64> = self
            .link
            .as_ref()
            .map(|l| l.plan().schedule_events().iter().map(|e| e.at).filter(|&a| a > now).collect())
            .unwrap_or_default();
        for at in fault_times {
            self.ensure_pass(at, Pass::Faults);
        }

        let delivery_times: Vec<u64> = self.inflight.keys().copied().collect();
        for at in delivery_times {
            self.ensure_pass(at, Pass::Deliver);
        }

        self.growing = (0..self.plans.len()).filter(|&u| self.plans[u].remaining() > 0).collect();
        if self.cfg.growth_per_step > 0 && !self.growing.is_empty() {
            self.ensure_pass(now + 1, Pass::Growth);
        }

        self.scan_armed = (0..self.resources.len())
            .filter(|&u| {
                !self.departed[u]
                    && self.resources[u].verdict().is_none()
                    && self.resources[u].degraded().is_none()
                    && self.resources[u].accountant().total_backlog() > 0
            })
            .collect();
        if !self.scan_armed.is_empty() {
            self.ensure_pass(now + 1, Pass::Scan);
        }

        let resend_every = self.mode.retry().resend_every.max(1);
        if self.link.as_ref().is_some_and(|l| l.plan().has_edge_faults()) {
            self.ensure_pass((now / resend_every + 1) * resend_every, Pass::AntiEntropy);
        }
        if self.mode.wipes() && self.healing.iter().any(|&h| h) {
            self.ensure_pass((now / resend_every + 1) * resend_every, Pass::Healing);
        }
        if let Some(policy) = self.mode.policy() {
            let ck = policy.checkpoint_every.max(1);
            self.ensure_pass((now / ck + 1) * ck, Pass::Checkpoint);
        }

        self.dirty = (0..self.resources.len()).collect();
        let ce = self.cfg.candidate_every.max(1);
        self.ensure_pass((now / ce + 1) * ce, Pass::Candidates);

        self.deferred_live = (0..self.resources.len())
            .filter(|&u| !self.departed[u] && self.resources[u].degraded().is_some())
            .collect();
        if !self.deferred_live.is_empty() {
            self.ensure_pass(now + 1, Pass::Wake);
        }
    }

    /// Runs `n` steps of simulated time on the event scheduler. The
    /// observable outcome — solutions, verdicts, chaos tallies, message
    /// and byte counts, obs event counts — is pinned identical to
    /// [`Simulation::run`] under the same seed (the wheel-vs-tick
    /// differential suite enforces it); timestamps with no scheduled pass
    /// cost one round marker and nothing else, so idle resources are
    /// free.
    pub fn run_event_driven(&mut self, n: u64) {
        let end = self.step_no.saturating_add(n);
        if self.sched.is_none() {
            self.arm_wheel();
        }
        loop {
            let next = self.sched.as_ref().and_then(|s| s.timer.peek_next_time());
            let Some(next) = next else { break };
            if next > end {
                break;
            }
            for t in self.step_no + 1..=next {
                emit(&self.rec, || Event::RoundAdvanced { tick: t });
            }
            self.step_no = next;
            self.process_timestamp(next);
        }
        for t in self.step_no + 1..=end {
            emit(&self.rec, || Event::RoundAdvanced { tick: t });
        }
        self.step_no = end;
    }

    /// Pops the pass batch due at `t` and fires it in phase order;
    /// passes ensured mid-timestamp join the agenda when they still rank
    /// ahead. Ends with the liveness + verdict finalizer.
    fn process_timestamp(&mut self, t: u64) {
        {
            let Some(s) = self.sched.as_mut() else { return };
            let Some((_, passes)) = s.timer.pop_next() else { return };
            for p in passes {
                s.scheduled.remove(&(t, p));
                s.agenda.insert(p);
            }
            s.processing = true;
        }
        loop {
            let pass = {
                let Some(s) = self.sched.as_mut() else { return };
                match s.agenda.pop_first() {
                    Some(p) => {
                        s.phase = p;
                        p
                    }
                    None => break,
                }
            };
            self.fire_pass(pass, t);
        }
        if let Some(s) = self.sched.as_mut() {
            s.processing = false;
        }
        self.finalize_timestamp(t);
    }

    /// Dispatches one pass, mirroring the tick loop's phase conditions,
    /// and re-arms the recurring cadences.
    fn fire_pass(&mut self, pass: Pass, t: u64) {
        match pass {
            Pass::Faults => self.apply_fault_schedule(),
            Pass::Deliver => self.deliver_due(t),
            Pass::Growth => {
                self.growth_pass();
                if self.cfg.growth_per_step > 0 && !self.growing.is_empty() {
                    self.ensure_pass(t + 1, Pass::Growth);
                }
            }
            Pass::Scan => {
                self.scan_pass();
                if !self.scan_armed.is_empty() {
                    self.ensure_pass(t + 1, Pass::Scan);
                }
            }
            Pass::AntiEntropy => {
                if self.link.as_ref().is_some_and(|l| l.plan().has_edge_faults()) {
                    self.anti_entropy_pass();
                    let re = self.mode.retry().resend_every.max(1);
                    self.ensure_pass(t + re, Pass::AntiEntropy);
                }
            }
            Pass::Healing => {
                if self.mode.wipes() {
                    self.healing_pass();
                    if self.healing.iter().any(|&h| h) {
                        let re = self.mode.retry().resend_every.max(1);
                        self.ensure_pass(t + re, Pass::Healing);
                    }
                }
            }
            Pass::Checkpoint => {
                if let Some(policy) = self.mode.policy() {
                    self.checkpoint_pass(t);
                    self.ensure_pass(t + policy.checkpoint_every.max(1), Pass::Checkpoint);
                }
            }
            Pass::Candidates => self.candidate_pass(),
            Pass::Wake => {}
        }
    }

    /// End-of-timestamp sweep over the resources touched at `t` — tick
    /// phase 5 (liveness quarantine) plus verdict collection, restricted.
    /// Repairs touch further resources; those are deferred to a liveness
    /// wake at `t + 1`, exactly when the tick loop would next examine
    /// them.
    fn finalize_timestamp(&mut self, t: u64) {
        let mut ids = std::mem::take(&mut self.touched_now);
        ids.append(&mut self.deferred_live);
        self.route_around_degraded_in(&ids);
        let late = std::mem::take(&mut self.touched_now);
        let mut sweep = ids;
        sweep.extend(late.iter().copied());
        self.collect_new_verdicts_in(&sweep);
        let broadcast_marks = std::mem::take(&mut self.touched_now);
        if !late.is_empty() || !broadcast_marks.is_empty() {
            self.deferred_live.extend(late);
            self.deferred_live.extend(broadcast_marks);
            self.ensure_pass(t + 1, Pass::Wake);
        }
    }

    /// Growth body for the event driver (tick phase 2 restricted to
    /// resources whose stream still has transactions).
    fn growth_pass(&mut self) {
        let growth = self.cfg.growth_per_step;
        if growth == 0 {
            return;
        }
        let ids: Vec<usize> = self.growing.iter().copied().collect();
        for u in ids {
            if self.departed[u] {
                continue;
            }
            let txs = self.plans[u].take(growth);
            if !txs.is_empty() {
                self.resources[u].accountant_mut().append(txs);
                self.mark_touch(u);
            }
            if self.plans[u].remaining() == 0 {
                self.growing.remove(&u);
            }
        }
    }

    /// Scan body for the event driver (tick phase 3 restricted): only
    /// resources that may hold backlog are stepped; the armed set
    /// self-maintains (drained, departed and halted resources drop out).
    fn scan_pass(&mut self) {
        let n = self.resources.len();
        let stale: Vec<usize> =
            self.scan_armed.iter().copied().filter(|&u| u >= n || self.departed[u]).collect();
        for u in stale {
            self.scan_armed.remove(&u);
        }
        let ids: Vec<usize> = self.scan_armed.iter().copied().collect();
        if ids.is_empty() {
            return;
        }
        let budget = self.cfg.scan_budget;
        let catchup = self.mode.catchup_scan_budget() as usize;
        let wipes = self.mode.wipes();
        let mut gathered: Vec<(usize, bool, bool, Vec<WireMsg<C>>)> = Vec::new();
        if ids.len() * 4 >= n {
            let healing = self.healing.clone();
            let armed = self.scan_armed.clone();
            let per: Vec<ScanOutcome<C>> = self
                .resources
                .par_iter_mut()
                .enumerate()
                .map(|(u, r)| {
                    if !armed.contains(&u) {
                        return None;
                    }
                    let before = r.accountant().total_backlog();
                    let out = if wipes && healing[u] { r.step(catchup) } else { r.step(budget) };
                    let keep = r.accountant().total_backlog() > 0
                        && r.verdict().is_none()
                        && r.degraded().is_none();
                    Some((before > 0, keep, out))
                })
                .collect();
            for (u, slot) in per.into_iter().enumerate() {
                if let Some((effect, keep, out)) = slot {
                    gathered.push((u, effect, keep, out));
                }
            }
        } else {
            for u in ids {
                let before = self.resources[u].accountant().total_backlog();
                let out = if wipes && self.healing[u] {
                    self.resources[u].step(catchup)
                } else {
                    self.resources[u].step(budget)
                };
                let keep = self.resources[u].accountant().total_backlog() > 0
                    && self.resources[u].verdict().is_none()
                    && self.resources[u].degraded().is_none();
                gathered.push((u, before > 0, keep, out));
            }
        }
        for (u, effect, keep, out) in gathered {
            if !keep {
                self.scan_armed.remove(&u);
            }
            if effect {
                self.note_effect(u);
            }
            self.schedule(out);
        }
    }

    /// Anti-entropy resend body (tick phase 3b): every live resource
    /// lifts its duplicate-send suppressors and renudges — one schedule
    /// batch for the whole pass, as in the tick loop (the chaos sort
    /// canonicalizes whole batches, so batching is part of the pinned
    /// behavior).
    fn anti_entropy_pass(&mut self) {
        let mut msgs = Vec::new();
        let mut touched = Vec::new();
        for u in 0..self.resources.len() {
            if self.departed[u] {
                continue;
            }
            let nbrs: Vec<usize> = self.overlay.neighbors(u).collect();
            for v in nbrs {
                self.resources[u].reset_edge(v);
            }
            msgs.extend(self.resources[u].nudge());
            touched.push(u);
        }
        self.schedule(msgs);
        for u in touched {
            self.mark_touch(u);
        }
    }

    /// Rejoin-healing body (tick phase 3c): healing resources and their
    /// neighbors exchange resends until the backlog check clears — one
    /// schedule batch for the whole pass.
    fn healing_pass(&mut self) {
        let mut msgs = Vec::new();
        let mut touched = Vec::new();
        for u in 0..self.resources.len() {
            if !self.healing[u] || self.departed[u] {
                continue;
            }
            if self.resources[u].candidate_count() > 0
                && self.resources[u].accountant().total_backlog() == 0
            {
                self.healing[u] = false;
                continue;
            }
            let nbrs: Vec<usize> = self.overlay.neighbors(u).collect();
            for &v in &nbrs {
                self.resources[v].reset_edge(u);
                msgs.extend(self.resources[v].nudge());
                self.resources[u].reset_edge(v);
                touched.push(v);
            }
            msgs.extend(self.resources[u].nudge());
            touched.push(u);
        }
        self.schedule(msgs);
        for u in touched {
            self.mark_touch(u);
        }
    }

    /// Checkpoint body (tick phase 3d): snapshot + journal truncation on
    /// every armed, present resource.
    fn checkpoint_pass(&mut self, t: u64) {
        for u in 0..self.resources.len() {
            if !self.departed[u] && self.resources[u].recovery_armed() {
                self.resources[u].take_checkpoint(t);
            }
        }
    }

    /// Candidate-generation body for the event driver (tick phase 4,
    /// restricted to resources whose state changed since their last
    /// pass). When a recovery policy is armed, `generate_candidates`
    /// appends an `OutputCached` journal entry per cached rule on *every*
    /// call — skipping clean resources would shrink their journals and
    /// change replay tallies after a restore — so journalled runs always
    /// take the full-grid path, like the tick loop.
    fn candidate_pass(&mut self) {
        let n = self.resources.len();
        let journaled = self.mode.policy().is_some();
        let ids: Vec<usize> = if journaled {
            self.dirty.clear();
            (0..n).filter(|&u| !self.departed[u]).collect()
        } else {
            let mut set = std::mem::take(&mut self.dirty);
            set.extend(self.always_dirty.iter().copied());
            set.into_iter().filter(|&u| u < n && !self.departed[u]).collect()
        };
        if ids.is_empty() {
            if !self.always_dirty.is_empty() {
                self.ensure_candidates_next();
            }
            return;
        }
        let mut gathered: Vec<(usize, usize, usize, Vec<WireMsg<C>>)> = Vec::new();
        if ids.len() * 4 >= n {
            let wanted: BTreeSet<usize> = ids.iter().copied().collect();
            let per: Vec<CandidateOutcome<C>> = self
                .resources
                .par_iter_mut()
                .enumerate()
                .map(|(u, r)| {
                    if !wanted.contains(&u) {
                        return None;
                    }
                    let before = r.candidate_count();
                    let out = r.generate_candidates();
                    Some((before, r.candidate_count(), out))
                })
                .collect();
            for (u, slot) in per.into_iter().enumerate() {
                if let Some((before, after, out)) = slot {
                    gathered.push((u, before, after, out));
                }
            }
        } else {
            for u in ids {
                let before = self.resources[u].candidate_count();
                let out = self.resources[u].generate_candidates();
                gathered.push((u, before, self.resources[u].candidate_count(), out));
            }
        }
        for (u, before, after, out) in gathered {
            let touched = !out.is_empty()
                || after != before
                || self.resources[u].degraded().is_some()
                || self.resources[u]
                    .verdict()
                    .is_some_and(|v| !self.verdicts.iter().any(|&(_, w)| w == v));
            if touched {
                self.mark_touch(u);
            }
            self.schedule(out);
        }
        if !self.always_dirty.is_empty() {
            self.ensure_candidates_next();
        }
    }

    /// Tick phase 5 restricted to `ids`: quarantine the self-degraded.
    fn route_around_degraded_in(&mut self, ids: &BTreeSet<usize>) {
        let stuck: Vec<(usize, DegradeReason)> = ids
            .iter()
            .copied()
            .filter(|&u| u < self.resources.len() && !self.departed[u])
            .filter_map(|u| self.resources[u].degraded().map(|reason| (u, reason)))
            .collect();
        for (u, reason) in stuck {
            self.quarantine(u, reason);
        }
    }

    /// Verdict collection restricted to `ids`, preserving the tick
    /// loop's exact semantics — including its lack of within-pass
    /// deduplication (two resources surfacing the same fresh verdict in
    /// one pass both record it). A broadcast mutates every live
    /// resource, so they are all marked for re-examination.
    fn collect_new_verdicts_in(&mut self, ids: &BTreeSet<usize>) {
        let mut fresh = Vec::new();
        for &u in ids {
            let Some(v) = self.resources.get(u).and_then(|r| r.verdict()) else { continue };
            if !self.verdicts.iter().any(|&(_, w)| w == v) {
                fresh.push(v);
            }
        }
        let any = !fresh.is_empty();
        for v in fresh {
            self.verdicts.push((self.step_no, v));
            if self.broadcast_verdicts {
                for r in self.resources.iter_mut() {
                    r.on_verdict_broadcast(v);
                }
            }
        }
        if any && self.broadcast_verdicts {
            let live: Vec<usize> =
                (0..self.resources.len()).filter(|&u| !self.departed[u]).collect();
            for u in live {
                self.note_effect(u);
            }
        }
    }

    /// Every resource's interim solution, in id order — the
    /// `MiningOutcome::solutions` shape the threaded and net drivers
    /// return.
    pub fn solutions(&self) -> Vec<RuleSet> {
        self.resources.iter().map(|r| r.interim()).collect()
    }

    /// Per-resource health, in id order — the `MiningOutcome::statuses`
    /// shape the threaded and net drivers return.
    pub fn statuses(&self) -> Vec<ResourceStatus> {
        self.resources
            .iter()
            .map(|r| r.degraded().map_or(ResourceStatus::Ok, ResourceStatus::Degraded))
            .collect()
    }

    /// Forces an `Output()` refresh everywhere (before sampling metrics).
    pub fn refresh_outputs(&mut self) {
        self.resources.par_iter_mut().for_each(|r| r.refresh_outputs());
    }

    /// The union of every resource's *current* database content — the
    /// `DB_t` that defines `R[DB_t]`.
    /// Only present resources count: a departed resource's data is gone
    /// from every *fresh* disclosure (its former neighbor rebuilt its
    /// aggregates without it). Cached interim answers may keep reflecting
    /// the departed history until new data outgrows the k-gate registers —
    /// the price of the protocol's monotone disclosure accounting.
    pub fn current_global_db(&self) -> Database {
        Database::union_of(
            self.resources
                .iter()
                .enumerate()
                .filter(|(u, _)| !self.departed[*u])
                .map(|(_, r)| r.accountant().db()),
        )
    }

    /// Average recall and precision across all present resources against
    /// `truth`.
    pub fn global_recall_precision(&self, truth: &RuleSet) -> (f64, f64) {
        let n = self.departed.iter().filter(|&&d| !d).count() as f64;
        let (r_sum, p_sum) = self
            .resources
            .par_iter()
            .enumerate()
            .filter(|(u, _)| !self.departed[*u])
            .map(|(_, r)| {
                let interim = r.interim();
                (gridmine_arm::recall(&interim, truth), gridmine_arm::precision(&interim, truth))
            })
            .reduce(|| (0.0, 0.0), |a, b| (a.0 + b.0, a.1 + b.1));
        (r_sum / n, p_sum / n)
    }

    /// Fraction of resources whose interim solution contains every rule of
    /// `truth` (per-rule coverage used by the single-itemset experiments).
    pub fn coverage(&self, truth: &RuleSet) -> f64 {
        if truth.is_empty() {
            return 1.0;
        }
        let n = self.departed.iter().filter(|&&d| !d).count() as f64;
        let covered = self
            .resources
            .par_iter()
            .enumerate()
            .filter(|(u, r)| {
                if self.departed[*u] {
                    return false;
                }
                let interim = r.interim();
                truth.iter().all(|rule| interim.contains(rule))
            })
            .count();
        covered as f64 / n
    }

    /// Number of local-database scans completed so far (the x-axis of
    /// Figure 2): steps × budget / current average local size.
    pub fn scans_completed(&self) -> f64 {
        let avg_size: f64 =
            self.resources.iter().map(|r| r.accountant().db_len() as f64).sum::<f64>()
                / self.resources.len() as f64;
        if avg_size == 0.0 {
            return 0.0;
        }
        (self.step_no as f64 * self.cfg.scan_budget as f64) / avg_size
    }

    /// The thresholds as an Apriori config (ground-truth computation).
    pub fn apriori_cfg(&self) -> gridmine_arm::AprioriConfig {
        gridmine_arm::AprioriConfig::new(self.cfg.min_freq, self.cfg.min_conf)
    }

    /// λ accessor pair.
    pub fn thresholds(&self) -> (Ratio, Ratio) {
        (self.cfg.min_freq, self.cfg.min_conf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridmine_arm::{correct_rules, Transaction};
    use gridmine_paillier::MockCipher;

    fn grid(n: usize, k: i64) -> Simulation<MockCipher> {
        let keys = GridKeys::mock(1);
        // Every resource holds {1,2}-heavy data; {1,2} is globally frequent.
        let plans: Vec<GrowthPlan> = (0..n)
            .map(|u| {
                GrowthPlan::fixed(Database::from_transactions(
                    (0..40)
                        .map(|j| {
                            let id = (u * 40 + j) as u64;
                            if j % 4 == 0 {
                                Transaction::of(id, &[3])
                            } else {
                                Transaction::of(id, &[1, 2])
                            }
                        })
                        .collect(),
                ))
            })
            .collect();
        let mut cfg = SimConfig::small().with_resources(n).with_k(k);
        cfg.growth_per_step = 0;
        cfg.min_freq = Ratio::new(1, 2);
        cfg.min_conf = Ratio::new(1, 2);
        let items: Vec<Item> = vec![Item(1), Item(2), Item(3)];
        Simulation::new(cfg, &keys, plans, &items)
    }

    #[test]
    fn small_grid_converges_to_centralized_result() {
        let mut sim = grid(8, 1);
        sim.run(40);
        sim.refresh_outputs();
        let truth = correct_rules(&sim.current_global_db(), &sim.apriori_cfg());
        let (recall, precision) = sim.global_recall_precision(&truth);
        assert!(recall > 0.99, "recall {recall}");
        assert!(precision > 0.99, "precision {precision}");
        assert!(sim.verdicts.is_empty());
        assert!(sim.total_msgs > 0);
    }

    #[test]
    fn privacy_gate_blocks_small_grids() {
        // k = 6 > what a 4-resource grid can ever aggregate: nothing is
        // disclosed, recall stays 0.
        let mut sim = grid(4, 6);
        sim.run(30);
        sim.refresh_outputs();
        let truth = correct_rules(&sim.current_global_db(), &sim.apriori_cfg());
        let (recall, _) = sim.global_recall_precision(&truth);
        assert_eq!(recall, 0.0, "k-privacy floor must gate all outputs");
    }

    #[test]
    fn attack_surfaces_as_verdict() {
        let mut sim = grid(6, 1);
        sim.broadcast_verdicts = true;
        let victim = sim.overlay().neighbors(2).next().unwrap();
        sim.corrupt_broker(2, BrokerBehavior::DoubleCount(victim));
        sim.run(20);
        assert!(
            sim.verdicts.iter().any(|&(_, v)| v == Verdict::MaliciousBroker(2)),
            "double-count must be detected, got {:?}",
            sim.verdicts
        );
    }

    #[test]
    fn growth_streams_are_consumed() {
        let keys = GridKeys::mock(2);
        let txs: Vec<Transaction> = (0..200).map(|i| Transaction::of(i, &[1])).collect();
        let global = Database::from_transactions(txs);
        let plans = crate::workload::split_growth(&global, 4, 0.5, 1);
        let mut cfg = SimConfig::small().with_resources(4).with_k(1);
        cfg.growth_per_step = 5;
        let mut sim = Simulation::new(cfg, &keys, plans, &[Item(1)]);
        let before = sim.current_global_db().len();
        sim.run(10);
        let after = sim.current_global_db().len();
        assert!(after > before, "databases must grow");
        assert_eq!(after, 200, "everything eventually arrives");
    }
}

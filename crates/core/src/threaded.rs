//! Asynchronous multithreaded mining — the paper's "asynchronous …
//! involves no global communication patterns" claim, executed literally.
//!
//! [`MineSession::run_threaded`] runs every resource on its own OS
//! thread; links are crossbeam channels; message processing happens
//! whenever a message arrives, in whatever order the scheduler produces
//! (per-edge FIFO is preserved by the channels, which is all the
//! protocol needs — see the controller's Lamport-trace documentation).
//!
//! Quiescence is detected with an atomic in-flight counter: a sender
//! increments it before each send and the receiver decrements after fully
//! processing (its own consequent sends were already counted), so the
//! counter reads zero iff no message exists anywhere in the system. A
//! barrier then aligns the threads for the next scan/candidate round.
//!
//! # Fault tolerance
//!
//! Under [`MineSession::with_faults`] every send is threaded through a
//! [`FaultyLink`], injecting the deterministic drop/duplication/jitter
//! and crash schedules of a [`FaultPlan`] (ticks = rounds here). The
//! driver degrades rather than aborts:
//!
//! * a worker panic is caught *inside* the round loop — the thread keeps
//!   meeting its barriers (so siblings never deadlock on a dead peer)
//!   but goes quiet, and the resource is reported
//!   [`ResourceStatus::Degraded`];
//! * a send to a disconnected peer is dropped, not escalated to a panic;
//! * a crashed resource discards its inbound traffic (keeping the
//!   quiescence counter sound) until its scheduled recovery, if any;
//! * under lossy links every round opens with an anti-entropy pass
//!   (`reset_edge` + `nudge`), so an aggregate lost to a drop is resent
//!   instead of being suppressed as a duplicate forever;
//! * a mute controller exhausts its resource's bounded SFE retry budget
//!   and degrades only that resource (see
//!   [`crate::resource::DEFAULT_RETRY_BUDGET`]).
//!
//! The injected faults, retries and degradations surface in
//! [`MiningOutcome::chaos`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Barrier};

use crossbeam_channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use gridmine_arm::RuleSet;
use gridmine_obs::{emit, Event, SharedRecorder};
use gridmine_paillier::HomCipher;
use gridmine_topology::faults::{FaultPlan, FaultStats, FaultyLink, ResourceFault};

use crate::chaos::{ChaosReport, DegradeReason, ResourceStatus};
use crate::miner::MiningOutcome;
use crate::recovery::{RecoveryMode, RetryPolicy};
use crate::resource::{SecureResource, WireMsg};

/// Sends `msgs` through the fault layer: dropped messages vanish,
/// duplicated ones go out twice, jittered ones are parked in `held`
/// until the next send phase, and sends to disconnected peers (dead
/// threads) are silently dropped instead of unwinding.
#[allow(clippy::too_many_arguments)]
fn chaos_send<C: HomCipher>(
    msgs: Vec<WireMsg<C>>,
    senders: &[Sender<WireMsg<C>>],
    in_flight: &AtomicI64,
    link: &mut FaultyLink,
    held: &mut Vec<WireMsg<C>>,
    rec: &SharedRecorder,
) {
    for m in msgs {
        let delivery = link.on_send(m.from, m.to);
        // Mirror FaultStats exactly: dropped iff copies == 0, duplicated
        // iff copies > 1, delayed iff extra jitter was added — so an event
        // log's per-type counts always agree with `ChaosReport::faults`.
        if delivery.is_dropped() {
            emit(rec, || Event::MessageDropped { from: m.from as u64, to: m.to as u64 });
        }
        if delivery.copies > 1 {
            emit(rec, || Event::MessageDuplicated {
                from: m.from as u64,
                to: m.to as u64,
                copies: u64::from(delivery.copies),
            });
        }
        if delivery.extra_delay > 0 {
            emit(rec, || Event::MessageDelayed {
                from: m.from as u64,
                to: m.to as u64,
                ticks: delivery.extra_delay,
            });
        }
        // Links are FIFO streams: while an earlier message on this edge
        // sits in the jitter buffer, later ones must queue behind it —
        // overtaking would present the receiver with a Lamport-timestamp
        // regression and be (correctly) flagged as a replay.
        let edge_blocked = held.iter().any(|h| h.from == m.from && h.to == m.to);
        for _ in 0..delivery.copies {
            let copy = m.clone();
            if delivery.extra_delay > 0 || edge_blocked {
                held.push(copy);
                continue;
            }
            in_flight.fetch_add(1, Ordering::SeqCst);
            if senders[copy.to].send(copy).is_err() {
                in_flight.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }
}

/// Runs `f`, converting a panic into a poisoned flag and a default
/// result — the worker thread stays alive to keep meeting its barriers.
fn guarded<T: Default>(poisoned: &mut bool, f: impl FnOnce() -> T) -> T {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(v) => v,
        Err(_) => {
            *poisoned = true;
            T::default()
        }
    }
}

/// Receives until quiescence. A down (crashed/poisoned) resource
/// discards its traffic but keeps the in-flight accounting sound.
/// Consecutive empty polls back off per the [`RetryPolicy`] (capped
/// exponential with seeded jitter; the first poll keeps the legacy
/// 1 ms timeout), so an idle drain does not spin at full tilt.
#[allow(clippy::too_many_arguments)]
fn drain<C: HomCipher>(
    resource: &mut SecureResource<C>,
    rx: &Receiver<WireMsg<C>>,
    senders: &[Sender<WireMsg<C>>],
    in_flight: &AtomicI64,
    link: &mut FaultyLink,
    held: &mut Vec<WireMsg<C>>,
    down: bool,
    poisoned: &mut bool,
    rec: &SharedRecorder,
    retry: &RetryPolicy,
) {
    let mut misses = 0u32;
    loop {
        match rx.recv_timeout(std::time::Duration::from_millis(retry.backoff_ms(misses))) {
            Ok(msg) => {
                misses = 0;
                if !down && !*poisoned {
                    let outs = guarded(poisoned, || resource.on_receive(&msg));
                    chaos_send(outs, senders, in_flight, link, held, rec);
                }
                in_flight.fetch_sub(1, Ordering::SeqCst);
            }
            Err(RecvTimeoutError::Timeout) => {
                if in_flight.load(Ordering::SeqCst) == 0 {
                    break;
                }
                misses += 1;
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
}

/// The threaded driver over pre-built (and pre-wired) resources — the
/// entry point for tests that corrupt resources by hand before running
/// them under true concurrency.
///
/// `plan` ticks are protocol rounds. Resources must be indexed by id
/// (resource `u` at position `u`) and already wired — see
/// [`crate::resource::wire_grid`].
pub fn run_threaded<C: HomCipher + 'static>(
    resources: Vec<SecureResource<C>>,
    rounds: usize,
    plan: FaultPlan,
) -> MiningOutcome {
    run_threaded_with(resources, rounds, plan, gridmine_obs::null())
}

/// [`run_threaded`] with an event recorder: every resource is attached to
/// `rec` before the threads start, the fault layer mirrors its stats as
/// events, and worker 0 marks round boundaries.
pub fn run_threaded_with<C: HomCipher + 'static>(
    resources: Vec<SecureResource<C>>,
    rounds: usize,
    plan: FaultPlan,
    rec: SharedRecorder,
) -> MiningOutcome {
    run_threaded_full(resources, rounds, plan, rec, RecoveryMode::Disabled)
}

/// The full threaded driver: [`run_threaded_with`] plus a crash-recovery
/// mode.
///
/// * [`RecoveryMode::Disabled`] — legacy semantics: a "crashed" resource
///   merely goes silent and resumes with its state intact.
/// * [`RecoveryMode::ColdRestart`] — the crash wipes volatile mining
///   state; the rejoined resource rebuilds from periodic anti-entropy
///   resends (its neighbors re-publish on the retry policy's cadence
///   until the run ends, since nothing tells them when it has caught up).
/// * [`RecoveryMode::Checkpoint`] — every resource journals its state
///   deltas; at the crash the journal is serialized to bytes (the
///   file-backed persistence path), and at the recovery tick it is
///   decoded, screened as untrusted input and replayed. A verified
///   restore needs exactly one resend exchange. A restore that overruns
///   the policy deadline is degraded by the watchdog
///   ([`DegradeReason::RecoveryStalled`]) rather than aborting the run.
pub fn run_threaded_full<C: HomCipher + 'static>(
    mut resources: Vec<SecureResource<C>>,
    rounds: usize,
    plan: FaultPlan,
    rec: SharedRecorder,
    mode: RecoveryMode,
) -> MiningOutcome {
    for r in resources.iter_mut() {
        r.set_recorder(rec.clone());
        if let Some(policy) = mode.policy() {
            r.arm_recovery();
            r.set_retry_policy(&policy.retry);
        }
    }
    let n = resources.len();
    for (u, r) in resources.iter().enumerate() {
        assert_eq!(r.id(), u, "resources must be indexed by id");
    }

    // One channel per resource; every thread holds senders to all (the
    // tree structure limits who actually writes to whom).
    let mut senders: Vec<Sender<WireMsg<C>>> = Vec::with_capacity(n);
    let mut receivers: Vec<Receiver<WireMsg<C>>> = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = unbounded();
        senders.push(tx);
        receivers.push(rx);
    }

    let in_flight = Arc::new(AtomicI64::new(0));
    let barrier = Arc::new(Barrier::new(n));
    let has_edge_faults = plan.has_edge_faults();

    type WorkerResult<C> = (SecureResource<C>, FaultStats, bool);
    let handles: Vec<std::thread::JoinHandle<WorkerResult<C>>> = resources
        .into_iter()
        .zip(receivers)
        .map(|(mut resource, rx)| {
            let senders = senders.clone();
            let in_flight = Arc::clone(&in_flight);
            let barrier = Arc::clone(&barrier);
            let plan = plan.clone();
            let rec = rec.clone();
            std::thread::spawn(move || {
                let u = resource.id();
                let mut link = FaultyLink::new(plan.clone());
                let mut held: Vec<WireMsg<C>> = Vec::new();
                let mut poisoned = false;
                let retry = mode.retry();
                // Serialized recovery image, captured at crash time — the
                // stand-in for the file a real deployment would persist.
                let mut image: Option<Vec<u8>> = None;
                // Crash/recovery schedule of this resource and its
                // neighbors (who must resend toward a rejoiner).
                let my_crash = match plan.fault_of(u) {
                    Some(ResourceFault::Crash { at, recover }) => Some((at, recover)),
                    _ => None,
                };
                let nbr_recovers: Vec<(usize, u64)> = resource
                    .layout()
                    .neighbors
                    .iter()
                    .filter_map(|&v| match plan.fault_of(v) {
                        Some(ResourceFault::Crash { recover: Some(rt), .. }) => Some((v, rt)),
                        _ => None,
                    })
                    .collect();
                // Whether a resend toward a resource that rejoined at
                // `rt` is due this tick: a verified checkpoint restore
                // needs exactly one exchange; a cold rejoin needs the
                // periodic cadence (nothing signals completion).
                let warm = matches!(mode, RecoveryMode::Checkpoint(_));
                let resend_due = |rt: u64, tick: u64| {
                    if warm {
                        tick == rt
                    } else {
                        tick >= rt && (tick - rt).is_multiple_of(retry.resend_every.max(1))
                    }
                };

                for round in 0..rounds {
                    let tick = round as u64;
                    let down = poisoned || plan.down(u, tick);
                    if u == 0 {
                        // Exactly one thread marks round boundaries, so the
                        // log carries `rounds` RoundAdvanced events total.
                        emit(&rec, || Event::RoundAdvanced { tick });
                    }

                    if mode.wipes() {
                        if let Some((at, recover)) = my_crash {
                            if tick == at {
                                // The crash loses volatile state; in
                                // checkpoint mode the journal is what a
                                // real node would have on disk.
                                resource.crash_wipe();
                                if warm {
                                    image = resource.encode_recovery_image();
                                }
                            }
                            if recover == Some(tick) {
                                match mode.policy() {
                                    Some(policy) => {
                                        // gridlint: allow(determinism) -- recovery watchdog measures real restore latency; it can only degrade a node, never feeds replayed protocol state
                                        let t0 = std::time::Instant::now();
                                        if let Some(bytes) = image.take() {
                                            guarded(&mut poisoned, || {
                                                resource.restore_from_image(&bytes)
                                            });
                                        }
                                        if t0.elapsed().as_nanos() > policy.retry.deadline_nanos() {
                                            resource.mark_degraded(DegradeReason::RecoveryStalled);
                                        }
                                    }
                                    None => resource.recover_reset(),
                                }
                            }
                        }
                    }

                    // Scan phase. The barrier between send and drain makes
                    // sure every thread's phase sends are counted in
                    // `in_flight` before anyone can observe zero and leave
                    // its drain loop early.
                    barrier.wait();
                    if !down {
                        let mut outs: Vec<WireMsg<C>> = Vec::new();
                        let mut heal_edges: Vec<usize> = Vec::new();
                        if has_edge_faults {
                            heal_edges.extend(resource.layout().neighbors.iter().copied());
                        }
                        if mode.wipes() {
                            // Rejoin healing: a resource that just came
                            // back (this one or a neighbor) triggers a
                            // resend exchange on the affected edges.
                            if my_crash
                                .and_then(|(_, r)| r)
                                .is_some_and(|rt| tick >= rt && resend_due(rt, tick))
                            {
                                heal_edges.extend(resource.layout().neighbors.iter().copied());
                            }
                            for &(v, rt) in &nbr_recovers {
                                if tick >= rt && resend_due(rt, tick) {
                                    heal_edges.push(v);
                                }
                            }
                        }
                        if !heal_edges.is_empty() {
                            // Anti-entropy: lift the duplicate-send
                            // suppressors and resend the current
                            // aggregates, healing earlier drops and
                            // wipes. Resends carry unchanged Lamport
                            // traces, so receivers treat them as
                            // idempotent, never as replays.
                            heal_edges.sort_unstable();
                            heal_edges.dedup();
                            for v in heal_edges {
                                resource.reset_edge(v);
                            }
                            outs.extend(guarded(&mut poisoned, || resource.nudge()));
                        }
                        if resource.recovery_armed()
                            && tick > 0
                            && mode
                                .policy()
                                .is_some_and(|p| tick.is_multiple_of(p.checkpoint_every))
                        {
                            resource.take_checkpoint(tick);
                        }
                        outs.extend(guarded(&mut poisoned, || resource.step(usize::MAX)));
                        // Jitter-delayed copies from earlier phases go out
                        // now — their delay has elapsed.
                        let delayed = std::mem::take(&mut held);
                        for m in delayed {
                            in_flight.fetch_add(1, Ordering::SeqCst);
                            if senders[m.to].send(m).is_err() {
                                in_flight.fetch_sub(1, Ordering::SeqCst);
                            }
                        }
                        chaos_send(outs, &senders, &in_flight, &mut link, &mut held, &rec);
                    }
                    barrier.wait();
                    drain(
                        &mut resource,
                        &rx,
                        &senders,
                        &in_flight,
                        &mut link,
                        &mut held,
                        down,
                        &mut poisoned,
                        &rec,
                        &retry,
                    );

                    // Candidate-generation phase.
                    barrier.wait();
                    if !down {
                        let outs = guarded(&mut poisoned, || resource.generate_candidates());
                        chaos_send(outs, &senders, &in_flight, &mut link, &mut held, &rec);
                    }
                    barrier.wait();
                    drain(
                        &mut resource,
                        &rx,
                        &senders,
                        &in_flight,
                        &mut link,
                        &mut held,
                        down,
                        &mut poisoned,
                        &rec,
                        &retry,
                    );
                }
                barrier.wait();
                if !poisoned && !plan.down(u, rounds as u64) {
                    guarded(&mut poisoned, || resource.refresh_outputs());
                }
                (resource, link.stats(), poisoned)
            })
        })
        .collect();

    let rounds_tick = rounds as u64;
    let mut solutions: Vec<RuleSet> = (0..n).map(|_| RuleSet::new()).collect();
    let mut statuses: Vec<ResourceStatus> = vec![ResourceStatus::Ok; n];
    let mut verdicts = Vec::new();
    let mut messages = 0u64;
    let mut faults = FaultStats::default();
    let mut retries = 0u64;
    let mut resends = 0u64;
    let mut checkpoints = 0u64;
    let mut replays = 0u64;
    let mut rejected = 0u64;
    let mut exhausted = 0u64;
    for (u, h) in handles.into_iter().enumerate() {
        match h.join() {
            Ok((r, stats, poisoned)) => {
                solutions[u] = r.interim();
                if let Some(v) = r.verdict() {
                    verdicts.push(v);
                }
                messages += r.msgs_sent();
                faults.merge(&stats);
                retries += r.retries_spent();
                resends += r.resends_sent();
                checkpoints += r.recovery_checkpoints();
                replays += r.recovery_replays();
                rejected += r.recovery_rejected();
                exhausted += u64::from(r.retry_exhausted());
                statuses[u] = if poisoned {
                    ResourceStatus::Degraded(DegradeReason::Panicked)
                } else if plan.down(u, rounds_tick) {
                    match plan.fault_of(u) {
                        Some(ResourceFault::Depart { .. }) => {
                            ResourceStatus::Degraded(DegradeReason::Departed)
                        }
                        _ => ResourceStatus::Degraded(DegradeReason::Crashed),
                    }
                } else if let Some(reason) = r.degraded() {
                    ResourceStatus::Degraded(reason)
                } else {
                    ResourceStatus::Ok
                };
            }
            // A worker died outside the guarded sections (should not
            // happen): report it degraded instead of aborting the mine.
            Err(_) => statuses[u] = ResourceStatus::Degraded(DegradeReason::Panicked),
        }
    }

    // Schedule events that actually fired during the run. Emitted here,
    // on the main thread, so event counts deterministically equal the
    // `FaultStats` crash/recovery/departure tallies.
    for u in 0..n {
        match plan.fault_of(u) {
            Some(ResourceFault::Crash { at, recover }) if at < rounds_tick => {
                faults.crashes += 1;
                emit(&rec, || Event::ResourceCrashed { resource: u as u64, tick: at });
                if let Some(r) = recover.filter(|&r| r <= rounds_tick) {
                    faults.recoveries += 1;
                    emit(&rec, || Event::ResourceRecovered { resource: u as u64, tick: r });
                }
            }
            Some(ResourceFault::Depart { at }) if at < rounds_tick => {
                faults.departures += 1;
                emit(&rec, || Event::ResourceDeparted { resource: u as u64, tick: at });
            }
            _ => {}
        }
    }

    let chaos = ChaosReport {
        faults,
        retries,
        degraded: statuses.iter().enumerate().filter(|(_, s)| !s.is_ok()).map(|(u, _)| u).collect(),
        convergence_delay: plan.onset().map_or(0, |onset| rounds_tick.saturating_sub(onset)),
        resends,
        checkpoints,
        replays,
        rejected,
        exhausted,
    };
    MiningOutcome {
        solutions,
        verdicts,
        messages,
        statuses,
        chaos,
        metrics: gridmine_obs::MetricsSnapshot::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keyring::GridKeys;
    use crate::miner::MineConfig;
    use crate::session::MineSession;
    use gridmine_arm::{correct_rules, AprioriConfig, Database, Ratio, Transaction};
    use gridmine_paillier::MockCipher;
    use gridmine_topology::faults::EdgeFaults;
    use gridmine_topology::Tree;

    fn session(seed: u64, cfg: MineConfig, tree: Tree, n: u64) -> MineSession<MockCipher> {
        MineSession::over(cfg, GridKeys::<MockCipher>::mock(seed))
            .with_topology(tree)
            .with_databases(dbs(n))
    }

    fn dbs(n: u64) -> Vec<Database> {
        (0..n)
            .map(|u| {
                Database::from_transactions(
                    (0..40)
                        .map(|j| {
                            let id = u * 40 + j;
                            if j % 4 == 0 {
                                Transaction::of(id, &[3])
                            } else {
                                Transaction::of(id, &[1, 2])
                            }
                        })
                        .collect(),
                )
            })
            .collect()
    }

    fn truth(n: u64, cfg: &MineConfig) -> RuleSet {
        correct_rules(
            &Database::union_of(dbs(n).iter()),
            &AprioriConfig::new(cfg.min_freq, cfg.min_conf),
        )
    }

    #[test]
    fn threaded_mining_matches_centralized_truth() {
        let cfg = MineConfig::new(Ratio::new(1, 2), Ratio::new(1, 2));
        let outcome = session(11, cfg, Tree::path(6), 6).run_threaded();
        assert!(outcome.verdicts.is_empty());
        assert!(outcome.statuses.iter().all(|s| s.is_ok()));
        assert!(outcome.chaos.is_clean());
        for (u, sol) in outcome.solutions.iter().enumerate() {
            assert_eq!(sol, &truth(6, &cfg), "thread {u} diverged");
        }
    }

    #[test]
    fn threaded_and_synchronous_agree() {
        let cfg = MineConfig::new(Ratio::new(1, 2), Ratio::new(3, 4));
        let sync = session(12, cfg, Tree::star(5), 5).run();
        let threaded = session(12, cfg, Tree::star(5), 5).run_threaded();
        assert_eq!(sync.solutions, threaded.solutions, "schedulers must not change answers");
    }

    #[test]
    fn threaded_detects_attacks_too() {
        // Hand-corrupted grids under the threaded driver are covered in
        // tests/threaded_faults.rs via run_threaded; here we pin that an
        // honest grid stays clean under concurrency.
        let cfg = MineConfig::new(Ratio::new(1, 2), Ratio::new(1, 2));
        let outcome = session(13, cfg, Tree::path(4), 4).run_threaded();
        assert!(outcome.verdicts.is_empty(), "honest grid stays clean under threads");
        assert!(outcome.messages > 0);
    }

    #[test]
    fn dropped_messages_are_healed_by_anti_entropy() {
        let cfg = MineConfig::new(Ratio::new(1, 2), Ratio::new(1, 2));
        let plan = FaultPlan::new(99).with_default_edge(EdgeFaults {
            drop: 0.2,
            duplicate: 0.1,
            jitter: 1,
        });
        let outcome = session(14, cfg, Tree::path(5), 5).with_faults(plan).run_threaded();
        assert!(outcome.verdicts.is_empty(), "link faults must not look malicious");
        assert!(outcome.chaos.faults.dropped > 0, "faults must actually fire");
        for (u, sol) in outcome.surviving_solutions() {
            assert_eq!(sol, &truth(5, &cfg), "resource {u} diverged under lossy links");
        }
    }

    #[test]
    fn crashed_resource_degrades_without_stalling_the_grid() {
        let cfg = MineConfig::new(Ratio::new(1, 2), Ratio::new(1, 2));
        // Resource 4 (a path leaf) crashes from round 2 onward.
        let plan = FaultPlan::new(1).with_crash(4, 2, None);
        let outcome = session(15, cfg, Tree::path(5), 5).with_faults(plan).run_threaded();
        assert_eq!(outcome.statuses[4], ResourceStatus::Degraded(DegradeReason::Crashed));
        assert!(outcome.statuses[..4].iter().all(|s| s.is_ok()));
        assert_eq!(outcome.chaos.faults.crashes, 1);
        assert_eq!(outcome.chaos.degraded, vec![4]);
        for (u, sol) in outcome.surviving_solutions() {
            assert_eq!(sol, &truth(5, &cfg), "survivor {u} diverged");
        }
    }

    #[test]
    fn crash_and_recovery_rejoins_the_round_loop() {
        let cfg = MineConfig::new(Ratio::new(1, 2), Ratio::new(1, 2));
        let plan = FaultPlan::new(2).with_crash(2, 1, Some(3));
        let outcome = session(16, cfg, Tree::path(5), 5).with_faults(plan).run_threaded();
        assert!(
            outcome.statuses.iter().all(|s| s.is_ok()),
            "a recovered resource is not degraded: {:?}",
            outcome.statuses
        );
        assert_eq!(outcome.chaos.faults.recoveries, 1);
    }
}

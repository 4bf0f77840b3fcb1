//! The four workloads and the iteration that times one driver call.
//!
//! Each workload turns `--seed` into its inputs ([`prepare`]), excluded
//! from every timing, and then runs [`iteration`]s: set up (key
//! generation plus session or `Simulation` build), mine, observe once.
//! Outputs are observed only after the timed window — the drivers'
//! own end-of-run `Output()` refresh on the mining drivers, a single
//! `refresh_outputs` after the last step on the simulator workloads —
//! because each observation spends k-gate disclosures and would change
//! what is mined.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gridmine_arm::{
    correct_rules, precision, recall, AprioriConfig, Database, Item, Ratio, RuleSet, Transaction,
};
use gridmine_core::session::DEFAULT_PAILLIER_BITS;
use gridmine_core::{GridKeys, MineConfig, MineSession, MiningOutcome, Verdict};
use gridmine_net::NetSession;
use gridmine_obs::{FanoutRecorder, Metrics, MetricsSnapshot, SharedRecorder};
use gridmine_paillier::{HomCipher, MockCipher};
use gridmine_quest::QuestParams;
use gridmine_sim::{
    churn_plans, significance_databases, DurableStream, GrowthPlan, SimConfig, SimSession,
};
use gridmine_store::FsBackend;
use gridmine_topology::Tree;

use crate::cipher::{timed_keys, OpStats, OpTotals};
use crate::trace::Tracer;

/// The Quest dataset the mining-driver and churn workloads share. Its
/// seed is fixed: how many rules T5I2 holds at a threshold swings with
/// the generator seed (3 to 212 at min_freq 0.3 over seeds 1–10), so the
/// workload seed varies how the data is spread over the grid, not the
/// data itself.
const QUEST_SEED: u64 = 42;

/// Figure 3's instance (ROADMAP item 1), fixed for the same reason: at
/// significance 0.005 the covered share after 200 steps swings between
/// 0.21 and 1.0 over data seeds 1–6, and the stepping time by a quarter
/// over topology seeds. The workload seed only reseeds the mock keys.
const FIG3_SEED: u64 = 17;

/// The churn workload's overlay, fixed for the same reason: its stepping
/// time depends on the topology more than on the streamed data.
const CHURN_TOPOLOGY_SEED: u64 = 17;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SecureT5i2,
    SimFig3Lowsig,
    NetT5i2Mock,
    ChurnDurable,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SecureT5i2,
        Workload::SimFig3Lowsig,
        Workload::NetT5i2Mock,
        Workload::ChurnDurable,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SecureT5i2 => "secure_t5i2",
            Workload::SimFig3Lowsig => "sim_fig3_lowsig",
            Workload::NetT5i2Mock => "net_t5i2_mock",
            Workload::ChurnDurable => "churn_durable",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs a mining driver (`MineSession`,
    /// `NetSession`) rather than stepping the simulator.
    pub fn is_mining_driver(self) -> bool {
        matches!(self, Workload::SecureT5i2 | Workload::NetT5i2Mock)
    }
}

/// Input size: the benchmark's, or the reduced one the equivalence test
/// runs in seconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Reduced,
}

/// Where the benchmark may put files and find the node binary.
#[derive(Clone, Debug)]
pub struct Env {
    pub node_bin: PathBuf,
    pub work_dir: PathBuf,
}

/// Everything a workload's iterations consume, generated from the seed.
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    /// Paillier modulus bits; `None` for the mock cipher.
    pub key_bits: Option<u64>,
    /// Mining-driver config and partitions (mining-driver workloads).
    pub mine_cfg: MineConfig,
    pub dbs: Vec<Database>,
    /// Simulator config, growth plans and voted items (simulator
    /// workloads).
    pub sim_cfg: SimConfig,
    pub plans: Vec<GrowthPlan>,
    pub items: Option<Vec<Item>>,
    pub steps: u64,
    /// §3 arrivals acknowledged per resource per step (churn only).
    pub arrivals_per_step: usize,
    /// Apriori ground truth over the (end-of-run) global database.
    pub truth: RuleSet,
    /// Transactions in the end-of-run global database.
    pub global_len: usize,
    /// Whether every resource must output exactly `truth`.
    pub exact: bool,
    /// Input sizes, for the provenance record.
    pub sizes: String,
}

fn t5i2(scale: Scale) -> Database {
    let params = match scale {
        Scale::Full => {
            QuestParams::t5i2().with_transactions(2_000).with_items(60).with_patterns(25)
        }
        Scale::Reduced => {
            QuestParams::t5i2().with_transactions(300).with_items(30).with_patterns(12)
        }
    };
    gridmine_quest::generate(&params.with_seed(QUEST_SEED))
}

fn mine_cfg(min_freq: f64, rounds: usize, seed: u64) -> MineConfig {
    let mut cfg = MineConfig::new(Ratio::from_f64(min_freq), Ratio::from_f64(0.5));
    cfg.rounds = rounds;
    cfg.seed = seed;
    cfg
}

/// Generates a workload's inputs from `seed` (excluded from timing).
pub fn prepare(workload: Workload, seed: u64, scale: Scale) -> Inputs {
    let full = scale == Scale::Full;
    let mut inputs = Inputs {
        workload,
        seed,
        key_bits: None,
        mine_cfg: mine_cfg(0.3, 6, seed),
        dbs: Vec::new(),
        sim_cfg: SimConfig::small(),
        plans: Vec::new(),
        items: None,
        steps: 0,
        arrivals_per_step: 0,
        truth: RuleSet::new(),
        global_len: 0,
        exact: workload.is_mining_driver(),
        sizes: String::new(),
    };
    match workload {
        Workload::SecureT5i2 | Workload::NetT5i2Mock => {
            let global = t5i2(scale);
            let resources = if full { 4 } else { 3 };
            let (min_freq, rounds) = match (workload, full) {
                (Workload::SecureT5i2, true) => (0.3, 6),
                (Workload::SecureT5i2, false) => (0.3, 3),
                (_, true) => (0.05, 6),
                (_, false) => (0.1, 6),
            };
            if workload == Workload::SecureT5i2 {
                inputs.key_bits = Some(if full { DEFAULT_PAILLIER_BITS } else { 256 });
            }
            inputs.mine_cfg = mine_cfg(min_freq, rounds, seed);
            inputs.dbs = gridmine_quest::partition(&global, resources, seed);
            inputs.truth = correct_rules(&global, &apriori(&inputs.mine_cfg));
            inputs.global_len = global.len();
            inputs.sizes = format!(
                "T5I2 {} tx, {} resources on a path, min_freq {min_freq}, k 1, {rounds} rounds",
                global.len(),
                resources
            );
        }
        Workload::SimFig3Lowsig => {
            let resources = if full { 96 } else { 16 };
            let local = if full { 2_000 } else { 200 };
            let mut cfg =
                SimConfig::small().with_resources(resources).with_k(4).with_seed(FIG3_SEED);
            cfg.scan_budget = 20;
            cfg.obfuscate = false;
            cfg.growth_per_step = 0;
            cfg.min_freq = Ratio::new(1, 2);
            let dbs = significance_databases(resources, local, cfg.min_freq, 0.005, FIG3_SEED);
            let global = Database::union_of(dbs.iter());
            inputs.truth = correct_rules(&global, &sim_apriori(&cfg));
            inputs.global_len = global.len();
            inputs.sim_cfg = cfg;
            inputs.plans = dbs.into_iter().map(GrowthPlan::fixed).collect();
            inputs.items = Some(vec![Item(0)]);
            inputs.steps = if full { 200 } else { 40 };
            inputs.sizes = format!(
                "{resources} resources x {local} tx, significance 0.005, single item, \
                 {} steps",
                inputs.steps
            );
        }
        Workload::ChurnDurable => {
            let global = t5i2(scale);
            let resources = if full { 8 } else { 4 };
            let steps: u64 = if full { 200 } else { 30 };
            let per_step = if full { 16 } else { 4 };
            let arrivals = per_step * steps as usize;
            let negations = arrivals / 8;
            let initials = gridmine_quest::partition(&global, resources, seed);
            let plans = churn_plans(initials, arrivals - negations, negations, seed);
            let mut cfg = SimConfig::small()
                .with_resources(resources)
                .with_k(1)
                .with_seed(CHURN_TOPOLOGY_SEED);
            cfg.growth_per_step = per_step;
            cfg.obfuscate = false;
            cfg.min_freq = Ratio::from_f64(0.3);
            let post: Vec<Database> = plans
                .iter()
                .map(|p| {
                    let txs = p.initial.transactions().iter().chain(&p.stream).cloned().collect();
                    Database::from_transactions(txs)
                })
                .collect();
            let post = Database::union_of(&post);
            inputs.truth = correct_rules(&post, &sim_apriori(&cfg));
            inputs.global_len = post.len();
            inputs.sim_cfg = cfg;
            inputs.plans = plans;
            inputs.steps = steps;
            inputs.arrivals_per_step = per_step;
            inputs.sizes = format!(
                "T5I2 {} tx over {resources} resources, {} arrivals each ({negations} \
                 negations) at {per_step}/step, {steps} steps, min_freq 0.3",
                global.len(),
                arrivals
            );
        }
    }
    assert!(!inputs.truth.is_empty(), "{}: empty ground truth", workload.name());
    inputs
}

fn apriori(cfg: &MineConfig) -> AprioriConfig {
    AprioriConfig::new(cfg.min_freq, cfg.min_conf)
}

fn sim_apriori(cfg: &SimConfig) -> AprioriConfig {
    AprioriConfig::new(cfg.min_freq, cfg.min_conf)
}

/// The traced run's instruments: cipher timings, spans, and (per
/// iteration) an obs `Metrics` tally.
pub struct Trace {
    pub ops: Arc<OpStats>,
    pub tracer: Arc<Tracer>,
}

impl Trace {
    pub fn new(workload: Workload) -> Trace {
        let ops = OpStats::shared();
        let tracer = Tracer::new(ops.clone(), workload.is_mining_driver());
        Trace { ops, tracer }
    }
}

/// Durable-store figures of one churn iteration.
#[derive(Clone, Debug, Default)]
pub struct StoreTally {
    /// `DurableStream::append` latency of every arrival, in µs.
    pub ack_us: Vec<f64>,
    /// The subset of appends whose call bumped the store generation.
    pub compacting_ack_us: Vec<f64>,
    /// WAL bytes added by non-compacting appends.
    pub wal_bytes: u64,
}

/// One timed driver call and what it produced.
#[derive(Clone, Debug, Default)]
pub struct Iteration {
    pub setup_s: f64,
    /// `Simulation` build time inside `setup_s` (simulator workloads).
    pub build_s: f64,
    pub mine_s: f64,
    pub messages: u64,
    pub recall: f64,
    pub precision: f64,
    /// Correct rules output, averaged over resources.
    pub correct_rules: f64,
    pub solutions: Vec<RuleSet>,
    pub verdicts: Vec<Verdict>,
    /// Why the run failed its correctness gate, if it did.
    pub failure: Option<String>,
    /// Per-step latency in ms (simulator workloads).
    pub step_ms: Vec<f64>,
    pub store: StoreTally,
    /// Obs counts (traced runs only).
    pub metrics: MetricsSnapshot,
    /// Cipher calls made during the driver call (traced runs only).
    pub ops: OpTotals,
}

fn key_seed(seed: u64, rep: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (rep as u64).wrapping_add(0x6B65_7973)
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// On a traced run, a fresh obs tally plus the recorder handed to the
/// driver; untraced runs attach no recorder at all.
fn traced_recorder(trace: Option<&Trace>) -> (Option<Arc<Metrics>>, Option<SharedRecorder>) {
    let Some(trace) = trace else {
        return (None, None);
    };
    let metrics = Metrics::shared();
    let rec: SharedRecorder =
        Arc::new(FanoutRecorder::new(vec![metrics.clone(), trace.tracer.clone()]));
    (Some(metrics), Some(rec))
}

/// Runs one iteration (`rep` numbers it within the run; it picks the key
/// seed). With `setup_only` it returns after set-up, for the extra set-up
/// samples.
pub fn iteration(
    inputs: &Inputs,
    env: &Env,
    trace: Option<&Trace>,
    rep: usize,
    setup_only: bool,
) -> Iteration {
    let seed = key_seed(inputs.seed, rep);
    match inputs.workload {
        Workload::SecureT5i2 => {
            let bits = inputs.key_bits.expect("secure workload carries key bits");
            mine_sync(inputs, || GridKeys::paillier(bits, seed), trace, setup_only)
        }
        Workload::NetT5i2Mock => mine_net(inputs, env, trace, setup_only),
        Workload::SimFig3Lowsig | Workload::ChurnDurable => {
            let dir = env.work_dir.join(format!("churn-{}-{rep}", std::process::id()));
            let out = step_sim(inputs, || GridKeys::mock(seed), trace, &dir, setup_only);
            // Best effort: a leftover directory only costs disk space.
            let _ = std::fs::remove_dir_all(&dir);
            out
        }
    }
}

/// The synchronous driver on the mock cipher over the same inputs — the
/// base `net.overhead_s` is measured against.
pub fn sync_baseline(inputs: &Inputs, rep: usize) -> Iteration {
    let seed = key_seed(inputs.seed, rep);
    mine_sync(inputs, || GridKeys::mock(seed), None, false)
}

fn mine_sync<C: HomCipher + 'static>(
    inputs: &Inputs,
    keys: impl FnOnce() -> GridKeys<C>,
    trace: Option<&Trace>,
    setup_only: bool,
) -> Iteration {
    match trace {
        None => mine_sync_with(inputs, keys, None, setup_only),
        Some(t) => mine_sync_with(inputs, || timed_keys(keys(), &t.ops), Some(t), setup_only),
    }
}

fn mine_sync_with<C: HomCipher + 'static>(
    inputs: &Inputs,
    keys: impl FnOnce() -> GridKeys<C>,
    trace: Option<&Trace>,
    setup_only: bool,
) -> Iteration {
    let dbs = inputs.dbs.clone();
    let n = dbs.len();
    let (metrics, rec) = traced_recorder(trace);
    let start = Instant::now();
    let mut session =
        MineSession::over(inputs.mine_cfg, keys()).with_topology(Tree::path(n)).with_databases(dbs);
    if let Some(rec) = rec {
        session = session.with_recorder(rec);
    }
    let setup_s = secs(start.elapsed());
    if setup_only {
        return Iteration { setup_s, ..Iteration::default() };
    }
    let ops_before = trace.map(|t| t.ops.totals()).unwrap_or_default();
    if let Some(t) = trace {
        t.tracer.begin_run();
    }
    let start = Instant::now();
    let outcome = session.try_run();
    let mine_s = secs(start.elapsed());
    if let Some(t) = trace {
        t.tracer.end_run();
    }
    let mut it = match outcome {
        Ok(outcome) => judge_outcome(inputs, outcome),
        Err(e) => {
            Iteration { failure: Some(format!("session refused: {e}")), ..Iteration::default() }
        }
    };
    it.setup_s = setup_s;
    it.mine_s = mine_s;
    if let Some(t) = trace {
        it.ops = t.ops.totals().since(&ops_before);
    }
    if let Some(m) = metrics {
        it.metrics = m.snapshot();
    }
    it
}

fn mine_net(inputs: &Inputs, env: &Env, trace: Option<&Trace>, setup_only: bool) -> Iteration {
    let n = inputs.dbs.len();
    let session = |rounds: usize, dbs: Vec<Database>| {
        let mut cfg = inputs.mine_cfg;
        cfg.rounds = rounds;
        NetSession::<MockCipher>::new(cfg)
            .with_node_binary(&env.node_bin)
            .with_topology(Tree::path(n))
            .with_databases(dbs)
    };
    // The API does not separate spawning the node processes from mining,
    // so set-up is a whole zero-round session: spawn, handshake, finish.
    let dbs = inputs.dbs.clone();
    let start = Instant::now();
    let warm = session(0, dbs).try_run();
    let setup_s = secs(start.elapsed());
    if let Err(e) = warm {
        return Iteration {
            setup_s,
            failure: Some(format!("net set-up failed: {e}")),
            ..Iteration::default()
        };
    }
    if setup_only {
        return Iteration { setup_s, ..Iteration::default() };
    }
    let (metrics, rec) = traced_recorder(trace);
    let mut net = session(inputs.mine_cfg.rounds, inputs.dbs.clone());
    if let Some(rec) = rec {
        net = net.with_recorder(rec);
    }
    if let Some(t) = trace {
        t.tracer.begin_run();
    }
    let start = Instant::now();
    let outcome = net.try_run();
    let mine_s = secs(start.elapsed());
    if let Some(t) = trace {
        t.tracer.end_run();
    }
    let mut it = match outcome {
        Ok(outcome) => judge_outcome(inputs, outcome),
        Err(e) => {
            Iteration { failure: Some(format!("net session failed: {e}")), ..Iteration::default() }
        }
    };
    it.setup_s = setup_s;
    it.mine_s = mine_s;
    if let Some(m) = metrics {
        it.metrics = m.snapshot();
    }
    it
}

/// Scores a mining-driver outcome against the ground truth and applies
/// the correctness gate: no verdicts, every status Ok, and (exact
/// workloads) every resource outputs exactly the truth.
fn judge_outcome(inputs: &Inputs, outcome: MiningOutcome) -> Iteration {
    let mut it = score(inputs, outcome.solutions, outcome.verdicts);
    it.messages = outcome.messages;
    if it.failure.is_none() {
        if let Some(u) = outcome.statuses.iter().position(|s| !s.is_ok()) {
            it.failure = Some(format!("resource {u} ended {:?}", outcome.statuses[u]));
        }
    }
    it
}

fn score(inputs: &Inputs, solutions: Vec<RuleSet>, verdicts: Vec<Verdict>) -> Iteration {
    let n = solutions.len().max(1) as f64;
    let truth = &inputs.truth;
    let mut it = Iteration {
        recall: solutions.iter().map(|s| recall(s, truth)).sum::<f64>() / n,
        precision: solutions.iter().map(|s| precision(s, truth)).sum::<f64>() / n,
        correct_rules: solutions
            .iter()
            .map(|s| s.iter().filter(|r| truth.contains(r)).count() as f64)
            .sum::<f64>()
            / n,
        ..Iteration::default()
    };
    if !verdicts.is_empty() {
        it.failure = Some(format!("verdicts in an honest run: {verdicts:?}"));
    } else if inputs.exact {
        if let Some(u) = solutions.iter().position(|s| s != truth) {
            it.failure = Some(format!(
                "resource {u} output {} rules, truth has {}",
                solutions[u].len(),
                truth.len()
            ));
        }
    }
    it.solutions = solutions;
    it.verdicts = verdicts;
    it
}

fn step_sim<C: HomCipher + 'static>(
    inputs: &Inputs,
    keys: impl FnOnce() -> GridKeys<C>,
    trace: Option<&Trace>,
    dir: &std::path::Path,
    setup_only: bool,
) -> Iteration
where
    C::Ct: Send + Sync,
{
    match trace {
        None => step_sim_with(inputs, keys, None, dir, setup_only),
        Some(t) => step_sim_with(inputs, || timed_keys(keys(), &t.ops), Some(t), dir, setup_only),
    }
}

fn step_sim_with<C: HomCipher + 'static>(
    inputs: &Inputs,
    keys: impl FnOnce() -> GridKeys<C>,
    trace: Option<&Trace>,
    dir: &std::path::Path,
    setup_only: bool,
) -> Iteration
where
    C::Ct: Send + Sync,
{
    let plans = inputs.plans.clone();
    let mut feeds: Vec<VecDeque<Transaction>> = if inputs.arrivals_per_step > 0 {
        plans.iter().map(|p| p.stream.clone()).collect()
    } else {
        Vec::new()
    };
    let _ = std::fs::remove_dir_all(dir);

    let (metrics, rec) = traced_recorder(trace);
    let start = Instant::now();
    let mut session =
        SimSession::over(inputs.sim_cfg, keys()).with_workload(plans).with_steps(inputs.steps);
    if let Some(items) = &inputs.items {
        session = session.with_items(items);
    }
    if let Some(rec) = rec {
        session = session.with_recorder(rec);
    }
    let mut sim = match session.try_build() {
        Ok(sim) => sim,
        Err(e) => {
            return Iteration {
                failure: Some(format!("simulation refused: {e}")),
                ..Iteration::default()
            }
        }
    };
    let build_s = secs(start.elapsed());
    let mut streams = Vec::with_capacity(feeds.len());
    for u in 0..feeds.len() {
        let opened = FsBackend::open(dir.join(format!("r{u}"))).and_then(DurableStream::open);
        match opened {
            Ok(s) => streams.push(s),
            Err(e) => {
                return Iteration {
                    failure: Some(format!("store open failed: {e}")),
                    ..Iteration::default()
                }
            }
        }
    }
    let setup_s = secs(start.elapsed());
    if setup_only {
        return Iteration { setup_s, build_s, ..Iteration::default() };
    }

    let ops_before = trace.map(|t| t.ops.totals()).unwrap_or_default();
    let mut step_ms = Vec::with_capacity(inputs.steps as usize);
    let mut store = StoreTally::default();
    let mut failure = None;
    if let Some(t) = trace {
        t.tracer.begin_run();
    }
    let start = Instant::now();
    'steps: for _ in 0..inputs.steps {
        let span = trace.map(|t| t.tracer.begin_step());
        let step_start = Instant::now();
        sim.run_event_driven(1);
        step_ms.push(step_start.elapsed().as_secs_f64() * 1e3);
        // Every §3 arrival the engine just absorbed is acknowledged
        // through the resource's durable stream.
        let (mut calls, mut busy_ns) = (0u64, 0u64);
        for (feed, stream) in feeds.iter_mut().zip(streams.iter_mut()) {
            for tx in feed.drain(..inputs.arrivals_per_step.min(feed.len())) {
                let generation = stream.store().generation();
                let wal = stream.store().wal_bytes();
                let t = Instant::now();
                let acked = stream.append(&tx);
                let took = t.elapsed();
                if let Err(e) = acked {
                    failure = Some(format!("append failed: {e}"));
                    break 'steps;
                }
                calls += 1;
                busy_ns += took.as_nanos() as u64;
                let us = took.as_secs_f64() * 1e6;
                store.ack_us.push(us);
                if stream.store().generation() != generation {
                    store.compacting_ack_us.push(us);
                } else {
                    store.wal_bytes += stream.store().wal_bytes().saturating_sub(wal);
                }
            }
        }
        if let (Some(t), Some(span)) = (trace, span) {
            if calls > 0 {
                t.tracer.layer(&span, "store.append", calls, busy_ns);
            }
            t.tracer.end_step(span);
        }
    }
    let mine_s = secs(start.elapsed());
    if let Some(t) = trace {
        t.tracer.end_run();
    }

    // The one observation, after the timed window.
    sim.refresh_outputs();
    let (recall, precision) = sim.global_recall_precision(&inputs.truth);
    let verdicts: Vec<Verdict> = sim.verdicts.iter().map(|&(_, v)| v).collect();
    let statuses = sim.statuses();
    let mut it = score(inputs, sim.solutions(), verdicts);
    it.recall = recall;
    it.precision = precision;
    if it.failure.is_none() {
        it.failure = failure.or_else(|| {
            if let Some(u) = statuses.iter().position(|s| !s.is_ok()) {
                return Some(format!("resource {u} ended {:?}", statuses[u]));
            }
            let global = sim.current_global_db().len();
            if global != inputs.global_len {
                return Some(format!(
                    "global database holds {global} tx, expected {}",
                    inputs.global_len
                ));
            }
            streams.iter().zip(&inputs.plans).enumerate().find_map(|(u, (s, p))| {
                (s.len() != p.stream.len()).then(|| {
                    format!("resource {u} persisted {} of {} arrivals", s.len(), p.stream.len())
                })
            })
        });
    }
    it.setup_s = setup_s;
    it.build_s = build_s;
    it.mine_s = mine_s;
    it.messages = sim.total_msgs;
    it.step_ms = step_ms;
    it.store = store;
    if let Some(t) = trace {
        it.ops = t.ops.totals().since(&ops_before);
    }
    if let Some(m) = metrics {
        it.metrics = m.snapshot();
    }
    it
}

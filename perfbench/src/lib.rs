//! gridmine's end-to-end benchmark.
//!
//! Four workloads drive the public driver APIs (`MineSession`,
//! `SimSession`/`Simulation`, `NetSession`, `DurableStream`) and check
//! every run against Apriori ground truth. An untraced run gives the
//! end-to-end metrics; a traced run wraps every cipher handle in a
//! [`cipher::TimedCipher`], attaches an obs `Metrics` tally and records
//! spans ([`trace::Tracer`]) to give the per-layer ones. See `README.md`
//! beside this package for the workloads and metrics.

pub mod cipher;
pub mod report;
pub mod trace;
pub mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use workloads::{iteration, Env, Inputs, Iteration, Trace};

/// Iterations of one measuring loop plus every set-up time it sampled.
pub struct Measured {
    pub iterations: Vec<Iteration>,
    pub setup_s: Vec<f64>,
    /// Peak resident set after input generation and the set-up samples,
    /// before any driver call. During a call the net hub's memory depends
    /// on how far its relay falls behind the node processes (12–20 MiB
    /// from run to run), which no bound could hold.
    pub peak_rss_mib: f64,
}

impl Measured {
    pub fn failed(&self) -> usize {
        self.iterations.iter().filter(|it| it.failure.is_some()).count()
    }

    /// The iterations that passed the correctness gate.
    pub fn passed(&self) -> impl Iterator<Item = &Iteration> {
        self.iterations.iter().filter(|it| it.failure.is_none())
    }

    pub fn each(&self, f: impl Fn(&Iteration) -> f64) -> Vec<f64> {
        self.passed().map(f).collect()
    }
}

/// Takes `setups` set-up-only samples, then runs iterations until
/// `budget` has elapsed (at least one), stopping at the first failed run.
/// Every iteration's set-up joins the samples. A panicking iteration is a
/// failed run.
pub fn measure(
    inputs: &Inputs,
    env: &Env,
    trace: Option<&Trace>,
    budget: Duration,
    setups: usize,
) -> Measured {
    let mut iterations: Vec<Iteration> = Vec::new();
    let mut setup_s: Vec<f64> = Vec::new();
    for rep in 0..setups {
        let it = guarded(|| iteration(inputs, env, None, rep, true));
        if it.failure.is_some() {
            iterations.push(it);
            return Measured { iterations, setup_s, peak_rss_mib: report::peak_rss_mib() };
        }
        setup_s.push(it.setup_s);
    }
    let peak_rss_mib = report::peak_rss_mib();
    let start = Instant::now();
    loop {
        let rep = iterations.len();
        let it = guarded(|| iteration(inputs, env, trace, rep, false));
        let failed = it.failure.is_some();
        setup_s.push(it.setup_s);
        iterations.push(it);
        if failed || start.elapsed() >= budget {
            break;
        }
    }
    Measured { iterations, setup_s, peak_rss_mib }
}

/// Runs `f`, turning a panic into a failed iteration.
pub fn guarded(f: impl FnOnce() -> Iteration) -> Iteration {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|panic| {
        let why = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "unknown panic".into());
        Iteration { failure: Some(format!("panicked: {why}")), ..Iteration::default() }
    })
}

//! Tracing must not change what is mined. For every workload, on reduced
//! inputs, a traced iteration (timing cipher wrapper, obs tally, spans)
//! and an untraced one pass the correctness gate and agree on solutions,
//! verdicts and message count (within 1 % on the multi-process driver).

use std::path::PathBuf;

use gridmine_perfbench::workloads::{iteration, prepare, Env, Scale, Trace, Workload};

fn env(workload: Workload) -> Env {
    Env {
        node_bin: PathBuf::from(env!("CARGO_BIN_EXE_gridmine-node")),
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(workload.name()),
    }
}

fn traced_matches_untraced(workload: Workload) {
    let env = env(workload);
    std::fs::create_dir_all(&env.work_dir).expect("work dir");
    let inputs = prepare(workload, 3, Scale::Reduced);

    let plain = iteration(&inputs, &env, None, 0, false);
    let trace = Trace::new(workload);
    let traced = iteration(&inputs, &env, Some(&trace), 0, false);

    assert_eq!(plain.failure, None, "untraced run failed its gate");
    assert_eq!(traced.failure, None, "traced run failed its gate");
    assert_eq!(plain.solutions, traced.solutions, "solutions differ under tracing");
    assert_eq!(plain.verdicts, traced.verdicts, "verdicts differ under tracing");
    if workload == Workload::NetT5i2Mock {
        // Across processes the consequent-send tally depends on the
        // schedule, traced or not (see crates/net/tests/net_e2e.rs).
        let drift = plain.messages.abs_diff(traced.messages) as f64 / plain.messages as f64;
        assert!(drift <= 0.01, "messages {} vs {} under tracing", plain.messages, traced.messages);
    } else {
        assert_eq!(plain.messages, traced.messages, "message count differs under tracing");
    }
    assert!(plain.messages > 0, "the workload sent no messages");

    // The instruments really were attached.
    assert_eq!(traced.metrics.msgs_sent(), traced.messages, "obs tally missed counters");
    assert!(trace.tracer.spans().iter().any(|s| s.name == "run"), "no run span");
    if workload != Workload::NetT5i2Mock {
        // The net workload's cipher calls happen in the node processes.
        assert!(traced.ops.calls.iter().sum::<u64>() > 0, "no cipher call was timed");
    }
}

#[test]
fn secure_t5i2_is_unchanged_by_tracing() {
    traced_matches_untraced(Workload::SecureT5i2);
}

#[test]
fn sim_fig3_lowsig_is_unchanged_by_tracing() {
    traced_matches_untraced(Workload::SimFig3Lowsig);
}

#[test]
fn net_t5i2_mock_is_unchanged_by_tracing() {
    traced_matches_untraced(Workload::NetT5i2Mock);
}

#[test]
fn churn_durable_is_unchanged_by_tracing() {
    traced_matches_untraced(Workload::ChurnDurable);
}

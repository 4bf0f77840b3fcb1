//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! --node-bin <path> --work-dir <dir> [--source <id>]`
//!
//! Prints human-readable lines, a `provenance:` record, and as its last
//! line one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! the per-layer ones. Exits 1 if any run failed its correctness gate.

use std::path::PathBuf;
use std::time::Duration;

use gridmine_perfbench::cipher::{OpTotals, OP_NAMES};
use gridmine_perfbench::report::{json_str, median, percentile, result_line, Metric};
use gridmine_perfbench::workloads::{prepare, sync_baseline, Env, Inputs, Scale, Trace, Workload};
use gridmine_perfbench::{guarded, measure, Measured};

/// Set-up-only samples per untraced run; `setup_s` is the median of these
/// and of every iteration's set-up.
const SETUP_SAMPLES: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    env: Env,
    source: String,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut node_bin, mut work_dir, mut source) = (None, None, "unknown".to_string());
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => trace = Some(value == "1"),
            "--node-bin" => node_bin = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            "--source" => source = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        env: Env {
            node_bin: node_bin.ok_or("--node-bin is required")?,
            work_dir: work_dir.ok_or("--work-dir is required")?,
        },
        source,
    })
}

fn provenance(args: &Args, inputs: &Inputs) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let (cipher, bits) = match inputs.key_bits {
        Some(bits) => ("paillier", bits),
        None => ("mock", 0),
    };
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"traced\": {}, \"cipher\": {}, \"key_bits\": {bits}, \
         \"pool_threads\": {}, \"nproc\": {nproc}, \"inputs\": {}, \"source\": {}}}",
        json_str(args.workload.name()),
        args.seed,
        args.trace,
        json_str(cipher),
        rayon::current_num_threads(),
        json_str(&inputs.sizes),
        json_str(&args.source)
    )
}

fn end_to_end(m: &Measured) -> Vec<Metric> {
    vec![
        Metric::new("setup_s", median(&m.setup_s), "s"),
        Metric::new("mine_s", median(&m.each(|it| it.mine_s)), "s"),
        Metric::new("rules_per_s", median(&m.each(|it| it.correct_rules / it.mine_s)), "1/s"),
        Metric::new("messages", median(&m.each(|it| it.messages as f64)), "count"),
        Metric::new("recall", median(&m.each(|it| it.recall)), "ratio"),
        Metric::new("precision", median(&m.each(|it| it.precision)), "ratio"),
        Metric::new("peak_rss_mib", m.peak_rss_mib, "MiB"),
    ]
}

fn per_layer(
    inputs: &Inputs,
    plain: &Measured,
    traced: &Measured,
    sync: Option<&Measured>,
) -> Vec<Metric> {
    let w = inputs.workload;
    let first = traced.passed().next().cloned().unwrap_or_default();
    let ops: OpTotals = first.ops;
    let mine_s = first.mine_s.max(f64::MIN_POSITIVE);
    let busy_share = ops.busy_nanos() as f64 / 1e9 / mine_s;
    let mut out = Vec::new();
    for (i, op) in OP_NAMES.iter().enumerate() {
        out.push(Metric::new(format!("paillier.{op}.calls"), ops.calls[i] as f64, "count"));
        out.push(Metric::new(format!("paillier.{op}.busy_ms"), ops.nanos[i] as f64 / 1e6, "ms"));
    }
    out.push(Metric::new("paillier.busy_share", busy_share, "ratio"));
    let snap = &first.metrics;
    out.push(Metric::new("kernel.modpow.calls", snap.modpow.count as f64, "count"));
    out.push(Metric::new("kernel.modpow.busy_ms", snap.modpow.total_nanos as f64 / 1e6, "ms"));
    out.push(Metric::new("core.counters_sent", snap.msgs_sent() as f64, "count"));
    out.push(Metric::new("core.sfe_roundtrips", snap.sfe_roundtrips as f64, "count"));
    out.push(Metric::new("core.wire_bytes", snap.bytes_on_wire as f64, "bytes"));
    out.push(Metric::new("core.self_share", 1.0 - busy_share, "ratio"));

    let sim = !w.is_mining_driver();
    let steps: Vec<f64> = plain.passed().flat_map(|it| it.step_ms.iter().copied()).collect();
    let plain_mine = median(&plain.each(|it| it.mine_s));
    let plain_msgs = median(&plain.each(|it| it.messages as f64));
    let per_step = |v: f64| if sim { v } else { 0.0 };
    out.push(Metric::new(
        "sim.msgs_per_step",
        per_step(plain_msgs / inputs.steps.max(1) as f64),
        "count",
    ));
    out.push(Metric::new(
        "sim.step_us_per_msg",
        per_step(plain_mine * 1e6 / plain_msgs.max(1.0)),
        "us",
    ));
    out.push(Metric::new(
        "sim.build_ms",
        per_step(median(&plain.each(|it| it.build_s)) * 1e3),
        "ms",
    ));
    out.push(Metric::new("sim.step_p50_ms", percentile(&steps, 50.0), "ms"));
    out.push(Metric::new("sim.step_p95_ms", percentile(&steps, 95.0), "ms"));

    let overhead = sync.map_or(0.0, |s| plain_mine - median(&s.each(|it| it.mine_s)));
    out.push(Metric::new("net.overhead_s", overhead, "s"));
    let net_bytes = if w == Workload::NetT5i2Mock { snap.bytes_on_wire as f64 } else { 0.0 };
    out.push(Metric::new("net.wire_bytes", net_bytes, "bytes"));

    // The store is timed by the benchmark's own clock around each append,
    // so its figures come from the untraced half.
    let acks: Vec<f64> = plain.passed().flat_map(|it| it.store.ack_us.iter().copied()).collect();
    let base = plain.passed().next().cloned().unwrap_or_default();
    let store = &base.store;
    let store_busy = store.ack_us.iter().fold(0.0, |sum, us| sum + us) / 1e6;
    out.push(Metric::new("store.appends", store.ack_us.len() as f64, "count"));
    out.push(Metric::new(
        "store.busy_share",
        store_busy / base.mine_s.max(f64::MIN_POSITIVE),
        "ratio",
    ));
    out.push(Metric::new("store.compactions", store.compacting_ack_us.len() as f64, "count"));
    out.push(Metric::new("store.compacting_append_us", median(&store.compacting_ack_us), "us"));
    out.push(Metric::new("store.wal_bytes", store.wal_bytes as f64, "bytes"));
    out.push(Metric::new("store.ack_p50_us", percentile(&acks, 50.0), "us"));
    out.push(Metric::new("store.ack_p99_us", percentile(&acks, 99.0), "us"));

    let traced_mine = median(&traced.each(|it| it.mine_s));
    out.push(Metric::new("obs.overhead", traced_mine / plain_mine - 1.0, "ratio"));
    out
}

fn report_failures(label: &str, m: &Measured) {
    for (i, it) in m.iterations.iter().enumerate() {
        if let Some(why) = &it.failure {
            println!("FAILED {label} run {i}: {why}");
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.env.work_dir) {
        eprintln!("perfbench: creating {}: {e}", args.env.work_dir.display());
        std::process::exit(2);
    }
    let w = args.workload;
    let inputs = prepare(w, args.seed, Scale::Full);
    println!("provenance: {}", provenance(&args, &inputs));
    let budget = Duration::from_secs(args.seconds);

    let (runs, metrics) = if !args.trace {
        let plain = measure(&inputs, &args.env, None, budget, SETUP_SAMPLES);
        let metrics = end_to_end(&plain);
        (vec![("untraced", plain)], metrics)
    } else {
        // Half the window untraced (the base for obs.overhead and the
        // latency percentiles), half traced; the net workload also times
        // the synchronous driver on the same inputs.
        let plain = measure(&inputs, &args.env, None, budget / 2, 0);
        let sync = (w == Workload::NetT5i2Mock).then(|| {
            let it = guarded(|| sync_baseline(&inputs, 0));
            Measured { setup_s: vec![it.setup_s], iterations: vec![it], peak_rss_mib: 0.0 }
        });
        let trace = Trace::new(w);
        let traced = measure(&inputs, &args.env, Some(&trace), budget / 2, 0);
        let path = args.env.work_dir.join(format!("trace-{}-seed{}.jsonl", w.name(), args.seed));
        match trace.tracer.write_jsonl(&path) {
            Ok(()) => {
                println!("spans: {} written to {}", trace.tracer.spans().len(), path.display())
            }
            Err(e) => println!("spans: could not write {}: {e}", path.display()),
        }
        let metrics = per_layer(&inputs, &plain, &traced, sync.as_ref());
        let mut runs = vec![("untraced", plain), ("traced", traced)];
        if let Some(sync) = sync {
            runs.push(("sync-baseline", sync));
        }
        (runs, metrics)
    };

    let attempted: usize = runs.iter().map(|(_, m)| m.iterations.len()).sum();
    let failed: usize = runs.iter().map(|(_, m)| m.failed()).sum();
    for (label, m) in &runs {
        report_failures(label, m);
        let mine: Vec<String> = m.iterations.iter().map(|it| format!("{:.3}", it.mine_s)).collect();
        println!("{label}: {} runs, mine_s [{}]", m.iterations.len(), mine.join(", "));
    }
    println!("error_rate: {}", failed as f64 / attempted.max(1) as f64);
    for m in &metrics {
        println!("{:<34} {:>16} {}", m.name, format!("{:.6}", m.value), m.unit);
    }
    println!("{}", result_line(failed == 0, attempted, failed, &metrics));
    if failed > 0 {
        std::process::exit(1);
    }
}

//! Four-workload cluster benchmark for Ladon.
//!
//! ```sh
//! cargo run --release --manifest-path clusterbench/Cargo.toml -- \
//!     --workload lan_full --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--workload all` runs every workload, each in its own process. The
//! last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the process exits
//! non-zero when a correctness gate fails. See `clusterbench/README.md`.

mod host;
mod measure;
mod probe;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workload::{Rep, Spec, NAMES};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && Spec::named(&args.workload).is_none() {
        return Err(format!(
            "--workload must be one of {} or all",
            NAMES.join(", ")
        ));
    }
    Ok(args)
}

/// One named metric value.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, String, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// End-to-end metrics from the untraced repetitions.
fn end_to_end(untraced: &[&Rep]) -> Vec<Metric> {
    let r = untraced[0];
    let txs = r.counts.confirmed_txs as f64;
    let med = |f: &dyn Fn(&Rep) -> f64| measure::median(untraced.iter().map(|r| f(r)).collect());
    vec![
        m("sim_ktps", "ktx/s", r.sim.sim_ktps),
        m("lat_p50_s", "s", r.sim.latency.confirmed_quantile(0.50)),
        m("lat_p99_s", "s", r.sim.latency.quantile(0.99)),
        m("confirmed_frac", "ratio", 1.0 - r.sim.failed_frac),
        m("causal_strength", "ratio", r.sim.causal_strength),
        m("outage_s", "s", r.sim.outage_s),
        m("rejoin_s", "s", r.sim.rejoin_s),
        m(
            "wall_ns_per_tx",
            "ns",
            med(&|r| ratio(r.window.wall_ns as f64, txs)),
        ),
        m(
            "cpu_ns_per_tx",
            "ns",
            med(&|r| ratio(r.window.cpu_ns as f64, txs)),
        ),
        m("setup_s", "s", med(&|r| r.setup.total_s())),
        m("peak_rss_mb", "MB", host::peak_rss_mb()),
    ]
}

/// Per-layer metrics from the traced repetitions (times) and the
/// deterministic counts.
fn per_layer(untraced: &[&Rep], traced: &[&Rep]) -> Vec<Metric> {
    use probe::Layer;
    let c = &traced[0].counts;
    let txs = c.confirmed_txs as f64;
    let med = |f: &dyn Fn(&Rep) -> f64| measure::median(traced.iter().map(|r| f(r)).collect());
    let lt = |f: &dyn Fn(&workload::LayerTimes) -> u64| {
        med(&|r| r.layers.as_ref().map_or(0.0, |l| f(l) as f64 / 1e9))
    };
    let untraced_wall = measure::median(
        untraced
            .iter()
            .map(|r| r.window.wall_ns as f64 / 1e9)
            .collect(),
    );
    let traced_wall = med(&|r| r.window.wall_ns as f64 / 1e9);
    let covered = lt(&|l| l.covered);
    let setup = |f: &dyn Fn(&workload::Setup) -> u64| {
        measure::median(untraced.iter().map(|r| f(&r.setup) as f64 / 1e9).collect())
    };
    // Inclusive handler time of one layer.
    let incl = |layer: Layer| lt(&move |l| l.of(layer));
    vec![
        m("state.exec_s", "s", lt(&|l| l.exec)),
        m("state.exec.waves", "count", c.exec_waves as f64),
        m(
            "state.exec.ops_per_wave",
            "ops",
            ratio(c.exec_ops as f64, c.exec_waves as f64),
        ),
        m("state.wal.flush_s", "s", lt(&|l| l.flush)),
        m(
            "state.wal.fsyncs_per_barrier",
            "ratio",
            ratio(c.wal_fsyncs as f64, c.flush_barriers as f64),
        ),
        m(
            "state.wal.bytes_per_tx",
            "B",
            ratio(c.wal_bytes as f64, txs),
        ),
        m(
            "state.wal.pipelined_frac",
            "ratio",
            ratio(c.pipelined_submits as f64, c.flush_barriers as f64),
        ),
        m("state.recover_s", "s", med(&|r| r.recover_ns as f64 / 1e9)),
        m("state.records_replayed", "count", c.records_replayed as f64),
        m("core.pbft_msg_s", "s", incl(Layer::Pbft)),
        m("core.hs_msg_s", "s", incl(Layer::Hs)),
        m("core.consensus_self_s", "s", lt(&|l| l.consensus_self)),
        m("core.timer_s", "s", incl(Layer::Timer)),
        m("core.client_msg_s", "s", incl(Layer::ClientMsg)),
        m("core.epoch.checkpoint_msg_s", "s", incl(Layer::Checkpoint)),
        m("core.ordering.wait_p50_ms", "ms", c.wait_p50_ms),
        m("core.ordering.wait_p99_ms", "ms", c.wait_p99_ms),
        m(
            "core.ordering.waiting_blocks",
            "count",
            c.waiting_blocks as f64,
        ),
        m("core.sync.serve_s", "s", incl(Layer::SyncServe)),
        m("core.sync.install_s", "s", incl(Layer::SyncInstall)),
        m(
            "core.sync.snapshot_installs",
            "count",
            c.snapshot_installs as f64,
        ),
        m(
            "core.sync.installs_per_rejoin",
            "ratio",
            ratio(c.snapshot_installs as f64, c.rejoins as f64),
        ),
        m(
            "core.sync.chunks_verified",
            "count",
            c.chunks_verified as f64,
        ),
        m("core.sync.bytes_served", "B", c.bytes_served as f64),
        m("core.view_changes", "count", c.view_changes as f64),
        m("core.epochs", "count", c.epochs as f64),
        m(
            "crypto.sig_verifies_per_block",
            "ratio",
            ratio(c.sig_verifies as f64, c.confirmed_blocks as f64),
        ),
        m(
            "crypto.qc_cache_hit_frac",
            "ratio",
            ratio(c.qc_hits as f64, (c.qc_hits + c.sig_verifies) as f64),
        ),
        m(
            "crypto.authenticator_ops_per_tx",
            "ratio",
            ratio(c.auth_ops as f64, txs),
        ),
        m("sim.events", "count", c.events as f64),
        m("sim.net_s", "s", lt(&|l| l.net)),
        m("sim.engine_self_s", "s", (traced_wall - covered).max(0.0)),
        m("sim.msgs_per_tx", "ratio", ratio(c.msgs as f64, txs)),
        m("sim.bytes_per_tx", "B", ratio(c.bytes as f64, txs)),
        m("workload.client_s", "s", incl(Layer::Client)),
        m("setup.keygen_s", "s", setup(&|s| s.keygen_ns)),
        m("setup.build_s", "s", setup(&|s| s.build_ns)),
        m("setup.warmup_s", "s", setup(&|s| s.warmup_ns)),
        m("trace.window_s", "s", traced_wall),
        m(
            "trace.reconciled_frac",
            "ratio",
            ratio(covered, traced_wall),
        ),
        m("trace.overhead_s", "s", traced_wall - untraced_wall),
        m(
            "trace.overhead_frac",
            "ratio",
            ratio(traced_wall - untraced_wall, untraced_wall),
        ),
    ]
}

fn describe(spec: &Spec) -> String {
    let sys = spec.system();
    let mut s = format!(
        "{} n={} {:?} batch={} keyspace={} exec_lanes={}; open-loop ClientFleet at {:.1} tx/s ({}x nominal); window {:.1}-{:.1} s, drain to {:.1} s (sim)",
        spec.protocol.label(),
        spec.n,
        spec.env,
        sys.batch_size,
        sys.exec_keyspace,
        sys.exec_lanes,
        spec.tx_rate(),
        workload::LOAD_FACTOR,
        spec.warmup_s,
        spec.load_end_s,
        spec.end_s
    );
    if let Some(k) = spec.straggler_k {
        s += &format!("; replica 1 straggles at k={k}");
    }
    if let Some(c) = spec.crash {
        s += &format!(
            "; replica {} (file-backed) crashes at {} s, restarts at {} s",
            c.replica, c.at_s, c.restart_s
        );
    }
    s
}

fn run_workload(args: &Args, scratch: &Path) -> Result<bool, String> {
    let spec = Spec::named(&args.workload).expect("checked in parse_args");
    println!("# {}: {}", spec.name, describe(&spec));
    println!("# generator lateness: 0 s (the fleet's ticks fire exactly on schedule in sim time)");
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        let traced = args.trace && reps.len() % 2 == 1;
        let rep = workload::run_rep(&spec, args.seed, traced, scratch)
            .map_err(|e| format!("{}: {e}", spec.name))?;
        println!(
            "# rep {} ({}): setup {:.3} s, window wall {:.3} s, cpu {:.3} s",
            reps.len(),
            if traced { "traced" } else { "untraced" },
            rep.setup.total_s(),
            rep.window.wall_ns as f64 / 1e9,
            rep.window.cpu_ns as f64 / 1e9
        );
        if traced {
            // Only the last traced repetition's spans are written.
            for r in &mut reps {
                r.probe = None;
            }
        }
        reps.push(rep);
        // Stop before a repetition that would overrun `--seconds`; a
        // traced run needs one untraced and one traced repetition.
        let elapsed = started.elapsed().as_secs_f64();
        let next_ends = elapsed + elapsed / reps.len() as f64;
        let min_reps = if args.trace { 2 } else { 1 };
        if reps.len() >= min_reps && next_ends > args.seconds {
            break;
        }
    }

    // Gates: every repetition passes its own checks, and all repetitions
    // (traced or not) produced the identical simulated history.
    let mut failures: Vec<String> = reps
        .iter()
        .flat_map(|r| r.failures.iter().cloned())
        .collect();
    let diverged = |r: &Rep| r.sim != reps[0].sim || r.counts != reps[0].counts;
    if reps.iter().any(diverged) {
        failures.push("sim-time metrics differ between repetitions at one seed".into());
    }
    let failed_reps = reps
        .iter()
        .filter(|r| !r.failures.is_empty() || diverged(r))
        .count() as u64;

    let untraced: Vec<&Rep> = reps.iter().filter(|r| r.layers.is_none()).collect();
    let traced: Vec<&Rep> = reps.iter().filter(|r| r.layers.is_some()).collect();
    let r0 = &reps[0];
    println!(
        "# latency sample: {} txs submitted in the window ({} f+1-confirmed, {} never confirmed); failed_frac {:.6}",
        r0.sim.latency.count(),
        r0.sim.latency.count() - r0.sim.latency.censored(),
        r0.sim.latency.censored(),
        r0.sim.failed_frac
    );
    let qs: Vec<String> = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
        .iter()
        .map(|&q| format!("p{}={:.3}", q * 100.0, r0.sim.latency.quantile(q)))
        .collect();
    println!(
        "# latency quantiles over all sampled txs, censored ranked last (s): {}",
        qs.join(" ")
    );
    println!(
        "# window: {} txs f+1-confirmed; {} epoch changes in the run; {} repetitions; host numbers cover all {} replicas",
        r0.counts.confirmed_txs,
        r0.counts.epochs_total,
        reps.len(),
        spec.n
    );

    let metrics = if args.trace {
        let layers = per_layer(&untraced, &traced);
        let get = |name: &str| {
            layers
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value)
        };
        println!(
            "# reconciliation: layer self-times cover {:.1}% of the traced window's {:.3} s wall; engine self {:.3} s",
            100.0 * get("trace.reconciled_frac"),
            get("trace.window_s"),
            get("sim.engine_self_s")
        );
        println!(
            "# tracing overhead: {:+.3} s ({:+.1}%) traced minus untraced window wall",
            get("trace.overhead_s"),
            100.0 * get("trace.overhead_frac")
        );
        if let Some(p) = traced.last().and_then(|r| r.probe.as_ref()) {
            let path = scratch.join(format!("spans-{}-seed{}.tsv", spec.name, args.seed));
            p.write_tsv(&path)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            println!(
                "# spans: {} written to {}",
                p.spans.borrow().len(),
                path.display()
            );
        }
        layers
    } else {
        end_to_end(&untraced)
    };
    for x in &metrics {
        println!("{:<36} {:>18.6} {}", x.name, x.value, x.unit);
    }
    for f in &failures {
        println!("# GATE FAILED: {f}");
    }
    let correct = failures.is_empty();
    println!("# gates: {}", if correct { "all passed" } else { "FAILED" });
    let named: Vec<(String, String, f64)> = metrics
        .iter()
        .map(|x| (x.name.to_string(), x.unit.to_string(), x.value))
        .collect();
    println!(
        "{}",
        json_line(correct, reps.len() as u64, failed_reps, &named)
    );
    Ok(correct)
}

/// Runs every workload in its own process (so `peak_rss_mb` is per
/// workload) and merges their result lines.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut merged: Vec<(String, String, f64)> = Vec::new();
    for name in NAMES {
        let out = std::process::Command::new(&exe)
            .args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .map_err(|e| format!("{name}: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let lines: Vec<&str> = text.lines().collect();
        for l in &lines[..lines.len().saturating_sub(1)] {
            println!("{l}");
        }
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        correct &= out.status.success();
        let Some(last) = lines.last() else {
            correct = false;
            continue;
        };
        attempted += json_u64(last, "attempted");
        failed += json_u64(last, "failed");
        // Re-read this workload's metric table (name, value, unit).
        for l in &lines {
            let f: Vec<&str> = l.split_whitespace().collect();
            if let [metric, value, unit] = f[..] {
                if let Ok(v) = value.parse::<f64>() {
                    merged.push((format!("{name}.{metric}"), unit.to_string(), v));
                }
            }
        }
    }
    println!("{}", json_line(correct, attempted, failed, &merged));
    Ok(correct)
}

fn json_u64(line: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\": ");
    line.find(&pat)
        .map(|i| &line[i + pat.len()..])
        .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|d| d.parse().ok())
        .unwrap_or(0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("clusterbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Scratch space (the crash victim's WAL and snapshots, trace spans)
    // lives under the working directory.
    let scratch = PathBuf::from(".clusterbench");
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("clusterbench: creating {}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    let result = if args.workload == "all" {
        run_all(&args)
    } else {
        run_workload(&args, &scratch)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("clusterbench: {e}");
            ExitCode::from(2)
        }
    }
}

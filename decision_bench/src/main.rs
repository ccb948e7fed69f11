//! `decision_bench` — the repository's benchmark of tempo-serve control
//! decisions, end to end and layer by layer.
//!
//! ```text
//! decision_bench --workload <wire_pipelined|tune_dense|fleet_journal>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics against an in-process server;
//! `--trace 1` replays the same generated inputs through each layer's public
//! functions and prints the per-layer ledger. Human-readable lines go to
//! stdout first; the last stdout line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Any wrong output exits non-zero.
//! See README.md for the workloads and what each metric should move.

mod calib;
mod e2e;
mod layers;
mod reference;
mod stats;
mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workload::{Inputs, Workload};

/// A named metric, its unit, its value and the samples behind it.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |name: &str| -> Result<&str, String> {
        let i = args.iter().position(|a| a == name).ok_or(format!("missing {name}"))?;
        args.get(i + 1).map(String::as_str).ok_or(format!("{name} needs a value"))
    };
    let name = value("--workload")?;
    let workload = workload::find(name).ok_or(format!(
        "unknown workload {name:?} (expected one of: {})",
        workload::all().iter().map(|w| w.name).collect::<Vec<_>>().join(", ")
    ))?;
    let seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

/// The machine and build a report came from. Numbers from different
/// fingerprints are not comparable.
fn fingerprint(args: &Args) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let w = &args.workload;
    format!(
        "fingerprint: nproc={nproc} cpu=\"{cpu}\" rustc=\"{}\" rev={} seed={} workload={} \
         domains={} shape={:?} access={:?} proto={:?} connections={} pipeline={} \
         closed_rounds={} open_rounds={} open_rate={}/s watermark={:?} journal={}",
        env!("DECISION_BENCH_RUSTC"),
        env!("DECISION_BENCH_REV"),
        args.seed,
        w.name,
        w.domains,
        w.shape,
        w.access,
        w.proto,
        w.connections,
        w.pipeline,
        w.closed_rounds,
        w.open_rounds,
        w.open_rate,
        w.watermark,
        w.journal,
    )
}

/// Where the run keeps its journals: inside the working directory, one
/// directory per process.
fn run_dir() -> PathBuf {
    PathBuf::from(".bench_run").join(format!("{}", std::process::id()))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("decision_bench: {e}");
            return ExitCode::from(2);
        }
    };
    // The daemon enables telemetry at startup; so does the benchmark, whose
    // in-process server shares this process.
    tempo_obs::set_enabled(true);
    println!("{}", fingerprint(&args));
    let started = Instant::now();
    let ticks = e2e::cpu_ticks();
    let inputs = Inputs::generate(&args.workload, args.seed);
    let run_dir = run_dir();
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("decision_bench: create {}: {e}", run_dir.display());
        return ExitCode::FAILURE;
    }
    let outcome = if args.trace {
        layers::run(&inputs, &run_dir, started)
    } else {
        end_to_end(&inputs, &run_dir, args.seconds, started)
    };
    // Journals go with the process; `.bench_run` stays only if it holds
    // span files.
    let _ = std::fs::remove_dir_all(&run_dir);
    let _ = std::fs::remove_dir(".bench_run");
    match outcome {
        Ok(mut report) => {
            for m in &report.metrics {
                if !m.value.is_finite() {
                    report.errors.push(format!("{} could not be measured", m.name));
                }
            }
            let (steal, total) = e2e::cpu_ticks();
            println!(
                "cpu steal during the run: {:.1}% of machine CPU time",
                100.0 * (steal - ticks.0) as f64 / (total - ticks.1).max(1) as f64
            );
            for line in &report.lines {
                println!("{line}");
            }
            for m in report.metrics.iter().chain(&report.reported) {
                println!("{:<30} {:>14.4} {:<10} (n={})", m.name, m.value, m.unit, m.samples);
            }
            let correct = report.errors.is_empty();
            for e in &report.errors {
                println!("CHECK FAILED: {e}");
            }
            println!("{}", json(correct, report.attempted, report.failed, &report.metrics));
            if correct && report.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("decision_bench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A finished run: metrics in report order, plus checks.
pub struct Report {
    pub lines: Vec<String>,
    /// The metrics `BENCHMARK.json` gates; they make up the JSON line.
    pub metrics: Vec<Metric>,
    /// Printed by name with unit and sample count, not gated.
    pub reported: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        // A value that could not be measured fails the run (see `main`);
        // JSON has no NaN, so it is written as 0.
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Runs epochs until the time budget is spent (at least three, so set-up
/// time has a median) and reports the end-to-end metrics.
fn end_to_end(
    inputs: &Inputs,
    run_dir: &std::path::Path,
    seconds: f64,
    started: Instant,
) -> Result<Report, String> {
    let expect = e2e::Expect::new(inputs);
    let mut epochs = Vec::new();
    loop {
        let t = Instant::now();
        let ep = e2e::epoch(inputs, &expect, run_dir, false, &mut |_| {})?;
        epochs.push(ep);
        let per_epoch = t.elapsed().as_secs_f64();
        if epochs.len() >= 3 && started.elapsed().as_secs_f64() + per_epoch > seconds {
            break;
        }
    }
    let mut report = summarize(inputs, &epochs);
    report.lines.push(format!("run took {:.1}s", started.elapsed().as_secs_f64()));
    Ok(report)
}

/// Folds epochs into the end-to-end metrics: CPU cost, throughput and
/// set-up as medians over the timed epochs, latencies over their samples
/// pooled.
pub fn summarize(inputs: &Inputs, all: &[e2e::Epoch]) -> Report {
    let w = &inputs.workload;
    // The hypervisor of a shared machine steals CPU in bursts. Epochs it
    // disturbed (more than 1% of the machine's CPU stolen) are left out of
    // the timings while at least half the epochs remain; otherwise the
    // least-disturbed half is used. Checks and counts cover every epoch.
    let mut steals: Vec<f64> = all.iter().map(|e| e.steal).collect();
    steals.sort_by(f64::total_cmp);
    let limit = steals.get(all.len().div_ceil(2).max(1) - 1).map_or(0.01, |&s| s.max(0.01));
    let epochs: Vec<&e2e::Epoch> = all.iter().filter(|e| e.steal <= limit).collect();
    let per =
        |f: &dyn Fn(&e2e::Epoch) -> f64| -> Vec<f64> { epochs.iter().map(|e| f(e)).collect() };
    let pooled = |f: &dyn Fn(&e2e::Epoch) -> &Vec<f64>| -> Vec<f64> {
        epochs.iter().flat_map(|e| f(e).iter().copied()).collect()
    };
    let dps = per(&|e| e.closed_decisions as f64 / e.closed_s);
    let jps = per(&|e| e.closed_jobs as f64 / e.closed_s);
    let setup = per(&|e| e.setup_s);
    let restart = per(&|e| e.restart_s.unwrap_or(f64::NAN));
    let decision = pooled(&|e| &e.decision_ms);
    let ingest = pooled(&|e| &e.ingest_ms);
    let late = pooled(&|e| &e.late_ms);
    let attempted: u64 = all.iter().map(|e| e.attempted).sum();
    let failed: u64 = all.iter().map(|e| e.failed).sum();
    let decisions: u64 = all.iter().map(|e| e.decisions).sum();
    let qs_mean =
        |f: &dyn Fn(&e2e::Epoch) -> f64| all.iter().map(f).sum::<f64>() / decisions.max(1) as f64;
    let mut errors: Vec<String> = all.iter().flat_map(|e| e.errors.iter().cloned()).collect();
    errors.dedup();

    let mut lines = vec![format!(
        "workload {}: {} epoch(s), {} timed; closed loop {} rounds, open loop {} rounds at {}/s",
        w.name,
        all.len(),
        epochs.len(),
        w.closed_rounds,
        w.open_rounds,
        w.open_rate
    )];
    let fmt = |v: &[f64]| v.iter().map(|x| format!("{x:.4}")).collect::<Vec<_>>().join(" ");
    let steal_pct: Vec<f64> = all.iter().map(|e| 100.0 * e.steal).collect();
    lines.push(format!("per epoch: cpu steal % [{}]", fmt(&steal_pct)));
    lines.push(format!("per timed epoch: decisions_per_sec [{}]", fmt(&dps)));
    lines.push(format!("per timed epoch: setup_s [{}]", fmt(&setup)));
    // Backlog: an epoch's open phase fell behind when its rounds started
    // ever later — the second half's median lateness exceeds the first
    // half's by half a round period. The run is over capacity when most
    // epochs fell behind; one disturbed epoch is not a growing backlog.
    let period_ms = 1e3 / w.open_rate;
    let behind = epochs
        .iter()
        .filter(|e| {
            let (first, second) = e.round_late_ms.split_at(e.round_late_ms.len() / 2);
            let m = |v: &[f64]| stats::median(v).unwrap_or(0.0);
            m(second) > m(first) + period_ms / 2.0
        })
        .count();
    let over = 2 * behind > epochs.len();
    let pct = |v: &[f64], q: f64| stats::percentile(v, q).unwrap_or(f64::NAN);
    let med = |v: &[f64]| stats::median(v).unwrap_or(f64::NAN);
    let m = |name, unit, value, samples: usize| Metric { name, unit, value, samples };
    // CPU cost per decision, scaled by the calibration samples taken
    // between the epoch's rounds to the reference machine's undisturbed
    // speed (calib.rs).
    let scale = |e: &e2e::Epoch| {
        let reference: f64 = e.calib.iter().map(|c| c.reference_s).sum();
        calib::NOMINAL_S * e.calib.len() as f64 / reference
    };
    let cpu = per(&|e| 1e3 * e.phases_cpu_s * scale(e) / e.decisions.max(1) as f64);
    let raw_cpu = per(&|e| 1e3 * e.phases_cpu_s / e.decisions.max(1) as f64);
    let speed = per(&|e| 1.0 / scale(e));
    lines.push(format!("per timed epoch: machine slowdown vs reference [{}]", fmt(&speed)));
    lines.push(format!("per timed epoch: raw cpu_ms_per_decision [{}]", fmt(&raw_cpu)));
    lines.push(format!("per timed epoch: cpu_ms_per_decision [{}]", fmt(&cpu)));
    let metrics = vec![
        m("cpu_ms_per_decision", "ms", med(&cpu), cpu.len()),
        m("setup_s", "s", med(&setup), setup.len()),
        m("peak_rss_mb", "MB", all.first().map_or(f64::NAN, |e| e.peak_rss_mb), 1),
    ];
    // Printed with every run but not gated: wall-clock figures swing with
    // the hypervisor's steal on a shared machine, some are too noisy across
    // seeds, and some exist on one workload only (README.md).
    let mut reported = vec![
        m("raw_cpu_ms_per_decision", "ms", med(&raw_cpu), raw_cpu.len()),
        m("decisions_per_sec", "1/s", med(&dps), dps.len()),
        m("ingest_jobs_per_sec", "1/s", med(&jps), jps.len()),
        m("decision_p50_ms", "ms", pct(&decision, 0.5), decision.len()),
        m("decision_p99_ms", "ms", pct(&decision, 0.99), decision.len()),
        m("late_p99_ms", "ms", pct(&late, 0.99), late.len()),
        m("failed_ratio", "ratio", failed as f64 / attempted.max(1) as f64, attempted as usize),
        m("deadline_miss_mean", "ratio", qs_mean(&|e| e.deadline_miss_sum), decisions as usize),
        m("avg_response_s_mean", "s", qs_mean(&|e| e.avg_response_sum), decisions as usize),
    ];
    if !ingest.is_empty() {
        reported.push(m("ingest_p99_ms", "ms", pct(&ingest, 0.99), ingest.len()));
    }
    if w.journal {
        reported.push(m("restart_s", "s", med(&restart), restart.len()));
    }
    if over {
        lines.push(format!(
            "OVER CAPACITY: the open-loop backlog grew at {}/s, so no latency is reported",
            w.open_rate
        ));
        reported.retain(|m| !m.name.ends_with("_ms"));
    }
    Report { lines, metrics, reported, attempted, failed, errors }
}

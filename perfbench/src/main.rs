//! The collsel benchmark: end-to-end and per-layer figures of the
//! three workflows a user runs — tuning campaigns, whole-job trace
//! replay and decision serving — driven only through the library's
//! public functions.
//!
//! ```text
//! collsel-perfbench --workload tune|replay-pp|serve \
//!                   --seed N --seconds S --trace 0|1
//! collsel-perfbench compare BASE_DIR [CHANGE_DIR]
//! ```
//!
//! An untraced run also starts itself as `collsel-perfbench repeat
//! --workload W --seed N` to repeat its set-up (and the first operation
//! of `tune` and `replay-pp`) in fresh processes; see `repeat.rs`.
//!
//! A run prints one JSON line last on stdout (`correct`, `attempted`,
//! `failed`, `metrics`) and keeps a copy under the cargo target
//! directory (`perfbench/runs/<workload>-seed<N>[-trace].json`), the
//! layout `compare` reads a set of runs in. See `perfbench/README.md`.

mod checks;
mod compare;
mod repeat;
mod replay;
mod report;
mod serve;
mod setup;
mod stats;
mod tune;

use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["tune", "replay-pp", "serve"];

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

/// The value following `name` on the command line.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let known = ["--workload", "--seed", "--seconds", "--trace"];
    for pair in args.chunks(2) {
        if !known.contains(&pair[0].as_str()) || pair.len() < 2 {
            return Err(format!("unexpected argument `{}`", pair[0]));
        }
    }
    let need = |name| flag(args, name).ok_or(format!("{name} is required"));
    let workload = need("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seed = need("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = need("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let traced = match need("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    Ok(RunArgs {
        workload,
        seed,
        seconds,
        traced,
    })
}

/// The cargo target directory the run keeps its output under.
fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

fn run(args: &RunArgs, process_start: Instant) -> String {
    let mut report = Report::default();
    let setup = setup::run(&mut report, args.traced);
    // Set-up ends where the workload's first timed operation begins;
    // the workloads' own input generation is a few milliseconds and
    // falls inside their first operation's preparation.
    let mut setup_samples = vec![process_start.elapsed().as_secs_f64()];
    let repeats = if args.traced {
        Vec::new()
    } else {
        repeat::run_children(&args.workload, args.seed, &mut report)
    };
    setup_samples.extend(repeats.iter().flatten().map(|r| r.setup_s));
    report.metric("setup_s", stats::median(&setup_samples));
    let cold: Vec<_> = repeats
        .into_iter()
        .map(|r| r.and_then(|r| r.cold))
        .collect();
    let (seed, secs, traced) = (args.seed, args.seconds, args.traced);
    match args.workload.as_str() {
        "tune" => tune::run(&setup, &mut report, seed, secs, traced, &cold),
        "replay-pp" => replay::run(&setup, &mut report, seed, secs, traced, &cold),
        "serve" => serve::run(&setup, &mut report, seed, secs, traced),
        other => unreachable!("workload {other} was validated"),
    }
    if report.failed() > 0 {
        eprintln!(
            "{}: {} operation(s) failed their checks",
            args.workload,
            report.failed()
        );
    }
    report.line(args.traced)
}

/// Keeps a copy of the result line under the target directory; a
/// failure to write it is reported but does not fail the run.
fn keep(args: &RunArgs, line: &str) {
    let dir = target_dir().join("perfbench").join("runs");
    let name = format!(
        "{}-seed{}{}.json",
        args.workload,
        args.seed,
        if args.traced { "-trace" } else { "" }
    );
    if let Err(e) = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(&name), format!("{line}\n")))
    {
        eprintln!("cannot keep the result under {}: {e}", dir.display());
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare::compare(&args[1..]),
        Some("repeat") => {
            let workload = flag(&args, "--workload").filter(|w| WORKLOADS.contains(w));
            let seed = flag(&args, "--seed").and_then(|s| s.parse().ok());
            match (workload, seed) {
                (Some(w), Some(seed)) => repeat::child(w, seed, process_start),
                _ => Err("repeat takes --workload W --seed N".into()),
            }
        }
        _ => parse_run(&args).map(|run_args| {
            // The program's pool never runs more threads than the host
            // has cores: oversubscription only adds scheduling noise.
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            let threads = std::env::var(collsel_support::pool::THREADS_ENV)
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .map_or(cores, |t| t.clamp(1, cores));
            std::env::set_var(collsel_support::pool::THREADS_ENV, threads.to_string());
            let line = run(&run_args, process_start);
            keep(&run_args, &line);
            println!("{line}");
        }),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("collsel-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

//! Set-up and first operations repeated in fresh processes.
//!
//! A process sets up once: the process-wide cell and step memos that
//! tuning, campaigns and replay fill cannot be emptied, so a second
//! set-up, or a second first campaign (`tune`) or cold pass
//! (`replay-pp`), in the same process would be served from them. An
//! untraced run therefore starts itself `REPEATS` more times, one child
//! after the other and each waited for, as `collsel-perfbench repeat
//! --workload W --seed N`, before its timed phase. `setup_s`, and
//! `build_s` on `tune` and `replay-pp`, are medians over the run and
//! its children: one sample per run spread up to 23 % (`setup_s`), 21 %
//! (`replay-pp`'s cold pass) and 12 % (`tune`'s first campaign) over
//! ten runs.

use crate::report::Report;
use crate::{replay, setup, tune};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Child processes per untraced run.
pub const REPEATS: usize = 2;

/// A workload's first operation in a fresh process — `tune`'s first
/// campaign, `replay-pp`'s cold pass — with the witness of its result
/// that the run compares with its own.
#[derive(Debug, Clone, PartialEq)]
pub struct Cold {
    pub secs: f64,
    pub witness: Vec<String>,
}

/// What a child measured.
pub struct Repeat {
    pub setup_s: f64,
    /// On `tune` and `replay-pp` only.
    pub cold: Option<Cold>,
}

/// The child: sets up, then on `tune` and `replay-pp` makes the first
/// operation, and prints `<setup_s> [<secs> <witness>…]`. Fails if the
/// set-up fails its checks.
pub fn child(workload: &str, seed: u64, process_start: Instant) -> Result<(), String> {
    let mut report = Report::default();
    let setup = setup::run(&mut report, false);
    let setup_s = process_start.elapsed().as_secs_f64();
    if report.failed() > 0 {
        return Err("the set-up failed its checks".into());
    }
    let cold = match workload {
        "tune" => Some(tune::timed_first_campaign(&setup, seed)),
        "replay-pp" => Some(replay::timed_cold_pass(&setup, seed)),
        _ => None,
    };
    let mut line = format!("{setup_s:?}");
    if let Some(c) = cold {
        line += &format!(" {:?} {}", c.secs, c.witness.join(" "));
    }
    println!("{line}");
    Ok(())
}

/// The run's own first operation (`own_secs`, `want` its witness) and
/// the children's: the samples of the children that reproduced `want`
/// join `own_secs`. Each child counts `ops` operations, all failed if
/// it failed or disagrees.
pub fn cold_samples(
    own_secs: f64,
    want: &[String],
    repeated: &[Option<Cold>],
    ops: u64,
    report: &mut Report,
) -> Vec<f64> {
    let mut samples = vec![own_secs];
    for cold in repeated {
        match cold {
            Some(c) if c.witness == want => {
                samples.push(c.secs);
                report.ops(ops, 0);
            }
            _ => {
                eprintln!("a repeated first operation failed or disagrees with the run's");
                report.ops(ops, ops);
            }
        }
    }
    samples
}

fn parse(stdout: &str) -> Option<Repeat> {
    let mut fields = stdout.split_whitespace();
    let setup_s = fields.next()?.parse().ok()?;
    let cold = match fields.next() {
        None => None,
        Some(secs) => Some(Cold {
            secs: secs.parse().ok()?,
            witness: fields.map(str::to_string).collect(),
        }),
    };
    Some(Repeat { setup_s, cold })
}

fn spawn(workload: &str, seed: u64) -> Result<Repeat, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let output = Command::new(exe)
        .args([
            "repeat",
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start: {e}"))?;
    if !output.status.success() {
        return Err(format!("exited with {}", output.status));
    }
    parse(&String::from_utf8_lossy(&output.stdout)).ok_or_else(|| "unreadable output".into())
}

/// Runs the `REPEATS` children one after the other. Each child's
/// set-up is one operation, failed if the child fails.
pub fn run_children(workload: &str, seed: u64, report: &mut Report) -> Vec<Option<Repeat>> {
    (0..REPEATS)
        .map(|_| {
            let repeat = spawn(workload, seed);
            if let Err(e) = &repeat {
                eprintln!("repeated set-up: {e}");
            }
            report.ops(1, u64::from(repeat.is_err()));
            repeat.ok()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_output_parses() {
        let r = parse("2.5\n").expect("set-up only");
        assert_eq!(r.setup_s, 2.5);
        assert!(r.cold.is_none());
        let r = parse("2.5 1.75 10 - 30\n").expect("with a first operation");
        let cold = r.cold.expect("cold pass");
        assert_eq!(cold.secs, 1.75);
        assert_eq!(cold.witness, ["10", "-", "30"]);
        assert!(parse("").is_none());
    }
}

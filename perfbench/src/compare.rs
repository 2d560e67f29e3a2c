//! `compare` reads one or two sets of runs back — each a directory of
//! result lines as the runs keep them (`perfbench/runs/` under the
//! cargo target directory) — and judges them against the bounds in
//! `BENCHMARK.json`.

use crate::report::catalogue;
use crate::stats::{median, quartiles};
use crate::WORKLOADS;
use collsel_support::Json;
use std::collections::BTreeMap;
use std::path::Path;

/// One untraced run read back from a set.
struct Run {
    seed: u64,
    attempted: u64,
    failed: u64,
    correct: bool,
    metrics: BTreeMap<String, f64>,
}

/// A set's runs by workload, each list ordered by seed.
fn load_set(dir: &Path) -> Result<BTreeMap<String, Vec<Run>>, String> {
    let mut set: BTreeMap<String, Vec<Run>> = BTreeMap::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let Some(stem) = name.strip_suffix(".json") else {
            continue;
        };
        let Some((workload, seed)) = stem.rsplit_once("-seed") else {
            continue;
        };
        let Ok(seed) = seed.parse() else {
            continue; // traced runs carry a suffix and are not compared
        };
        let text = std::fs::read_to_string(entry.path()).map_err(|e| format!("{name}: {e}"))?;
        let json = Json::parse(text.trim()).map_err(|e| format!("{name}: {e}"))?;
        let count = |k| {
            json.get(k)
                .and_then(Json::as_f64)
                .map(|x| x as u64)
                .ok_or(format!("{name}: no `{k}` count"))
        };
        let correct = match json.get("correct") {
            Some(Json::Bool(b)) => *b,
            _ => return Err(format!("{name}: no `correct` flag")),
        };
        // A metric written as `null` was not measured and stays absent.
        let mut metrics = BTreeMap::new();
        if let Some(Json::Obj(fields)) = json.get("metrics") {
            for (k, v) in fields {
                if let Some(x) = v.get("value").and_then(Json::as_f64) {
                    metrics.insert(k.clone(), x);
                }
            }
        }
        set.entry(workload.to_string()).or_default().push(Run {
            seed,
            attempted: count("attempted")?,
            failed: count("failed")?,
            correct,
            metrics,
        });
    }
    for runs in set.values_mut() {
        runs.sort_by_key(|r| r.seed);
    }
    Ok(set)
}

/// How a change's runs compare with the parent's on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins at least 9 of 10 pairs and the medians differ
    /// by more than the parent's interquartile spread.
    Improved,
    /// No worse than the bound allows.
    WithinBound,
    /// The parent's own spread is wider than the bound.
    Unresolved,
    /// Worse by more than the bound.
    Worse,
    /// Some run of either set did not measure the metric.
    Missing,
    /// The change's runs fail a larger share of their operations than
    /// the parent's, or one of them is not correct: no figure counts.
    Failing,
}

/// Judges `change` against `base` (runs paired by position, each pair
/// one seed) for a metric where `higher` is better. A value that is
/// not finite stands for a run that did not measure the metric.
pub fn verdict(base: &[f64], change: &[f64], higher: bool, bound: f64) -> (Verdict, usize, usize) {
    let better = |c: f64, b: f64| if higher { c > b } else { c < b };
    let pairs = base.len().min(change.len());
    if pairs == 0 || base.iter().chain(change).any(|v| !v.is_finite()) {
        return (Verdict::Missing, 0, pairs);
    }
    let wins = (0..pairs).filter(|&i| better(change[i], base[i])).count();
    let (mb, mc) = (median(base), median(change));
    let (q1, q3) = quartiles(base);
    let iqr = q3 - q1;
    // Relative worsening of the change's median.
    let worse_by = if higher {
        (mb - mc) / mb
    } else {
        (mc - mb) / mb
    };
    let v = if wins * 10 >= pairs * 9 && (mc - mb).abs() > iqr {
        Verdict::Improved
    } else if iqr / mb.abs() > bound {
        let every_better = change.iter().all(|&c| base.iter().all(|&b| better(c, b)));
        if every_better {
            Verdict::WithinBound
        } else {
            Verdict::Unresolved
        }
    } else if worse_by <= bound {
        Verdict::WithinBound
    } else {
        Verdict::Worse
    };
    (v, wins, pairs)
}

/// Whether the change's runs fail a larger share of their operations
/// than the parent's, or any of them reports `correct: false`.
fn fails_more(base: &[Run], change: &[Run]) -> bool {
    let sums = |runs: &[Run]| {
        runs.iter().fold((0u128, 0u128), |(a, f), r| {
            (a + u128::from(r.attempted), f + u128::from(r.failed))
        })
    };
    let ((ab, fb), (ac, fc)) = (sums(base), sums(change));
    change.iter().any(|r| !r.correct) || fc * ab > fb * ac
}

/// Prints, per workload and end-to-end metric, the median, quartiles
/// and spread of one set, or the parent-vs-change comparison of two.
pub fn compare(args: &[String]) -> Result<(), String> {
    let (base_dir, change_dir) = match args {
        [a] => (a, None),
        [a, b] => (a, Some(b)),
        _ => return Err("compare takes BASE_DIR [CHANGE_DIR]".into()),
    };
    let base = load_set(Path::new(base_dir))?;
    let change = change_dir.map(|d| load_set(Path::new(d))).transpose()?;
    let mut all_steady = true;
    for w in WORKLOADS {
        let Some(b_runs) = base.get(w) else {
            continue;
        };
        let share = |runs: &[Run]| {
            let a: u64 = runs.iter().map(|r| r.attempted).sum();
            let f: u64 = runs.iter().map(|r| r.failed).sum();
            let wrong = runs.iter().filter(|r| !r.correct).count();
            format!("{f}/{a} failed, {wrong} run(s) not correct")
        };
        println!("{w}: {} run(s), {}", b_runs.len(), share(b_runs));
        let c_runs = change.as_ref().and_then(|c| c.get(w));
        if let Some(c) = c_runs {
            println!("  change: {} run(s), {}", c.len(), share(c));
        }
        for m in &catalogue().end_to_end {
            let (name, bound) = (&m.name, m.bound.unwrap_or(0.0));
            let values = |runs: &[Run]| -> Vec<f64> {
                runs.iter()
                    .map(|r| r.metrics.get(name).copied().unwrap_or(f64::NAN))
                    .collect()
            };
            let bv = values(b_runs);
            let (q1, q3) = quartiles(&bv);
            let mb = median(&bv);
            let spread = (q3 - q1) / mb.abs();
            match c_runs {
                None => {
                    let steady = spread < bound / 3.0;
                    all_steady &= steady;
                    let flag = if bv.iter().any(|v| !v.is_finite()) {
                        "  MISSING"
                    } else if steady {
                        ""
                    } else {
                        "  NOT STEADY"
                    };
                    println!(
                        "  {name:<12} median {mb:<12.6} q1 {q1:<12.6} q3 {q3:<12.6} \
                         spread {:5.2}% (bound {:.0}%){flag}",
                        spread * 100.0,
                        bound * 100.0,
                    );
                }
                Some(c) => {
                    let cv = values(c);
                    let (mut v, wins, pairs) = verdict(&bv, &cv, m.higher, bound);
                    if fails_more(b_runs, c) {
                        v = Verdict::Failing;
                    }
                    let (c1, c3) = quartiles(&cv);
                    println!(
                        "  {name:<12} base {mb:<12.6} [{q1:.6}, {q3:.6}]  change {:<12.6} \
                         [{c1:.6}, {c3:.6}]  wins {wins}/{pairs}  {v:?}",
                        median(&cv)
                    );
                }
            }
        }
    }
    if change_dir.is_none() && !all_steady {
        println!("some spreads are at or above a third of their bound, or missing");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let base = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0];
        let faster: Vec<f64> = base.iter().map(|x| x * 0.8).collect();
        let slower: Vec<f64> = base.iter().map(|x| x * 1.3).collect();
        let same: Vec<f64> = base.iter().rev().copied().collect();
        assert_eq!(verdict(&base, &faster, false, 0.1).0, Verdict::Improved);
        assert_eq!(verdict(&base, &slower, false, 0.1).0, Verdict::Worse);
        assert_eq!(verdict(&base, &same, false, 0.1).0, Verdict::WithinBound);
        assert_eq!(verdict(&base, &faster, true, 0.1).0, Verdict::Worse);
        let noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 20.0, 4.0, 10.0, 9.0, 11.0];
        assert_eq!(verdict(&noisy, &noisy, false, 0.1).0, Verdict::Unresolved);
    }

    /// A metric some change run did not measure is never a win.
    #[test]
    fn unmeasured_metric_is_missing() {
        let base = [10.0, 10.1, 9.9, 10.0];
        let mut change = [5.0, 5.0, 5.0, 5.0];
        change[2] = f64::NAN;
        assert_eq!(verdict(&base, &change, false, 0.1).0, Verdict::Missing);
        assert_eq!(verdict(&base, &[], false, 0.1).0, Verdict::Missing);
        assert_eq!(verdict(&[], &base, false, 0.1).0, Verdict::Missing);
    }

    fn run(attempted: u64, failed: u64, correct: bool) -> Run {
        Run {
            seed: 1,
            attempted,
            failed,
            correct,
            metrics: BTreeMap::new(),
        }
    }

    #[test]
    fn failing_change_is_detected() {
        let clean = [run(100, 0, true), run(120, 0, true)];
        assert!(!fails_more(&clean, &clean));
        assert!(fails_more(&clean, &[run(100, 0, true), run(120, 1, false)]));
        // The same share of failures as the parent is not more.
        let base = [run(100, 1, true)];
        assert!(!fails_more(&base, &[run(200, 2, true)]));
        assert!(fails_more(&base, &[run(200, 3, true)]));
        // A run that reports itself incorrect fails whatever the counts.
        assert!(fails_more(&clean, &[run(100, 0, false)]));
    }
}

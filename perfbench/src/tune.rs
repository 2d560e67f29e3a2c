//! `tune`: the measured-winner campaign `colltune tune --adaptive`
//! runs after tuning, warm-started from the just-tuned model, over all
//! seven collectives on a grid trimmed from the CLI default.
//!
//! One operation is one whole campaign. The first campaign of the
//! process runs with the cell memo holding only the tuning cells
//! (`build_s`, the cost the CLI pays once per invocation, and the
//! median of it and the run's child processes' first campaigns); the
//! rest run with it full, as a long-lived tuner re-measuring the grid
//! would.
//! Every campaign must reproduce, byte for byte, the tables of an
//! untimed exhaustive campaign over the same plan.

use crate::checks;
use crate::repeat::{self, Cold};
use crate::report::Report;
use crate::setup::Setup;
use crate::stats;
use collsel::coll::Collective;
use collsel::estim::{log_spaced_sizes, memo_counters, MemoCounters};
use collsel::{CampaignPlan, CampaignReport};
use collsel_support::ToJson;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::time::Instant;

/// Communicator sizes: the CLI's {2, 4, 8, 16, 32} cut at the tuning
/// width, so that every campaign cell fits the experiments' scale.
pub const COMM_SIZES: [usize; 3] = [2, 4, 8];
/// Message sizes: six log-spaced points over the CLI's 1 KiB..1 MiB
/// range (the CLI uses twelve).
pub const MSG_SIZES: usize = 6;
/// The CLI's anchor stride.
const ANCHOR_STEP: usize = 4;

fn plan(seed: u64) -> CampaignPlan {
    let mut plan = CampaignPlan::adaptive(
        Collective::ALL.to_vec(),
        COMM_SIZES.to_vec(),
        log_spaced_sizes(1024, 1 << 20, MSG_SIZES),
        ANCHOR_STEP,
    );
    plan.seed = seed;
    plan
}

/// The first campaign's witness: a hash of each collective's table
/// JSON text.
fn witness(first: &CampaignReport) -> Vec<String> {
    first
        .tables
        .values()
        .map(|t| {
            let mut h = DefaultHasher::new();
            t.to_json().to_string_compact().hash(&mut h);
            format!("{:016x}", h.finish())
        })
        .collect()
}

/// The first campaign of a process, timed.
fn first_campaign(setup: &Setup, seed: u64) -> (CampaignReport, f64) {
    let t = Instant::now();
    let first = setup.tuner.run_campaign(&plan(seed), Some(&setup.model));
    (first, t.elapsed().as_secs_f64())
}

/// The first campaign in a child process.
pub fn timed_first_campaign(setup: &Setup, seed: u64) -> Cold {
    let (first, secs) = first_campaign(setup, seed);
    Cold {
        secs,
        witness: witness(&first),
    }
}

fn memo_layers(report: &mut Report, delta: MemoCounters, cold: bool) {
    let (hits, misses) = if cold {
        ("estim.memo.dag_hits_cold", "estim.memo.dag_misses_cold")
    } else {
        ("estim.memo.dag_hits", "estim.memo.dag_misses")
    };
    report.layer(hits, delta.dag_hits as f64);
    report.layer(misses, delta.dag_misses as f64);
}

fn campaign_layers(report: &mut Report, first: &CampaignReport, exhaustive: &CampaignReport) {
    report.layer("estim.campaign.grid_cells", first.grid_cells() as f64);
    report.layer(
        "estim.campaign.measured_cells",
        first.measured_cells() as f64,
    );
    report.layer(
        "estim.campaign.sim_batches",
        first.simulated_batches() as f64,
    );
    for s in &first.per_collective {
        let name = match s.collective {
            Collective::Bcast => "estim.campaign.batches.bcast",
            Collective::Reduce => "estim.campaign.batches.reduce",
            Collective::Gather => "estim.campaign.batches.gather",
            Collective::Scatter => "estim.campaign.batches.scatter",
            Collective::Allgather => "estim.campaign.batches.allgather",
            Collective::Allreduce => "estim.campaign.batches.allreduce",
            Collective::Alltoall => "estim.campaign.batches.alltoall",
        };
        report.layer(name, s.simulated_batches as f64);
    }
    report.layer(
        "estim.campaign.exhaustive_batches",
        exhaustive.simulated_batches() as f64,
    );
}

/// Runs the workload. `repeated` holds the first campaigns the run's
/// child processes made (`None` for a child that failed); each must
/// reproduce this process's tables, and `build_s` is the median of
/// every first campaign.
pub fn run(
    setup: &Setup,
    report: &mut Report,
    seed: u64,
    seconds: f64,
    traced: bool,
    repeated: &[Option<Cold>],
) {
    let plan = plan(seed);
    let campaign = || setup.tuner.run_campaign(&plan, Some(&setup.model));

    let before = memo_counters();
    let (first, build_s) = first_campaign(setup, seed);
    let cold_memo = memo_counters().since(before);

    // Warm campaigns until the run length is spent; each must repeat
    // the first one's tables and cost exactly.
    let mut warm_s = Vec::new();
    let mut warm_memo = None;
    let mut failed = 0;
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds {
        let before = memo_counters();
        let t = Instant::now();
        let again = campaign();
        warm_s.push(t.elapsed().as_secs_f64());
        warm_memo.get_or_insert(memo_counters().since(before));
        let same = checks::table_mismatches(&again.tables, &first.tables) == 0
            && again.per_collective == first.per_collective;
        failed += u64::from(!same);
    }
    let rss = stats::peak_rss_mb();

    // The oracle: the exhaustive twin of the plan, untimed.
    let mut exhaustive_plan = plan.clone();
    exhaustive_plan.strategy = collsel::CampaignStrategy::Exhaustive;
    let exhaustive = setup.tuner.run_campaign(&exhaustive_plan, None);
    let wrong_first = checks::table_mismatches(&first.tables, &exhaustive.tables) > 0;
    if wrong_first {
        eprintln!("tune: adaptive tables differ from the exhaustive campaign's");
    }
    // A wrong first campaign makes every campaign that repeated it
    // wrong too.
    let failed = if wrong_first {
        1 + warm_s.len() as u64
    } else {
        failed
    };
    report.ops(1 + warm_s.len() as u64, failed);
    // Each repeated first campaign is one operation.
    let build_samples = repeat::cold_samples(build_s, &witness(&first), repeated, 1, report);

    report.metric("build_s", stats::median(&build_samples));
    report.metric("peak_rss_mb", rss);
    let rates: Vec<f64> = warm_s.iter().map(|s| 1.0 / s).collect();
    let ops_per_s = stats::median(&rates);
    let p50_ms = stats::median(&warm_s) * 1e3;
    report.metric("ops_per_s", ops_per_s);
    report.metric("op_p50_ms", p50_ms);
    // A run holds a handful of campaigns: too few for any percentile
    // above the median to be a tail, so the tail slot repeats it.
    report.metric("op_tail_ms", p50_ms);

    if traced {
        campaign_layers(report, &first, &exhaustive);
        memo_layers(report, cold_memo, true);
        memo_layers(report, warm_memo.unwrap_or(cold_memo), false);
        report.layer("traced.ops_per_s", ops_per_s);
        report.layer("traced.op_p50_ms", p50_ms);
    }
}

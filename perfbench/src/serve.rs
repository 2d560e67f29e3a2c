//! `serve`: a closed loop from one caller thread against a
//! `DecisionServer`, under a periodic brown-out fault plan, with a
//! refit submitted in line every `QUERIES_PER_REFIT` queries and every
//! third refit poisoned.
//!
//! The loop runs in whole rounds. A round boots a fresh server from the
//! tuned model, then alternates `QUERIES_PER_REFIT` queries from the
//! seeded stream with one refit, `REFITS` times, and ends with one more
//! block of queries. Rounds are identical, so every round serves the
//! same counts. Every `SAMPLE_EVERY`-th query is timed and its answer
//! kept; the answers are checked after the round, outside the timed
//! section, against tables the benchmark generates itself from the
//! selector it submitted for each generation.

use crate::checks::{self, ServingState};
use crate::report::Report;
use crate::setup::Setup;
use crate::stats::{self, Histogram};
use collsel::coll::{Alg, Collective};
use collsel::model::{FitValidity, Hockney};
use collsel::netsim::{Brownout, FaultPlan};
use collsel::select::{
    CollDecisionTable, CompiledCollectiveSelector, DecisionServer, GracefulCollectiveSelector,
    RefitOutcome, ServedAnswer, ServerConfig, ServerStats,
};
use collsel_support::rng::{splitmix64, splitmix64_below};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Queries between two refits.
const QUERIES_PER_REFIT: usize = 400_000;
/// Refits per round; refits 3 and 6 are poisoned.
const REFITS: usize = 6;
const POISON_EVERY: usize = 3;
/// Every `SAMPLE_EVERY`-th query is timed and its answer checked:
/// timing every query would cost more than the query itself.
const SAMPLE_EVERY: usize = 16;
/// Virtual lookup cost of a healthy query is 1 µs (the server
/// default), so a block of queries spans `QUERIES_PER_REFIT` µs of
/// serving clock. One 50x brown-out window opens in the middle of
/// every such period, long enough to trip the 10 µs watchdog on a few
/// hundred queries.
const BROWNOUT_PERIOD_S: f64 = QUERIES_PER_REFIT as f64 * 1e-6;
const BROWNOUT_LEN_S: f64 = 0.01;
const BROWNOUT_SLOWDOWN: f64 = 50.0;

const QUERIES_PER_ROUND: usize = QUERIES_PER_REFIT * (REFITS + 1);
/// Capacity of the per-round buffers; a run that fills them ends (a
/// round takes a fifth of a second or more).
const MAX_ROUNDS: usize = 1 << 12;

/// One query of the seeded stream: all seven collectives, P in
/// 2..=128, m = 1 KiB..8 MiB in powers of two. Packed into three bytes
/// so that the stream adds little to the process's memory.
#[derive(Debug, Clone, Copy)]
struct Query {
    collective: u8,
    p: u8,
    log2_kib: u8,
}

impl Query {
    #[inline]
    fn c(self) -> Collective {
        Collective::ALL[usize::from(self.collective)]
    }

    #[inline]
    fn p(self) -> usize {
        usize::from(self.p)
    }

    #[inline]
    fn m(self) -> usize {
        1024 << self.log2_kib
    }
}

fn query_stream(seed: u64) -> Vec<Query> {
    let mut state = seed ^ 0x5E27_E000;
    (0..QUERIES_PER_ROUND)
        .map(|_| Query {
            collective: splitmix64_below(&mut state, 7) as u8,
            p: 2 + splitmix64_below(&mut state, 127) as u8,
            log2_kib: splitmix64_below(&mut state, 14) as u8,
        })
        .collect()
}

/// The serving fault plan: one brown-out per refit period, covering
/// the virtual time a round can reach (brown-out queries run the clock
/// 50x faster).
fn fault_plan() -> FaultPlan {
    (0..=REFITS + 1).fold(FaultPlan::none(), |plan, k| {
        let start = (k as f64 + 0.5) * BROWNOUT_PERIOD_S;
        plan.with_brownout(Brownout::new(0, start, BROWNOUT_LEN_S, BROWNOUT_SLOWDOWN))
    })
}

/// A refit candidate: the tuned fits with every β scaled by a seeded
/// factor within ±0.1 % (a healthy refit of the same cluster, which the
/// health gate must install), or, poisoned, with each collective's β
/// ranking reversed (decision-flipping, which it must reject).
fn candidate(
    params: &BTreeMap<Alg, Hockney>,
    gamma: &collsel::model::GammaTable,
    seg_size: usize,
    state: &mut u64,
    poisoned: bool,
) -> GracefulCollectiveSelector {
    let params: BTreeMap<Alg, Hockney> = if poisoned {
        let mut by_coll: BTreeMap<Collective, Vec<(Alg, Hockney)>> = BTreeMap::new();
        for (&alg, &h) in params {
            by_coll.entry(alg.collective()).or_default().push((alg, h));
        }
        by_coll
            .into_values()
            .flat_map(|mut fits| {
                fits.sort_by(|a, b| a.1.beta.total_cmp(&b.1.beta));
                let betas: Vec<f64> = fits.iter().rev().map(|(_, h)| h.beta).collect();
                fits.into_iter()
                    .zip(betas)
                    .map(|((alg, h), beta)| (alg, Hockney::new(h.alpha, beta)))
                    .collect::<Vec<_>>()
            })
            .collect()
    } else {
        params
            .iter()
            .map(|(&alg, &h)| {
                let u = splitmix64(state) as f64 / u64::MAX as f64 * 2.0 - 1.0;
                (alg, Hockney::new(h.alpha, h.beta * (1.0 + 1e-3 * u)))
            })
            .collect()
    };
    let validity = params.keys().map(|&a| (a, FitValidity::Valid)).collect();
    let mut selector = GracefulCollectiveSelector::new(gamma.clone(), params, validity, seg_size);
    for c in Collective::ALL {
        if c != Collective::Bcast {
            selector = selector.with_seg_size(c, collsel::estim::BREADTH_SEG_SIZE);
        }
    }
    selector
}

/// Decision tables generated from `selector` over the server's grids.
fn tables_for(
    selector: &GracefulCollectiveSelector,
    config: &ServerConfig,
) -> Vec<CollDecisionTable> {
    Collective::ALL
        .into_iter()
        .map(|c| CollDecisionTable::generate(selector, c, &config.comm_sizes, &config.msg_sizes))
        .collect()
}

/// Served-source counts of one round.
fn counts(s: &ServerStats) -> [u64; 5] {
    [
        s.served_current,
        s.served_previous_timeout,
        s.served_rules_timeout + s.served_rules_uncovered,
        s.swaps,
        s.rejected_invalid + s.rejected_regression,
    ]
}

pub fn run(setup: &Setup, report: &mut Report, seed: u64, seconds: f64, traced: bool) {
    let config = ServerConfig {
        faults: fault_plan(),
        ..ServerConfig::default()
    };
    let boot = setup.model.degraded_multi_selector();
    let params = setup.model.multi_hockney_table();
    let gamma = &setup.model.gamma.table;
    let mut state = seed ^ 0xCA9D_1DA7;
    let candidates: Vec<(GracefulCollectiveSelector, bool)> = (1..=REFITS)
        .map(|k| {
            let poisoned = k % POISON_EVERY == 0;
            let sel = candidate(&params, gamma, setup.model.seg_size, &mut state, poisoned);
            (sel, poisoned)
        })
        .collect();
    // Reference tables for every generation a round installs: the boot
    // selector, then each clean candidate in order.
    let boot_tables = tables_for(&boot, &config);
    let candidate_tables: Vec<Vec<CollDecisionTable>> = candidates
        .iter()
        .map(|(sel, _)| tables_for(sel, &config))
        .collect();
    let stream = query_stream(seed);
    let mut samples: Vec<(usize, ServedAnswer)> =
        Vec::with_capacity(QUERIES_PER_ROUND / SAMPLE_EVERY + 1);
    let mut hist = Histogram::new();
    // Per-round and per-block figures, in buffers sized before the
    // timed phase.
    let mut block_rates = Vec::with_capacity(MAX_ROUNDS * (REFITS + 1));
    let mut refit_ms = Vec::with_capacity(MAX_ROUNDS * REFITS);
    let mut round_p50_ns = Vec::with_capacity(MAX_ROUNDS);
    let mut round_p99_ns = Vec::with_capacity(MAX_ROUNDS);

    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut first_counts = None;
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds && round_p50_ns.len() < MAX_ROUNDS {
        let server = DecisionServer::new(&boot, setup.cluster.name(), config.clone());
        samples.clear();
        hist.clear();
        // (version, reference tables) of the live and previous
        // generations during each block of queries.
        let mut live: (u64, &[CollDecisionTable]) = (1, &boot_tables);
        let mut prev: Option<(u64, &[CollDecisionTable])> = None;
        let mut states = Vec::with_capacity(REFITS + 1);
        let mut refit_failures = 0u64;
        for block in 0..=REFITS {
            states.push(ServingState {
                current: live,
                previous: prev,
            });
            let t_block = Instant::now();
            let range = block * QUERIES_PER_REFIT..(block + 1) * QUERIES_PER_REFIT;
            for chunk_start in range.step_by(SAMPLE_EVERY) {
                let q = stream[chunk_start];
                let t = Instant::now();
                let answer = server.decide(q.c(), q.p(), q.m());
                hist.record(t.elapsed().as_nanos() as u64);
                samples.push((chunk_start, answer));
                for q in &stream[chunk_start + 1..chunk_start + SAMPLE_EVERY] {
                    if traced {
                        let t = Instant::now();
                        black_box(server.decide(q.c(), q.p(), q.m()));
                        hist.record(t.elapsed().as_nanos() as u64);
                    } else {
                        black_box(server.decide(q.c(), q.p(), q.m()));
                    }
                }
            }
            if block < REFITS {
                let (cand, poisoned) = &candidates[block];
                let t = Instant::now();
                let outcome = server.submit_refit(cand, "refit");
                refit_ms.push(t.elapsed().as_secs_f64() * 1e3);
                match (&outcome, poisoned) {
                    (RefitOutcome::Installed { epoch, .. }, false) => {
                        prev = Some(live);
                        live = (*epoch, &candidate_tables[block]);
                    }
                    (RefitOutcome::Installed { .. }, true) | (_, false) => refit_failures += 1,
                    _ => {}
                }
            }
            block_rates.push(QUERIES_PER_REFIT as f64 / t_block.elapsed().as_secs_f64());
        }
        round_p50_ns.push(hist.quantile_ns(0.5));
        round_p99_ns.push(hist.quantile_ns(0.99));

        // Untimed: check the sampled answers and the round's counts.
        let stats = server.stats();
        let wrong_answers = samples
            .iter()
            .filter(|(i, answer)| {
                let q = stream[*i];
                !checks::answer_ok(
                    answer,
                    (q.c(), q.p(), q.m()),
                    states[*i / QUERIES_PER_REFIT],
                )
            })
            .count() as u64;
        let miscounted = stats.queries().abs_diff(QUERIES_PER_ROUND as u64);
        let round_counts = counts(&stats);
        let drifted = *first_counts.get_or_insert(round_counts) != round_counts;
        if wrong_answers + refit_failures + miscounted > 0 || drifted {
            eprintln!(
                "serve: {wrong_answers} wrong sampled answer(s), {refit_failures} wrong refit \
                 outcome(s), {miscounted} query(ies) miscounted, counts drifted: {drifted}"
            );
        }
        attempted += (QUERIES_PER_ROUND + REFITS) as u64;
        failed += wrong_answers + refit_failures + miscounted + u64::from(drifted);
    }
    let rss = stats::peak_rss_mb();
    report.ops(attempted, failed);

    // Medians over blocks and rounds: the host's speed drifts by tens
    // of percent within a second, and a median over many short windows
    // holds still where a whole-run mean does not.
    let ops_per_s = stats::median(&block_rates);
    let p50_ms = stats::median(&round_p50_ns) / 1e6;
    report.metric("build_s", stats::median(&refit_ms) / 1e3);
    report.metric("peak_rss_mb", rss);
    report.metric("ops_per_s", ops_per_s);
    report.metric("op_p50_ms", p50_ms);
    report.metric("op_tail_ms", stats::median(&round_p99_ns) / 1e6);

    if traced {
        let [current, previous, rules, swaps, rejected] = first_counts.unwrap_or_default();
        report.layer("select.served_current", current as f64);
        report.layer("select.served_previous", previous as f64);
        report.layer("select.served_rules", rules as f64);
        report.layer("select.swaps", swaps as f64);
        report.layer("select.rejected_refits", rejected as f64);
        layer_costs(report, &boot, &candidates[0].0, &config, &stream);
        report.layer("traced.ops_per_s", ops_per_s);
        report.layer("traced.op_p50_ms", p50_ms);
    }
}

/// Times the serving layers one at a time on the same query stream:
/// the compiled-table lookup alone, the model's predicted time, and
/// the two halves of compiling a generation.
fn layer_costs(
    report: &mut Report,
    boot: &GracefulCollectiveSelector,
    cand: &GracefulCollectiveSelector,
    config: &ServerConfig,
    stream: &[Query],
) {
    let per_call_ns = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        t.elapsed().as_nanos() as f64 / stream.len() as f64
    };
    let tables = tables_for(boot, config);
    let compiled = CompiledCollectiveSelector::from_tables(&tables, "boot");
    let lookup_ns = per_call_ns(&mut || {
        for q in stream {
            black_box(compiled.lookup(q.c(), q.p(), q.m()));
        }
    });
    report.layer("select.lookup_ns", lookup_ns);
    let predict_ns = per_call_ns(&mut || {
        for (i, q) in stream.iter().enumerate() {
            let algs = q.c().algorithms();
            black_box(boot.predicted_time(algs[i % algs.len()], q.p(), q.m()));
        }
    });
    report.layer("model.predict_ns", predict_ns);

    let reps = 5;
    let mut generate_ms = Vec::with_capacity(reps);
    let mut compile_ms = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        let tables = tables_for(cand, config);
        generate_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        black_box(CompiledCollectiveSelector::from_tables(
            &tables,
            "candidate",
        ));
        compile_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    report.layer("select.table_generate_ms", stats::median(&generate_ms));
    report.layer("select.csr_compile_ms", stats::median(&compile_ms));
}

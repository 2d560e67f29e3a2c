//! `replay-pp`: score a pipeline-parallel trace under the tuned, fixed
//! and worst policies on the DAG backend, by job completion time (JCT,
//! the sum of step makespans). Its latency-bound 2-rank hand-offs give
//! 3 × 96 distinct step shapes, more than the 256-entry step memo
//! holds, so every warm cycle re-records and recompiles the overflow.
//!
//! One operation is one single-policy trace replay. The cold pass
//! replays each policy once, recording and compiling every step shape;
//! warm passes then cycle through the three policies with the same seed
//! until the run length is spent. After the timed phase, fresh child
//! processes repeat the cold pass, and `build_s` is the median of all
//! cold passes. Every warm and repeated cold replay must reproduce its
//! cold replay exactly, and every cold replay must equal the
//! thread-per-rank oracle's (real payloads), checked untimed after the
//! run.
//!
//! The traced run drives each step through the layers itself — the
//! policy's `select` lookups, `estim::compiled_step_dag` with
//! `coll::compile::compile_step` timed inside its recorder closure, and
//! `mpi::DagEvaluator::run` — and must reproduce the untraced replay's
//! JCT, messages and bytes.

use crate::checks;
use crate::repeat::{self, Cold};
use crate::report::Report;
use crate::setup::Setup;
use crate::stats;
use collsel::coll::compile::{compile_step, GroupCall};
use collsel::estim::{compiled_step_dag, step_cell, StepCell, StepDag};
use collsel::mpi::{simulate_scheduled, Backend, DagEvaluator, Schedule, SimError, SimOptions};
use collsel::netsim::{ClusterModel, FaultPlan, SimSpan, SimTime};
use collsel::select::{fixed_selection, CollSelection, CollectiveSelector};
use collsel_expt::replay::{replay_trace, ReplayOutcome, ReplayPolicy};
use collsel_expt::workload::{Trace, TraceGen, TracePreset};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The trace: the pipeline preset at world 16, 96 steps. Its content
/// is fixed by `TRACE_SEED`; the run seed drives the replay's simulated
/// noise draws. A trace drawn from each run's seed instead moved
/// replays/s by up to 56 % between seeds, because message sizes set the
/// work of a replay and which steps overflow the step memo: far beyond
/// any bound a run-to-run comparison can hold.
const PRESET: TracePreset = TracePreset::Pipeline;
const WORLD: usize = 16;
const STEPS: usize = 96;
const TRACE_SEED: u64 = 0x5EED_2E91;

/// Capacity of the warm-replay latency buffer, allocated before the
/// timed phase. Far above what any run length reaches (a warm replay
/// takes milliseconds); a full buffer ends the run.
const MAX_REPLAYS: usize = 1 << 16;

/// The tuned, fixed and worst policies in the order every pass runs
/// them.
const POLICIES: usize = 3;

/// The trace every `replay-pp` process replays.
pub fn pipeline_trace() -> Trace {
    TraceGen {
        preset: PRESET,
        world: WORLD,
        steps: STEPS,
        seed: TRACE_SEED,
    }
    .generate()
}

/// The witness of a cold pass: each policy's JCT, `-` for a replay
/// that failed.
fn witness(jcts: impl Iterator<Item = Option<u64>>) -> Vec<String> {
    jcts.map(|j| j.map_or("-".to_string(), |j| j.to_string()))
        .collect()
}

/// One untraced cold pass, in a process that has not replayed the
/// trace before.
pub fn timed_cold_pass(setup: &Setup, seed: u64) -> Cold {
    let trace = pipeline_trace();
    let selector = setup.model.multi_selector();
    let policies = [
        ReplayPolicy::Tuned(&selector),
        ReplayPolicy::Fixed,
        ReplayPolicy::Worst(&selector),
    ];
    let t = Instant::now();
    let jcts: Vec<Option<u64>> = policies
        .iter()
        .map(|p| replay_trace(&setup.cluster, &trace, p, Backend::Dag, seed).ok())
        .map(|o| o.map(|o| o.jct_ns))
        .collect();
    Cold {
        secs: t.elapsed().as_secs_f64(),
        witness: witness(jcts.into_iter()),
    }
}

/// What the traced replay saw inside the layers.
#[derive(Debug, Default)]
struct Layers {
    resolve: Duration,
    record: Duration,
    records: u64,
    compile: Duration,
    compiles: u64,
    step_hits: u64,
    step_misses: u64,
    evaluate: Duration,
    dag_ops: u64,
    shapes: HashSet<StepCell>,
}

/// A step's execution artifact, pinned for the rest of one replay
/// (as `replay_trace` does).
enum Exec {
    Dag(Box<DagEvaluator>),
    Sched(Arc<Schedule>),
}

/// The per-step seed `replay_trace` derives from the replay seed.
fn step_seed(seed: u64, step: usize) -> u64 {
    seed.wrapping_add((step as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// One lookup through the policy, as `replay_trace` resolves a call.
fn choose(
    policy: &ReplayPolicy<'_>,
    c: collsel::coll::Collective,
    p: usize,
    m: usize,
) -> CollSelection {
    match policy {
        ReplayPolicy::Fixed => fixed_selection(c, p, m),
        ReplayPolicy::Tuned(sel) => sel.select_for(c, p, m),
        ReplayPolicy::Worst(sel) => match sel
            .ranking(c, p, m)
            .iter()
            .rev()
            .find(|(_, t)| t.is_finite())
        {
            Some(&(alg, _)) => CollSelection::segmented(alg, sel.seg_for(c)),
            None => fixed_selection(c, p, m),
        },
        ReplayPolicy::Server(srv) => srv.decide(c, p, m).selection,
    }
}

/// Replays `trace` on the DAG backend through the layers one by one,
/// timing and counting each.
fn traced_replay(
    cluster: &ClusterModel,
    trace: &Trace,
    policy: &ReplayPolicy<'_>,
    seed: u64,
    layers: &mut Layers,
) -> Result<ReplayOutcome, SimError> {
    let rec_cluster = cluster.clone().with_faults(FaultPlan::none());
    let mut execs: HashMap<StepCell, Exec> = HashMap::new();
    let (mut jct, mut messages, mut bytes, mut lookups) = (SimSpan::ZERO, 0, 0, 0);
    let mut step_ns = Vec::with_capacity(trace.steps.len());
    for (s, step) in trace.steps.iter().enumerate() {
        let t = Instant::now();
        let calls: Vec<GroupCall> = step
            .calls
            .iter()
            .map(|call| {
                let ranks = &trace.groups[call.group].ranks;
                let sel = choose(policy, call.collective, ranks.len(), call.m);
                GroupCall {
                    alg: sel.alg,
                    ranks: ranks.clone(),
                    m: call.m,
                    seg_size: sel.effective_seg_size(call.m),
                }
            })
            .collect();
        layers.resolve += t.elapsed();
        lookups += calls.len() as u64;

        let cell = step_cell(trace.world, &calls);
        layers.shapes.insert(cell.clone());
        if !execs.contains_key(&cell) {
            let mut recorded = None;
            let t = Instant::now();
            let dag = compiled_step_dag(&rec_cluster, cell.clone(), |rec| {
                let t = Instant::now();
                let sched = compile_step(rec, trace.world, &calls);
                recorded = Some(t.elapsed());
                sched
            });
            let total = t.elapsed();
            match recorded {
                Some(r) => {
                    layers.step_misses += 1;
                    layers.records += 1;
                    layers.record += r;
                    layers.compiles += 1;
                    layers.compile += total.saturating_sub(r);
                }
                None => layers.step_hits += 1,
            }
            let exec = match dag.ok_or_else(|| SimError::Deadlock {
                detail: "step recording failed".into(),
            })? {
                StepDag::Compiled(dag) => Exec::Dag(Box::new(DagEvaluator::new(cluster, dag))),
                StepDag::TooLarge(sched) => Exec::Sched(sched),
            };
            execs.insert(cell.clone(), exec);
        }
        let seed_s = step_seed(seed, s);
        let report = match execs.get_mut(&cell).expect("inserted above") {
            Exec::Dag(ev) => {
                let t = Instant::now();
                let run = ev.run(seed_s, SimOptions::default())?;
                layers.evaluate += t.elapsed();
                layers.dag_ops += ev.dag().op_count() as u64;
                run.report
            }
            Exec::Sched(sched) => {
                simulate_scheduled(cluster, sched, seed_s, SimOptions::default())?.report
            }
        };
        let span = report.makespan.saturating_since(SimTime::ZERO);
        jct += span;
        step_ns.push(span.as_nanos());
        messages += report.messages;
        bytes += report.bytes;
    }
    Ok(ReplayOutcome {
        trace: trace.name.clone(),
        selector: policy.name().to_string(),
        backend: "dag".to_string(),
        steps: trace.steps.len(),
        lookups,
        jct_s: jct.as_secs_f64(),
        jct_ns: jct.as_nanos(),
        step_ns,
        messages,
        bytes,
    })
}

/// Runs the workload. `repeated` holds the cold passes the run's child
/// processes made (`None` for a child that failed); each must
/// reproduce this process's cold JCTs, and `build_s` is the median of
/// every cold pass.
pub fn run(
    setup: &Setup,
    report: &mut Report,
    seed: u64,
    seconds: f64,
    traced: bool,
    repeated: &[Option<Cold>],
) {
    let trace = pipeline_trace();
    let calls = trace.total_calls() as u64;
    let selector = setup.model.multi_selector();
    let policies = [
        ReplayPolicy::Tuned(&selector),
        ReplayPolicy::Fixed,
        ReplayPolicy::Worst(&selector),
    ];
    let cluster = &setup.cluster;
    let mut layers = Layers::default();
    let replay = |policy: &ReplayPolicy<'_>, layers: &mut Layers| {
        if traced {
            traced_replay(cluster, &trace, policy, seed, layers)
        } else {
            replay_trace(cluster, &trace, policy, Backend::Dag, seed)
        }
    };
    let mut latencies_ms: Vec<f64> = Vec::with_capacity(MAX_REPLAYS);

    // Cold pass.
    let t = Instant::now();
    let cold: Vec<Option<ReplayOutcome>> = policies
        .iter()
        .map(|p| match replay(p, &mut layers) {
            Ok(o) => Some(o),
            Err(e) => {
                eprintln!("{}: cold {} replay failed: {e}", trace.name, p.name());
                None
            }
        })
        .collect();
    let build_s = t.elapsed().as_secs_f64();
    let cold_layers = std::mem::take(&mut layers);

    // Warm passes: whole cycles over the three policies.
    let mut ops = [1u64; POLICIES];
    let mut failed = [0u64; POLICIES];
    let mut cycle_rates: Vec<f64> = Vec::with_capacity(MAX_REPLAYS / POLICIES);
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds && latencies_ms.len() + POLICIES <= MAX_REPLAYS
    {
        let t_cycle = Instant::now();
        for (i, policy) in policies.iter().enumerate() {
            let t = Instant::now();
            let out = replay(policy, &mut layers);
            latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
            ops[i] += 1;
            let ok = match (&out, &cold[i]) {
                (Ok(o), Some(c)) => checks::replay_matches(o, c, calls),
                _ => false,
            };
            failed[i] += u64::from(!ok);
        }
        cycle_rates.push(POLICIES as f64 / t_cycle.elapsed().as_secs_f64());
    }
    let rss = stats::peak_rss_mb();

    // Each repeated cold pass is one operation per policy.
    let want = witness(cold.iter().map(|o| o.as_ref().map(|o| o.jct_ns)));
    let build_samples = repeat::cold_samples(build_s, &want, repeated, POLICIES as u64, report);

    // Untimed checks: the thread-per-rank oracle with real payloads
    // must agree with each cold replay (and so with every warm replay
    // that reproduced it); traced, so must the untraced replay path.
    for (i, policy) in policies.iter().enumerate() {
        let Some(c) = &cold[i] else {
            failed[i] = ops[i];
            continue;
        };
        let mut references = vec![replay_trace(
            cluster,
            &trace,
            policy,
            Backend::Threads,
            seed,
        )];
        if traced {
            references.push(replay_trace(cluster, &trace, policy, Backend::Dag, seed));
        }
        let agree = references.iter().all(|r| match r {
            Ok(r) => checks::replay_matches(c, r, calls),
            Err(_) => false,
        });
        if !agree {
            eprintln!(
                "{}: {} replay disagrees with its reference",
                trace.name,
                policy.name()
            );
            failed[i] = ops[i];
        }
    }
    report.ops(ops.iter().sum(), failed.iter().sum());

    // The median cycle's rate: the host's speed drifts within a run,
    // and a median over many short cycles holds still where a whole-run
    // mean does not.
    let warm = latencies_ms.len() as f64;
    let cycles = cycle_rates.len() as f64;
    let ops_per_s = stats::median(&cycle_rates);
    let p50_ms = stats::median(&latencies_ms);
    report.metric("build_s", stats::median(&build_samples));
    report.metric("peak_rss_mb", rss);
    report.metric("ops_per_s", ops_per_s);
    report.metric("op_p50_ms", p50_ms);
    report.metric("op_tail_ms", stats::quantile(&latencies_ms, 0.9));

    if traced {
        let per_cycle = |x: f64| x / cycles.max(1.0);
        let per_replay = |x: f64| x / warm.max(1.0);
        let jct_ms = |i: usize| cold[i].as_ref().map_or(f64::NAN, |o| o.jct_ns as f64 / 1e6);
        let tuned = cold[0].as_ref();
        let layer_figures = [
            (
                "select.resolve_us",
                per_replay(layers.resolve.as_secs_f64()) * 1e6,
            ),
            ("coll.record_s", per_cycle(layers.record.as_secs_f64())),
            ("coll.records", per_cycle(layers.records as f64)),
            ("coll.record_cold_s", cold_layers.record.as_secs_f64()),
            ("coll.records_cold", cold_layers.records as f64),
            ("mpi.compile_s", per_cycle(layers.compile.as_secs_f64())),
            ("mpi.compiles", per_cycle(layers.compiles as f64)),
            ("mpi.compile_cold_s", cold_layers.compile.as_secs_f64()),
            ("mpi.compiles_cold", cold_layers.compiles as f64),
            ("mpi.dag_ops", per_cycle(layers.dag_ops as f64)),
            ("mpi.evaluate_s", per_replay(layers.evaluate.as_secs_f64())),
            (
                "mpi.eval_ops_per_s",
                layers.dag_ops as f64 / layers.evaluate.as_secs_f64(),
            ),
            ("estim.memo.step_shapes", cold_layers.shapes.len() as f64),
            ("estim.memo.step_hits", per_cycle(layers.step_hits as f64)),
            (
                "estim.memo.step_misses",
                per_cycle(layers.step_misses as f64),
            ),
            (
                "netsim.messages.tuned",
                tuned.map_or(f64::NAN, |o| o.messages as f64),
            ),
            (
                "netsim.bytes.tuned",
                tuned.map_or(f64::NAN, |o| o.bytes as f64),
            ),
            ("replay.jct_tuned_ms", jct_ms(0)),
            ("replay.jct_fixed_ms", jct_ms(1)),
            ("replay.jct_worst_ms", jct_ms(2)),
            ("traced.ops_per_s", ops_per_s),
            ("traced.op_p50_ms", p50_ms),
        ];
        for (name, value) in layer_figures {
            report.layer(name, value);
        }
    }
}

//! The set-up every workload shares: tune the model the workloads
//! need, exactly as `colltune tune --tune-p 8 --collective all` does,
//! and round-trip it through its JSON form.

use crate::checks;
use crate::report::Report;
use collsel::netsim::ClusterModel;
use collsel::{TunedModel, Tuner, TunerConfig};
use std::time::Instant;

/// Experiment process count of the tuning run (`--tune-p 8`).
pub const TUNE_P: usize = 8;

/// Largest communicator size the γ bound is checked at (the serving
/// grid's top).
const GAMMA_CHECK_P: usize = 128;

/// What the set-up hands to a workload.
pub struct Setup {
    /// The Gros preset, noise on.
    pub cluster: ClusterModel,
    /// The tuner the model came from (its config drives campaigns).
    pub tuner: Tuner,
    /// The model after its JSON round trip.
    pub model: TunedModel,
}

/// Tunes all seven collectives, checks the model and round-trips it
/// through JSON.
///
/// Tuning runs on one pool thread. With one allocator arena per pool
/// thread, the peak RSS of identical two-thread set-ups spread from 169
/// to 207 MiB on a two-core host, against 137 to 141 MiB on one thread;
/// that spread would swamp `peak_rss_mb` on every workload. Traced, it
/// also splits the tuning time into the
/// γ + broadcast stage (`Tuner::tune`) and the six per-collective
/// families (`tune_all` minus a warm `tune`, which the process-wide
/// cell memo serves from the first call's compiled cells).
pub fn run(report: &mut Report, traced: bool) -> Setup {
    collsel_support::pool::set_thread_override(1);
    let cluster = ClusterModel::gros();
    let tuner = Tuner::new(cluster.clone(), TunerConfig::quick(TUNE_P));
    let model = if traced {
        let t = Instant::now();
        std::hint::black_box(tuner.tune());
        report.layer("core.tune_s", t.elapsed().as_secs_f64());
        let t = Instant::now();
        let model = tuner.tune_all();
        let all_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        std::hint::black_box(tuner.tune());
        let warm_tune_s = t.elapsed().as_secs_f64();
        report.layer("core.breadth_s", all_s - warm_tune_s);
        model
    } else {
        tuner.tune_all()
    };

    collsel_support::pool::clear_thread_override();

    let t = Instant::now();
    let (model, round_trip_ok) = checks::json_round_trip(&model);
    report.layer("support.model_json_ms", t.elapsed().as_secs_f64() * 1e3);

    // The model is one operation: it fails if any of its properties
    // does not hold.
    let bad = checks::gamma_violations(&model.gamma.table, GAMMA_CHECK_P)
        + checks::fit_violations(&model)
        + u64::from(!round_trip_ok);
    if bad > 0 {
        eprintln!("set-up: {bad} model check(s) failed (gamma bound, fits or JSON round trip)");
    }
    report.ops(1, u64::from(bad > 0));
    Setup {
        cluster,
        tuner,
        model,
    }
}

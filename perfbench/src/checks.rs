//! Output checks. Each takes the program's output next to a value
//! computed apart from it (or a property the method must have) and
//! returns how many operations it found wrong; the workloads add the
//! result to their `failed` count.

use collsel::coll::Collective;
use collsel::model::GammaTable;
use collsel::select::{fixed_selection, CollDecisionTable, ServeSource, ServedAnswer};
use collsel::TunedModel;
use collsel_expt::replay::ReplayOutcome;
use collsel_support::{FromJson, Json, ToJson};
use std::collections::BTreeMap;

/// γ must satisfy γ(2) = 1 and 1 ≤ γ(P) ≤ P−1 (the paper's Sect. 3.1
/// bound) at every measured point and at every `P` up to `max_p`.
/// Returns the number of violating points.
pub fn gamma_violations(table: &GammaTable, max_p: usize) -> u64 {
    let mut bad = u64::from(table.gamma(2) != 1.0);
    let queried = (3..=max_p).map(|p| (p, table.gamma(p)));
    for (p, g) in table.pairs().chain(queried) {
        if p >= 2 && !(g >= 1.0 && g <= (p - 1).max(1) as f64) {
            bad += 1;
        }
    }
    bad
}

/// Every fitted α and β must be finite and non-negative. Returns the
/// number of fits that are not.
pub fn fit_violations(model: &TunedModel) -> u64 {
    let bcast = model.params.values().map(|e| e.hockney);
    let breadth = model
        .collectives
        .values()
        .flat_map(|fits| fits.values().map(|e| e.hockney));
    bcast
        .chain(breadth)
        .filter(|h| !(h.alpha.is_finite() && h.alpha >= 0.0 && h.beta.is_finite() && h.beta >= 0.0))
        .count() as u64
}

/// The model after a trip through its JSON text, and whether it came
/// back equal to the original.
pub fn json_round_trip(model: &TunedModel) -> (TunedModel, bool) {
    let text = model.to_json().to_string_compact();
    let back = Json::parse(&text)
        .ok()
        .and_then(|j| TunedModel::from_json(&j).ok());
    match back {
        Some(back) => {
            let equal = back == *model;
            (back, equal)
        }
        None => (model.clone(), false),
    }
}

/// Byte comparison of two campaigns' decision tables through their
/// JSON text. Returns the number of collectives whose tables differ
/// (a collective missing on either side counts as different).
pub fn table_mismatches(
    got: &BTreeMap<Collective, CollDecisionTable>,
    want: &BTreeMap<Collective, CollDecisionTable>,
) -> u64 {
    let text = |t: &CollDecisionTable| t.to_json().to_string_compact();
    let mut bad = 0;
    for c in Collective::ALL {
        match (got.get(&c), want.get(&c)) {
            (Some(g), Some(w)) if text(g) == text(w) => {}
            (None, None) => {}
            _ => bad += 1,
        }
    }
    bad
}

/// A replay agrees with its reference on JCT (to the nanosecond), on
/// every step's makespan, on messages and bytes, and it issued one
/// selector lookup per trace call.
pub fn replay_matches(got: &ReplayOutcome, want: &ReplayOutcome, calls: u64) -> bool {
    got.jct_ns == want.jct_ns
        && got.step_ns == want.step_ns
        && got.messages == want.messages
        && got.bytes == want.bytes
        && got.lookups == calls
}

/// The generations a served answer may legitimately come from.
#[derive(Debug, Clone, Copy)]
pub struct ServingState<'a> {
    /// Version of the live generation and the tables the benchmark
    /// generated itself from the selector it submitted for it.
    pub current: (u64, &'a [CollDecisionTable]),
    /// The generation before it, if any.
    pub previous: Option<(u64, &'a [CollDecisionTable])>,
}

/// Checks one served answer: an answer from the current or previous
/// generation must equal `CollDecisionTable::lookup` on that
/// generation's reference tables, and a rules answer must carry a
/// timeout cause and equal `fixed_selection`. Every collective is
/// compiled into every generation, so an "uncovered" answer is wrong.
pub fn answer_ok(
    answer: &ServedAnswer,
    (c, p, m): (Collective, usize, usize),
    state: ServingState<'_>,
) -> bool {
    let from = |(epoch, tables): (u64, &[CollDecisionTable])| {
        answer.epoch == epoch
            && tables
                .iter()
                .find(|t| t.collective == c)
                .and_then(|t| t.lookup(p, m))
                == Some(answer.selection)
    };
    match answer.source {
        ServeSource::Current => from(state.current),
        ServeSource::PreviousAfterTimeout => state.previous.is_some_and(from),
        ServeSource::RulesAfterTimeout => {
            answer.epoch == 0 && answer.selection == fixed_selection(c, p, m)
        }
        ServeSource::RulesUncovered => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use collsel::select::{CollSelection, OpenMpiCollectiveSelector};

    fn outcome(jct_ns: u64) -> ReplayOutcome {
        ReplayOutcome {
            trace: "t".into(),
            selector: "tuned".into(),
            backend: "dag".into(),
            steps: 2,
            lookups: 4,
            jct_s: jct_ns as f64 * 1e-9,
            jct_ns,
            step_ns: vec![jct_ns / 2, jct_ns - jct_ns / 2],
            messages: 10,
            bytes: 1000,
        }
    }

    #[test]
    fn jct_off_by_one_nanosecond_fails() {
        let want = outcome(1_000_000);
        assert!(replay_matches(&want.clone(), &want, 4));
        let mut got = outcome(1_000_001);
        got.step_ns = want.step_ns.clone();
        assert!(!replay_matches(&got, &want, 4));
        let mut got = want.clone();
        got.step_ns[1] += 1;
        assert!(!replay_matches(&got, &want, 4));
        assert!(!replay_matches(&want, &want, 5), "lookups must equal calls");
    }

    /// The fixed rules' broadcast and reduce tables over a small grid.
    fn rules_tables() -> Vec<CollDecisionTable> {
        let msgs = [1024, 65536, 1 << 20];
        [Collective::Bcast, Collective::Reduce]
            .into_iter()
            .map(|c| CollDecisionTable::generate(&OpenMpiCollectiveSelector, c, &[2, 16], &msgs))
            .collect()
    }

    #[test]
    fn swapped_served_answer_fails() {
        let tables = rules_tables();
        let state = ServingState {
            current: (3, &tables),
            previous: None,
        };
        let q = (Collective::Bcast, 16, 1 << 20);
        let good = ServedAnswer {
            selection: tables[0].lookup(16, 1 << 20).expect("covered"),
            epoch: 3,
            source: ServeSource::Current,
        };
        assert!(answer_ok(&good, q, state));
        let other = Collective::Bcast
            .algorithms()
            .iter()
            .copied()
            .find(|&a| a != good.selection.alg)
            .expect("broadcast has several algorithms");
        let swapped = ServedAnswer {
            selection: CollSelection::segmented(other, 8192),
            ..good
        };
        assert!(!answer_ok(&swapped, q, state));
        let stale = ServedAnswer { epoch: 2, ..good };
        assert!(!answer_ok(&stale, q, state), "wrong generation stamp");
        let rules = ServedAnswer {
            selection: fixed_selection(q.0, q.1, q.2),
            epoch: 0,
            source: ServeSource::RulesAfterTimeout,
        };
        assert!(answer_ok(&rules, q, state));
        let other = Collective::Bcast
            .algorithms()
            .iter()
            .copied()
            .find(|&a| a != rules.selection.alg)
            .expect("broadcast has several algorithms");
        let bad_rules = ServedAnswer {
            selection: CollSelection::segmented(other, 8192),
            ..rules
        };
        assert!(
            !answer_ok(&bad_rules, q, state),
            "a rules answer must equal fixed_selection"
        );
    }

    #[test]
    fn flipped_campaign_entry_fails() {
        let want: BTreeMap<_, _> = rules_tables()
            .into_iter()
            .map(|t| (t.collective, t))
            .collect();
        assert_eq!(table_mismatches(&want.clone(), &want), 0);
        let mut got = want.clone();
        let entry = &mut got.get_mut(&Collective::Bcast).expect("bcast").comms[1].rules[0];
        let flipped = Collective::Bcast
            .algorithms()
            .iter()
            .copied()
            .find(|&a| a != entry.selection.alg)
            .expect("broadcast has several algorithms");
        entry.selection.alg = flipped;
        assert_eq!(table_mismatches(&got, &want), 1);
        let mut missing = want.clone();
        missing.remove(&Collective::Reduce);
        assert_eq!(table_mismatches(&missing, &want), 1);
    }

    #[test]
    fn gamma_above_p_minus_one_fails() {
        let ok = GammaTable::from_pairs([(4, 2.0), (8, 5.0)]);
        assert_eq!(gamma_violations(&ok, 64), 0);
        let bad = GammaTable::from_pairs([(4, 3.5)]);
        assert!(gamma_violations(&bad, 64) >= 1, "γ(4) = 3.5 > 3");
        let below = GammaTable::from_pairs([(8, 0.5)]);
        assert!(gamma_violations(&below, 64) >= 1, "γ(8) = 0.5 < 1");
    }
}

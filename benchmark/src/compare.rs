//! `run.sh --compare A.json B.json`: do two result sets of one commit
//! agree within the benchmark's own bounds?

use crate::metrics::{self, Better};
use crate::report::ResultSet;
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// The medians differ by more than the bound.
    Fail,
    /// The medians agree, but a set's own spread exceeds the bound, so
    /// agreement shows nothing.
    Unresolved,
}

#[derive(Debug, Clone)]
pub struct Line {
    pub verdict: Verdict,
    pub text: String,
}

/// Set-up times of tens of milliseconds move by more than a quarter on
/// noise alone, so `setup_s` may also differ by this much, in seconds.
const SETUP_SLACK_S: f64 = 0.25;

/// Compares every gated metric the two sets share, and every exact count
/// of the (workload, seed) pairs they share.
pub fn compare(a: &ResultSet, b: &ResultSet) -> Vec<Line> {
    let mut lines = Vec::new();
    for (name, set) in [("A", a), ("B", b)] {
        for run in &set.incorrect {
            lines.push(Line {
                verdict: Verdict::Fail,
                text: format!("{name}: {run} failed its output checks"),
            });
        }
    }
    for ((workload, metric), va) in &a.values {
        let key = (workload.clone(), metric.clone());
        let (Some(vb), Some(def)) = (b.values.get(&key), metrics::find(metric)) else {
            continue;
        };
        let Some(bound) = def.bound else { continue };
        let (ma, mb) = (stats::median(va), stats::median(vb));
        if ma == 0.0 && mb == 0.0 {
            continue; // not measured on this workload
        }
        let allowed = if metric == "setup_s" {
            (bound * ma).max(SETUP_SLACK_S)
        } else {
            bound * ma.abs()
        };
        let diff = (mb - ma).abs();
        let spread = stats::spread(va)
            .into_iter()
            .chain(stats::spread(vb))
            .fold(0.0, f64::max);
        let verdict = if diff > allowed {
            Verdict::Fail
        } else if spread > bound {
            Verdict::Unresolved
        } else {
            Verdict::Ok
        };
        let worse = match def.better {
            Better::Lower => mb > ma,
            Better::Higher => mb < ma,
        };
        lines.push(Line {
            verdict,
            text: format!(
                "{workload:<16} {metric:<26} A {ma:>14.4}  B {mb:>14.4} {:<5} B {} by {:.2} %, spread {:.2} %, bound {:.0} %",
                def.unit,
                if worse { "worse" } else { "better" },
                diff / ma.abs().max(f64::MIN_POSITIVE) * 100.0,
                spread * 100.0,
                bound * 100.0
            ),
        });
    }
    for ((workload, seed), ea) in &a.exact {
        let Some(eb) = b.exact.get(&(workload.clone(), *seed)) else {
            continue;
        };
        for (k, x) in ea {
            if let Some(y) = eb.get(k).filter(|y| *y != x) {
                lines.push(Line {
                    verdict: Verdict::Fail,
                    text: format!("{workload} seed {seed}: exact count {k} differs: {x} vs {y}"),
                });
            }
        }
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{parse_set, set_json, RunResult};

    fn set(rates: &[f64], probes: u64) -> ResultSet {
        let runs: Vec<String> = rates
            .iter()
            .map(|&r| {
                let mut res = RunResult::new("sim_mesh", false, 1);
                res.attempted = 10;
                res.set("throughput_per_s", r);
                res.set("setup_s", 0.05);
                res.exact("probes", probes);
                res.to_json()
            })
            .collect();
        parse_set(&set_json(&[("nproc", "2".into())], 20, &runs)).expect("round-trips")
    }

    fn verdict_of(lines: &[Line], what: &str) -> Verdict {
        lines
            .iter()
            .find(|l| l.text.contains(what))
            .expect("line")
            .verdict
    }

    #[test]
    fn agreeing_sets_pass_and_result_files_round_trip() {
        let lines = compare(
            &set(&[100.0, 101.0, 102.0], 7),
            &set(&[103.0, 104.0, 105.0], 7),
        );
        assert_eq!(verdict_of(&lines, "throughput_per_s"), Verdict::Ok);
        assert_eq!(verdict_of(&lines, "setup_s"), Verdict::Ok);
        assert!(lines.iter().all(|l| l.verdict == Verdict::Ok));
    }

    #[test]
    fn a_median_beyond_the_bound_fails_in_either_direction() {
        for b in [[70.0, 71.0, 72.0], [130.0, 131.0, 132.0]] {
            let lines = compare(&set(&[100.0, 101.0, 102.0], 7), &set(&b, 7));
            assert_eq!(verdict_of(&lines, "throughput_per_s"), Verdict::Fail);
        }
    }

    #[test]
    fn spread_above_the_bound_is_unresolved_not_ok() {
        let lines = compare(
            &set(&[60.0, 100.0, 140.0], 7),
            &set(&[62.0, 101.0, 139.0], 7),
        );
        assert_eq!(verdict_of(&lines, "throughput_per_s"), Verdict::Unresolved);
    }

    #[test]
    fn an_exact_count_that_differs_fails() {
        let lines = compare(&set(&[100.0, 101.0], 7), &set(&[100.0, 101.0], 8));
        assert_eq!(verdict_of(&lines, "exact count probes"), Verdict::Fail);
    }
}

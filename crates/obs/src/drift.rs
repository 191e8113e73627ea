//! Drift attribution: pair measured per-epoch costs with a plan's
//! per-epoch predictions and decompose the makespan ratio into per-epoch
//! (and per-term) contributions.
//!
//! The invariant that makes the table trustworthy: when the rows cover
//! exactly the measured epochs (their `measured` values summing to the
//! projected makespan) and exactly the planned epochs (their `predicted`
//! values summing to the planned makespan), then the per-row shares
//! `measured_e / predicted_total` sum *identically* to the observed
//! makespan ratio, and a gap reads off the table as the epoch and term that
//! moved. `h2_sched::drift` builds tables with that coverage, and the
//! `sched` acceptance tests assert the sum.

use crate::json::Json;

/// One cost term inside an epoch (compute / comm / launch in the §IV.B
/// model) — informative breakdown; the ratio decomposition uses the row
/// totals.
#[derive(Clone, Debug)]
pub struct DriftPart {
    pub name: &'static str,
    pub measured: f64,
    pub predicted: f64,
}

/// One epoch of the pairing.
#[derive(Clone, Debug)]
pub struct DriftRow {
    pub label: String,
    /// Measured (projected) seconds this epoch contributes.
    pub measured: f64,
    /// Planned seconds for the paired epoch (0 when the executor epoch has
    /// no planned counterpart, e.g. a tail epoch).
    pub predicted: f64,
    pub parts: Vec<DriftPart>,
}

/// The attribution table.
#[derive(Clone, Debug, Default)]
pub struct DriftTable {
    pub rows: Vec<DriftRow>,
}

impl DriftTable {
    pub fn measured_total(&self) -> f64 {
        self.rows.iter().map(|r| r.measured).sum()
    }

    pub fn predicted_total(&self) -> f64 {
        self.rows.iter().map(|r| r.predicted).sum()
    }

    /// The observed makespan ratio `measured_total / predicted_total`.
    pub fn ratio(&self) -> f64 {
        let p = self.predicted_total();
        if p == 0.0 {
            return 1.0;
        }
        self.measured_total() / p
    }

    /// Per-row share of the ratio: `measured_e / predicted_total`. The
    /// shares sum to [`DriftTable::ratio`] exactly (same denominator), so
    /// "which epoch contributes the gap" is read directly off the table.
    pub fn shares(&self) -> Vec<f64> {
        let p = self.predicted_total();
        if p == 0.0 {
            return vec![0.0; self.rows.len()];
        }
        self.rows.iter().map(|r| r.measured / p).collect()
    }

    /// Per-row *excess* over prediction, in ratio units:
    /// `(measured_e - predicted_e) / predicted_total`. Summing these and
    /// adding 1 recovers the ratio; positive entries are epochs where the
    /// executor ran slower than the model.
    pub fn excesses(&self) -> Vec<f64> {
        let p = self.predicted_total();
        if p == 0.0 {
            return vec![0.0; self.rows.len()];
        }
        self.rows
            .iter()
            .map(|r| (r.measured - r.predicted) / p)
            .collect()
    }

    /// Row indices sorted by descending excess (the biggest gap
    /// contributors first).
    pub fn ranked(&self) -> Vec<usize> {
        let ex = self.excesses();
        let mut order: Vec<usize> = (0..self.rows.len()).collect();
        order.sort_by(|&a, &b| {
            ex[b]
                .partial_cmp(&ex[a])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        order
    }

    /// Render as an aligned text table (for bench stdout).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<28} {:>12} {:>12} {:>8} {:>8}\n",
            "epoch", "measured(s)", "predicted(s)", "share", "excess"
        ));
        let shares = self.shares();
        let excesses = self.excesses();
        for (i, r) in self.rows.iter().enumerate() {
            out.push_str(&format!(
                "{:<28} {:>12.3e} {:>12.3e} {:>8.3} {:>+8.3}\n",
                r.label, r.measured, r.predicted, shares[i], excesses[i]
            ));
        }
        out.push_str(&format!(
            "{:<28} {:>12.3e} {:>12.3e} {:>8.3}  (ratio)\n",
            "total",
            self.measured_total(),
            self.predicted_total(),
            self.ratio()
        ));
        out
    }

    pub fn to_json(&self) -> Json {
        let shares = self.shares();
        let excesses = self.excesses();
        Json::obj(vec![
            (
                "rows",
                Json::Arr(
                    self.rows
                        .iter()
                        .enumerate()
                        .map(|(i, r)| {
                            Json::obj(vec![
                                ("label", Json::str(r.label.clone())),
                                ("measured_s", Json::Num(r.measured)),
                                ("predicted_s", Json::Num(r.predicted)),
                                ("share", Json::Num(shares[i])),
                                ("excess", Json::Num(excesses[i])),
                                (
                                    "parts",
                                    Json::Arr(
                                        r.parts
                                            .iter()
                                            .map(|p| {
                                                Json::obj(vec![
                                                    ("name", Json::str(p.name)),
                                                    ("measured_s", Json::Num(p.measured)),
                                                    ("predicted_s", Json::Num(p.predicted)),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("measured_total_s", Json::Num(self.measured_total())),
            ("predicted_total_s", Json::Num(self.predicted_total())),
            ("ratio", Json::Num(self.ratio())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> DriftTable {
        DriftTable {
            rows: vec![
                DriftRow {
                    label: "L3".into(),
                    measured: 2.0,
                    predicted: 1.0,
                    parts: vec![],
                },
                DriftRow {
                    label: "L2".into(),
                    measured: 1.0,
                    predicted: 1.0,
                    parts: vec![],
                },
                DriftRow {
                    label: "tail".into(),
                    measured: 0.5,
                    predicted: 0.0,
                    parts: vec![],
                },
            ],
        }
    }

    #[test]
    fn shares_sum_to_ratio_and_excesses_to_ratio_minus_one() {
        let t = table();
        assert!((t.ratio() - 1.75).abs() < 1e-15);
        let share_sum: f64 = t.shares().iter().sum();
        assert!((share_sum - t.ratio()).abs() < 1e-15);
        let excess_sum: f64 = t.excesses().iter().sum();
        assert!((1.0 + excess_sum - t.ratio()).abs() < 1e-15);
        // L3 (excess 0.5) ranks above tail (0.25) above L2 (0.0).
        assert_eq!(t.ranked(), vec![0, 2, 1]);
        let json = t.to_json();
        assert!((json.get("ratio").unwrap().as_f64().unwrap() - 1.75).abs() < 1e-15);
        assert!(t.render().contains("L3"));
    }

    #[test]
    fn empty_prediction_degrades_to_unit_ratio() {
        let t = DriftTable { rows: vec![] };
        assert_eq!(t.ratio(), 1.0);
        assert!(t.shares().is_empty());
    }
}

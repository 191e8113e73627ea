//! Per-layer self time from the spans of the traced cycle.
//!
//! A span's self time is its duration minus the part its child spans
//! cover. Rows are summed per (category, name); the benchmark's own spans
//! carry the category `bench` and are named `layer:call`.

use crate::adapter::SpanRecord;
use std::collections::BTreeMap;

pub struct SelfTimeRow {
    pub cat: &'static str,
    pub name: String,
    pub calls: usize,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// The library numbers its per-level spans (`construct L5`); fold the
/// levels of one kind into one row.
fn family(name: &str) -> String {
    let stem = name.trim_end_matches(|c: char| c.is_ascii_digit());
    if stem.len() < name.len() && stem.ends_with(" L") {
        stem.to_string()
    } else {
        name.to_string()
    }
}

pub fn self_time_table(spans: &[SpanRecord]) -> Vec<SelfTimeRow> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.dur_ns;
    }
    let mut rows: BTreeMap<(&'static str, String), SelfTimeRow> = BTreeMap::new();
    for s in spans {
        let covered = child_ns.get(&s.id).copied().unwrap_or(0);
        let row = rows
            .entry((s.cat, family(&s.name)))
            .or_insert_with_key(|(cat, name)| SelfTimeRow {
                cat,
                name: name.clone(),
                calls: 0,
                total_ns: 0,
                self_ns: 0,
            });
        row.calls += 1;
        row.total_ns += s.dur_ns;
        row.self_ns += s.dur_ns.saturating_sub(covered);
    }
    let mut rows: Vec<_> = rows.into_values().collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.self_ns));
    rows
}

/// Share of the span named `root` that its direct children cover.
pub fn coverage_of(spans: &[SpanRecord], root: &str) -> f64 {
    let Some(r) = spans.iter().find(|s| s.name == root) else {
        return 0.0;
    };
    let covered: u64 = spans
        .iter()
        .filter(|s| s.parent == r.id)
        .map(|s| s.dur_ns)
        .sum();
    covered as f64 / r.dur_ns.max(1) as f64
}

pub fn render(rows: &[SelfTimeRow]) -> String {
    let mut out = String::from("# self time per span (traced cycle)\n");
    out.push_str(&format!(
        "# {:<10} {:<34} {:>6} {:>11} {:>11}\n",
        "cat", "name", "calls", "total_s", "self_s"
    ));
    for r in rows {
        out.push_str(&format!(
            "# {:<10} {:<34} {:>6} {:>11.6} {:>11.6}\n",
            r.cat,
            r.name,
            r.calls,
            r.total_ns as f64 * 1e-9,
            r.self_ns as f64 * 1e-9
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, cat: &'static str, name: &str, dur_ns: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            cat,
            name: name.into(),
            dur_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span(1, 0, "bench", "cycle", 1000),
            span(2, 1, "bench", "core:construct", 700),
            span(3, 2, "phase", "id", 100),
            span(4, 2, "phase", "id", 150),
            span(5, 1, "bench", "matrix:matvec", 250),
        ];
        let rows = self_time_table(&spans);
        let get = |name: &str| rows.iter().find(|r| r.name == name).unwrap();
        assert_eq!(get("cycle").self_ns, 50);
        assert_eq!(get("core:construct").self_ns, 450);
        assert_eq!(get("id").calls, 2);
        assert_eq!(get("id").self_ns, 250);
        assert_eq!(rows[0].name, "core:construct", "sorted by self time");
        assert!((coverage_of(&spans, "cycle") - 0.95).abs() < 1e-12);
        assert_eq!(coverage_of(&spans, "absent"), 0.0);
    }

    #[test]
    fn numbered_spans_fold_into_one_row() {
        let spans = [
            span(1, 0, "construct", "construct L3", 10),
            span(2, 0, "construct", "construct L4", 20),
            span(3, 0, "bench", "h2_matrix:apply x1", 5),
            span(4, 0, "bench", "h2_matrix:apply x64", 5),
        ];
        let rows = self_time_table(&spans);
        assert_eq!(rows.len(), 3, "only per-level spans fold");
        assert_eq!(rows[0].name, "construct L");
        assert_eq!(rows[0].calls, 2);
    }
}

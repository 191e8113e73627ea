//! Property-based tests for the batched runtime: workspace layout, backend
//! agreement, BSR slot decomposition and launch accounting.

use h2_dense::cpqr::Truncation;
use h2_dense::Mat;
use h2_runtime::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Batches with arbitrary (possibly zero) shapes lay out correctly.
    #[test]
    fn varbatch_layout(shapes in proptest::collection::vec((0usize..7, 0usize..7), 1..12)) {
        let rows: Vec<usize> = shapes.iter().map(|&(r, _)| r).collect();
        let cols: Vec<usize> = shapes.iter().map(|&(_, c)| c).collect();
        let total: usize = shapes.iter().map(|&(r, c)| r * c).sum();
        let mut b = VarBatch::zeros(rows.clone(), cols.clone());
        prop_assert_eq!(b.total_len(), total);
        // Write a distinct constant into each entry; verify no overlap.
        b.for_each_mut(|i, mut m| m.fill((i + 1) as f64));
        for i in 0..b.count() {
            let m = b.mat(i);
            for j in 0..m.cols() {
                for r in 0..m.rows() {
                    prop_assert_eq!(m.at(r, j), (i + 1) as f64);
                }
            }
        }
    }

    /// Sequential and parallel backends produce identical batched results.
    #[test]
    fn backends_agree_on_ops(seed in 0u64..500, count in 1usize..10, rows in 1usize..10, d in 1usize..8) {
        let run = |rt: &Runtime| {
            let src = rand_mat(rt, count * rows, d, seed);
            let ranges: Vec<(usize, usize)> =
                (0..count).map(|i| (i * rows, (i + 1) * rows)).collect();
            let b = gather_rows(rt, &src, &ranges);
            let mins = qr_min_rdiag(rt, &b);
            let ids = batched_row_id(rt, &b, Truncation::Relative(1e-12));
            let skels: Vec<Vec<usize>> = ids.iter().map(|r| r.skel.clone()).collect();
            let refs: Vec<&[usize]> = skels.iter().map(|v| v.as_slice()).collect();
            let shrunk = shrink_rows(rt, &b, &refs);
            (mins, skels, (0..shrunk.count()).map(|i| shrunk.to_mat(i)).collect::<Vec<Mat>>())
        };
        let (m1, s1, y1) = run(&Runtime::sequential());
        let (m2, s2, y2) = run(&Runtime::parallel());
        prop_assert_eq!(s1, s2);
        if d >= rows {
            // Entries with no more rows than samples are not factored.
            prop_assert!(m1.iter().chain(&m2).all(|&v| v == 0.0));
        }
        for (a, b) in m1.iter().zip(&m2) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in y1.iter().zip(&y2) {
            let mut d = a.clone();
            d.axpy(-1.0, b);
            prop_assert_eq!(d.norm_max(), 0.0);
        }
    }

    /// BSR slot decompositions are always valid and use exactly Csp slots.
    #[test]
    fn bsr_slots_valid(adj in proptest::collection::vec(proptest::collection::vec(0usize..6, 0..5), 1..8)) {
        let nx = 6; // x-batch entries referenced by the adjacency
        let pattern = BsrPattern::from_rows(&adj);
        prop_assert!(pattern.validate());
        let want_csp = adj.iter().map(|r| r.len()).max().unwrap_or(0);
        prop_assert_eq!(pattern.csp(), want_csp);
        let _ = nx;
    }

    /// hcat of gathered pieces equals a single gather of the union.
    #[test]
    fn hcat_equals_wider_gather(seed in 0u64..300, rows in 1usize..8, d1 in 1usize..5, d2 in 1usize..5) {
        let rt = Runtime::parallel();
        let src = rand_mat(&rt, rows * 3, d1 + d2, seed);
        let ranges: Vec<(usize, usize)> = (0..3).map(|i| (i * rows, (i + 1) * rows)).collect();
        let whole = gather_rows(&rt, &src, &ranges);
        let left_src = Mat::from_fn(rows * 3, d1, |i, j| src[(i, j)]);
        let right_src = Mat::from_fn(rows * 3, d2, |i, j| src[(i, j + d1)]);
        let left = gather_rows(&rt, &left_src, &ranges);
        let right = gather_rows(&rt, &right_src, &ranges);
        let cat = hcat_batches(&rt, &left, &right);
        for i in 0..3 {
            let mut d = cat.to_mat(i);
            d.axpy(-1.0, &whole.to_mat(i));
            prop_assert_eq!(d.norm_max(), 0.0);
        }
    }

    /// Launch accounting is deterministic: the same op sequence produces the
    /// same counts on both backends.
    #[test]
    fn launch_counts_backend_invariant(seed in 0u64..100, count in 1usize..6) {
        let counts = |rt: &Runtime| {
            let src = rand_mat(rt, count * 4, 3, seed);
            let ranges: Vec<(usize, usize)> = (0..count).map(|i| (i * 4, (i + 1) * 4)).collect();
            let b = gather_rows(rt, &src, &ranges);
            let _ = qr_min_rdiag(rt, &b);
            let _ = batched_row_id(rt, &b, Truncation::Rank(2));
            Kernel::ALL.iter().map(|&k| rt.profile().launches(k)).collect::<Vec<_>>()
        };
        prop_assert_eq!(counts(&Runtime::sequential()), counts(&Runtime::parallel()));
    }
}

/// `batchedRand` columns are independent streams: no column repeats
/// another at a small row shift, and no two columns are correlated. Seeds
/// derived by adding or XOR-ing multiples of the generator's stride give
/// shifted copies of one stream (the small seeds below are where that
/// shows).
#[test]
fn rand_mat_columns_are_independent_streams() {
    use std::collections::HashMap;
    let (n, d, max_shift) = (1024usize, 128usize, 64isize);
    let rt = Runtime::sequential();
    for seed in 1..=16u64 {
        let y = rand_mat(&rt, n, d, seed);
        // Exact repeats: every value's (column, row) positions, then the
        // number of rows each (column, column, shift) triple shares.
        let mut seen: HashMap<u64, Vec<(usize, usize)>> = HashMap::new();
        for j in 0..d {
            for (i, v) in y.col(j).iter().enumerate() {
                seen.entry(v.to_bits()).or_default().push((j, i));
            }
        }
        let mut shared: HashMap<(usize, usize, isize), usize> = HashMap::new();
        for at in seen.values() {
            for (k, &(a, ia)) in at.iter().enumerate() {
                for &(b, ib) in &at[k + 1..] {
                    let s = ib as isize - ia as isize;
                    if a != b && s.abs() <= max_shift {
                        *shared.entry((a, b, s)).or_default() += 1;
                    }
                }
            }
        }
        if let Some((&(a, b, s), &rows)) = shared.iter().max_by_key(|(_, &r)| r) {
            assert!(
                rows <= n / 2,
                "seed {seed}: column {b} is column {a} shifted by {s} on {rows} of {n} rows"
            );
        }
        // Pairwise Pearson correlation.
        let centred: Vec<Vec<f64>> = (0..d)
            .map(|j| {
                let c = y.col(j);
                let mean = c.iter().sum::<f64>() / n as f64;
                let dev: Vec<f64> = c.iter().map(|v| v - mean).collect();
                let norm = dev.iter().map(|v| v * v).sum::<f64>().sqrt();
                dev.into_iter().map(|v| v / norm).collect()
            })
            .collect();
        for a in 0..d {
            for b in a + 1..d {
                let r: f64 = centred[a].iter().zip(&centred[b]).map(|(x, y)| x * y).sum();
                assert!(
                    r.abs() < 0.2,
                    "seed {seed}: columns {a} and {b} have correlation {r:.3}"
                );
            }
        }
    }
}

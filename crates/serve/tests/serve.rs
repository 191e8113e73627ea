//! End-to-end operator-service tests on real (small) HSS operators:
//! cache eviction under a byte budget, request coalescing correctness
//! (each response bit-identical to its own standalone solve), and the
//! modeled-latency accounting of the admission policy.

use h2_core::{sketch_construct, SketchConfig};
use h2_dense::gaussian_mat;
use h2_kernels::{ExponentialKernel, KernelMatrix};
use h2_matrix::H2Matrix;
use h2_runtime::{DeviceModel, PipelineMode, Runtime};
use h2_serve::{
    AdmissionPolicy, CachedOperator, OpKey, OperatorCache, Request, ServeConfig, ServeSim,
};
use h2_solve::UlvFactor;
use h2_tree::{Admissibility, ClusterTree, Partition};
use std::sync::Arc;

fn line_points(n: usize, offset: f64) -> Vec<[f64; 3]> {
    (0..n)
        .map(|i| [offset + i as f64 / n as f64, 0.0, 0.0])
        .collect()
}

fn shift_diag(h2: &mut H2Matrix, sigma: f64) {
    for i in 0..h2.dense.pairs.len() {
        let (s, t) = h2.dense.pairs[i];
        if s == t {
            let blk = &mut h2.dense.blocks[i];
            for j in 0..blk.rows() {
                blk[(j, j)] += sigma;
            }
        }
    }
}

/// Build the operator pair for an `n`-point line at `offset` — the
/// "backend constructor" a serve deployment would run on a cache miss.
fn build_op(n: usize, offset: f64) -> CachedOperator {
    let pts = line_points(n, offset);
    let tree = Arc::new(ClusterTree::build(&pts, 32));
    let part = Arc::new(Partition::build(&tree, Admissibility::Weak));
    let km = KernelMatrix::new(ExponentialKernel { l: 0.5 }, tree.points.clone());
    let rt = Runtime::parallel();
    let cfg = SketchConfig {
        tol: 1e-9,
        initial_samples: 64,
        max_rank: 96,
        ..Default::default()
    };
    let (mut h2, _) = sketch_construct(&km, &km, tree, part, &rt, &cfg);
    shift_diag(&mut h2, 3.0);
    let ulv = UlvFactor::new(&h2).unwrap();
    CachedOperator {
        h2: Arc::new(h2),
        ulv: Arc::new(ulv),
    }
}

fn key_for(offset_tag: u64) -> OpKey {
    OpKey::from_hash("exp1d", offset_tag, 1e-9)
}

#[test]
fn cache_evicts_lru_under_byte_budget() {
    let ops: Vec<CachedOperator> = (0..3).map(|i| build_op(256, i as f64 * 10.0)).collect();
    let keys: Vec<OpKey> = (0..3).map(|i| key_for(i as u64)).collect();
    // Budget fits the two largest operators but not all three.
    let budget = ops[0].memory_bytes() + ops[1].memory_bytes() + ops[2].memory_bytes()
        - ops.iter().map(|o| o.memory_bytes()).min().unwrap() / 2;
    let mut cache = OperatorCache::new(budget);
    assert_eq!(cache.insert(keys[0].clone(), ops[0].clone()), 0);
    assert_eq!(cache.insert(keys[1].clone(), ops[1].clone()), 0);
    assert_eq!(
        cache.total_bytes(),
        ops[0].memory_bytes() + ops[1].memory_bytes()
    );
    // Refresh key 0 so key 1 is the LRU victim.
    assert!(cache.get(&keys[0]).is_some());
    let evicted = cache.insert(keys[2].clone(), ops[2].clone());
    assert_eq!(evicted, 1, "one eviction brings the total under budget");
    assert!(cache.contains(&keys[0]));
    assert!(!cache.contains(&keys[1]), "LRU slot evicted");
    assert!(cache.contains(&keys[2]));
    assert!(cache.total_bytes() <= budget);
    assert_eq!(cache.evictions(), 1);
    // Misses are counted on lookup, not insert.
    assert!(cache.get(&keys[1]).is_none());
    assert_eq!(cache.misses(), 1);
}

#[test]
fn coalesced_responses_bit_identical_to_standalone_solves() {
    let op = build_op(512, 0.0);
    let ulv = op.ulv.clone();
    let n = ulv.n();
    let key = key_for(0);
    let cfg = ServeConfig {
        devices: 2,
        mode: PipelineMode::Synchronous,
        model: DeviceModel::default(),
        policy: AdmissionPolicy {
            max_batch: 8,
            max_wait: 1e-3,
        },
        cache_budget_bytes: usize::MAX,
    };
    let op_for_build = op.clone();
    let mut sim = ServeSim::new(cfg, move |_| op_for_build.clone());
    // Seven concurrent requests of mixed widths: coalesced into an 8-wide
    // batch (1+2+1+3+1 = 8) plus a 2-wide remainder.
    let widths = [1usize, 2, 1, 3, 1, 1, 1];
    let requests: Vec<Request> = widths
        .iter()
        .enumerate()
        .map(|(i, &w)| Request {
            id: i as u64,
            key: key.clone(),
            arrival: 0.0,
            rhs: gaussian_mat(n, w, 100 + i as u64),
        })
        .collect();
    let inputs: Vec<_> = requests.iter().map(|r| r.rhs.clone()).collect();
    let (responses, report) = sim.run(requests);
    assert_eq!(report.completed, 7);
    assert_eq!(report.total_rhs, 10);
    assert!(report.batches < 7, "requests must coalesce");
    assert!(report.bytes_equal, "fabric bytes must equal the simulator");
    assert_eq!(report.cache_misses, 1, "one build serves every batch");
    // Bit-identity: each response equals its own standalone blocked solve,
    // regardless of where its columns landed in the coalesced batch.
    for resp in &responses {
        let want = ulv.solve(&inputs[resp.id as usize]);
        assert_eq!(
            resp.x.as_slice(),
            want.as_slice(),
            "response {} drifted from its standalone solve",
            resp.id
        );
        assert!(resp.latency > 0.0);
    }
}

#[test]
fn max_wait_bounds_underfull_batch_latency() {
    let op = build_op(256, 0.0);
    let key = key_for(0);
    let n = op.ulv.n();
    let max_wait = 5e-3;
    let cfg = ServeConfig {
        devices: 1,
        mode: PipelineMode::Synchronous,
        model: DeviceModel::default(),
        policy: AdmissionPolicy {
            max_batch: 32,
            max_wait,
        },
        cache_budget_bytes: usize::MAX,
    };
    let op_for_build = op.clone();
    let mut sim = ServeSim::new(cfg, move |_| op_for_build.clone());
    let (responses, report) = sim.run(vec![Request {
        id: 0,
        key,
        arrival: 1.0,
        rhs: gaussian_mat(n, 1, 7),
    }]);
    // A lone under-full request waits out max_wait, then is served.
    assert_eq!(report.batches, 1);
    assert!(responses[0].latency >= max_wait);
    assert!(
        responses[0].latency < max_wait + report.factor_seconds + 1.0,
        "latency {} should be wait + build + one sweep",
        responses[0].latency
    );
    assert_eq!(report.p50_latency, responses[0].latency);
    assert_eq!(report.p99_latency, responses[0].latency);
}

#[test]
fn cache_churn_is_visible_in_the_report() {
    // Two operators, budget for one: alternating keys rebuild every batch;
    // repeating a key hits.
    let ops = [build_op(256, 0.0), build_op(256, 10.0)];
    let keys = [key_for(0), key_for(1)];
    let budget = ops.iter().map(|o| o.memory_bytes()).max().unwrap() * 3 / 2;
    let n = ops[0].ulv.n();
    let cfg = ServeConfig {
        devices: 2,
        mode: PipelineMode::Pipelined,
        model: DeviceModel::default(),
        policy: AdmissionPolicy {
            max_batch: 4,
            max_wait: 1e-6,
        },
        cache_budget_bytes: budget,
    };
    let ops_for_build = ops.clone();
    let mut sim = ServeSim::new(cfg, move |k: &OpKey| {
        ops_for_build[k.geometry as usize].clone()
    });
    // Spread arrivals out so each request is its own batch:
    // A, A, B, A — the second A hits, B misses (evicting A), the last A
    // misses again.
    let mut requests = Vec::new();
    for (i, which) in [0usize, 0, 1, 0].iter().enumerate() {
        requests.push(Request {
            id: i as u64,
            key: keys[*which].clone(),
            arrival: i as f64,
            rhs: gaussian_mat(n, 1, 40 + i as u64),
        });
    }
    let (responses, report) = sim.run(requests);
    assert_eq!(report.completed, 4);
    assert_eq!(report.batches, 4);
    assert_eq!(report.cache_hits, 1);
    assert_eq!(report.cache_misses, 3);
    assert!(report.cache_evictions >= 1, "budget for one operator only");
    assert!(report.bytes_equal);
    assert!(report.factor_seconds > 0.0);
    assert!(report.throughput_rhs_per_sec > 0.0);
    assert_eq!(responses.len(), 4);
}

//! The chunk runner's two contracts on a real device fabric.
//!
//! * **Placement.** A sharded kernel runs entry `i` of `n` on device
//!   `owner(i, n, D)`: the chunk `plan_construct` charges that device and
//!   the chunk its fetch tickets are filed under. `batchedGen` block `i`
//!   runs on device `i mod D`, as `charge_gen` charges it. Entry sizes are
//!   skewed so that a cost-balanced split would place most entries on
//!   another device.
//! * **Bit identity.** Every public batched kernel of `h2_runtime` returns
//!   the same bits on the sequential, parallel and sharded backends, with
//!   fewer entries than devices, zero-row entries and empty batches.
//!
//! The device that ran an entry is read off the worker that ran it. Worker
//! threads are named `h2-device-{dev}`, and the fabric re-raises a job's
//! panic on the host as "device {dev} job panicked". Each placement probe
//! makes exactly one entry invalid, so the panic names the device that ran
//! that entry. `qr_min_rdiag` cannot be made to panic on one entry, so its
//! probe gives one entry a blocked factorization and reads which device's
//! dense counters saw the packed GEMM calls that only that entry makes.

use h2_dense::cpqr::Truncation;
use h2_dense::gemm::stats::{self, DenseCounters};
use h2_dense::{gaussian_mat, DenseOp, Diag, EntryAccess, Mat, StoredMat, Triangle};
use h2_runtime::*;
use h2_sched::{DeviceFabric, FaultPlan};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

/// A fabric whose device `dev` counts the dense calls of its jobs into
/// `sinks[dev]`. Everything else is forwarded unchanged.
struct Counted {
    fabric: Arc<DeviceFabric>,
    sinks: Vec<Arc<DenseCounters>>,
}

impl Counted {
    fn wrap<'a>(&self, dev: usize, job: ShardJob<'a>) -> ShardJob<'a> {
        let sink = self.sinks[dev].clone();
        Box::new(move || stats::counting(&sink, job))
    }
}

impl ShardDispatch for Counted {
    fn devices(&self) -> usize {
        self.fabric.devices()
    }
    fn run<'a>(&self, jobs: Vec<ShardJob<'a>>) {
        let jobs = jobs.into_iter().enumerate();
        self.fabric
            .run_jobs(jobs.map(|(dev, job)| self.wrap(dev, job)).collect());
    }
    fn epoch(&self, epoch: &ScheduleEpoch) {
        ShardDispatch::epoch(self.fabric.as_ref(), epoch)
    }
    fn wire(&self) -> Precision {
        self.fabric.wire()
    }
    fn mode(&self) -> PipelineMode {
        self.fabric.mode()
    }
    fn issue(&self, t: Transfer) -> u64 {
        self.fabric.issue(t)
    }
    unsafe fn enqueue<'a>(&self, dev: usize, deps: &[u64], job: ShardJob<'a>) -> u64 {
        // SAFETY: forwarded contract — the caller flushes before borrows end.
        unsafe { self.fabric.enqueue(dev, deps, self.wrap(dev, job)) }
    }
    fn flush(&self) {
        self.fabric.flush()
    }
    fn chain_begin(&self) {
        self.fabric.chain_begin()
    }
    fn chain_end(&self) {
        self.fabric.chain_end()
    }
    fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        self.fabric.fault_plan()
    }
    fn fault_occurrence(&self, site: u64) -> u32 {
        self.fabric.fault_occurrence(site)
    }
    fn reshard_version(&self) -> u64 {
        self.fabric.reshard_version()
    }
    fn note_recovery(&self, site: &str) {
        self.fabric.note_recovery(site)
    }
}

/// Fault-free fabrics at D ∈ {3, 7}, synchronous and pipelined, each
/// wrapped in per-device dense counters.
fn probes() -> Vec<(Arc<Counted>, Runtime)> {
    [3usize, 7]
        .into_iter()
        .flat_map(|d| [DeviceFabric::new(d), DeviceFabric::pipelined(d)])
        .map(|fabric| {
            let sinks = (0..fabric.devices()).map(|_| Arc::default()).collect();
            let counted = Arc::new(Counted { fabric, sinks });
            let rt = Runtime::sharded(counted.clone() as Arc<dyn ShardDispatch>);
            (counted, rt)
        })
        .collect()
}

/// Skewed entry heights: one tall entry, then short ones.
fn heights(n: usize) -> Vec<usize> {
    (0..n)
        .map(|i| if i == 0 { 48 } else { 1 + i % 2 })
        .collect()
}

const N: usize = 15;
/// Sample width of the probes' batches.
const W: usize = 3;

/// The device whose job panicked inside `kernel`.
fn failing_device(kernel: impl FnOnce()) -> usize {
    let err = catch_unwind(AssertUnwindSafe(kernel)).expect_err("the invalid entry panics");
    let msg = err
        .downcast_ref::<String>()
        .expect("the fabric re-raises with a message");
    let tail = msg.rsplit("device ").next().unwrap();
    tail.split_whitespace().next().unwrap().parse().unwrap()
}

fn batch_of(rows: &[usize], cols: &[usize], seed: u64) -> VarBatch {
    let mut b = VarBatch::zeros(rows.to_vec(), cols.to_vec());
    for i in 0..rows.len() {
        b.set(i, gaussian_mat(rows[i], cols[i], seed + i as u64).rf());
    }
    b
}

#[test]
fn marshals_run_each_entry_on_its_owner() {
    let h = heights(N);
    let starts: Vec<usize> = (0..N).map(|i| h[..i].iter().sum()).collect();
    let total: usize = h.iter().sum();
    let src = gaussian_mat(total, W, 1);
    let child_h = heights(2 * N);
    let children: Vec<Vec<usize>> = (0..N).map(|p| vec![2 * p, 2 * p + 1]).collect();
    for (fabric, rt) in probes() {
        let devices = fabric.devices();
        for bad in 0..N {
            let want = owner(bad, N, devices);
            // gather_rows: entry `bad` reads past the source's last row.
            let mut ranges: Vec<(usize, usize)> =
                (0..N).map(|i| (starts[i], starts[i] + h[i])).collect();
            ranges[bad] = (total + 1 - h[bad], total + 1);
            let got = failing_device(|| drop(gather_rows(&rt, &src, &ranges)));
            assert_eq!(got, want, "gather_rows entry {bad} on D = {devices}");

            // stack_children: parent `bad`'s second child is one column too
            // wide for the parent.
            let mut cols = vec![W; 2 * N];
            cols[2 * bad + 1] = W + 1;
            let child = batch_of(&child_h, &cols, 2);
            let got = failing_device(|| drop(stack_children(&rt, &child, &children)));
            assert_eq!(got, want, "stack_children parent {bad} on D = {devices}");
        }
    }
}

#[test]
fn products_run_each_entry_on_its_owner() {
    let h = &heights(N);
    for (fabric, rt) in probes() {
        let devices = fabric.devices();
        let x = batch_of(h, &[W; N], 3);
        for bad in 0..N {
            let want = owner(bad, N, devices);
            // gemm_at_x: entry `bad`'s basis has one row too many.
            let a: Vec<Mat> = (0..N)
                .map(|i| gaussian_mat(h[i] + usize::from(i == bad), 2, 4 + i as u64))
                .collect();
            let got = failing_device(|| drop(gemm_at_x(&rt, &a.iter().collect::<Vec<_>>(), &x)));
            assert_eq!(got, want, "gemm_at_x entry {bad} on D = {devices}");

            // batched_lu: entry `bad` is not square.
            let cols: Vec<usize> = (0..N).map(|i| h[i] + usize::from(i == bad)).collect();
            let sq = batch_of(h, &cols, 5);
            let got = failing_device(|| drop(batched_lu(&rt, &sq)));
            assert_eq!(got, want, "batched_lu entry {bad} on D = {devices}");

            // bsr_gemm: row `bad`'s first block has the wrong width. Every
            // row couples to itself and its successor, so every device
            // fetches a partner.
            let adj: Vec<Vec<usize>> = (0..N).map(|r| vec![r, (r + 1) % N]).collect();
            let pattern = BsrPattern::from_rows(&adj);
            let mats: Vec<Mat> = adj
                .iter()
                .enumerate()
                .flat_map(|(r, cs)| {
                    cs.iter().enumerate().map(move |(s, &c)| {
                        let wide = usize::from(r == bad && s == 0);
                        gaussian_mat(h[r], h[c] + wide, (r * N + c) as u64)
                    })
                })
                .collect();
            let blocks: Vec<BsrBlock<'_>> = mats.iter().map(BsrBlock::plain).collect();
            let mut y = VarBatch::zeros_uniform_cols(h.to_vec(), W);
            let got = failing_device(|| bsr_gemm(&rt, &pattern, &blocks, &x, &mut y, -1.0, None));
            assert_eq!(got, want, "bsr_gemm row {bad} on D = {devices}");
        }
    }
}

#[test]
fn qr_min_rdiag_runs_each_entry_on_its_owner() {
    // Entries with at least as many columns as rows are not factored. The
    // one tall entry takes the blocked QR path, whose trailing updates are
    // packed GEMMs.
    let h = heights(N);
    for (fabric, rt) in probes() {
        let devices = fabric.devices();
        for bad in 0..N {
            let rows: Vec<usize> = (0..N).map(|i| if i == bad { 96 } else { h[i] }).collect();
            let cols: Vec<usize> = (0..N).map(|i| if i == bad { 40 } else { h[i] }).collect();
            let b = batch_of(&rows, &cols, 6);
            fabric.sinks.iter().for_each(|s| s.reset());
            let mins = qr_min_rdiag(&rt, &b);
            assert!(mins[bad] > 0.0);
            let packed: Vec<usize> = (0..devices)
                .filter(|&dev| fabric.sinks[dev].pack_calls() > 0)
                .collect();
            assert_eq!(
                packed,
                vec![owner(bad, N, devices)],
                "qr_min_rdiag entry {bad} on D = {devices}"
            );
        }
    }
}

/// Records the worker thread that generated each block (keyed by the
/// block's first row index).
struct Where(DenseOp, Mutex<Vec<(usize, String)>>);

impl EntryAccess for Where {
    fn entry(&self, i: usize, j: usize) -> f64 {
        self.0.entry(i, j)
    }
    fn block_mat(&self, rows: &[usize], cols: &[usize]) -> Mat {
        let name = std::thread::current().name().unwrap_or("?").to_string();
        self.1.lock().unwrap().push((rows[0], name));
        self.0.block_mat(rows, cols)
    }
}

#[test]
fn batched_gen_runs_block_i_on_device_i_mod_d() {
    let h = heights(N);
    let blocks: Vec<GenBlock> = (0..N)
        .map(|i| GenBlock {
            rows: (i..i + h[i]).collect(),
            cols: (0..h[i]).collect(),
        })
        .collect();
    for (fabric, rt) in probes() {
        let gen = Where(DenseOp::new(gaussian_mat(64, 64, 7)), Mutex::default());
        let _ = batched_gen(&rt, &gen, &blocks);
        let mut seen = gen.1.into_inner().unwrap();
        seen.sort();
        let want: Vec<(usize, String)> = (0..N)
            .map(|i| (i, format!("h2-device-{}", i % fabric.devices())))
            .collect();
        assert_eq!(seen, want);
    }
}

/// Bits of every batch entry, in order.
fn bits_of(b: &VarBatch) -> Vec<Vec<u64>> {
    (0..b.count()).map(|i| bits(&b.to_mat(i))).collect()
}

fn bits(m: &Mat) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Every public batched kernel over one set of entry heights, as bits.
fn all_kernels(rt: &Runtime, h: &[usize]) -> Vec<Vec<Vec<u64>>> {
    let n = h.len();
    let d = 3;
    let starts: Vec<usize> = (0..n).map(|i| h[..i].iter().sum()).collect();
    let total: usize = h.iter().sum();
    let mut out = Vec::new();

    let src = rand_mat(rt, total, d, 11);
    out.push(vec![bits(&src)]);
    let ranges: Vec<(usize, usize)> = (0..n).map(|i| (starts[i], starts[i] + h[i])).collect();
    let x = gather_rows(rt, &src, &ranges);
    out.push(bits_of(&x));
    let pairs: Vec<Vec<usize>> = (0..n)
        .step_by(2)
        .map(|p| (p..(p + 2).min(n)).collect())
        .collect();
    out.push(bits_of(&stack_children(rt, &x, &pairs)));
    let skels: Vec<Vec<usize>> = h
        .iter()
        .map(|&r| (0..r).rev().step_by(2).collect())
        .collect();
    let skel_refs: Vec<&[usize]> = skels.iter().map(Vec::as_slice).collect();
    out.push(bits_of(&shrink_rows(rt, &x, &skel_refs)));
    let bases: Vec<Mat> = (0..n)
        .map(|i| gaussian_mat(h[i], 2, 20 + i as u64))
        .collect();
    out.push(bits_of(&gemm_at_x(
        rt,
        &bases.iter().collect::<Vec<_>>(),
        &x,
    )));
    let wide = batch_of(h, &vec![2; n], 30);
    out.push(bits_of(&hcat_batches(rt, &x, &wide)));
    let mins = qr_min_rdiag(rt, &x);
    out.push(vec![mins.iter().map(|v| v.to_bits()).collect()]);
    for id in batched_row_id(rt, &x, Truncation::Relative(1e-3)) {
        out.push(vec![
            id.skel.iter().map(|&s| s as u64).collect(),
            bits(&id.u),
        ]);
    }
    let op = DenseOp::new(gaussian_mat(total.max(1), total.max(1), 40));
    let blocks: Vec<GenBlock> = (0..n)
        .map(|i| GenBlock {
            rows: (starts[i]..starts[i] + h[i]).collect(),
            cols: (0..h[(i + 1) % n]).collect(),
        })
        .collect();
    out.push(batched_gen(rt, &op, &blocks).iter().map(bits).collect());

    // bsr_gemm: each row couples to itself and to its successor.
    let adj: Vec<Vec<usize>> = (0..n).map(|r| vec![r, (r + 1) % n]).collect();
    let pattern = BsrPattern::from_rows(&adj);
    let mats: Vec<Mat> = adj
        .iter()
        .enumerate()
        .flat_map(|(r, cs)| {
            cs.iter()
                .map(move |&c| gaussian_mat(h[r], h[c], (r * 31 + c) as u64))
        })
        .collect();
    // Square blocks at odd positions are applied transposed, so both `op`
    // forms run.
    let bsr_blocks: Vec<BsrBlock<'_>> = mats
        .iter()
        .enumerate()
        .map(|(p, mat)| BsrBlock {
            mat: StoredMat::F64(mat),
            transposed: p % 2 == 1 && mat.rows() == mat.cols(),
        })
        .collect();
    let mut y = batch_of(h, &vec![d; n], 50);
    bsr_gemm(rt, &pattern, &bsr_blocks, &x, &mut y, -0.5, None);
    out.push(bits_of(&y));

    // The six solver kernels.
    let tall = batch_of(h, &vec![2; n], 60);
    let qrs = batched_qr(rt, &tall);
    out.push(qrs.iter().map(|q| bits(&q.a)).collect());
    out.push(
        qrs.iter()
            .map(|q| q.tau.iter().map(|v| v.to_bits()).collect())
            .collect(),
    );
    let mut rot = batch_of(h, &vec![d; n], 70);
    batched_apply_qt(rt, &qrs, &mut rot);
    out.push(bits_of(&rot));
    out.push(bits_of(&batched_transpose(rt, &rot)));
    let sq = batch_of(h, h, 80);
    let lus: Vec<_> = batched_lu(rt, &sq)
        .into_iter()
        .map(|lu| lu.expect("gaussian blocks are nonsingular"))
        .collect();
    out.push(lus.iter().map(|lu| bits(&lu.a)).collect());
    let mut rhs = batch_of(h, &vec![d; n], 90);
    batched_lu_solve(rt, &lus, &mut rhs);
    out.push(bits_of(&rhs));
    let tris: Vec<Mat> = lus.iter().map(|lu| lu.a.clone()).collect();
    batched_trsm(rt, Triangle::Upper, Diag::NonUnit, &tris, &mut rhs);
    out.push(bits_of(&rhs));
    out
}

#[test]
fn every_batched_kernel_is_bitwise_equal_on_every_backend() {
    let cases: [&[usize]; 3] = [&[5, 0, 3, 0, 7, 2, 0, 4, 1, 6], &[3, 0], &[]];
    let mut runtimes = vec![("parallel".to_string(), Runtime::parallel())];
    for d in [1usize, 3, 7] {
        for fabric in [DeviceFabric::new(d), DeviceFabric::pipelined(d)] {
            let name = format!("sharded D = {d} {:?}", fabric.mode());
            runtimes.push((name, h2_sched::sharded_runtime(&fabric)));
        }
    }
    for h in cases {
        let want = all_kernels(&Runtime::sequential(), h);
        for (name, rt) in &runtimes {
            let got = all_kernels(rt, h);
            assert_eq!(got.len(), want.len());
            for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                assert!(g == w, "output {k} differs on {name} for heights {h:?}");
            }
        }
    }
}

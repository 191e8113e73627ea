//! The process-wide dense-kernel counters sit behind one claim that every
//! `Profile::new()` races for. This test releases the claim and asserts a
//! waiting profile can take it, so it lives in its own test binary: no
//! other test's profile can take the claim in that gap.

use h2_runtime::{Kernel, Profile};

#[test]
fn concurrent_profiles_do_not_steal_dense_stats() {
    // Acquire the exclusive dense-counter claim; other tests in this
    // binary create transient profiles, so retry until it's free.
    let holder = loop {
        let p = Profile::new();
        if p.has_dense_claim() {
            break p;
        }
        std::thread::yield_now();
    };
    // While `holder` is live, a second profile cannot claim, and its
    // drain records nothing — the race this test pins down used to
    // let it swap the process-global counters to zero.
    let thief = Profile::new();
    assert!(!thief.has_dense_claim());
    assert!(!thief.try_claim_dense_stats());
    let (m, x) = (h2_dense::Mat::zeros(4, 4), vec![0.0; 4]);
    let mut y = vec![0.0; 4];
    h2_dense::gemm::gemv(h2_dense::Op::NoTrans, 1.0, m.rf(), &x, 0.0, &mut y);
    thief.drain_dense_stats();
    assert_eq!(
        thief.launches(Kernel::Gemv),
        0,
        "a non-holder must not steal the holder's gemv counts"
    );
    holder.drain_dense_stats();
    assert!(
        holder.launches(Kernel::Gemv) >= 1,
        "the holder sees the gemv issued during its window"
    );
    // Dropping the holder releases the gate for the next profile.
    drop(holder);
    assert!(thief.try_claim_dense_stats());
}

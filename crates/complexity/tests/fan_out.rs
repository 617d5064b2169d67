//! How often one `compute` call fans out to worker threads.
//!
//! Every parallel region starts and joins its workers, so a kernel that
//! opens a region per loop step (Prim's n − 1 frontier rows, say) pays
//! thread start-up thousands of times per call. This binary holds a single
//! test because it pins `RLB_THREADS` and installs the process-wide region
//! hook.

use rlb_complexity::{compute, ComplexityConfig};
use rlb_util::Prng;
use std::sync::atomic::{AtomicUsize, Ordering};

static REGIONS: AtomicUsize = AtomicUsize::new(0);

#[test]
fn compute_opens_few_parallel_regions() {
    // Two workers even on a one-core host, so every region really fans out.
    std::env::set_var("RLB_THREADS", "2");
    rlb_util::par::set_region_hook(|_| {
        REGIONS.fetch_add(1, Ordering::Relaxed);
    });
    let n = 2000;
    let mut rng = Prng::seed_from_u64(0xFA_0007);
    let xs: Vec<[f64; 2]> = (0..n).map(|_| [rng.f64(), rng.f64()]).collect();
    let ys: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
    let report = compute(&xs, &ys, &ComplexityConfig::default()).unwrap();
    assert!(report.mean().is_finite());
    let regions = REGIONS.load(Ordering::Relaxed);
    assert!(
        regions < 100,
        "compute over {n} points opened {regions} parallel regions"
    );
}

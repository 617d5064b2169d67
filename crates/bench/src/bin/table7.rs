//! Table VII: existing vs new benchmarks with the same origin, compared on
//! PC, PQ and IR.
//!
//! For the established stand-ins, PC is the share of ground-truth matches
//! present among the labelled pairs and PQ equals the imbalance ratio
//! (positives / candidates) — the same quantities the paper derives from
//! the datasets' documentation.

use rlb_bench::cache::with_cache;
use rlb_bench::fmt::{percent, ratio, render_table};
use rlb_bench::runner::{
    established_tasks, new_benchmark_inputs, new_benchmarks, NewBenchmarkSummary,
};
use rlb_synth::established_profiles;

fn main() {
    let established = established_tasks();
    let profiles = established_profiles();
    let summaries: Vec<NewBenchmarkSummary> =
        with_cache("table5-summaries", &new_benchmark_inputs(), || {
            new_benchmarks().into_iter().map(|(s, _)| s).collect()
        });

    // The paper's pairings: same raw origin.
    let pairings = [
        ("Dt1", "Dn1"),
        ("Ds1", "Dn3"),
        ("Ds2", "Dn8"),
        ("Ds4", "Dn7"),
        ("Ds6", "Dn2"),
    ];
    let header: Vec<String> = ["existing", "PC", "PQ", "IR", "new", "PC", "PQ", "IR"]
        .map(String::from)
        .to_vec();
    let mut rows = Vec::new();
    for (old_id, new_id) in pairings {
        let task = established
            .iter()
            .find(|t| t.name == old_id)
            .expect("known id");
        let profile = profiles.iter().find(|p| p.id == old_id).expect("known id");
        let positives = task.all_pairs().filter(|lp| lp.is_match).count();
        let pc_old = positives as f64 / profile.n_matches as f64;
        let pq_old = task.imbalance_ratio();
        let s = summaries
            .iter()
            .find(|s| s.name == new_id)
            .expect("known id");
        rows.push(vec![
            old_id.to_string(),
            ratio(pc_old),
            ratio(pq_old),
            percent(pq_old),
            new_id.to_string(),
            ratio(s.pc),
            ratio(s.pq),
            percent(s.imbalance_ratio),
        ]);
    }
    println!("Table VII — Existing vs new benchmarks (same raw origin)\n");
    println!("{}", render_table(&header, &rows));
}

//! The roster returns the same configurations and the same F1 bits whether
//! it runs on one worker or two.

use rlb_core::{run_roster, RosterConfig};
use rlb_synth::{generate_task, BenchmarkProfile, DifficultyKnobs, Domain};

fn f1_bits(threads: &str) -> Vec<(String, Option<u64>)> {
    std::env::set_var("RLB_THREADS", threads);
    let task = generate_task(&BenchmarkProfile {
        id: "roster-threads",
        stands_for: "integration test",
        domain: Domain::Product,
        left_size: 120,
        right_size: 150,
        n_matches: 60,
        labeled_pairs: 300,
        positive_fraction: 0.2,
        knobs: DifficultyKnobs::moderate(),
        seed: 7,
    });
    let cfg = RosterConfig {
        dl_epochs: [2, 3],
        ..Default::default()
    };
    let runs = run_roster(&task, &cfg).expect("roster runs");
    runs.into_iter()
        .map(|r| (r.name, r.f1.map(f64::to_bits)))
        .collect()
}

#[test]
fn one_and_two_workers_give_identical_rosters() {
    // The only test in this binary, so nothing else reads the variable.
    let one = f1_bits("1");
    let two = f1_bits("2");
    assert_eq!(one.len(), 23);
    assert_eq!(one, two);
}

//! Table V: the new benchmarks generated by the tuned embedding blocker
//! (DeepBlocker substitute) — blocking performance, chosen configuration,
//! and split statistics.

use rlb_bench::cache::with_cache;
use rlb_bench::fmt::{percent, ratio, render_table};
use rlb_bench::runner::{new_benchmark_inputs, new_benchmarks, NewBenchmarkSummary};

fn main() {
    let summaries: Vec<NewBenchmarkSummary> =
        with_cache("table5-summaries", &new_benchmark_inputs(), || {
            new_benchmarks().into_iter().map(|(s, _)| s).collect()
        });
    let header: Vec<String> = [
        "D", "D1", "D2", "|D1|", "|D2|", "|M|", "|A|", "PC", "PQ", "|C|", "|P|", "attr", "cl.",
        "K", "ind.", "|Itr|", "|Ite|", "|Ptr|", "|Pte|", "IR",
    ]
    .map(String::from)
    .to_vec();
    let rows: Vec<Vec<String>> = summaries
        .iter()
        .map(|s| {
            vec![
                s.name.clone(),
                s.left_name.clone(),
                s.right_name.clone(),
                s.left_size.to_string(),
                s.right_size.to_string(),
                s.total_matches.to_string(),
                s.attributes.to_string(),
                ratio(s.pc),
                ratio(s.pq),
                s.candidates.to_string(),
                s.matching_candidates.to_string(),
                s.attr.clone(),
                if s.clean { "yes" } else { "no" }.to_string(),
                s.k.to_string(),
                s.indexed.clone(),
                s.train_instances.to_string(),
                s.test_instances.to_string(),
                s.train_positives.to_string(),
                s.test_positives.to_string(),
                percent(s.imbalance_ratio),
            ]
        })
        .collect();
    println!("Table V — New datasets generated by the tuned embedding blocker\n");
    println!("{}", render_table(&header, &rows));
}

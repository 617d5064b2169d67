//! Reference outputs recorded for the default seed and one held-out seed
//! (`oracle.json`), and the paper's shape targets checked at the default
//! seed.

use rlb_util::json::Value;
use std::sync::OnceLock;

/// The seed the shape targets of DESIGN.md §5 are checked at: it leaves
/// every profile seed as the paper's reproduction generates it.
pub const DEFAULT_SEED: u64 = 0;

fn table() -> &'static Value {
    static TABLE: OnceLock<Value> = OnceLock::new();
    TABLE.get_or_init(|| {
        Value::parse(include_str!("../oracle.json")).expect("oracle.json is valid JSON")
    })
}

/// The recorded digest of output `key` of `workload` at `seed`, if that
/// seed has a reference.
pub fn expected(workload: &str, seed: u64, key: &str) -> Option<String> {
    table()
        .get(workload)?
        .get(&seed.to_string())?
        .get(key)?
        .as_str()
        .map(str::to_owned)
}

/// Whether `seed` has recorded references for `workload`.
pub fn has_seed(workload: &str, seed: u64) -> bool {
    table()
        .get(workload)
        .and_then(|w| w.get(&seed.to_string()))
        .is_some()
}

/// The established sets no a-priori measure marks easy (DESIGN.md §5).
pub const CHALLENGING_ESTABLISHED: [&str; 4] = ["Ds4", "Ds6", "Dd4", "Dt1"];

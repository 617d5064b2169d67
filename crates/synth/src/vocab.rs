//! Deterministic vocabularies for the synthetic domains.
//!
//! Rather than shipping megabytes of word lists, identity tokens are
//! pseudo-words produced by a syllable generator (deterministic under a
//! seed), while the small closed classes that shape real ER data — brands,
//! venues, genres, cities, common filler words — are short hardcoded lists.
//! Pseudo-words follow a roughly Zipfian reuse pattern via the family
//! mechanism in [`crate::entity`], which is what produces realistic token
//! overlap between non-matching records.

use rlb_util::Prng;

const ONSETS: &[&str] = &[
    "b", "br", "c", "ch", "cl", "d", "dr", "f", "fl", "g", "gr", "h", "j", "k", "kr", "l", "m",
    "n", "p", "pl", "pr", "qu", "r", "s", "sh", "sl", "st", "t", "tr", "v", "w", "z",
];
const NUCLEI: &[&str] = &[
    "a", "e", "i", "o", "u", "ai", "ea", "io", "ou", "ar", "er", "or",
];
const CODAS: &[&str] = &[
    "", "n", "m", "r", "l", "s", "t", "x", "ck", "nd", "st", "sh",
];

/// Generates one pseudo-word with `syllables` syllables.
// The derefs pin `choose`'s type parameter to `&str`; without them inference
// unifies against `push_str`'s `&str` argument and picks the unsized `str`.
#[allow(clippy::explicit_auto_deref)]
pub fn pseudo_word(rng: &mut Prng, syllables: usize) -> String {
    let mut w = String::new();
    for _ in 0..syllables.max(1) {
        w.push_str(*rng.choose(ONSETS));
        w.push_str(*rng.choose(NUCLEI));
    }
    w.push_str(*rng.choose(CODAS));
    w
}

/// A pool of distinct pseudo-words, generated deterministically.
pub fn word_pool(seed: u64, count: usize, syllables: usize) -> Vec<String> {
    let mut rng = Prng::seed_from_u64(seed);
    let mut seen = std::collections::BTreeSet::new();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let w = pseudo_word(&mut rng, syllables);
        if seen.insert(w.clone()) {
            out.push(w);
        }
    }
    out
}

/// Brand names used by the product domains.
pub const BRANDS: &[&str] = &[
    "acme",
    "zenbrook",
    "kordia",
    "velano",
    "stratex",
    "numark",
    "halcyon",
    "pyrex",
    "ovatek",
    "lumina",
    "graviton",
    "sablewood",
    "tessier",
    "quantrel",
];

/// Product categories.
pub const CATEGORIES: &[&str] = &[
    "speakers",
    "headphones",
    "laptop",
    "camera",
    "monitor",
    "keyboard",
    "printer",
    "router",
    "tablet",
    "phone",
    "projector",
    "microphone",
];

/// Publication venues for the bibliographic domain.
pub const VENUES: &[&str] = &[
    "sigmod", "vldb", "icde", "edbt", "kdd", "cikm", "wsdm", "www", "tods", "tkde", "vldbj", "pods",
];

/// Movie genres.
pub const GENRES: &[&str] = &[
    "drama",
    "comedy",
    "thriller",
    "action",
    "documentary",
    "horror",
    "romance",
    "scifi",
    "animation",
    "crime",
];

/// Cities for the restaurant domain.
pub const CITIES: &[&str] = &[
    "new york",
    "los angeles",
    "chicago",
    "atlanta",
    "san francisco",
    "boston",
    "seattle",
    "austin",
    "denver",
    "portland",
];

/// Restaurant cuisine types.
pub const CUISINES: &[&str] = &[
    "italian",
    "french",
    "mexican",
    "thai",
    "steakhouse",
    "seafood",
    "vegan",
    "bbq",
    "diner",
    "fusion",
];

/// Generic filler words used to pad descriptions (they carry no identity
/// signal and therefore dilute Jaccard similarity, exactly like real product
/// descriptions do).
pub const FILLER: &[&str] = &[
    "new",
    "original",
    "premium",
    "classic",
    "series",
    "edition",
    "pro",
    "ultra",
    "compact",
    "wireless",
    "portable",
    "digital",
    "high",
    "quality",
    "performance",
    "design",
    "black",
    "white",
    "silver",
    "standard",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pseudo_words_are_deterministic() {
        let mut a = Prng::seed_from_u64(1);
        let mut b = Prng::seed_from_u64(1);
        for _ in 0..20 {
            assert_eq!(pseudo_word(&mut a, 2), pseudo_word(&mut b, 2));
        }
    }

    #[test]
    fn pseudo_words_are_lowercase_alpha() {
        let mut rng = Prng::seed_from_u64(2);
        for _ in 0..100 {
            let w = pseudo_word(&mut rng, 3);
            assert!(w.chars().all(|c| c.is_ascii_lowercase()), "{w}");
            assert!(w.len() >= 2);
        }
    }

    #[test]
    fn word_pool_is_distinct_and_sized() {
        let pool = word_pool(7, 500, 2);
        assert_eq!(pool.len(), 500);
        let mut dedup = pool.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 500);
    }

    #[test]
    fn word_pool_same_seed_same_pool() {
        assert_eq!(word_pool(9, 50, 2), word_pool(9, 50, 2));
        assert_ne!(word_pool(9, 50, 2), word_pool(10, 50, 2));
    }
}

//! Property-based tests over the core invariants of the difficulty
//! framework: similarity bounds, threshold-sweep optimality, metric
//! identities, and distance-space properties.
//!
//! Each test draws a fixed number of random cases from a seeded in-tree
//! [`Prng`], so failures are reproducible from the case index alone and the
//! suite needs no external property-testing framework.

use rlb_matchers::esde::sweep_threshold;
use rlb_ml::metrics::{confusion, f1_score};
use rlb_textsim::sets::{cosine, dice, jaccard, overlap};
use rlb_textsim::{intern, IdSet, TokenInterner, TokenSet};
use rlb_util::Prng;

/// Cases per property — comparable to a small proptest budget while keeping
/// the suite fast.
const CASES: usize = 256;

/// A random lowercase word of 1..=6 letters.
fn word(rng: &mut Prng) -> String {
    (0..rng.range(1, 7))
        .map(|_| (b'a' + rng.index(26) as u8) as char)
        .collect()
}

/// A random token vector of `lo..hi` words.
fn token_vec(rng: &mut Prng, lo: usize, hi: usize) -> Vec<String> {
    (0..rng.range(lo, hi)).map(|_| word(rng)).collect()
}

/// A random string over an alphabet, up to `max` chars (may be empty).
fn text(rng: &mut Prng, alphabet: &[u8], max: usize) -> String {
    (0..rng.index(max + 1))
        .map(|_| *rng.choose(alphabet) as char)
        .collect()
}

// --- token-set similarities -----------------------------------------------

#[test]
fn similarities_bounded_and_symmetric() {
    let mut rng = Prng::seed_from_u64(0x51_01);
    for case in 0..CASES {
        let ta = TokenSet::new(token_vec(&mut rng, 0, 12));
        let tb = TokenSet::new(token_vec(&mut rng, 0, 12));
        for f in [cosine, jaccard, dice, overlap] {
            let ab = f(&ta, &tb);
            let ba = f(&tb, &ta);
            assert!((0.0..=1.0).contains(&ab), "case {case}: {ab}");
            assert!((ab - ba).abs() < 1e-12, "case {case}: {ab} vs {ba}");
        }
    }
}

#[test]
fn similarity_ordering() {
    // jaccard <= dice <= overlap and jaccard <= cosine <= overlap.
    let mut rng = Prng::seed_from_u64(0x51_02);
    for case in 0..CASES {
        let ta = TokenSet::new(token_vec(&mut rng, 0, 12));
        let tb = TokenSet::new(token_vec(&mut rng, 0, 12));
        let (j, d, c, o) = (
            jaccard(&ta, &tb),
            dice(&ta, &tb),
            cosine(&ta, &tb),
            overlap(&ta, &tb),
        );
        assert!(j <= d + 1e-12, "case {case}: j {j} d {d}");
        assert!(d <= o + 1e-12, "case {case}: d {d} o {o}");
        assert!(j <= c + 1e-12, "case {case}: j {j} c {c}");
        assert!(c <= o + 1e-12, "case {case}: c {c} o {o}");
    }
}

#[test]
fn identity_similarity_is_one() {
    let mut rng = Prng::seed_from_u64(0x51_03);
    for case in 0..CASES {
        let ta = TokenSet::new(token_vec(&mut rng, 1, 12));
        for f in [cosine, jaccard, dice, overlap] {
            assert!((f(&ta, &ta) - 1.0).abs() < 1e-12, "case {case}");
        }
    }
}

// --- interned twin (IdSet vs TokenSet) ------------------------------------

/// Bit-for-bit equality of every interned similarity with its string twin,
/// for one pair of token multisets.
fn assert_twin_equal(va: &[String], vb: &[String], interner: &mut TokenInterner, case: usize) {
    let ta = TokenSet::new(va.iter().cloned());
    let tb = TokenSet::new(vb.iter().cloned());
    let ia = IdSet::from_tokens(interner, va.iter());
    let ib = IdSet::from_tokens(interner, vb.iter());
    assert_eq!(ia.len(), ta.len(), "case {case}");
    assert_eq!(
        ia.intersection_size(&ib),
        ta.intersection_size(&tb),
        "case {case}"
    );
    assert_eq!(ia.union_size(&ib), ta.union_size(&tb), "case {case}");
    let pairs: [(f64, f64); 4] = [
        (intern::cosine(&ia, &ib), cosine(&ta, &tb)),
        (intern::jaccard(&ia, &ib), jaccard(&ta, &tb)),
        (intern::dice(&ia, &ib), dice(&ta, &tb)),
        (intern::overlap(&ia, &ib), overlap(&ta, &tb)),
    ];
    for (id_sim, str_sim) in pairs {
        assert_eq!(
            id_sim.to_bits(),
            str_sim.to_bits(),
            "case {case}: {id_sim} vs {str_sim}"
        );
    }
}

#[test]
fn interned_similarities_match_string_twin_bitwise() {
    // One interner across all cases: sets drawn later reuse earlier ids,
    // exercising dictionary hits as well as misses. Sizes 0..12 cover the
    // empty and degenerate sets explicitly.
    let mut rng = Prng::seed_from_u64(0x51_0C);
    let mut interner = TokenInterner::new();
    for case in 0..CASES {
        let va = token_vec(&mut rng, 0, 12);
        let vb = token_vec(&mut rng, 0, 12);
        assert_twin_equal(&va, &vb, &mut interner, case);
    }
}

#[test]
fn interned_similarities_match_on_skewed_sizes() {
    // Large size ratios route intersection through the galloping path; the
    // result must still match the string merge join exactly.
    let mut rng = Prng::seed_from_u64(0x51_0D);
    let mut interner = TokenInterner::new();
    for case in 0..64 {
        let small = token_vec(&mut rng, 0, 4);
        // 200..320 random short words — many duplicates of the small side's
        // vocabulary, so intersections are non-trivial.
        let mut large = token_vec(&mut rng, 200, 320);
        large.extend(small.iter().cloned());
        assert_twin_equal(&small, &large, &mut interner, case);
        assert_twin_equal(&large, &small, &mut interner, case);
    }
}

// --- edit similarities ----------------------------------------------------

#[test]
fn edit_similarities_bounded() {
    let alphabet: Vec<u8> = (b'a'..=b'z')
        .chain(b'A'..=b'Z')
        .chain(b'0'..=b'9')
        .chain([b' '])
        .collect();
    let mut rng = Prng::seed_from_u64(0x51_04);
    for case in 0..CASES {
        let a = text(&mut rng, &alphabet, 12);
        let b = text(&mut rng, &alphabet, 12);
        for f in [
            rlb_textsim::edit::levenshtein,
            rlb_textsim::edit::jaro,
            rlb_textsim::edit::jaro_winkler,
        ] {
            let v = f(&a, &b);
            assert!((0.0..=1.0).contains(&v), "case {case}: {a:?} vs {b:?}: {v}");
        }
    }
}

#[test]
fn levenshtein_triangle_inequality() {
    use rlb_textsim::edit::levenshtein_distance as lev;
    let alphabet: Vec<u8> = (b'a'..=b'z').collect();
    let mut rng = Prng::seed_from_u64(0x51_05);
    for case in 0..CASES {
        let a = text(&mut rng, &alphabet, 8);
        let b = text(&mut rng, &alphabet, 8);
        let c = text(&mut rng, &alphabet, 8);
        assert!(
            lev(&a, &c) <= lev(&a, &b) + lev(&b, &c),
            "case {case}: {a:?} {b:?} {c:?}"
        );
    }
}

// --- threshold sweep (Algorithms 1 & 2 inner loop) ------------------------

#[test]
fn sweep_threshold_is_optimal_over_grid() {
    let mut rng = Prng::seed_from_u64(0x51_06);
    for case in 0..CASES {
        let n = rng.range(1, 60);
        let scores: Vec<f64> = (0..n).map(|_| rng.f64()).collect();
        let labels: Vec<bool> = (0..n).map(|_| rng.chance(0.5)).collect();
        let (best_f1, best_t) = sweep_threshold(&scores, &labels);
        assert!((0.0..=1.0).contains(&best_f1), "case {case}");
        // No grid threshold beats the reported best.
        for step in 1..100 {
            let t = step as f64 / 100.0;
            let preds: Vec<bool> = scores.iter().map(|&s| t <= s).collect();
            assert!(
                f1_score(&preds, &labels) <= best_f1 + 1e-12,
                "case {case} t {t}"
            );
        }
        // The reported threshold reproduces the reported F1.
        if best_f1 > 0.0 {
            let preds: Vec<bool> = scores.iter().map(|&s| best_t <= s).collect();
            assert!(
                (f1_score(&preds, &labels) - best_f1).abs() < 1e-12,
                "case {case} t {best_t}"
            );
        }
    }
}

// --- classification metrics -----------------------------------------------

#[test]
fn confusion_counts_partition_the_data() {
    let mut rng = Prng::seed_from_u64(0x51_07);
    for case in 0..CASES {
        let n = rng.index(100);
        let preds: Vec<bool> = (0..n).map(|_| rng.chance(0.5)).collect();
        let labels: Vec<bool> = (0..n).map(|_| rng.chance(0.5)).collect();
        let c = confusion(&preds, &labels);
        assert_eq!(c.tp + c.fp + c.tn + c.fn_, n, "case {case}");
        let m = c.metrics();
        for v in [m.precision, m.recall, m.f1, m.accuracy] {
            assert!((0.0..=1.0).contains(&v), "case {case}: {v}");
        }
        // F1 is the harmonic mean identity.
        if m.precision + m.recall > 0.0 {
            let hm = 2.0 * m.precision * m.recall / (m.precision + m.recall);
            assert!((m.f1 - hm).abs() < 1e-12, "case {case}");
        }
    }
}

// --- Gower distance -------------------------------------------------------

#[test]
fn gower_is_a_bounded_pseudometric() {
    let mut rng = Prng::seed_from_u64(0x51_08);
    for case in 0..64 {
        let n = rng.range(2, 30);
        let points: Vec<Vec<f64>> = (0..n).map(|_| vec![rng.f64(), rng.f64()]).collect();
        let g = rlb_textsim::gower::GowerSpace::fit(&points).expect("non-empty");
        for a in &points {
            assert!(g.distance(a, a).abs() < 1e-12, "case {case}");
            for b in &points {
                let d = g.distance(a, b);
                assert!((0.0..=1.0 + 1e-12).contains(&d), "case {case}: {d}");
                assert!((d - g.distance(b, a)).abs() < 1e-12, "case {case}");
            }
        }
    }
}

// --- embeddings -----------------------------------------------------------

#[test]
fn embeddings_are_unit_or_zero() {
    let alphabet: Vec<u8> = (b'a'..=b'z').chain(b'0'..=b'9').collect();
    let mut rng = Prng::seed_from_u64(0x51_09);
    let e = rlb_embed::HashedEmbedder::new(32, 7);
    for case in 0..CASES {
        let token = text(&mut rng, &alphabet, 10);
        let v = e.token(&token);
        let n = rlb_util::linalg::norm_f32(&v);
        assert!(
            n.abs() < 1e-4 || (n - 1.0).abs() < 1e-4,
            "case {case}: {token:?} -> {n}"
        );
    }
}

#[test]
fn vector_similarities_bounded() {
    let mut rng = Prng::seed_from_u64(0x51_0A);
    for case in 0..CASES {
        let a: Vec<f32> = (0..8).map(|_| rng.f32() * 2.0 - 1.0).collect();
        let b: Vec<f32> = (0..8).map(|_| rng.f32() * 2.0 - 1.0).collect();
        for f in [
            rlb_embed::cosine_sim,
            rlb_embed::euclidean_sim,
            rlb_embed::wasserstein_sim,
        ] {
            let v = f(&a, &b);
            assert!((0.0..=1.0).contains(&v), "case {case}: {v}");
        }
    }
}

// --- generator invariants (fewer cases: each builds a dataset) ------------

#[test]
fn generated_tasks_always_validate() {
    let mut rng = Prng::seed_from_u64(0x51_0B);
    for _ in 0..16 {
        let seed = rng.next_u64() % 500;
        let noise = rng.uniform(0.0, 0.9);
        let profile = rlb_synth::BenchmarkProfile {
            id: "prop",
            stands_for: "seeded property test",
            domain: rlb_synth::Domain::Product,
            left_size: 60,
            right_size: 80,
            n_matches: 40,
            labeled_pairs: 150,
            positive_fraction: 0.2,
            knobs: rlb_synth::DifficultyKnobs {
                match_noise: noise,
                hard_negative_fraction: 0.4,
                anchor_attrs: 1,
                dirty: seed.is_multiple_of(2),
                style_noise: 0.03,
                right_terse: false,
                base_missing: 0.2,
            },
            seed,
        };
        let task = rlb_synth::generate_task(&profile);
        assert_eq!(task.validate(), Ok(()), "seed {seed}");
        assert_eq!(task.total_pairs(), 150, "seed {seed}");
        let pos = task.all_pairs().filter(|lp| lp.is_match).count();
        assert_eq!(pos, 30, "seed {seed}");
    }
}

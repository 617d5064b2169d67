//! The two batch workloads: the a-priori assessment of the 13 established
//! stand-ins, and the Section-VI pipeline on two raw dataset pairs.

use crate::layers::{span_secs, Layers};
use crate::metrics::{Digest, Tally};
use crate::pass::PassOut;
use crate::{peak_rss_mb, timed_setup, LAYERS_TOTAL};
use rlb_blocking::TunerConfig;
use rlb_complexity::{compute_cs_js, ComplexityConfig, ComplexityReport};
use rlb_core::assessment::{COMPLEXITY_EASY, LINEARITY_EASY};
use rlb_core::{
    assess_with, build_benchmark, degree_of_linearity_from_scores, run_roster, EasyFlags,
    LinearityReport, MatcherFamily, MatcherRun, PracticalMeasures, RosterConfig,
};
use rlb_data::{LabeledPair, MatchingTask};
use rlb_matchers::TaskViewCache;
use rlb_synth::RawDatasetPair;
use std::time::Instant;

/// The raw pairs the Section-VI workload builds benchmarks from.
pub const NEW_BENCHMARKS: [&str; 2] = ["Dn3", "Dn8"];

/// Spreads a workload seed over a profile's own seed; seed 0 leaves the
/// paper's profiles untouched.
pub fn mix(profile_seed: u64, seed: u64) -> u64 {
    profile_seed ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The 13 established stand-ins for `seed`.
pub fn established(seed: u64) -> Vec<MatchingTask> {
    let profiles: Vec<_> = rlb_synth::established_profiles()
        .into_iter()
        .map(|mut p| {
            p.seed = mix(p.seed, seed);
            p
        })
        .collect();
    rlb_util::par::par_map(&profiles, rlb_synth::generate_task)
}

/// The raw pairs of [`NEW_BENCHMARKS`], each with the seed its 3:1:1 split
/// uses. The raw pairs stand for fixed real sources, as in the paper; the
/// workload seed varies the split. (Varying the sources too would let the
/// tuner pick another `K`, and the candidate count — hence the roster's
/// cost — would move with the seed.)
pub fn raw_pairs(seed: u64) -> Vec<(RawDatasetPair, u64)> {
    let profiles: Vec<_> = rlb_synth::raw_pair_profiles()
        .into_iter()
        .filter(|p| NEW_BENCHMARKS.contains(&p.id))
        .collect();
    rlb_util::par::par_map(&profiles, |p| {
        (rlb_synth::generate_raw_pair(p), mix(p.seed ^ 0x5EED, seed))
    })
}

/// What one dataset's assessment produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub name: String,
    pub flags: EasyFlags,
    /// Bit-exact digest of the flags, measures and roster F1s.
    pub digest: String,
    /// One human-readable line.
    pub summary: String,
}

fn outcome(
    name: &str,
    linearity: &LinearityReport,
    complexity: &ComplexityReport,
    practical: Option<&PracticalMeasures>,
    runs: &[MatcherRun],
    flags: EasyFlags,
) -> Outcome {
    let mut d = Digest::default();
    d.str(name);
    for x in [
        linearity.f1_cosine,
        linearity.t_cosine,
        linearity.f1_jaccard,
        linearity.t_jaccard,
    ] {
        d.f64(x);
    }
    for (measure, x) in complexity.values() {
        d.str(measure).f64(x);
    }
    if let Some(p) = practical {
        for x in [
            p.best_linear,
            p.best_nonlinear,
            p.best_overall,
            p.nlb,
            p.lbm,
        ] {
            d.f64(x);
        }
    }
    for run in runs {
        d.str(&run.name).f64(run.f1.unwrap_or(f64::NAN));
    }
    for flag in [
        flags.by_linearity,
        flags.by_complexity,
        flags.by_nlb,
        flags.by_lbm,
    ] {
        d.bool(flag);
    }
    let mut summary = format!(
        "{name}: linearity {:.3}, complexity {:.3}",
        linearity.max_f1(),
        complexity.mean()
    );
    if let Some(p) = practical {
        summary += &format!(", NLB {:.3}, LBM {:.3}", p.nlb, p.lbm);
    }
    summary += if flags.challenging() {
        " -> challenging"
    } else {
        " -> easy"
    };
    Outcome {
        name: name.to_string(),
        flags,
        digest: d.hex(),
        summary,
    }
}

/// One timed pass over a batch workload's datasets.
#[derive(Debug, Default)]
pub struct Pass {
    pub wall_s: f64,
    /// Per-dataset latency, first stage call to verdict.
    pub op_ms: Vec<f64>,
    pub outcomes: Vec<Outcome>,
    pub tally: Tally,
}

/// Complexity work for `n` labelled pairs: the kernels subsample larger
/// sets down to the default cap first, then compare every pair of points.
fn count_complexity(layers: &mut Layers, n: usize) {
    let m = n.min(ComplexityConfig::default().max_points) as f64;
    layers.count("complexity.points", m);
    layers.count("complexity.pair_distances", m * (m - 1.0) / 2.0);
}

/// `apriori-13`: views → `[CS, JS]` scores → linearity → complexity →
/// flags, one dataset after another.
pub fn apriori_pass(tasks: &[MatchingTask], layers: &mut Layers) -> Pass {
    let mut pass = Pass::default();
    let started = Instant::now();
    for task in tasks {
        let t = Instant::now();
        let views = layers.time("views.build", || TaskViewCache::build(task));
        let pairs: Vec<LabeledPair> = task.all_pairs().copied().collect();
        let scores = layers.time("sim.cs_js", || {
            rlb_util::par::par_map(&pairs, |lp| views.cs_js(lp.pair))
        });
        layers.count("sim.pairs", pairs.len() as f64);
        let linearity = layers.time("linearity.sweep", || {
            degree_of_linearity_from_scores(&pairs, &scores)
        });
        let labels: Vec<bool> = pairs.iter().map(|lp| lp.is_match).collect();
        let complexity = layers.time("complexity.compute", || {
            compute_cs_js(&scores, &labels, &ComplexityConfig::default())
        });
        count_complexity(layers, pairs.len());
        // The program's own spans are drained in both runs alike.
        let _ = rlb_obs::take_spans();
        match complexity {
            Ok(complexity) => {
                let flags = EasyFlags {
                    by_linearity: linearity.max_f1() >= LINEARITY_EASY,
                    by_complexity: complexity.mean() < COMPLEXITY_EASY,
                    by_nlb: false,
                    by_lbm: false,
                };
                pass.outcomes.push(outcome(
                    &task.name,
                    &linearity,
                    &complexity,
                    None,
                    &[],
                    flags,
                ));
                pass.tally.record(true);
            }
            Err(e) => {
                eprintln!("[e2ebench] {}: complexity failed: {e}", task.name);
                pass.tally.record(false);
            }
        }
        pass.op_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    pass.wall_s = started.elapsed().as_secs_f64();
    pass
}

/// `newbench-verdict`: raw pair → `build_benchmark` (tune + 3:1:1 split) →
/// `run_roster` → `assess_with` → four-measure verdict.
pub fn newbench_pass(raws: &[(RawDatasetPair, u64)], layers: &mut Layers, threads: usize) -> Pass {
    let mut pass = Pass::default();
    let started = Instant::now();
    for (raw, split_seed) in raws {
        let t = Instant::now();
        let before = rlb_obs::snapshot().counter("blocking.configs_searched");
        let built = layers.time("blocking.tune", || {
            build_benchmark(raw, &TunerConfig::default(), *split_seed)
        });
        let _ = rlb_obs::take_spans();
        layers.count(
            "blocking.tune_configs",
            (rlb_obs::snapshot().counter("blocking.configs_searched") - before) as f64,
        );
        layers.count(
            "blocking.candidates",
            built.blocking.metrics.candidates as f64,
        );
        layers.count(
            "blocking.matching_candidates",
            built.blocking.metrics.matching_candidates as f64,
        );
        let task = &built.task;

        let roster_started = Instant::now();
        let runs = run_roster(task, &RosterConfig::default());
        let roster_wall = roster_started.elapsed().as_secs_f64();
        let spans = rlb_obs::take_spans();
        let runs = match runs {
            Ok(runs) => runs,
            Err(e) => {
                eprintln!("[e2ebench] {}: roster failed: {e}", raw.name);
                pass.tally.record(false);
                continue;
            }
        };
        if layers.on() {
            roster_layers(layers, &spans, &runs, roster_wall, threads);
        }

        let views = layers.time("views.build", || TaskViewCache::build(task));
        let assess_started = Instant::now();
        let assessment = assess_with(task, &runs, &views);
        let assess_s = assess_started.elapsed().as_secs_f64();
        let spans = rlb_obs::take_spans();
        if layers.on() {
            // `assess_with` scores the pairs inside its `linearity.sweep`
            // span, then runs the complexity kernels; the rest is the
            // threshold sweep and the verdict.
            let sim = span_secs(&spans, "linearity.sweep");
            let complexity = span_secs(&spans, "complexity.compute");
            layers.add_secs("sim.cs_js", sim);
            layers.add_secs("complexity.compute", complexity);
            layers.add_secs("linearity.sweep", (assess_s - sim - complexity).max(0.0));
        }
        layers.count("sim.pairs", task.total_pairs() as f64);
        count_complexity(layers, task.total_pairs());
        match assessment {
            Ok(a) => {
                pass.outcomes.push(outcome(
                    &a.name,
                    &a.linearity,
                    &a.complexity,
                    a.practical.as_ref(),
                    &runs,
                    a.flags,
                ));
                pass.tally.record(true);
            }
            Err(e) => {
                eprintln!("[e2ebench] {}: assessment failed: {e}", raw.name);
                pass.tally.record(false);
            }
        }
        pass.op_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    pass.wall_s = started.elapsed().as_secs_f64();
    pass
}

/// One pass of a batch workload in this process: set-up (repeated, median
/// reported), then the datasets in order.
pub fn run_pass(apriori: bool, seed: u64, traced: bool, threads: usize) -> PassOut {
    let mut layers = Layers::new(traced);
    let (pass, setup_s) = if apriori {
        let (tasks, setup_s) = timed_setup(|| established(seed));
        let _ = rlb_obs::take_spans();
        (apriori_pass(&tasks, &mut layers), setup_s)
    } else {
        let (raws, setup_s) = timed_setup(|| raw_pairs(seed));
        let _ = rlb_obs::take_spans();
        (newbench_pass(&raws, &mut layers, threads), setup_s)
    };
    let mut values = Vec::new();
    if traced {
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        values.push(("synth.generate_s".to_string(), setup_s));
        for (metric, layer) in [
            ("views.build_s", "views.build"),
            ("sim.cs_js_s", "sim.cs_js"),
            ("linearity.sweep_s", "linearity.sweep"),
            ("complexity.compute_s", "complexity.compute"),
            ("blocking.tune_s", "blocking.tune"),
            ("roster.wall_s", "roster.run"),
        ] {
            values.push((metric.into(), layers.secs(layer)));
        }
        for name in [
            "sim.pairs",
            "complexity.points",
            "complexity.pair_distances",
            "blocking.tune_configs",
            "blocking.candidates",
            "roster.busy_s",
            "roster.linear_s",
            "roster.nonlinear_ml_s",
            "roster.deep_s",
            "roster.configs",
            "roster.unavailable",
        ] {
            values.push((name.into(), layers.count_of(name)));
        }
        values.push((
            "blocking.pq".into(),
            ratio(
                layers.count_of("blocking.matching_candidates"),
                layers.count_of("blocking.candidates"),
            ),
        ));
        values.push((
            "roster.efficiency".into(),
            ratio(
                layers.count_of("roster.busy_s"),
                layers.count_of("roster.capacity_s"),
            ),
        ));
        values.push((LAYERS_TOTAL.into(), layers.total_secs()));
    }
    PassOut {
        setup_s,
        wall_s: pass.wall_s,
        ops: pass.op_ms.len() as f64,
        op_ms: pass.op_ms,
        tally: pass.tally,
        outputs: pass
            .outcomes
            .iter()
            .map(|o| (o.name.clone(), o.digest.clone()))
            .collect(),
        challenging: pass
            .outcomes
            .iter()
            .filter(|o| o.flags.challenging())
            .map(|o| o.name.clone())
            .collect(),
        values,
        notes: pass.outcomes.iter().map(|o| o.summary.clone()).collect(),
        peak_rss_mb: peak_rss_mb(),
    }
}

/// Roster layers from the program's `roster.matcher` spans: busy time per
/// matcher family, next to the roster's wall time.
fn roster_layers(
    layers: &mut Layers,
    spans: &[rlb_obs::SpanRecord],
    runs: &[MatcherRun],
    wall: f64,
    threads: usize,
) {
    layers.add_secs("roster.run", wall);
    let mut busy = 0.0;
    for s in spans.iter().filter(|s| s.name == "roster.matcher") {
        let secs = s.dur_us as f64 / 1e6;
        busy += secs;
        let family = runs
            .iter()
            .find(|r| Some(r.name.as_str()) == s.detail.as_deref())
            .map(|r| r.family);
        layers.count(
            match family {
                Some(MatcherFamily::Linear) => "roster.linear_s",
                Some(MatcherFamily::NonLinearMl) => "roster.nonlinear_ml_s",
                _ => "roster.deep_s",
            },
            secs,
        );
    }
    layers.count("roster.busy_s", busy);
    layers.count("roster.capacity_s", wall * threads as f64);
    layers.count("roster.configs", runs.len() as f64);
    layers.count(
        "roster.unavailable",
        runs.iter().filter(|r| r.f1.is_none()).count() as f64,
    );
}

//! Rule-based retargeting: the closed-form fast tier vs numeric
//! resynthesis.
//!
//! Two experiments:
//!
//! 1. **Per-serve fast tier.** CX↔CZ↔ECR-family known-gate traffic
//!    (cycled CNOT / CZ / ECR) served per-target by the rule tier
//!    (`RuleSet::serve`) vs the target basis's numeric synthesis path,
//!    for every registered target set. Every rule serve is verified at
//!    `1e-12` before timing, and each tier serves the traffic once untimed
//!    to warm up. Asserted: every target set speeds up ≥4x.
//!
//! 2. **Mixed service batch.** A 1000-target batch (60% family known
//!    gates + SWAP/iSWAP, 20% locally-dressed family variants, 20% Haar
//!    SU(4)) through `CompileService` with the rule tier armed vs
//!    disarmed (`.rules(None)`). Asserted: the rule-armed batch serves
//!    every rule-covered target through `Tier::Rule` (no cold synthesis,
//!    no numeric miss for them), bits match targets at the service's
//!    verification tolerance, and dedup + rule tier together leave only
//!    the Haar classes cold.
//!
//! Run `cargo bench -p ashn-bench --bench retarget` (add `--test` for
//! the single-iteration CI smoke mode; `--targets N` scales the batch).

use ashn_bench::{bench_args, write_baseline};
use ashn_gates::kak::weyl_coordinates;
use ashn_gates::two::{cnot, cz, ecr, iswap, swap};
use ashn_ir::Basis;
use ashn_math::randmat::haar_unitary;
use ashn_math::CMat;
use ashn_service::{CompileService, ShardedCache};
use ashn_synth::basis::{CnotBasis, CzBasis, EcrBasis, SqiswBasis};
use ashn_synth::retarget::standard_rules;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// CX-family traffic: the three Weyl-equivalent entanglers, cycled.
fn family_traffic() -> Vec<CMat> {
    vec![cnot(), cz(), ecr()]
}

/// Times `iters` serves of the cycled traffic through `f`, returning
/// µs/serve. The accumulator keeps the optimizer honest.
fn time_serves(iters: usize, traffic: &[CMat], mut f: impl FnMut(&CMat) -> usize) -> f64 {
    let mut acc = 0usize;
    let t0 = Instant::now();
    for i in 0..iters {
        acc += f(&traffic[i % traffic.len()]);
    }
    let us = t0.elapsed().as_secs_f64() * 1e6 / iters as f64;
    assert!(acc > 0, "served circuits must be non-empty");
    us
}

/// Experiment 1 row: one registered target set.
fn fast_tier_row(basis: &dyn Basis, iters_numeric: usize, iters_rule: usize) -> (f64, f64) {
    let traffic = family_traffic();
    let coords: Vec<_> = traffic
        .iter()
        .map(|u| weyl_coordinates(u).canonicalize())
        .collect();
    let rules = standard_rules();

    // Exactness first: every rule serve realizes its gate at 1e-12.
    for (u, &c) in traffic.iter().zip(&coords) {
        let circuit = rules
            .serve(basis, u, c)
            .unwrap_or_else(|| panic!("{} must rule-cover the CX family", basis.name()));
        let err = circuit.error(u);
        assert!(err < 1e-12, "{}: rule serve error {err:.2e}", basis.name());
    }

    let numeric = |u: &CMat| {
        basis
            .synthesize(u)
            .expect("numeric synthesis")
            .instructions
            .len()
    };
    // Coordinates are computed once per target during canonicalization —
    // before either tier is consulted — so the tier comparison excludes
    // them, exactly as `CachedBasis`/the service invoke `RuleSet::serve`.
    let mut i = 0usize;
    let mut rule = |u: &CMat| {
        let c = coords[i % coords.len()];
        i += 1;
        rules
            .serve(basis, u, c)
            .expect("rule serve")
            .instructions
            .len()
    };
    // One untimed pass per tier, so neither timing absorbs the warm-up.
    time_serves(traffic.len(), &traffic, numeric);
    time_serves(traffic.len(), &traffic, &mut rule);
    let numeric_us = time_serves(iters_numeric, &traffic, numeric);
    let rule_us = time_serves(iters_rule, &traffic, rule);
    (numeric_us, rule_us)
}

/// Mixed service corpus: `n` targets — 60% family known gates (CNOT, CZ,
/// ECR, SWAP, iSWAP cycled), 20% locally-dressed family variants, 20%
/// Haar SU(4) (never rule-covered).
fn mixed_corpus(n: usize, seed: u64) -> (Vec<CMat>, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let known = [cnot(), cz(), ecr(), swap(), iswap()];
    let mut targets = Vec::with_capacity(n);
    let family = n * 6 / 10;
    let dressed = n * 2 / 10;
    for i in 0..family {
        targets.push(known[i % known.len()].clone());
    }
    for i in 0..dressed {
        let base = &known[i % known.len()];
        let pre = haar_unitary(2, &mut rng).kron(&haar_unitary(2, &mut rng));
        let post = haar_unitary(2, &mut rng).kron(&haar_unitary(2, &mut rng));
        targets.push(&(&post * base) * &pre);
    }
    let haar = n - targets.len();
    for _ in 0..haar {
        targets.push(haar_unitary(4, &mut rng));
    }
    (targets, haar)
}

fn main() {
    let (test_mode, args) = bench_args();
    let n_targets: usize = args.get("targets", if test_mode { 100 } else { 1000 });
    let seed: u64 = args.get("seed", 42);
    let (iters_numeric, iters_rule) = if test_mode { (60, 600) } else { (600, 30_000) };

    // ---- Experiment 1: per-serve fast tier, every registered target set.
    println!("CX<->CZ<->ECR-family traffic, per-serve (rule tier vs numeric synthesis):\n");
    let bases: [&dyn Basis; 4] = [&CnotBasis, &CzBasis, &EcrBasis, &SqiswBasis];
    let mut rows: Vec<(String, f64, f64, f64)> = Vec::new();
    for basis in bases {
        let (numeric_us, rule_us) = fast_tier_row(basis, iters_numeric, iters_rule);
        let speedup = numeric_us / rule_us;
        println!(
            "  -> {:<6} numeric {:>9.2} us/serve   rule {:>7.3} us/serve   speedup {:>7.1}x",
            basis.name(),
            numeric_us,
            rule_us,
            speedup
        );
        rows.push((basis.name(), numeric_us, rule_us, speedup));
    }
    for (name, _, _, speedup) in &rows {
        assert!(
            *speedup >= 4.0,
            "{name}: rule tier must beat numeric synthesis >=4x, got {speedup:.1}x"
        );
    }

    // ---- Experiment 2: mixed 1000-target service batch, rules on vs off.
    let (targets, haar_classes) = mixed_corpus(n_targets, seed);
    println!(
        "\nmixed service batch: {} targets ({} Haar classes; rest CX-family + SWAP/iSWAP, \
         exact + dressed):\n",
        targets.len(),
        haar_classes
    );

    let armed = CompileService::with_cache(CzBasis, ShardedCache::new());
    let on = armed.synthesize_batch(&targets);
    let disarmed = CompileService::with_cache(CzBasis, ShardedCache::new()).rules(None);
    let off = disarmed.synthesize_batch(&targets);

    for (label, batch) in [("rules on ", &on), ("rules off", &off)] {
        println!(
            "  {label}: wall {:>8.1} ms   unique {:>3} classes (rule {:>2}, cold {:>3})   \
             rule_hits {:>4}   cold_serves {:>4}   hit_rate {:.2}",
            batch.stats.wall_ms,
            batch.stats.unique_classes,
            batch.stats.rule_classes,
            batch.stats.cold_classes,
            batch.stats.rule_hits,
            batch.stats.cold_serves,
            batch.stats.hit_rate(),
        );
    }

    // Tier::Rule must be visible on the mixed batch, rule-covered classes
    // must never synthesize cold, and disarming must restore the numeric
    // path exactly.
    let covered = targets.len() - haar_classes;
    assert_eq!(
        on.stats.rule_hits as usize, covered,
        "every family target rule-served"
    );
    assert_eq!(
        on.stats.cold_classes, haar_classes,
        "only Haar classes go cold"
    );
    assert_eq!(
        off.stats.rule_hits, 0,
        "disarmed service must not rule-serve"
    );
    assert!(
        off.stats.cold_classes > haar_classes,
        "family classes synthesize when disarmed"
    );
    for (batch, label) in [(&on, "armed"), (&off, "disarmed")] {
        for (circuit, target) in batch.circuits.iter().zip(&targets) {
            let err = circuit.as_ref().expect("synthesis").error(target);
            assert!(err < 1e-9, "{label}: served circuit error {err:.2e}");
        }
    }

    let json = format!(
        "{{\n  \"bench\": \"retarget\",\n  \"config\": {{ \"traffic\": \"CNOT/CZ/ECR cycled\", \
         \"batch_targets\": {}, \"seed\": {seed}, \"smoke\": {test_mode} }},\n  \
         \"fast_tier_per_serve\": [\n{}\n  ],\n  \"mixed_service_batch\": {{\n    \
         \"basis\": \"CZ\", \"targets\": {}, \"haar_classes\": {},\n    \
         \"rules_on\": {{ \"wall_ms\": {:.2}, \"rule_hits\": {}, \"rule_classes\": {}, \
         \"cold_classes\": {}, \"hit_rate\": {:.3} }},\n    \
         \"rules_off\": {{ \"wall_ms\": {:.2}, \"rule_hits\": {}, \"cold_classes\": {}, \
         \"hit_rate\": {:.3} }}\n  }}\n}}\n",
        targets.len(),
        rows.iter()
            .map(|(name, numeric, rule, speedup)| format!(
                "    {{ \"target_set\": \"{name}\", \"numeric_us_per_serve\": {numeric:.2}, \
                 \"rule_us_per_serve\": {rule:.3}, \"speedup\": {speedup:.1} }}"
            ))
            .collect::<Vec<_>>()
            .join(",\n"),
        targets.len(),
        haar_classes,
        on.stats.wall_ms,
        on.stats.rule_hits,
        on.stats.rule_classes,
        on.stats.cold_classes,
        on.stats.hit_rate(),
        off.stats.wall_ms,
        off.stats.rule_hits,
        off.stats.cold_classes,
        off.stats.hit_rate(),
    );
    write_baseline("retarget", &json, test_mode);
}

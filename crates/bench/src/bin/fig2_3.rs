//! Regenerates paper Figures 2–3: the partition of the Weyl chamber into
//! AshN sub-scheme regions, for several `ZZ` ratios and cutoffs.
//!
//! The paper draws 3-D chamber renderings; we print the Haar-weighted volume
//! fraction of each region plus an ASCII slice through the `z = 0` plane.

use ashn_bench::{f4, row, Args};
use ashn_core::regions::{classify, region_census};
use ashn_core::scheme::SubScheme;
use ashn_gates::weyl::WeylPoint;
use std::f64::consts::FRAC_PI_4;

fn slice_map(h: f64, r: f64, n: usize) {
    println!("  z = 0 slice (x →, y ↑); N=ND, X=ND-EXT, +=EA+, -=EA-, m=mirror branch:");
    for j in (0..n).rev() {
        let y = FRAC_PI_4 * (j as f64 + 0.5) / n as f64;
        let mut line = String::from("    ");
        for i in 0..n {
            let x = FRAC_PI_4 * (i as f64 + 0.5) / n as f64;
            let p = WeylPoint::new(x, y, 0.0);
            if !p.in_chamber(0.0) || !p.canonicalize().approx_eq(p, 1e-9) {
                line.push(' ');
                continue;
            }
            let reg = classify(h, r, p);
            let mut ch = match reg.scheme {
                SubScheme::Nd => 'N',
                SubScheme::NdExt => 'X',
                SubScheme::EaPlus => '+',
                SubScheme::EaMinus => '-',
                SubScheme::Identity => '.',
            };
            if reg.mirrored {
                ch = 'm';
            }
            line.push(ch);
        }
        println!("{line}");
    }
}

fn main() {
    let args = Args::parse(&["resolution", "slice"]);
    let res: usize = args.get("resolution", 28);
    let slice_res: usize = args.get("slice", 24);

    println!("== Figure 2: h = 0, cutoff r ∈ {{0, 1.1}} ==");
    for r in [0.0, 1.1] {
        println!("\n-- h̃ = 0, r = {r} --");
        row(&["region".into(), "Haar fraction".into()]);
        for (label, frac) in region_census(0.0, r, res) {
            row(&[label, f4(frac)]);
        }
        slice_map(0.0, r, slice_res);
    }

    println!("\n== Figure 3: h̃ ∈ {{0.2, 0.4, 0.8}}, r = 0 ==");
    for h in [0.2, 0.4, 0.8] {
        println!("\n-- h̃ = {h} --");
        row(&["region".into(), "Haar fraction".into()]);
        let census = region_census(h, 0.0, res);
        for (label, frac) in &census {
            row(&[label.clone(), f4(*frac)]);
        }
        println!(
            "  distinct regions: {} (paper: seven regions for h̃ ≠ 0, incl. mirror copies)",
            census.len()
        );
        slice_map(h, 0.0, slice_res);
    }
}

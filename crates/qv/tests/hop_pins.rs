//! Bit-level pins of the exact density-matrix heavy-output probability: one
//! seeded `d = 4` QV model per gate set, compiled and scored at paper noise
//! (`e_CZ = 0.7%`). The values are the `f64` bits the density simulator
//! produced before it moved onto the statevector kernels; any change to
//! the arithmetic order of `DensityMatrix::{apply, depolarize}` shows up
//! here as a moved bit. The SQiSW value was re-pinned when its interleavers
//! became closed form, and the AshN value when the EA solve began to
//! polish on Weyl coordinates; each changed that set's compiled circuits.

use ashn_qv::{compile_model, sample_model_circuit, score_compiled, GateSet, QvNoise};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn hop_bits(gate_set: GateSet) -> u64 {
    let model = sample_model_circuit(4, &mut StdRng::seed_from_u64(4_017));
    let compiled = compile_model(&model, gate_set).expect("compiles");
    score_compiled(&compiled, &QvNoise::with_e_cz(0.007))
        .hop
        .to_bits()
}

#[test]
fn cz_hop_bits_are_pinned() {
    assert_eq!(hop_bits(GateSet::Cz), 0x3fe8_8e7a_2be7_3270); // 0.76739224…
}

#[test]
fn sqisw_hop_bits_are_pinned() {
    assert_eq!(hop_bits(GateSet::Sqisw), 0x3fe9_e992_9baf_1e41); // 0.80976229…
}

#[test]
fn ashn_hop_bits_are_pinned() {
    assert_eq!(
        hop_bits(GateSet::Ashn { cutoff: 1.1 }),
        0x3fea_19ba_2231_a155 // 0.81564051…
    );
}

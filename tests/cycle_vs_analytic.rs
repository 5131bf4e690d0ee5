//! Cross-validation between the cycle-level tile simulator, the functional
//! intersection engine and the closed-form Eq 3–5 model (DESIGN.md
//! invariant 7).

use ristretto::atomstream::atom::AtomBits;
use ristretto::atomstream::compress::{compress_activations, compress_weights};
use ristretto::atomstream::conv_csc::{conv2d_csc, CscConfig};
use ristretto::atomstream::cycles::ideal_steps;
use ristretto::atomstream::flatten::{flatten_kernel_channel, flatten_tile};
use ristretto::qnn::layers::ConvLayer;
use ristretto::qnn::quant::BitWidth;
use ristretto::qnn::workload::{ActivationProfile, SyntheticLayer, WeightProfile, WorkloadGen};
use ristretto::ristretto_sim::config::RistrettoConfig;
use ristretto::ristretto_sim::tile::TileSim;

fn small_layer(seed: u64) -> SyntheticLayer {
    let layer = ConvLayer::conv("xval", 4, 8, 3, 1, 1, 8, 8).unwrap();
    let mut gen = WorkloadGen::new(seed);
    SyntheticLayer::try_generate(
        &layer,
        &WeightProfile::benchmark(BitWidth::W4),
        &ActivationProfile::new(BitWidth::W8),
        &mut gen,
    )
    .unwrap()
}

#[test]
fn tile_sim_matches_closed_form_per_channel() {
    let s = small_layer(11);
    let cfg = RistrettoConfig {
        multipliers: 8,
        ..RistrettoConfig::paper_default()
    };
    let sim = TileSim::try_new(&cfg).unwrap();
    for ci in 0..4 {
        let wf = flatten_kernel_channel(&s.kernels, ci).unwrap();
        let ws = compress_weights(&wf, 4, AtomBits::B2).unwrap();
        let af = flatten_tile(&s.fmap, ci, 0, 0, 8, 8);
        let as_ = compress_activations(&af, 8, AtomBits::B2).unwrap();
        if ws.is_empty() || as_.is_empty() {
            continue;
        }
        let report = sim.run(&ws, &as_);
        let ideal = ideal_steps(as_.len() as u64, ws.len() as u64, 8);
        // Stall-free cycles equal Eq 3 within the FIFO residue.
        assert!(
            report.ideal_cycles() >= ideal && report.ideal_cycles() <= ideal + 8,
            "channel {ci}: {} vs ideal {ideal}",
            report.ideal_cycles()
        );
        assert_eq!(report.atom_mults, as_.len() as u64 * ws.len() as u64);
    }
}

#[test]
fn functional_csc_steps_match_sum_of_tile_ideals() {
    let s = small_layer(23);
    let n = 8usize;
    let cfg = CscConfig {
        multipliers: n,
        tile_h: 4,
        tile_w: 4,
        ..CscConfig::default()
    };
    let csc = conv2d_csc(
        &s.fmap,
        &s.kernels,
        s.layer.geometry(),
        BitWidth::W8,
        BitWidth::W4,
        &cfg,
    )
    .unwrap();

    // Recompute the expected total: per (channel, tile) intersection,
    // ideal_steps(t, S, N).
    let mut expected = 0u64;
    for ci in 0..4 {
        let wf = flatten_kernel_channel(&s.kernels, ci).unwrap();
        let ws = compress_weights(&wf, 4, AtomBits::B2).unwrap();
        if ws.is_empty() {
            continue;
        }
        for y0 in (0..8).step_by(4) {
            for x0 in (0..8).step_by(4) {
                let af = flatten_tile(&s.fmap, ci, y0, x0, 4, 4);
                let as_ = compress_activations(&af, 8, AtomBits::B2).unwrap();
                expected += ideal_steps(as_.len() as u64, ws.len() as u64, n as u64);
            }
        }
    }
    assert_eq!(csc.stats.intersect.steps, expected);
}

#[test]
fn analytic_model_on_measured_stats_tracks_cycle_level_core() {
    use ristretto::qnn::workload::LayerStats;
    use ristretto::ristretto_sim::analytic::RistrettoSim;
    use ristretto::ristretto_sim::core::CoreSim;

    // Same materialized layer through both paths: the analytic Eq 3-5
    // model fed *exact* measured statistics, and the cycle-level
    // multi-tile core. Agreement within the dropped ε / per-tile-drain /
    // stall terms validates the whole modelling chain.
    let layer = ConvLayer::conv("xval2", 8, 8, 3, 1, 1, 8, 8).unwrap();
    let mut gen = WorkloadGen::new(91);
    let s = SyntheticLayer::try_generate(
        &layer,
        &WeightProfile::benchmark(BitWidth::W4),
        &ActivationProfile::new(BitWidth::W8),
        &mut gen,
    )
    .unwrap();
    let cfg = RistrettoConfig {
        tiles: 4,
        multipliers: 8,
        tile_h: 8,
        tile_w: 8,
        ..RistrettoConfig::paper_default()
    };
    let stats = LayerStats::measure(&layer, &s.fmap, &s.kernels, BitWidth::W8, BitWidth::W4, 2);
    let analytic = RistrettoSim::try_new(cfg)
        .unwrap()
        .simulate_layer(&stats, false);
    let core = CoreSim::try_new(cfg)
        .unwrap()
        .run_layer(&s.fmap, &s.kernels, 8, 4)
        .unwrap();
    let (a, c) = (analytic.cycles as f64, core.makespan as f64);
    let ratio = c / a;
    assert!(
        (0.8..1.4).contains(&ratio),
        "core {c} vs analytic {a} (ratio {ratio:.2})"
    );
}

#[test]
fn analytic_layer_cycles_bracket_tile_sim() {
    // The analytic model's per-channel metric T·⌈S/N⌉ should agree with
    // the cycle-level tile run on a whole (untiled) channel to within the
    // epsilon + FIFO residue terms.
    let s = small_layer(37);
    let n = 16u64;
    let cfg = RistrettoConfig {
        multipliers: 16,
        ..RistrettoConfig::paper_default()
    };
    let sim = TileSim::try_new(&cfg).unwrap();
    for ci in 0..4 {
        let wf = flatten_kernel_channel(&s.kernels, ci).unwrap();
        let ws = compress_weights(&wf, 4, AtomBits::B2).unwrap();
        let af = flatten_tile(&s.fmap, ci, 0, 0, 8, 8);
        let as_ = compress_activations(&af, 8, AtomBits::B2).unwrap();
        if ws.is_empty() || as_.is_empty() {
            continue;
        }
        let analytic =
            ristretto::atomstream::cycles::tile_cycles(as_.len() as u64, ws.len() as u64, n);
        let report = sim.run(&ws, &as_);
        // Eq 5 ignores crossbar backpressure, as the paper does; compare
        // the stall-free cycles and bound the stalls separately.
        let stall_free = report.ideal_cycles();
        let hi = analytic + n + 16; // epsilon bound + FIFO residue
        assert!(
            stall_free >= analytic && stall_free <= hi,
            "channel {ci}: stall-free {stall_free}, analytic {analytic}"
        );
        assert!(
            report.stall_cycles * 3 <= report.cycles,
            "channel {ci}: stalls {} of {} cycles",
            report.stall_cycles,
            report.cycles
        );
    }
}

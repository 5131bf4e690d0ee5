//! Cross-accelerator integration tests: the qualitative orderings the
//! paper's evaluation rests on must hold end-to-end on whole synthetic
//! networks.

use ristretto::baselines::laconic::LaconicLatency;
use ristretto::baselines::prelude::*;
use ristretto::qnn::models::NetworkId;
use ristretto::qnn::quant::BitWidth;
use ristretto::qnn::workload::{NetworkStats, PrecisionPolicy};
use ristretto::ristretto_sim::analytic::RistrettoSim;
use ristretto::ristretto_sim::config::RistrettoConfig;

fn stats(bits: BitWidth) -> NetworkStats {
    NetworkStats::generate(NetworkId::AlexNet, PrecisionPolicy::Uniform(bits), 2, 99)
}

#[test]
fn everything_is_deterministic() {
    let a = stats(BitWidth::W4);
    let b = stats(BitWidth::W4);
    assert_eq!(a, b);
    let sim = RistrettoSim::try_new(RistrettoConfig::paper_default()).unwrap();
    assert_eq!(sim.simulate_network(&a), sim.simulate_network(&b));
    let sp = SparTen::paper_default();
    assert_eq!(sp.simulate_network(&a), sp.simulate_network(&b));
}

#[test]
fn ristretto_outpaces_every_baseline_in_raw_cycles() {
    // With equal 2b-multiplier budget (1024) Ristretto's sparse dataflow
    // should be fastest in raw cycles on a pruned 4-bit model.
    let net = stats(BitWidth::W4);
    let r = RistrettoSim::try_new(RistrettoConfig::paper_default())
        .unwrap()
        .simulate_network(&net);
    let bf = BitFusion::paper_default().simulate_network(&net);
    let lac = Laconic::paper_default().simulate_network(&net);
    let sp = SparTen::paper_default().simulate_network(&net);
    assert!(r.total_cycles() < bf.total_cycles(), "vs Bit Fusion");
    assert!(r.total_cycles() < lac.total_cycles(), "vs Laconic");
    assert!(r.total_cycles() < sp.total_cycles(), "vs SparTen");
}

#[test]
fn ristretto_ns_tracks_bitfusion() {
    // §V-B: with sparsity disabled, Ristretto-ns performs close to Bit
    // Fusion (same effective throughput per multiplier).
    for bits in [BitWidth::W8, BitWidth::W4, BitWidth::W2] {
        let net = stats(bits);
        let rns = RistrettoSim::try_new(RistrettoConfig::paper_default().non_sparse())
            .unwrap()
            .simulate_network(&net);
        let bf = BitFusion::paper_default().simulate_network(&net);
        let ratio = rns.total_cycles() as f64 / bf.total_cycles() as f64;
        assert!(
            (0.4..2.5).contains(&ratio),
            "{bits}: ns/BF cycle ratio {ratio}"
        );
    }
}

#[test]
fn laconic_latency_mode_ordering_holds_network_wide() {
    let net = stats(BitWidth::W8);
    let lac = Laconic::paper_default();
    let mut totals = [0u64; 3];
    for (i, mode) in [
        LaconicLatency::Theoretical,
        LaconicLatency::AveragePe,
        LaconicLatency::Tile,
    ]
    .into_iter()
    .enumerate()
    {
        totals[i] = net
            .layers
            .iter()
            .map(|l| lac.simulate_layer_mode(l, mode).cycles)
            .sum::<u64>();
    }
    assert!(
        totals[0] <= totals[1] && totals[1] <= totals[2],
        "{totals:?}"
    );
}

#[test]
fn compressed_traffic_beats_dense_traffic() {
    // Ristretto's COO-2D compression must move fewer DRAM bits than the
    // dense baselines on a sparse model.
    let net = stats(BitWidth::W4);
    let r = RistrettoSim::try_new(RistrettoConfig::paper_default())
        .unwrap()
        .simulate_network(&net);
    let bf = BitFusion::paper_default().simulate_network(&net);
    let r_bits: u64 = r.layers.iter().map(|l| l.dram_bits).sum();
    let b_bits: u64 = bf.layers.iter().map(|l| l.dram_bits).sum();
    assert!(r_bits < b_bits, "Ristretto {r_bits} vs Bit Fusion {b_bits}");
}

#[test]
fn precision_scaling_directions_match_table_v() {
    // Table V: Bit Fusion and Laconic scale with precision; SparTen does
    // not (fixed 8b datapath); Ristretto scales and exploits sparsity.
    let c8 = stats(BitWidth::W8);
    let c2 = stats(BitWidth::W2);
    let bf = BitFusion::paper_default();
    let sp = SparTen::paper_default();
    let r = RistrettoSim::try_new(RistrettoConfig::paper_default()).unwrap();

    let bf_gain = bf.simulate_network(&c8).total_cycles() as f64
        / bf.simulate_network(&c2).total_cycles() as f64;
    assert!(
        bf_gain > 4.0,
        "Bit Fusion 8b->2b gain {bf_gain} (ideal 16x)"
    );

    let r_gain = r.simulate_network(&c8).total_cycles() as f64
        / r.simulate_network(&c2).total_cycles() as f64;
    assert!(r_gain > 3.0, "Ristretto 8b->2b gain {r_gain}");

    // SparTen gains only from the sparsity difference, far less than the
    // precision-scalable machines.
    let sp_gain = sp.simulate_network(&c8).total_cycles() as f64
        / sp.simulate_network(&c2).total_cycles() as f64;
    assert!(
        sp_gain < bf_gain,
        "SparTen gain {sp_gain} vs Bit Fusion {bf_gain}"
    );
}

#[test]
fn reports_are_internally_consistent() {
    let net = stats(BitWidth::W4);
    for report in [
        BitFusion::paper_default().simulate_network(&net),
        Laconic::paper_default().simulate_network(&net),
        SparTen::paper_default().simulate_network(&net),
        SparTenMp::paper_default().simulate_network(&net),
    ] {
        assert_eq!(
            report.layers.len(),
            net.layers.len(),
            "{}",
            report.accelerator
        );
        for l in &report.layers {
            assert!(
                l.cycles > 0,
                "{}: {} has zero cycles",
                report.accelerator,
                l.name
            );
            assert!(l.energy.total_pj() > 0.0);
        }
    }
}

//! End-to-end functional inference of the six miniature benchmark networks
//! through the condensed streaming computation, checked bit-exactly
//! against the dense reference at every precision policy.

use ristretto::qnn::mini::MiniNetwork;
use ristretto::qnn::models::NetworkId;
use ristretto::qnn::quant::BitWidth;
use ristretto::qnn::tensor::Tensor3;
use ristretto::qnn::workload::{ActivationProfile, WeightProfile, WorkloadGen};
use ristretto::ristretto_sim::config::RistrettoConfig;
use ristretto::ristretto_sim::engine::{compile, NetworkModel, Session, SessionRun};

fn build_model(
    mini: &MiniNetwork,
    w_bits: BitWidth,
    a_bits: BitWidth,
    gen: &mut WorkloadGen,
) -> NetworkModel {
    let mut model = NetworkModel::from_mini(mini, gen, &WeightProfile::benchmark(w_bits))
        .expect("valid kernel shapes");
    for layer in &mut model.layers {
        layer.a_bits = a_bits;
        layer.out_bits = a_bits.bits();
    }
    model
}

fn run_csc(model: &NetworkModel, input: &Tensor3) -> SessionRun {
    let cfg = RistrettoConfig {
        tile_h: 4,
        tile_w: 4,
        ..RistrettoConfig::paper_default()
    };
    let compiled = compile(model, &cfg).expect("compile");
    Session::new(compiled).run(input).expect("CSC inference")
}

#[test]
fn all_six_minis_run_csc_inference_exactly() {
    for id in NetworkId::ALL {
        let mini = MiniNetwork::try_new(id).unwrap();
        mini.validate_chaining().unwrap();
        let mut gen = WorkloadGen::new(7000 + id as u64);
        let (c, h, w) = mini.input;
        let input = gen
            .activations(c, h, w, &ActivationProfile::new(BitWidth::W8))
            .unwrap();
        let model = build_model(&mini, BitWidth::W4, BitWidth::W8, &mut gen);
        let run = run_csc(&model, &input);
        let dense_out = model.run_dense_reference(&input).expect("dense inference");
        assert_eq!(run.output, dense_out, "{id}");
        assert_eq!(run.traces.len(), mini.stages.len(), "{id}");
        // The classifier output has 10 channels at 1x1... or small spatial.
        assert_eq!(run.output.channels(), 10, "{id}");
    }
}

#[test]
fn minis_run_at_low_precision_too() {
    for (w_bits, a_bits) in [(BitWidth::W2, BitWidth::W2), (BitWidth::W2, BitWidth::W4)] {
        let mini = MiniNetwork::try_new(NetworkId::ResNet18).unwrap();
        let mut gen = WorkloadGen::new(8100 + w_bits.bits() as u64);
        let (c, h, w) = mini.input;
        let input = gen
            .activations(c, h, w, &ActivationProfile::new(a_bits))
            .unwrap();
        let model = build_model(&mini, w_bits, a_bits, &mut gen);
        let run = run_csc(&model, &input);
        let dense_out = model.run_dense_reference(&input).unwrap();
        assert_eq!(run.output, dense_out, "{w_bits}/{a_bits}");
    }
}

#[test]
fn mini_traces_feed_balancer_statistics() {
    use ristretto::ristretto_sim::balance::{balance, BalanceStrategy, ChannelWorkload};
    let mini = MiniNetwork::try_new(NetworkId::Vgg16).unwrap();
    let mut gen = WorkloadGen::new(8200);
    let (c, h, w) = mini.input;
    let input = gen
        .activations(c, h, w, &ActivationProfile::new(BitWidth::W8))
        .unwrap();
    let model = build_model(&mini, BitWidth::W4, BitWidth::W8, &mut gen);
    let traces = run_csc(&model, &input).traces;
    // Use a mid-layer's PPU statistics as the next layer's balancer input,
    // exactly the §IV-E flow.
    let trace = &traces[2];
    let workloads: Vec<ChannelWorkload> = trace
        .out_atoms_per_channel
        .iter()
        .enumerate()
        .map(|(channel, &atoms)| ChannelWorkload {
            channel,
            act_atoms: atoms,
            weight_atoms: 64,
        })
        .collect();
    let a = balance(&workloads, 4, 16, BalanceStrategy::WeightActivation);
    assert_eq!(a.groups.len(), 4);
    assert!(a.utilization() > 0.8);
}

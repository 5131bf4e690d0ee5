//! Run miniature versions of all six benchmark networks end-to-end through
//! the compile-once/run-many engine — each network is compiled to its
//! static weight artifacts once, then a session performs the functional
//! inference — and report the effectual work each one did.
//!
//! ```text
//! cargo run --release --example mini_networks
//! ```

use ristretto::qnn::mini::MiniNetwork;
use ristretto::qnn::models::NetworkId;
use ristretto::qnn::quant::BitWidth;
use ristretto::qnn::workload::{ActivationProfile, WeightProfile, WorkloadGen};
use ristretto::ristretto_sim::config::RistrettoConfig;
use ristretto::ristretto_sim::engine::{compile, NetworkModel, Session};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = RistrettoConfig::paper_default();
    println!(
        "{:<14} {:>7} {:>12} {:>12} {:>12} {:>10}",
        "network", "stages", "atom mults", "steps", "dense atoms", "saved"
    );
    for id in NetworkId::ALL {
        let mini = MiniNetwork::try_new(id)?;
        let mut gen = WorkloadGen::new(42 + id as u64);
        let (c, h, w) = mini.input;
        let input = gen.activations(c, h, w, &ActivationProfile::new(BitWidth::W8))?;
        let wp = WeightProfile::benchmark(BitWidth::W4);
        let model = NetworkModel::from_mini(&mini, &mut gen, &wp)?;

        // All static weight work happens here, once per network …
        let compiled = compile(&model, &cfg)?;
        // … and the session only pays the activation-side cost per image.
        let session = Session::new(compiled);
        let run = session.run(&input)?;

        assert_eq!(
            run.output,
            model.run_dense_reference(&input)?,
            "CSC must match dense"
        );

        let mults: u64 = run
            .traces
            .iter()
            .map(|t| t.stats.intersect.atom_mults)
            .sum();
        let steps: u64 = run.traces.iter().map(|t| t.stats.intersect.steps).sum();
        // Dense equivalent: every (value, value) pair at full atom counts.
        let dense: u64 = mini
            .stages
            .iter()
            .map(|s| {
                let l = &s.layer;
                (l.in_channels * l.in_h * l.in_w) as u64
                    * 4
                    * (l.out_channels * l.kernel * l.kernel) as u64
                    * 2
            })
            .sum();
        println!(
            "{:<14} {:>7} {:>12} {:>12} {:>12} {:>9.1}x",
            id.name(),
            run.traces.len(),
            mults,
            steps,
            dense,
            dense as f64 / mults.max(1) as f64,
        );
    }
    println!("\nAll six outputs verified bit-exact against the dense reference.");
    Ok(())
}

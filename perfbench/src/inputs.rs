//! Inputs shared by the engine-side workloads: the six mini networks, a
//! seed-drawn input pool per network, and the dense-reference outputs
//! every engine result is checked against.
//!
//! The weights are drawn once, from the repository seed (`bench::SEED`),
//! not from the workload seed: a weight draw sets how dense every later
//! layer's activations are, and per-seed draws moved the cost of an image
//! by up to a quarter between seeds, more than any bound could absorb. The
//! workload seed drives the input pools (and the serve arrival trace).

use qnn::conv::conv2d;
use qnn::mini::MiniNetwork;
use qnn::models::NetworkId;
use qnn::pool::pool2d;
use qnn::quant::BitWidth;
use qnn::tensor::Tensor3;
use qnn::workload::{ActivationProfile, WeightProfile, WorkloadGen};
use ristretto_sim::config::RistrettoConfig;
use ristretto_sim::engine::{compile, CompiledNetwork, NetworkModel, Session};
use ristretto_sim::ppu::PostProcessor;
use std::path::PathBuf;
use std::sync::Arc;

/// Networks: the six mini networks.
pub const MODELS: usize = NetworkId::ALL.len();

/// Inputs per network. The pool cycles the ReLU shift over
/// [`RELU_SHIFTS`], so tile occupancy varies from input to input.
pub const POOL: usize = 12;

/// Pre-activation mean shifts in σ: larger shifts leave sparser inputs.
pub const RELU_SHIFTS: [f64; 3] = [0.0, 0.5, 1.0];

/// splitmix64: the seed mixer behind every draw the benchmark makes.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A sub-seed for draw `(a, b)` under `seed`.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    splitmix64(splitmix64(splitmix64(seed) ^ a) ^ b)
}

/// One network with its input pool.
pub struct Net {
    pub id: NetworkId,
    pub model: NetworkModel,
    pub inputs: Vec<Tensor3>,
}

/// The six mini networks with their fixed weights and inputs drawn from
/// `seed`.
///
/// # Errors
/// Geometry errors from materialization (none for the built-in networks).
pub fn networks(seed: u64) -> Result<Vec<Net>, String> {
    NetworkId::ALL
        .iter()
        .enumerate()
        .map(|(n, &id)| {
            let mini = MiniNetwork::try_new(id).map_err(|e| format!("{id}: {e}"))?;
            let mut gen = WorkloadGen::new(mix(bench::SEED, n as u64, u64::MAX));
            let model =
                NetworkModel::from_mini(&mini, &mut gen, &WeightProfile::benchmark(BitWidth::W4))
                    .map_err(|e| format!("{id} weights: {e}"))?;
            let (c, h, w) = model.input;
            let inputs = (0..POOL)
                .map(|k| {
                    let profile = ActivationProfile::new(BitWidth::W8)
                        .with_shift(RELU_SHIFTS[k % RELU_SHIFTS.len()]);
                    WorkloadGen::new(mix(seed, n as u64, k as u64))
                        .activations(c, h, w, &profile)
                        .map_err(|e| format!("{id} input {k}: {e}"))
                })
                .collect::<Result<_, _>>()?;
            Ok(Net { id, model, inputs })
        })
        .collect()
}

/// Compiles every network and opens one session per network.
///
/// # Errors
/// Propagates compile errors.
pub fn compile_all(nets: &[Net]) -> Result<(Vec<Arc<CompiledNetwork>>, Vec<Session>), String> {
    let cfg = RistrettoConfig::paper_default();
    let compiled = nets
        .iter()
        .map(|n| compile(&n.model, &cfg).map_err(|e| format!("{} compile: {e}", n.id)))
        .collect::<Result<Vec<_>, _>>()?;
    let sessions = compiled.iter().cloned().map(Session::new).collect();
    Ok((compiled, sessions))
}

/// The dense-reference chain (`conv2d` → `PostProcessor::try_process` →
/// `pool2d`) for every input of every network: `oracle[n][k]` is the
/// output the engine must produce for `nets[n].inputs[k]`.
///
/// # Errors
/// Propagates reference-path errors.
pub fn oracle(
    nets: &[Net],
    compiled: &[Arc<CompiledNetwork>],
) -> Result<Vec<Vec<Tensor3>>, String> {
    nets.iter()
        .zip(compiled)
        .map(|(net, c)| {
            let csc = c.csc_config();
            net.inputs
                .iter()
                .map(|input| {
                    let mut act = input.clone();
                    for l in &net.model.layers {
                        let acc = conv2d(&act, &l.kernels, l.geom).map_err(|e| e.to_string())?;
                        let ppu = PostProcessor {
                            requant_shift: l.requant_shift,
                            out_bits: l.out_bits,
                            atom_bits: csc.atom_bits,
                            tile_h: csc.tile_h,
                            tile_w: csc.tile_w,
                        };
                        let out = ppu
                            .try_process(&acc)
                            .map_err(|e| e.to_string())?
                            .activations;
                        act = match l.pool {
                            Some((kind, window, stride, pad)) => {
                                pool2d(&out, kind, window, stride, pad)
                                    .map_err(|e| e.to_string())?
                            }
                            None => out,
                        };
                    }
                    Ok(act)
                })
                .collect::<Result<Vec<_>, String>>()
                .map_err(|e| format!("{} dense reference: {e}", net.id))
        })
        .collect()
}

/// A scratch directory inside the build directory, removed on drop.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    /// `<build dir>/perfbench-work/<name>-<pid>`, created empty.
    ///
    /// # Errors
    /// Propagates file-system errors.
    pub fn new(name: &str) -> Result<Self, String> {
        let path = build_dir().join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(Self(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Where the benchmark may write: `$CARGO_TARGET_DIR/perfbench-work`
/// (`.bench_build` by default), relative to the checkout root.
pub fn build_dir() -> PathBuf {
    PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".to_string()))
        .join("perfbench-work")
}

//! Versioned, checksummed binary artifacts for [`CompiledNetwork`].
//!
//! A compiled network is input-independent state — sparsity-condensed
//! weight streams, per-channel weight-atom statistics, balancer groups,
//! weight-buffer footprints, and plan geometry — so it can be persisted
//! once and loaded by any number of later processes instead of being
//! recompiled per process. This module defines that on-disk form:
//!
//! ```text
//! [magic "RSTRETTO": 8 bytes][format version: u32 LE]
//! section "header"           name, input shape, full RistrettoConfig,
//!                            layer count
//! per layer i:
//!   section "layer{i}.meta"      name, conv geometry, activation width,
//!                                requant shift, output width, pooling,
//!                                weight-buffer bits, dense kernels
//!   section "layer{i}.streams"   the compiled WeightStreamSet with its
//!                                per-channel compile-time checksums
//!   section "layer{i}.stats"     per-channel weight-atom counts
//!   section "layer{i}.balancer"  static channel groups (§IV-E)
//!   section "layer{i}.plan"      per-channel (out_ch, atoms) plan run
//!                                tables
//! ```
//!
//! Every section rides the [`atomstream::wire`] framing: a name, a
//! payload length, and an FNV-1a 64 checksum over the payload — the same
//! hash the runtime stream-integrity monitor uses. [`decode`] verifies
//! each section checksum before touching its payload and then
//! cross-checks the sections against each other (stream checksums
//! re-verified, stats re-counted, balancer groups shape-checked, plan
//! geometry recomputed), so corruption is always reported as a typed
//! [`WireError`] naming the damaged section rather than surfacing later
//! as wrong arithmetic.
//!
//! ## Versioning policy
//!
//! `FORMAT_VERSION` must be bumped on **any** byte-layout change, however
//! small; decoders reject other versions with [`WireError::VersionSkew`]
//! and never attempt cross-version migration (the cache simply recompiles
//! — artifacts are a cache, not a source of truth). The checked-in golden
//! artifact test (`tests/artifact_golden.rs`) exists to catch layout
//! drift that forgets the bump.

use crate::balance::BalanceStrategy;
use crate::config::RistrettoConfig;
use crate::engine::{CompiledLayer, CompiledNetwork, NetworkModel};
use crate::fault::FaultConfig;
use atomstream::atom::AtomBits;
use atomstream::conv_csc::CscConfig;
use atomstream::kernel::plan_group_geometry;
use atomstream::wire::{self, WireError, WireReader, WireWriter};
use qnn::conv::ConvGeometry;
use qnn::pool::PoolKind;
use qnn::quant::BitWidth;
use qnn::tensor::Tensor4;

/// Leading magic bytes of every artifact.
pub const MAGIC: [u8; 8] = *b"RSTRETTO";

/// Current artifact format version; bump on any layout change.
pub const FORMAT_VERSION: u32 = 1;

fn invalid(section: &str, detail: impl Into<String>) -> WireError {
    WireError::Invalid {
        section: section.to_string(),
        detail: detail.into(),
    }
}

/// Serializes a compiled network into the versioned artifact byte format.
///
/// Encoding is deterministic: the same compiled network always produces
/// the same bytes, which is what makes the content-addressed cache and
/// the golden-artifact CI check possible.
#[must_use]
pub fn encode(net: &CompiledNetwork) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_bytes(&MAGIC);
    w.put_u32(FORMAT_VERSION);
    w.section("header", |s| {
        s.put_str(&net.name);
        s.put_u64(net.input.0 as u64);
        s.put_u64(net.input.1 as u64);
        s.put_u64(net.input.2 as u64);
        write_config(s, &net.cfg);
        s.put_u64(net.layers.len() as u64);
    });
    for (i, layer) in net.layers.iter().enumerate() {
        w.section(&format!("layer{i}.meta"), |s| write_layer_meta(s, layer));
        w.section(&format!("layer{i}.streams"), |s| {
            wire::write_weight_stream_set(s, &layer.weights);
        });
        w.section(&format!("layer{i}.stats"), |s| {
            s.put_u64(layer.weight_atoms_per_channel.len() as u64);
            for &atoms in &layer.weight_atoms_per_channel {
                s.put_u64(atoms);
            }
        });
        w.section(&format!("layer{i}.balancer"), |s| {
            s.put_u64(layer.static_groups.len() as u64);
            for group in &layer.static_groups {
                s.put_u64(group.len() as u64);
                for &channel in group {
                    s.put_u64(channel as u64);
                }
            }
        });
        w.section(&format!("layer{i}.plan"), |s| {
            let weights = &layer.weights;
            s.put_u64(weights.in_channels() as u64);
            for c in 0..weights.in_channels() {
                // The plan compiler is infallible here: the stream's
                // coordinates were validated when the layer compiled.
                let runs = plan_group_geometry(
                    weights.stream(c),
                    weights.kernel(),
                    weights.out_channels(),
                )
                .expect("compiled stream has in-kernel coordinates");
                s.put_u64(runs.len() as u64);
                for (oc, atoms) in runs {
                    s.put_u16(oc);
                    s.put_u32(atoms);
                }
            }
        });
    }
    w.into_bytes()
}

/// Deserializes and fully verifies an artifact produced by [`encode`].
///
/// Verification happens in three rings: the wire layer checks magic,
/// version, section names, and per-section FNV-1a checksums; the stream
/// layer re-verifies each channel's compile-time checksum; and this
/// function cross-checks sections against each other (stats vs. stream
/// lengths, balancer group shape, recomputed plan geometry, kernel/stream
/// dimension agreement).
///
/// # Errors
/// Any [`WireError`] variant, each naming the damaged section.
pub fn decode(bytes: &[u8]) -> Result<CompiledNetwork, WireError> {
    let mut r = WireReader::new(bytes, "artifact");
    let magic = r.get_bytes(MAGIC.len())?;
    if magic != MAGIC {
        let mut found = [0u8; 8];
        found.copy_from_slice(magic);
        return Err(WireError::BadMagic {
            found,
            expected: MAGIC,
        });
    }
    let version = r.get_u32()?;
    if version != FORMAT_VERSION {
        return Err(WireError::VersionSkew {
            found: version,
            supported: FORMAT_VERSION,
        });
    }

    let mut h = r.section("header")?;
    let name = h.get_str()?;
    let input = (h.get_usize()?, h.get_usize()?, h.get_usize()?);
    let cfg = read_config(&mut h)?;
    cfg.validate()
        .map_err(|e| invalid("header", e.to_string()))?;
    let layer_count = h.get_usize()?;
    h.finish()?;

    // Derived exactly as `engine::compile` derives it, so a decoded
    // network is field-for-field identical to a fresh compile.
    let csc = CscConfig {
        atom_bits: cfg.atom_bits,
        multipliers: cfg.multipliers,
        tile_h: cfg.tile_h,
        tile_w: cfg.tile_w,
    };

    let mut layers = Vec::with_capacity(layer_count);
    for i in 0..layer_count {
        layers.push(decode_layer(&mut r, i, &cfg)?);
    }
    r.finish()?;
    Ok(CompiledNetwork {
        name,
        input,
        cfg,
        csc,
        layers,
    })
}

fn decode_layer(
    r: &mut WireReader<'_>,
    i: usize,
    cfg: &RistrettoConfig,
) -> Result<CompiledLayer, WireError> {
    let meta_sec = format!("layer{i}.meta");
    let mut m = r.section(&meta_sec)?;
    let name = m.get_str()?;
    let stride = m.get_usize()?;
    let padding = m.get_usize()?;
    let geom = ConvGeometry::new(stride, padding).map_err(|e| invalid(&meta_sec, e.to_string()))?;
    let a_bits = BitWidth::new(m.get_u8()?).map_err(|e| invalid(&meta_sec, e.to_string()))?;
    let requant_shift = m.get_u32()?;
    let out_bits = m.get_u8()?;
    let pool = match m.get_u8()? {
        0 => None,
        tag @ (1 | 2) => {
            let kind = if tag == 1 {
                PoolKind::Max
            } else {
                PoolKind::Average
            };
            Some((kind, m.get_usize()?, m.get_usize()?, m.get_usize()?))
        }
        other => return Err(invalid(&meta_sec, format!("unknown pool tag {other}"))),
    };
    let weight_buffer_bits = if m.get_bool()? {
        Some(m.get_usize()?)
    } else {
        None
    };
    let (o, ic, kh, kw) = (
        m.get_usize()?,
        m.get_usize()?,
        m.get_usize()?,
        m.get_usize()?,
    );
    let volume = o
        .checked_mul(ic)
        .and_then(|v| v.checked_mul(kh))
        .and_then(|v| v.checked_mul(kw))
        .ok_or_else(|| invalid(&meta_sec, "kernel volume overflows"))?;
    let mut values = Vec::with_capacity(volume.min(1 << 24));
    for _ in 0..volume {
        values.push(m.get_i32()?);
    }
    let kernels =
        Tensor4::from_vec(o, ic, kh, kw, values).map_err(|e| invalid(&meta_sec, e.to_string()))?;
    m.finish()?;

    let streams_sec = format!("layer{i}.streams");
    let mut s = r.section(&streams_sec)?;
    let weights = wire::read_weight_stream_set(&mut s)?;
    s.finish()?;
    if weights.out_channels() != o
        || weights.in_channels() != ic
        || weights.kernel() != kh
        || kh != kw
    {
        return Err(invalid(
            &streams_sec,
            format!(
                "stream dims ({}, {}, k={}) disagree with kernel dims ({o}, {ic}, {kh}x{kw})",
                weights.out_channels(),
                weights.in_channels(),
                weights.kernel()
            ),
        ));
    }
    if weights.atom_bits() != cfg.atom_bits {
        return Err(invalid(
            &streams_sec,
            format!(
                "stream granularity B{} disagrees with config B{}",
                weights.atom_bits().bits(),
                cfg.atom_bits.bits()
            ),
        ));
    }

    let stats_sec = format!("layer{i}.stats");
    let mut st = r.section(&stats_sec)?;
    let stat_count = st.get_usize()?;
    if stat_count != ic {
        return Err(invalid(
            &stats_sec,
            format!("{stat_count} channel stats for {ic} input channels"),
        ));
    }
    let mut weight_atoms_per_channel = Vec::with_capacity(stat_count);
    for c in 0..stat_count {
        let atoms = st.get_u64()?;
        if atoms != weights.atoms(c) {
            return Err(invalid(
                &stats_sec,
                format!(
                    "channel {c} records {atoms} weight atoms but its stream holds {}",
                    weights.atoms(c)
                ),
            ));
        }
        weight_atoms_per_channel.push(atoms);
    }
    st.finish()?;

    let bal_sec = format!("layer{i}.balancer");
    let mut b = r.section(&bal_sec)?;
    let group_count = b.get_usize()?;
    if group_count != cfg.tiles {
        return Err(invalid(
            &bal_sec,
            format!("{group_count} groups for {} tiles", cfg.tiles),
        ));
    }
    let mut static_groups = Vec::with_capacity(group_count);
    let mut seen = vec![false; ic];
    let mut covered = 0usize;
    for _ in 0..group_count {
        let len = b.get_usize()?;
        let mut group = Vec::with_capacity(len);
        for _ in 0..len {
            let channel = b.get_usize()?;
            if channel >= ic || seen[channel] {
                return Err(invalid(
                    &bal_sec,
                    format!("channel {channel} out of range or repeated in groups"),
                ));
            }
            seen[channel] = true;
            covered += 1;
            group.push(channel);
        }
        static_groups.push(group);
    }
    if covered != ic {
        return Err(invalid(
            &bal_sec,
            format!("groups cover {covered} of {ic} channels"),
        ));
    }
    b.finish()?;

    let plan_sec = format!("layer{i}.plan");
    let mut p = r.section(&plan_sec)?;
    let chan_count = p.get_usize()?;
    if chan_count != ic {
        return Err(invalid(
            &plan_sec,
            format!("{chan_count} plan tables for {ic} input channels"),
        ));
    }
    for c in 0..chan_count {
        let run_count = p.get_usize()?;
        let mut recorded = Vec::with_capacity(run_count);
        for _ in 0..run_count {
            let oc = p.get_u16()?;
            let atoms = p.get_u32()?;
            recorded.push((oc, atoms));
        }
        let recomputed = plan_group_geometry(weights.stream(c), kh, o)
            .map_err(|e| invalid(&plan_sec, e.to_string()))?;
        if recorded != recomputed {
            return Err(invalid(
                &plan_sec,
                format!("channel {c} plan geometry disagrees with its stream"),
            ));
        }
    }
    p.finish()?;

    Ok(CompiledLayer {
        name,
        weights,
        kernels,
        geom,
        a_bits,
        requant_shift,
        out_bits,
        pool,
        weight_atoms_per_channel,
        weight_buffer_bits,
        static_groups,
    })
}

fn write_layer_meta(s: &mut WireWriter, layer: &CompiledLayer) {
    s.put_str(&layer.name);
    s.put_u64(layer.geom.stride as u64);
    s.put_u64(layer.geom.padding as u64);
    s.put_u8(layer.a_bits.bits());
    s.put_u32(layer.requant_shift);
    s.put_u8(layer.out_bits);
    match layer.pool {
        None => s.put_u8(0),
        Some((kind, window, stride, padding)) => {
            s.put_u8(match kind {
                PoolKind::Max => 1,
                PoolKind::Average => 2,
            });
            s.put_u64(window as u64);
            s.put_u64(stride as u64);
            s.put_u64(padding as u64);
        }
    }
    match layer.weight_buffer_bits {
        None => s.put_bool(false),
        Some(bits) => {
            s.put_bool(true);
            s.put_u64(bits as u64);
        }
    }
    let (o, ic, kh, kw) = layer.kernels.shape();
    s.put_u64(o as u64);
    s.put_u64(ic as u64);
    s.put_u64(kh as u64);
    s.put_u64(kw as u64);
    for &v in layer.kernels.as_slice() {
        s.put_i32(v);
    }
}

/// Writes a [`RistrettoConfig`] as a raw wire payload (all fields, in
/// declaration order). Shared by the artifact header and the cache key.
pub(crate) fn write_config(w: &mut WireWriter, cfg: &RistrettoConfig) {
    w.put_u64(cfg.tiles as u64);
    w.put_u64(cfg.multipliers as u64);
    w.put_u8(cfg.atom_bits.bits());
    w.put_u64(cfg.tile_h as u64);
    w.put_u64(cfg.tile_w as u64);
    w.put_u64(cfg.input_buf_kb as u64);
    w.put_u64(cfg.weight_buf_kb as u64);
    w.put_u64(cfg.output_buf_kb as u64);
    w.put_u8(cfg.acc_bits);
    w.put_u64(cfg.accu_entries_per_bank as u64);
    w.put_u64(cfg.fifo_depth as u64);
    w.put_bool(cfg.sparse);
    w.put_u8(match cfg.balancing {
        BalanceStrategy::None => 0,
        BalanceStrategy::WeightOnly => 1,
        BalanceStrategy::WeightActivation => 2,
    });
    match cfg.faults {
        None => w.put_bool(false),
        Some(f) => {
            w.put_bool(true);
            w.put_u64(f.seed);
            w.put_u32(f.weight_buffer_ppm);
            w.put_u32(f.weight_stream_ppm);
            w.put_u32(f.act_stream_ppm);
            w.put_u32(f.accum_ppm);
            w.put_u32(f.fifo_ppm);
            w.put_bool(f.detect);
            w.put_bool(f.recover);
            w.put_u32(f.retry_budget);
        }
    }
}

/// Reads a [`RistrettoConfig`] written by [`write_config`].
pub(crate) fn read_config(r: &mut WireReader<'_>) -> Result<RistrettoConfig, WireError> {
    let tiles = r.get_usize()?;
    let multipliers = r.get_usize()?;
    let atom_bits = AtomBits::new(r.get_u8()?).map_err(|e| invalid("header", e.to_string()))?;
    let tile_h = r.get_usize()?;
    let tile_w = r.get_usize()?;
    let input_buf_kb = r.get_usize()?;
    let weight_buf_kb = r.get_usize()?;
    let output_buf_kb = r.get_usize()?;
    let acc_bits = r.get_u8()?;
    let accu_entries_per_bank = r.get_usize()?;
    let fifo_depth = r.get_usize()?;
    let sparse = r.get_bool()?;
    let balancing = match r.get_u8()? {
        0 => BalanceStrategy::None,
        1 => BalanceStrategy::WeightOnly,
        2 => BalanceStrategy::WeightActivation,
        other => {
            return Err(invalid(
                "header",
                format!("unknown balance strategy tag {other}"),
            ))
        }
    };
    let faults = if r.get_bool()? {
        Some(FaultConfig {
            seed: r.get_u64()?,
            weight_buffer_ppm: r.get_u32()?,
            weight_stream_ppm: r.get_u32()?,
            act_stream_ppm: r.get_u32()?,
            accum_ppm: r.get_u32()?,
            fifo_ppm: r.get_u32()?,
            detect: r.get_bool()?,
            recover: r.get_bool()?,
            retry_budget: r.get_u32()?,
        })
    } else {
        None
    };
    Ok(RistrettoConfig {
        tiles,
        multipliers,
        atom_bits,
        tile_h,
        tile_w,
        input_buf_kb,
        weight_buf_kb,
        output_buf_kb,
        acc_bits,
        accu_entries_per_bank,
        fifo_depth,
        sparse,
        balancing,
        faults,
    })
}

/// Canonical content bytes of an (uncompiled) network model, hashed into
/// the model half of the cache key. Covers everything that can influence
/// compilation: name, input shape, and every layer field including the
/// dense kernel values.
#[must_use]
pub(crate) fn model_cache_bytes(model: &NetworkModel) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_str(&model.name);
    w.put_u64(model.input.0 as u64);
    w.put_u64(model.input.1 as u64);
    w.put_u64(model.input.2 as u64);
    w.put_u64(model.layers.len() as u64);
    for layer in &model.layers {
        w.put_str(&layer.name);
        w.put_u64(layer.geom.stride as u64);
        w.put_u64(layer.geom.padding as u64);
        w.put_u8(layer.w_bits.bits());
        w.put_u8(layer.a_bits.bits());
        w.put_u32(layer.requant_shift);
        w.put_u8(layer.out_bits);
        match layer.pool {
            None => w.put_u8(0),
            Some((kind, window, stride, padding)) => {
                w.put_u8(match kind {
                    PoolKind::Max => 1,
                    PoolKind::Average => 2,
                });
                w.put_u64(window as u64);
                w.put_u64(stride as u64);
                w.put_u64(padding as u64);
            }
        }
        let (o, ic, kh, kw) = layer.kernels.shape();
        w.put_u64(o as u64);
        w.put_u64(ic as u64);
        w.put_u64(kh as u64);
        w.put_u64(kw as u64);
        for &v in layer.kernels.as_slice() {
            w.put_i32(v);
        }
    }
    w.into_bytes()
}

/// Canonical content bytes of a configuration, hashed into the config
/// half of the cache key.
#[must_use]
pub(crate) fn config_cache_bytes(cfg: &RistrettoConfig) -> Vec<u8> {
    let mut w = WireWriter::new();
    write_config(&mut w, cfg);
    w.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::compile;
    use crate::pipeline::PipelineLayer;

    fn tiny_network() -> (NetworkModel, RistrettoConfig) {
        let kernels = Tensor4::from_vec(
            2,
            1,
            3,
            3,
            vec![
                1, 0, -2, 0, 3, 0, -1, 0, 2, // oc 0
                0, 2, 0, -3, 0, 1, 0, -1, 0, // oc 1
            ],
        )
        .unwrap();
        let layer = PipelineLayer {
            name: "l0".to_string(),
            kernels,
            geom: ConvGeometry::unit_stride(1),
            w_bits: BitWidth::W4,
            a_bits: BitWidth::W4,
            requant_shift: 2,
            out_bits: 4,
            pool: None,
        };
        let model = NetworkModel::new("tiny", (1, 6, 6), vec![layer]);
        (model, RistrettoConfig::paper_default())
    }

    #[test]
    fn encode_decode_round_trips_field_for_field() {
        let (model, cfg) = tiny_network();
        let net = compile(&model, &cfg).unwrap();
        let bytes = encode(&net);
        let decoded = decode(&bytes).unwrap();
        assert_eq!(*net, decoded);
        // Deterministic re-encode: the cache's content addressing and the
        // golden artifact check both rely on this.
        assert_eq!(bytes, encode(&decoded));
    }

    #[test]
    fn bad_magic_and_version_skew_are_typed() {
        let (model, cfg) = tiny_network();
        let net = compile(&model, &cfg).unwrap();
        let bytes = encode(&net);

        let mut wrong_magic = bytes.clone();
        wrong_magic[0] ^= 0xff;
        assert!(matches!(
            decode(&wrong_magic),
            Err(WireError::BadMagic { .. })
        ));

        let mut skewed = bytes;
        skewed[8] = FORMAT_VERSION as u8 + 1;
        assert_eq!(
            decode(&skewed).unwrap_err(),
            WireError::VersionSkew {
                found: FORMAT_VERSION + 1,
                supported: FORMAT_VERSION,
            }
        );
    }

    #[test]
    fn config_bytes_round_trip() {
        let mut cfg = RistrettoConfig::paper_default();
        cfg.faults = Some(FaultConfig::uniform(42, 100));
        let bytes = config_cache_bytes(&cfg);
        let mut r = WireReader::new(&bytes, "header");
        let back = read_config(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(cfg, back);
    }
}

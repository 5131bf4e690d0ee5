//! Closed-form cycle estimates for the condensed streaming computation
//! (paper Eq 3–5).
//!
//! For a feature-map tile with `t` non-zero activation atoms streamed
//! against `S` static weight atoms on `N` multipliers:
//!
//! ```text
//! C_t = t · ⌈S/N⌉ + ε,   ε = mod(S,N) − 1   (mod ≠ 0)
//!                        ε = N − 1          (mod = 0)        (Eq 3, 4)
//! ```
//!
//! Because kernels are shared by every tile of an input feature map, a whole
//! feature map with `T` non-zero atoms costs `C_T ≈ T · ⌈S/N⌉` (Eq 5) —
//! the statistic Ristretto's load balancer allocates by.

/// The pipeline-drain term ε of Eq 4.
pub fn intersect_epsilon(s: u64, n: u64) -> u64 {
    assert!(n > 0, "multiplier count must be non-zero");
    if s == 0 {
        return 0;
    }
    let m = s % n;
    if m != 0 {
        m - 1
    } else {
        n - 1
    }
}

/// Ideal intersection step count for one tile (Eq 3).
///
/// Saturates at `u64::MAX` instead of overflowing, in the spirit of the
/// intersect kernel's `shl_guarded` shifts — the estimate stays a valid
/// lower bound even for degenerate atom counts.
pub fn ideal_steps(t: u64, s: u64, n: u64) -> u64 {
    assert!(n > 0, "multiplier count must be non-zero");
    if t == 0 || s == 0 {
        return 0;
    }
    t.checked_mul(s.div_ceil(n))
        .and_then(|c| c.checked_add(intersect_epsilon(s, n)))
        .unwrap_or(u64::MAX)
}

/// Whole-feature-map cycle estimate (Eq 5): `T · ⌈S/N⌉`, where `T` sums the
/// non-zero atoms over all tiles of the input feature map.
///
/// Saturates at `u64::MAX` instead of overflowing (see [`ideal_steps`]).
pub fn tile_cycles(total_act_atoms: u64, weight_atoms: u64, n: u64) -> u64 {
    assert!(n > 0, "multiplier count must be non-zero");
    if total_act_atoms == 0 || weight_atoms == 0 {
        return 0;
    }
    total_act_atoms.saturating_mul(weight_atoms.div_ceil(n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epsilon_cases_from_eq4() {
        assert_eq!(intersect_epsilon(7, 3), 0); // mod = 1 -> 0
        assert_eq!(intersect_epsilon(8, 3), 1); // mod = 2 -> 1
        assert_eq!(intersect_epsilon(9, 3), 2); // mod = 0 -> N-1
        assert_eq!(intersect_epsilon(3, 8), 2); // mod = 3 -> 2
        assert_eq!(intersect_epsilon(0, 8), 0);
    }

    #[test]
    fn ideal_steps_matches_formula() {
        assert_eq!(ideal_steps(5, 7, 3), 5 * 3);
        assert_eq!(ideal_steps(5, 9, 3), 5 * 3 + 2);
        assert_eq!(ideal_steps(10, 32, 32), 10 + 31);
        assert_eq!(ideal_steps(0, 9, 3), 0);
        assert_eq!(ideal_steps(4, 0, 3), 0);
    }

    #[test]
    fn epsilon_is_small_relative_to_main_term() {
        // The paper omits ε in Eq 5 because it is bounded by N-1.
        for s in 1..200u64 {
            for n in [1u64, 4, 16, 32] {
                assert!(intersect_epsilon(s, n) < n);
            }
        }
    }

    #[test]
    fn tile_cycles_scales_linearly_in_atoms() {
        assert_eq!(tile_cycles(100, 64, 32), 100 * 2);
        assert_eq!(tile_cycles(100, 65, 32), 100 * 3);
        assert_eq!(tile_cycles(0, 64, 32), 0);
    }

    #[test]
    fn tile_cycles_saturates_instead_of_overflowing() {
        // Exactly representable boundary: u64::MAX · ⌈1/1⌉ fits.
        assert_eq!(tile_cycles(u64::MAX, 1, 1), u64::MAX);
        // 2^32 · 2^32 overflows u64 — must saturate, not wrap to 0.
        assert_eq!(tile_cycles(1 << 32, 1 << 32, 1), u64::MAX);
        assert_eq!(tile_cycles(u64::MAX, 2, 1), u64::MAX);
    }

    #[test]
    fn ideal_steps_saturates_instead_of_overflowing() {
        // Product fits but adding ε would overflow: saturate.
        assert_eq!(ideal_steps(u64::MAX, 1, 1), u64::MAX);
        // Product itself overflows: saturate.
        assert_eq!(ideal_steps(1 << 32, 1 << 32, 1), u64::MAX);
        assert_eq!(ideal_steps(u64::MAX, 3, 2), u64::MAX);
        // Near the boundary but representable: exact value, no saturation.
        let t = (u64::MAX - 1) / 3;
        assert_eq!(ideal_steps(t, 3, 1), t * 3 + intersect_epsilon(3, 1));
    }
}

//! Magnitude pruning.
//!
//! The paper's DNN benchmark further prunes the quantized models "without
//! hurting the accuracy" (§V-A2). We model that as global magnitude pruning
//! to a target sparsity: the smallest-magnitude values are zeroed until the
//! target fraction of zeros is reached.

/// Zeroes the smallest-magnitude entries of `values` until at least
/// `target_sparsity` of all entries are zero. Existing zeros count toward
/// the target. Returns the number of values newly zeroed.
///
/// A `target_sparsity` of `0.0` is a no-op; `1.0` zeroes everything.
///
/// # Panics
/// Panics if `target_sparsity` is not within `[0, 1]`.
pub fn magnitude_prune(values: &mut [i32], target_sparsity: f64) -> usize {
    assert!(
        (0.0..=1.0).contains(&target_sparsity),
        "target sparsity {target_sparsity} outside [0, 1]"
    );
    let len = values.len();
    if len == 0 {
        return 0;
    }
    let want_zeros = (target_sparsity * len as f64).ceil() as usize;
    let have_zeros = values.iter().filter(|&&v| v == 0).count();
    if want_zeros <= have_zeros {
        return 0;
    }
    let need = want_zeros - have_zeros;
    // Select the `need` smallest magnitudes among the non-zeros.
    let mut mags: Vec<(u32, usize)> = values
        .iter()
        .enumerate()
        .filter(|(_, &v)| v != 0)
        .map(|(i, &v)| (v.unsigned_abs(), i))
        .collect();
    mags.select_nth_unstable(need - 1);
    let mut zeroed = 0;
    for &(_, i) in mags.iter().take(need) {
        values[i] = 0;
        zeroed += 1;
    }
    zeroed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparsity::value_density;

    #[test]
    fn prunes_smallest_magnitudes_first() {
        let mut v = vec![10, -1, 5, -7, 2, 3];
        magnitude_prune(&mut v, 0.5);
        assert_eq!(v.iter().filter(|&&x| x == 0).count(), 3);
        // The three largest magnitudes survive.
        assert!(v.contains(&10));
        assert!(v.contains(&-7));
        assert!(v.contains(&5));
    }

    #[test]
    fn existing_zeros_count_toward_target() {
        let mut v = vec![0, 0, 3, 4];
        let newly = magnitude_prune(&mut v, 0.5);
        assert_eq!(newly, 0);
        assert_eq!(v, vec![0, 0, 3, 4]);
    }

    #[test]
    fn zero_target_is_noop_and_one_clears_all() {
        let mut v = vec![1, 2, 3];
        assert_eq!(magnitude_prune(&mut v, 0.0), 0);
        assert_eq!(v, vec![1, 2, 3]);
        magnitude_prune(&mut v, 1.0);
        assert_eq!(v, vec![0, 0, 0]);
    }

    #[test]
    fn achieves_target_density() {
        let mut v: Vec<i32> = (1..=100).collect();
        magnitude_prune(&mut v, 0.73);
        assert!((value_density(&v) - 0.27).abs() < 0.011);
    }

    #[test]
    fn empty_slice_is_fine() {
        let mut v: Vec<i32> = vec![];
        assert_eq!(magnitude_prune(&mut v, 0.5), 0);
    }
}

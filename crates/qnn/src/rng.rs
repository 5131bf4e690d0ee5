//! Seeded random sampling helpers for synthetic workload generation.
//!
//! All experiments in the reproduction are deterministic given a seed. The
//! generator is a self-contained xoshiro256** (seeded through SplitMix64) so
//! that streams are cheap to clone and fork and stable across dependency
//! versions; Gaussian and Laplacian samplers are implemented locally.

/// A seeded random source with the distribution samplers used by the
/// synthetic model generator.
///
/// ```
/// use qnn::rng::SeededRng;
/// let mut a = SeededRng::new(42);
/// let mut b = SeededRng::new(42);
/// assert_eq!(a.uniform_f64(), b.uniform_f64());
/// ```
#[derive(Debug, Clone)]
pub struct SeededRng {
    state: [u64; 4],
    /// Cached second output of the Box–Muller transform.
    spare_normal: Option<f64>,
}

impl SeededRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        // Expand the seed with SplitMix64, the recommended xoshiro seeding.
        let mut s = seed;
        let mut next = || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Self {
            state: [next(), next(), next(), next()],
            spare_normal: None,
        }
    }

    /// Next raw 64-bit output (xoshiro256**).
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s1.wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s1 << 17;
        let mut s2 = s2 ^ s0;
        let mut s3 = s3 ^ s1;
        let s1 = s1 ^ s2;
        let s0 = s0 ^ s3;
        s2 ^= t;
        s3 = s3.rotate_left(45);
        self.state = [s0, s1, s2, s3];
        result
    }

    /// Derives an independent child generator; useful for giving each layer
    /// or tile its own stream without coupling their sequences.
    pub fn fork(&mut self, salt: u64) -> Self {
        let s = self.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Self::new(s)
    }

    /// Uniform sample in `[0, 1)`.
    pub fn uniform_f64(&mut self) -> f64 {
        // 53 high-quality bits into the mantissa.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is undefined");
        // 128-bit multiply keeps the range bias below 2^-64 — negligible
        // for simulation purposes.
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Standard normal sample via the Box–Muller transform.
    pub fn normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Box–Muller: u1 in (0,1], u2 in [0,1).
        let u1 = 1.0 - self.uniform_f64();
        let u2 = self.uniform_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Zero-mean Laplace sample with the given scale `b` (std dev `√2·b`).
    ///
    /// Trained CNN weights are well modelled as Laplacian: strongly peaked
    /// at zero with heavier tails than a Gaussian, which is what makes
    /// low-bit uniform quantization produce substantial weight sparsity
    /// (paper Fig 1).
    pub fn laplace(&mut self, scale: f64) -> f64 {
        let u = self.uniform_f64() - 0.5;
        -scale * u.signum() * (1.0 - 2.0 * u.abs()).ln()
    }

    /// Bernoulli sample with probability `p` of `true`.
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.uniform_f64() < p
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i + 1);
            xs.swap(i, j);
        }
    }

    /// Chooses `k` distinct indices out of `0..n` (reservoir sampling).
    ///
    /// # Panics
    /// Panics if `k > n`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} distinct indices from {n}");
        let mut reservoir: Vec<usize> = (0..k).collect();
        for i in k..n {
            let j = self.below(i + 1);
            if j < k {
                reservoir[j] = i;
            }
        }
        reservoir
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism_given_seed() {
        let mut a = SeededRng::new(7);
        let mut b = SeededRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.uniform_f64().to_bits(), b.uniform_f64().to_bits());
        }
    }

    #[test]
    fn forked_streams_differ() {
        let mut root = SeededRng::new(1);
        let mut a = root.fork(0);
        let mut b = root.fork(1);
        let va: Vec<u64> = (0..8).map(|_| a.uniform_f64().to_bits()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.uniform_f64().to_bits()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut r = SeededRng::new(3);
        for _ in 0..10_000 {
            let u = r.uniform_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn below_covers_range_uniformly() {
        let mut r = SeededRng::new(17);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            counts[r.below(10)] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut r = SeededRng::new(99);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn laplace_moments_are_plausible() {
        let mut r = SeededRng::new(123);
        let n = 20_000;
        let scale = 2.0;
        let samples: Vec<f64> = (0..n).map(|_| r.laplace(scale)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.1, "mean {mean}");
        // Laplace variance = 2 * scale^2 = 8.
        assert!((var - 8.0).abs() < 0.6, "var {var}");
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut r = SeededRng::new(5);
        let mut idx = r.sample_indices(100, 20);
        idx.sort_unstable();
        idx.dedup();
        assert_eq!(idx.len(), 20);
        assert!(idx.iter().all(|&i| i < 100));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SeededRng::new(5);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}

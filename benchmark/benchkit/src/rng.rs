//! SplitMix64: the benchmark's only source of randomness. Every generated
//! input is a pure function of `(seed, stream label)`.

/// A SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, made independent of other streams of the same
    /// seed by `label` (e.g. `"serve.conn0"`).
    pub fn new(seed: u64, label: &str) -> Rng {
        let mut rng = Rng(seed ^ crate::hash::fnv1a(label.as_bytes()));
        // Discard a few outputs so nearby seeds decorrelate.
        for _ in 0..4 {
            rng.next_u64();
        }
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_and_label_repeat_and_labels_differ() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7, "x");
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7, "x");
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(7, "y");
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn range_is_inclusive_and_bounded() {
        let mut r = Rng::new(1, "range");
        let draws: Vec<u64> = (0..2000).map(|_| r.range(3, 6)).collect();
        assert!(draws.iter().all(|&v| (3..=6).contains(&v)));
        for v in 3..=6 {
            assert!(draws.contains(&v), "{v} never drawn");
        }
        let u = r.unit();
        assert!((0.0..1.0).contains(&u));
    }
}

//! Seeded input generation and the order statistics every metric uses.

/// The benchmark's own generator (xorshift64*), so that `--seed` fixes
/// every input without depending on the program's `rand` stand-in.
#[derive(Clone, Debug)]
pub struct XorShift(u64);

impl XorShift {
    /// A generator for `seed`; a splitmix step keeps small seeds apart and
    /// the state non-zero.
    pub fn new(seed: u64) -> Self {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        XorShift((z ^ (z >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        // The bias of the multiply-shift reduction is below 2^-40 for the
        // ranges used here.
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    pub fn fill(&mut self, buf: &mut [u8]) {
        let mut words = buf.chunks_exact_mut(8);
        for w in &mut words {
            w.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let tail = words.into_remainder();
        let last = self.next_u64().to_le_bytes();
        tail.copy_from_slice(&last[..tail.len()]);
    }
}

/// The content of logical block `lb` at its `version`-th write under
/// `seed`: what a write stores and what a later read must return. The
/// shadow map keeps only the version.
pub fn fill_block(buf: &mut [u8], seed: u64, lb: u64, version: u32) {
    XorShift::new(seed ^ lb.wrapping_mul(0xA24B_AED4_963E_E407) ^ (u64::from(version) << 48))
        .fill(buf);
}

/// The blocks as the mutable slices the codes' `*_into` calls write to.
pub fn views(blocks: &mut [Vec<u8>]) -> Vec<&mut [u8]> {
    blocks.iter_mut().map(Vec::as_mut_slice).collect()
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `q`-quantile (nearest rank) of `values`; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((v.len() as f64 * q).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median with the two middle values averaged for even counts.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let draw = |seed| {
            let mut r = XorShift::new(seed);
            (0..64).map(|_| r.below(1 << 20)).collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
    }

    #[test]
    fn fill_covers_ragged_tails_and_versions_differ() {
        let (mut a, mut b) = ([0u8; 13], [0u8; 13]);
        fill_block(&mut a, 7, 3, 0);
        fill_block(&mut b, 7, 3, 1);
        assert_ne!(a, b);
        assert!(a[8..].iter().any(|&x| x != 0));
    }

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.99), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}

//! Seeded input generation: splitmix64, a Zipf sampler, value and line
//! bytes. Everything the systems under test receive is derived from the
//! `--seed` argument here, so the same seed gives the same inputs.

/// splitmix64: small, fast, and good enough to drive key choice.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// An independent stream for `label` under the same seed.
    pub fn fork(seed: u64, label: u64) -> SplitMix64 {
        let mut g = SplitMix64(seed ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        g.next_u64();
        SplitMix64(g.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`); the modulo bias is below 2⁻³²
    /// for the bounds used here.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf over ranks `0..n` with exponent `s`, by inverse CDF. Rank 0 is
/// the most popular item; [`Zipf::sample`] scatters ranks over the key
/// space so popular keys are not neighbours in the tree.
pub struct Zipf {
    cdf: Vec<f64>,
    scatter: u64,
    offset: u64,
}

impl Zipf {
    pub fn new(n: usize, s: f64, seed: u64) -> Zipf {
        assert!(n > 0);
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        // An odd multiplier permutes 0..n when n is a power of two and
        // merely scatters otherwise, which is all the workloads need.
        let mut g = SplitMix64::new(seed);
        Zipf {
            cdf,
            scatter: g.next_u64() | 1,
            offset: g.next_u64() % n as u64,
        }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.unit();
        let rank = self
            .cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1);
        let n = self.cdf.len() as u64;
        (((rank as u64).wrapping_mul(self.scatter) % n + self.offset) % n) as usize
    }
}

/// The database key of item `idx`: eight big-endian bytes, so key order is
/// index order.
pub fn key_bytes(idx: u32) -> Vec<u8> {
    (idx as u64).to_be_bytes().to_vec()
}

/// The value of item `idx` at `version`: a header naming both, then a
/// seeded fill. Any value read back can be checked from its own header.
pub fn value_bytes(idx: u32, version: u32, len: usize) -> Vec<u8> {
    assert!(len >= 8);
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(&idx.to_le_bytes());
    out.extend_from_slice(&version.to_le_bytes());
    let mut g = SplitMix64::new(((idx as u64) << 32) | version as u64);
    while out.len() < len {
        let w = g.next_u64().to_le_bytes();
        let take = (len - out.len()).min(8);
        out.extend_from_slice(&w[..take]);
    }
    out
}

/// `(idx, version)` from a value's header, if it is a well-formed value of
/// the expected length.
pub fn check_value(bytes: &[u8], len: usize) -> Option<(u32, u32)> {
    if bytes.len() != len {
        return None;
    }
    let idx = u32::from_le_bytes(bytes[0..4].try_into().ok()?);
    let version = u32::from_le_bytes(bytes[4..8].try_into().ok()?);
    (value_bytes(idx, version, len) == bytes).then_some((idx, version))
}

/// Repository path of file `idx`.
pub fn file_path(idx: u32) -> String {
    format!("src/mod{:02}/file{:03}.rs", idx / 16, idx)
}

/// Line `line` of file `idx` as written by edit number `edit` (0 is the
/// imported text).
pub fn file_line(idx: u32, line: u32, edit: u32) -> String {
    let mut g = SplitMix64::new(((idx as u64) << 40) ^ ((line as u64) << 20) ^ edit as u64);
    format!(
        "// f{idx:03} l{line:02} e{edit:05} {:016x}{:08x}",
        g.next_u64(),
        g.next_u64() as u32
    )
}

/// FNV-1a over a stream of words: the script fingerprint the determinism
/// tests compare.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScriptHash(pub u64);

impl ScriptHash {
    pub fn new() -> ScriptHash {
        ScriptHash(0xCBF2_9CE4_8422_2325)
    }

    pub fn feed(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

impl Default for ScriptHash {
    fn default() -> ScriptHash {
        ScriptHash::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_and_differ() {
        let a: Vec<u64> = {
            let mut g = SplitMix64::fork(7, 1);
            (0..8).map(|_| g.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut g = SplitMix64::fork(7, 1);
            (0..8).map(|_| g.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut g = SplitMix64::fork(7, 2);
            (0..8).map(|_| g.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn zipf_prefers_low_ranks_and_stays_in_range() {
        let z = Zipf::new(1024, 0.99, 3);
        let mut g = SplitMix64::new(9);
        let mut counts = vec![0u32; 1024];
        for _ in 0..100_000 {
            counts[z.sample(&mut g)] += 1;
        }
        let max = *counts.iter().max().unwrap();
        assert_eq!(counts[z.offset as usize], max, "rank 0 is the hottest key");
        assert!(max > 5_000, "skewed: hottest key drew {max} of 100000");
        assert!(
            counts.iter().filter(|c| **c > 0).count() > 900,
            "the tail is drawn too"
        );
    }

    #[test]
    fn values_check_themselves() {
        let v = value_bytes(77, 5, 256);
        assert_eq!(v.len(), 256);
        assert_eq!(check_value(&v, 256), Some((77, 5)));
        let mut bad = v.clone();
        bad[100] ^= 1;
        assert_eq!(check_value(&bad, 256), None);
        assert_eq!(check_value(&v[..255], 256), None);
    }
}

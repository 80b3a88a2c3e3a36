//! CRC-32C (Castagnoli; reflected polynomial `0x82F63B78`, initial value
//! and final XOR `0xFFFFFFFF`): the frame check the storage engine puts
//! on bytes it writes for itself and re-reads.
//!
//! A CRC is no cryptographic hash and is not meant as one here: it only
//! has to tell a frame that landed intact from a torn or bit-rotted one,
//! which CRC-32C does for every burst of up to 32 bits and misses a
//! random error with probability 2⁻³². Everything a frame carries that
//! the protocol relies on is authenticated by Merkle digests (SHA-256)
//! that recovery recomputes anyway.
//!
//! ## Backends
//!
//! On x86-64 CPUs with SSE4.2 the `crc32` instruction consumes eight
//! bytes per step; everywhere else a portable slicing-by-8 table loop
//! does. The CPU is probed once, and a test holds both backends to the
//! same answers for every length, alignment and split point.

/// The reflected CRC-32C polynomial.
const POLY: u32 = 0x82F6_3B78;

/// Slicing-by-8 tables: `TABLES[0][b]` is the CRC step of byte `b`, and
/// `TABLES[k][b]` that of `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 8] = tables();

const fn tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// One-shot CRC-32C of `data`.
pub fn crc32c(data: &[u8]) -> u32 {
    crc32c_append(0, data)
}

/// Extends `crc`, the CRC-32C of some bytes `a`, to the CRC-32C of
/// `a ‖ data`: `crc32c_append(crc32c(a), b) == crc32c(&[a, b].concat())`,
/// and `crc32c_append(0, b) == crc32c(b)`.
pub fn crc32c_append(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if sse42::available() {
        // SAFETY: the `sse4.2` CPU feature was just verified at runtime;
        // the kernel reads nothing but `data`.
        #[allow(unsafe_code)]
        return unsafe { sse42::append(crc, data) };
    }
    append_portable(crc, data)
}

/// The portable backend: eight bytes per step through the slicing tables,
/// then the rest a byte at a time.
fn append_portable(crc: u32, data: &[u8]) -> u32 {
    let mut crc = !crc;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][w[4] as usize]
            ^ TABLES[2][w[5] as usize]
            ^ TABLES[1][w[6] as usize]
            ^ TABLES[0][w[7] as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Hardware backend: the SSE4.2 `crc32` instruction, which computes
/// exactly this polynomial.
#[cfg(target_arch = "x86_64")]
mod sse42 {
    use std::sync::atomic::{AtomicU8, Ordering};

    /// Runtime CPU support, probed once and cached (0 = unknown, 1 = yes,
    /// 2 = no).
    pub(super) fn available() -> bool {
        static STATE: AtomicU8 = AtomicU8::new(0);
        match STATE.load(Ordering::Relaxed) {
            1 => true,
            2 => false,
            _ => {
                let ok = std::arch::is_x86_feature_detected!("sse4.2");
                STATE.store(if ok { 1 } else { 2 }, Ordering::Relaxed);
                ok
            }
        }
    }

    /// [`super::crc32c_append`] on the `crc32` instruction.
    ///
    /// # Safety
    ///
    /// The caller must have verified that the CPU supports the `sse4.2`
    /// feature (see [`available`]).
    #[allow(unsafe_code)]
    #[target_feature(enable = "sse4.2")]
    pub(super) unsafe fn append(crc: u32, data: &[u8]) -> u32 {
        use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};

        let mut crc = u64::from(!crc);
        let mut words = data.chunks_exact(8);
        for w in &mut words {
            let word = u64::from_le_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]]);
            crc = _mm_crc32_u64(crc, word);
        }
        // The instruction keeps the high half of its 64-bit form zero.
        let mut crc = crc as u32;
        for &b in words.remainder() {
            crc = _mm_crc32_u8(crc, b);
        }
        !crc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    type Append = fn(u32, &[u8]) -> u32;

    /// Every backend this host can run, as `(name, append)`.
    fn backends() -> Vec<(&'static str, Append)> {
        let mut out: Vec<(&'static str, Append)> =
            vec![("portable", append_portable), ("dispatched", crc32c_append)];
        #[cfg(target_arch = "x86_64")]
        if sse42::available() {
            fn hardware(crc: u32, data: &[u8]) -> u32 {
                // SAFETY: only registered after `sse42::available()`.
                #[allow(unsafe_code)]
                unsafe {
                    sse42::append(crc, data)
                }
            }
            out.push(("sse4.2", hardware));
        }
        out
    }

    /// The standard check value and RFC 3720 §B.4's three vectors, on
    /// every backend.
    #[test]
    fn known_answers() {
        let ascending: Vec<u8> = (0..32).collect();
        let cases: [(&[u8], u32); 5] = [
            (b"", 0),
            (b"123456789", 0xE306_9283),
            (&[0x00; 32], 0x8A91_36AA),
            (&[0xFF; 32], 0x62A8_AB43),
            (&ascending, 0x46DD_794E),
        ];
        for (name, append) in backends() {
            for (data, want) in cases {
                assert_eq!(append(0, data), want, "{name} on {data:?}");
            }
        }
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every backend agrees with the portable one-shot, at every start
        /// alignment, and appending the two halves of any split gives the
        /// one-shot answer.
        #[test]
        fn backends_agree_and_appending_equals_one_shot(
            buf in proptest::collection::vec(any::<u8>(), 0..300),
            start in any::<prop::sample::Index>(),
            split in any::<prop::sample::Index>(),
        ) {
            let data = &buf[start.index(buf.len().min(8) + 1)..];
            let at = split.index(data.len() + 1);
            let whole = append_portable(0, data);
            for (name, append) in backends() {
                prop_assert_eq!(append(0, data), whole, "{}", name);
                prop_assert_eq!(append(append(0, &data[..at]), &data[at..]), whole, "{}", name);
            }
        }
    }
}

//! Multi-buffer ("multi-lane") SHA-256.
//!
//! Merkle digest recomputation hashes many small, independent messages —
//! one kv-hash per leaf entry, one digest per node — and a batch proof
//! multiplies that by the window size. A single SHA-256 stream leaves most
//! of the core idle between dependent rounds, so this module interleaves
//! several independent hash streams through one compression pass:
//!
//! * **Portable**: a 4-lane interleaved FIPS 180-4 compression
//!   (`compress_portable_x4`) — the round math runs on `[u32; 4]` lane
//!   arrays that the compiler vectorizes, hiding each lane's serial
//!   dependency chain behind the others'.
//! * **SHA-NI**: a 2-lane interleaved `sha256rnds2` stream
//!   (`shani_x2::compress_x2`) — the hardware rounds have multi-cycle
//!   latency but pipeline, so two independent register streams roughly
//!   double throughput per core.
//!
//! The public entry point is [`sha256_many`]: hash a slice of messages,
//! get a digest per message, byte-identical to calling
//! [`sha256`](crate::sha256::sha256) on each. Identity against the scalar
//! backend is enforced by unit tests here and a proptest corpus in
//! `tests/properties.rs`, on both the SHA-NI and portable paths.

use crate::digest::Digest;
use crate::sha256::{compress_portable, H0};

/// Interleave width of the active backend: 2 on SHA-NI hardware (two
/// pipelined `sha256rnds2` streams), 4 on the portable path (lane-array
/// compression). Exposed so the observability layer can report the lane
/// configuration (`crypto.lanes`).
pub fn lanes() -> usize {
    #[cfg(target_arch = "x86_64")]
    if crate::sha256::shani::available() {
        return 2;
    }
    4
}

/// Number of 64-byte blocks in the padded form of a `len`-byte message.
fn block_count(len: usize) -> usize {
    (len + 9).div_ceil(64)
}

/// Materializes block `idx` of the padded form of `msg` (FIPS 180-4
/// padding: `0x80`, zeros, 64-bit big-endian bit length in the final
/// block).
fn padded_block(msg: &[u8], idx: usize, nblocks: usize) -> [u8; 64] {
    let mut b = [0u8; 64];
    let start = idx * 64;
    if start < msg.len() {
        let take = (msg.len() - start).min(64);
        b[..take].copy_from_slice(&msg[start..start + take]);
        if take < 64 {
            b[take] = 0x80;
        }
    } else if start == msg.len() {
        b[0] = 0x80;
    }
    if idx == nblocks - 1 {
        b[56..].copy_from_slice(&(msg.len() as u64).wrapping_mul(8).to_be_bytes());
    }
    b
}

fn digest_from_state(state: &[u32; 8]) -> Digest {
    let mut out = [0u8; 32];
    for (chunk, word) in out.chunks_exact_mut(4).zip(state.iter()) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    Digest(out)
}

/// Hashes one message by driving the scalar compression over materialized
/// padded blocks (used for group remainders and uneven tails).
fn hash_scalar(msg: &[u8]) -> Digest {
    let n = block_count(msg.len());
    let mut state = H0;
    for i in 0..n {
        crate::sha256::compress(&mut state, &padded_block(msg, i, n));
    }
    digest_from_state(&state)
}

/// 4-lane interleaved portable compression: advances four independent
/// SHA-256 states by one block each. The per-round math is identical to
/// the scalar [`compress_portable`], transposed onto `[u32; 4]` lane
/// arrays so the four dependency chains interleave.
fn compress_portable_x4(states: &mut [[u32; 8]; 4], blocks: &[[u8; 64]; 4]) {
    #[inline(always)]
    fn map4(x: [u32; 4], f: impl Fn(u32) -> u32) -> [u32; 4] {
        [f(x[0]), f(x[1]), f(x[2]), f(x[3])]
    }
    #[inline(always)]
    fn add4(a: [u32; 4], b: [u32; 4]) -> [u32; 4] {
        [
            a[0].wrapping_add(b[0]),
            a[1].wrapping_add(b[1]),
            a[2].wrapping_add(b[2]),
            a[3].wrapping_add(b[3]),
        ]
    }

    let mut w = [[0u32; 4]; 64];
    for (i, word) in w.iter_mut().take(16).enumerate() {
        for l in 0..4 {
            word[l] = u32::from_be_bytes([
                blocks[l][4 * i],
                blocks[l][4 * i + 1],
                blocks[l][4 * i + 2],
                blocks[l][4 * i + 3],
            ]);
        }
    }
    for i in 16..64 {
        let s1 = map4(w[i - 2], |x| {
            x.rotate_right(17) ^ x.rotate_right(19) ^ (x >> 10)
        });
        let s0 = map4(w[i - 15], |x| {
            x.rotate_right(7) ^ x.rotate_right(18) ^ (x >> 3)
        });
        w[i] = add4(add4(s1, w[i - 7]), add4(s0, w[i - 16]));
    }

    // v[0..8] = (a, b, c, d, e, f, g, h), each a 4-lane array.
    let mut v = [[0u32; 4]; 8];
    for (j, var) in v.iter_mut().enumerate() {
        for l in 0..4 {
            var[l] = states[l][j];
        }
    }
    for (&ki, &wi) in crate::sha256::K.iter().zip(w.iter()) {
        let big1 = map4(v[4], |e| {
            e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25)
        });
        let mut ch = [0u32; 4];
        let mut maj = [0u32; 4];
        for l in 0..4 {
            ch[l] = (v[4][l] & v[5][l]) ^ ((!v[4][l]) & v[6][l]);
            maj[l] = (v[0][l] & v[1][l]) ^ (v[0][l] & v[2][l]) ^ (v[1][l] & v[2][l]);
        }
        let t1 = add4(add4(v[7], big1), add4(add4(ch, [ki; 4]), wi));
        let big0 = map4(v[0], |a| {
            a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22)
        });
        let t2 = add4(big0, maj);
        v[7] = v[6];
        v[6] = v[5];
        v[5] = v[4];
        v[4] = add4(v[3], t1);
        v[3] = v[2];
        v[2] = v[1];
        v[1] = v[0];
        v[0] = add4(t1, t2);
    }
    for (j, var) in v.iter().enumerate() {
        for l in 0..4 {
            states[l][j] = states[l][j].wrapping_add(var[l]);
        }
    }
}

/// Hashes every message in `msgs`, returning one digest per message in
/// order. Output is byte-identical to hashing each message with
/// [`sha256`](crate::sha256::sha256); the difference is purely throughput:
/// independent messages advance through interleaved compression lanes
/// (2-lane SHA-NI or 4-lane portable, see [`lanes`]).
pub fn sha256_many(msgs: &[&[u8]]) -> Vec<Digest> {
    #[cfg(target_arch = "x86_64")]
    if crate::sha256::shani::available() {
        return many_shani(msgs);
    }
    sha256_many_portable(msgs)
}

/// Multi-lane hashing pinned to the portable 4-lane backend. Public so the
/// cross-check test corpus can exercise the portable interleave even on
/// SHA-NI hardware; prefer [`sha256_many`] everywhere else.
#[doc(hidden)]
pub fn sha256_many_portable(msgs: &[&[u8]]) -> Vec<Digest> {
    let mut out = Vec::with_capacity(msgs.len());
    let mut groups = msgs.chunks_exact(4);
    for group in &mut groups {
        let nb = [
            block_count(group[0].len()),
            block_count(group[1].len()),
            block_count(group[2].len()),
            block_count(group[3].len()),
        ];
        let shared = *nb.iter().min().expect("4 lanes");
        let mut states = [H0; 4];
        for blk in 0..shared {
            let blocks = [
                padded_block(group[0], blk, nb[0]),
                padded_block(group[1], blk, nb[1]),
                padded_block(group[2], blk, nb[2]),
                padded_block(group[3], blk, nb[3]),
            ];
            compress_portable_x4(&mut states, &blocks);
        }
        for l in 0..4 {
            for blk in shared..nb[l] {
                compress_portable(&mut states[l], &padded_block(group[l], blk, nb[l]));
            }
            out.push(digest_from_state(&states[l]));
        }
    }
    for msg in groups.remainder() {
        out.push(hash_scalar(msg));
    }
    out
}

/// Advances two independent states by one block each: interleaved on
/// SHA-NI hardware, two portable compressions anywhere else.
#[cfg(target_arch = "x86_64")]
#[inline]
fn compress_x2(s0: &mut [u32; 8], b0: &[u8; 64], s1: &mut [u32; 8], b1: &[u8; 64]) {
    if crate::sha256::shani::available() {
        // SAFETY: the `sha`, `ssse3` and `sse4.1` CPU features were just
        // verified at runtime; the kernel touches nothing but its arguments.
        #[allow(unsafe_code)]
        unsafe {
            shani_x2::compress_x2(s0, b0, s1, b1)
        };
    } else {
        compress_portable(s0, b0);
        compress_portable(s1, b1);
    }
}

/// Multi-buffer driver for the 2-lane SHA-NI backend.
#[cfg(target_arch = "x86_64")]
fn many_shani(msgs: &[&[u8]]) -> Vec<Digest> {
    let mut out = Vec::with_capacity(msgs.len());
    let mut pairs = msgs.chunks_exact(2);
    for pair in &mut pairs {
        let nb = [block_count(pair[0].len()), block_count(pair[1].len())];
        let shared = nb[0].min(nb[1]);
        let mut s0 = H0;
        let mut s1 = H0;
        for blk in 0..shared {
            let b0 = padded_block(pair[0], blk, nb[0]);
            let b1 = padded_block(pair[1], blk, nb[1]);
            compress_x2(&mut s0, &b0, &mut s1, &b1);
        }
        for (state, (msg, n)) in [&mut s0, &mut s1]
            .into_iter()
            .zip(pair.iter().zip(nb.iter()))
        {
            for blk in shared..*n {
                crate::sha256::compress(state, &padded_block(msg, blk, *n));
            }
            out.push(digest_from_state(state));
        }
    }
    for msg in pairs.remainder() {
        out.push(hash_scalar(msg));
    }
    out
}

/// Digests of pre-padded single-block messages: exactly one compression
/// from the initial state per block, blocks advancing in lockstep through
/// the same lanes [`sha256_many`] uses. `blocks[i]` must already carry its
/// FIPS 180-4 padding (the caller owns a fixed layout and pads once);
/// `out[i]` receives its digest. This is the WOTS chain-step kernel.
pub(crate) fn sha256_blocks(blocks: &[[u8; 64]], out: &mut [Digest]) {
    assert_eq!(blocks.len(), out.len(), "one digest slot per block");
    #[cfg(target_arch = "x86_64")]
    if crate::sha256::shani::available() {
        let mut pairs = blocks.chunks_exact(2);
        let mut outs = out.chunks_exact_mut(2);
        for (b, o) in (&mut pairs).zip(&mut outs) {
            let (mut s0, mut s1) = (H0, H0);
            compress_x2(&mut s0, &b[0], &mut s1, &b[1]);
            o[0] = digest_from_state(&s0);
            o[1] = digest_from_state(&s1);
        }
        for (b, o) in pairs.remainder().iter().zip(outs.into_remainder()) {
            *o = sha256_block(b);
        }
        return;
    }
    sha256_blocks_portable(blocks, out)
}

/// One pre-padded block through the scalar compression (lane remainders,
/// and the reference the lane kernels are tested against).
pub(crate) fn sha256_block(block: &[u8; 64]) -> Digest {
    let mut state = H0;
    crate::sha256::compress(&mut state, block);
    digest_from_state(&state)
}

/// [`sha256_blocks`] pinned to the portable 4-lane backend (the dispatch
/// target off SHA-NI hardware; tests call it directly everywhere).
pub(crate) fn sha256_blocks_portable(blocks: &[[u8; 64]], out: &mut [Digest]) {
    assert_eq!(blocks.len(), out.len(), "one digest slot per block");
    let mut groups = blocks.chunks_exact(4);
    let mut outs = out.chunks_exact_mut(4);
    for (b, o) in (&mut groups).zip(&mut outs) {
        let mut states = [H0; 4];
        compress_portable_x4(&mut states, b.try_into().expect("chunk of 4"));
        for (d, s) in o.iter_mut().zip(&states) {
            *d = digest_from_state(s);
        }
    }
    for (b, o) in groups.remainder().iter().zip(outs.into_remainder()) {
        let mut s = H0;
        compress_portable(&mut s, b);
        *o = digest_from_state(&s);
    }
}

/// Two-lane interleaved SHA-NI compression: the canonical Intel
/// `sha256rnds2` flow duplicated over two independent register streams so
/// the hardware round latency of one stream hides behind the other's
/// issue slots.
#[cfg(target_arch = "x86_64")]
mod shani_x2 {
    use crate::sha256::K;

    /// Advances two independent SHA-256 states by one block each, with the
    /// two instruction streams interleaved round-for-round.
    ///
    /// # Safety
    ///
    /// The caller must have verified that the CPU supports the `sha`,
    /// `ssse3` and `sse4.1` features (see `sha256::shani::available`).
    #[allow(unsafe_code)]
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    pub(super) unsafe fn compress_x2(
        state_a: &mut [u32; 8],
        block_a: &[u8; 64],
        state_b: &mut [u32; 8],
        block_b: &[u8; 64],
    ) {
        use std::arch::x86_64::*;

        // Prologue (per lane): shuffle (DCBA, HGFE) into the (ABEF, CDGH)
        // split the round instructions expect.
        macro_rules! load_state {
            ($state:expr) => {{
                let tmp = unsafe { _mm_loadu_si128($state.as_ptr().cast()) };
                let mut s1 = unsafe { _mm_loadu_si128($state.as_ptr().add(4).cast()) };
                let tmp = _mm_shuffle_epi32(tmp, 0xB1);
                s1 = _mm_shuffle_epi32(s1, 0x1B);
                let s0 = _mm_alignr_epi8(tmp, s1, 8);
                let s1 = _mm_blend_epi16(s1, tmp, 0xF0);
                (s0, s1)
            }};
        }
        let (mut a0, mut a1) = load_state!(state_a);
        let (mut b0, mut b1) = load_state!(state_b);
        let a_save = (a0, a1);
        let b_save = (b0, b1);

        let flip = _mm_set_epi64x(
            0x0c0d_0e0f_0809_0a0b_u64 as i64,
            0x0405_0607_0001_0203_u64 as i64,
        );
        macro_rules! load_msg {
            ($block:expr, $off:expr) => {
                unsafe { _mm_shuffle_epi8(_mm_loadu_si128($block.as_ptr().add($off).cast()), flip) }
            };
        }
        let mut am0 = load_msg!(block_a, 0);
        let mut am1 = load_msg!(block_a, 16);
        let mut am2 = load_msg!(block_a, 32);
        let mut am3 = load_msg!(block_a, 48);
        let mut bm0 = load_msg!(block_b, 0);
        let mut bm1 = load_msg!(block_b, 16);
        let mut bm2 = load_msg!(block_b, 32);
        let mut bm3 = load_msg!(block_b, 48);

        macro_rules! kvec {
            ($i:expr) => {
                unsafe { _mm_loadu_si128(K.as_ptr().add(4 * $i).cast()) }
            };
        }
        // Four rounds on both lanes: the A-lane and B-lane `sha256rnds2`
        // pairs are issued back-to-back so they overlap in the pipeline.
        macro_rules! rounds4x2 {
            ($am:expr, $bm:expr, $i:expr) => {{
                let k = kvec!($i);
                let wka = _mm_add_epi32($am, k);
                let wkb = _mm_add_epi32($bm, k);
                a1 = _mm_sha256rnds2_epu32(a1, a0, wka);
                b1 = _mm_sha256rnds2_epu32(b1, b0, wkb);
                let wka = _mm_shuffle_epi32(wka, 0x0E);
                let wkb = _mm_shuffle_epi32(wkb, 0x0E);
                a0 = _mm_sha256rnds2_epu32(a0, a1, wka);
                b0 = _mm_sha256rnds2_epu32(b0, b1, wkb);
            }};
        }
        // Message-schedule update for both lanes' w[t..t+4].
        macro_rules! schedule_x2 {
            ($aw0:expr, $aw2:expr, $aw3:expr, $bw0:expr, $bw2:expr, $bw3:expr) => {{
                let ta = _mm_alignr_epi8($aw3, $aw2, 4);
                let tb = _mm_alignr_epi8($bw3, $bw2, 4);
                $aw0 = _mm_add_epi32($aw0, ta);
                $bw0 = _mm_add_epi32($bw0, tb);
                $aw0 = _mm_sha256msg2_epu32($aw0, $aw3);
                $bw0 = _mm_sha256msg2_epu32($bw0, $bw3);
            }};
        }
        macro_rules! msg1_x2 {
            ($aw:expr, $an:expr, $bw:expr, $bn:expr) => {{
                $aw = _mm_sha256msg1_epu32($aw, $an);
                $bw = _mm_sha256msg1_epu32($bw, $bn);
            }};
        }

        rounds4x2!(am0, bm0, 0);
        rounds4x2!(am1, bm1, 1);
        msg1_x2!(am0, am1, bm0, bm1);
        rounds4x2!(am2, bm2, 2);
        msg1_x2!(am1, am2, bm1, bm2);
        rounds4x2!(am3, bm3, 3);
        schedule_x2!(am0, am2, am3, bm0, bm2, bm3);
        msg1_x2!(am2, am3, bm2, bm3);
        rounds4x2!(am0, bm0, 4);
        schedule_x2!(am1, am3, am0, bm1, bm3, bm0);
        msg1_x2!(am3, am0, bm3, bm0);
        rounds4x2!(am1, bm1, 5);
        schedule_x2!(am2, am0, am1, bm2, bm0, bm1);
        msg1_x2!(am0, am1, bm0, bm1);
        rounds4x2!(am2, bm2, 6);
        schedule_x2!(am3, am1, am2, bm3, bm1, bm2);
        msg1_x2!(am1, am2, bm1, bm2);
        rounds4x2!(am3, bm3, 7);
        schedule_x2!(am0, am2, am3, bm0, bm2, bm3);
        msg1_x2!(am2, am3, bm2, bm3);
        rounds4x2!(am0, bm0, 8);
        schedule_x2!(am1, am3, am0, bm1, bm3, bm0);
        msg1_x2!(am3, am0, bm3, bm0);
        rounds4x2!(am1, bm1, 9);
        schedule_x2!(am2, am0, am1, bm2, bm0, bm1);
        msg1_x2!(am0, am1, bm0, bm1);
        rounds4x2!(am2, bm2, 10);
        schedule_x2!(am3, am1, am2, bm3, bm1, bm2);
        msg1_x2!(am1, am2, bm1, bm2);
        rounds4x2!(am3, bm3, 11);
        schedule_x2!(am0, am2, am3, bm0, bm2, bm3);
        msg1_x2!(am2, am3, bm2, bm3);
        rounds4x2!(am0, bm0, 12);
        schedule_x2!(am1, am3, am0, bm1, bm3, bm0);
        msg1_x2!(am3, am0, bm3, bm0);
        rounds4x2!(am1, bm1, 13);
        schedule_x2!(am2, am0, am1, bm2, bm0, bm1);
        rounds4x2!(am2, bm2, 14);
        schedule_x2!(am3, am1, am2, bm3, bm1, bm2);
        rounds4x2!(am3, bm3, 15);

        a0 = _mm_add_epi32(a0, a_save.0);
        a1 = _mm_add_epi32(a1, a_save.1);
        b0 = _mm_add_epi32(b0, b_save.0);
        b1 = _mm_add_epi32(b1, b_save.1);

        // Epilogue (per lane): back to (DCBA, HGFE) memory order.
        macro_rules! store_state {
            ($state:expr, $s0:expr, $s1:expr) => {{
                let tmp = _mm_shuffle_epi32($s0, 0x1B);
                let s1 = _mm_shuffle_epi32($s1, 0xB1);
                let lo = _mm_blend_epi16(tmp, s1, 0xF0);
                let hi = _mm_alignr_epi8(s1, tmp, 8);
                unsafe {
                    _mm_storeu_si128($state.as_mut_ptr().cast(), lo);
                    _mm_storeu_si128($state.as_mut_ptr().add(4).cast(), hi);
                }
            }};
        }
        store_state!(state_a, a0, a1);
        store_state!(state_b, b0, b1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::sha256;

    fn corpus() -> Vec<Vec<u8>> {
        // Lengths straddling every padding threshold (55/56/63/64/65,
        // multi-block) plus a spread of unaligned sizes.
        let lens = [
            0usize, 1, 3, 31, 54, 55, 56, 57, 63, 64, 65, 100, 119, 120, 121, 127, 128, 129, 200,
            255, 256, 300, 1000,
        ];
        lens.iter()
            .enumerate()
            .map(|(i, &n)| {
                (0..n)
                    .map(|j| (j as u8).wrapping_mul(i as u8 + 3))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn many_matches_scalar_on_padding_corpus() {
        let msgs = corpus();
        let refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
        let expect: Vec<_> = refs.iter().map(|m| sha256(m)).collect();
        // Every window size exercises different lane/remainder groupings.
        for width in 1..=refs.len() {
            for window in refs.windows(width) {
                let want: Vec<_> = window.iter().map(|m| sha256(m)).collect();
                assert_eq!(sha256_many(window), want, "dispatch width {width}");
                assert_eq!(sha256_many_portable(window), want, "portable width {width}");
            }
        }
        assert_eq!(sha256_many(&refs), expect);
    }

    #[test]
    fn empty_and_single_inputs() {
        assert!(sha256_many(&[]).is_empty());
        assert_eq!(sha256_many(&[b""]), vec![sha256(b"")]);
        assert_eq!(sha256_many_portable(&[b"abc"]), vec![sha256(b"abc")]);
    }

    #[test]
    fn lanes_reports_a_supported_width() {
        assert!(matches!(lanes(), 2 | 4));
    }
}

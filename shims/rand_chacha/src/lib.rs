//! Offline shim for the `rand_chacha` crate: a real ChaCha stream-cipher
//! core (8/12/20 rounds) keyed from a 64-bit seed via SplitMix64. The round
//! count is a const generic, so each generator's block function is
//! compiled with its rounds fixed.
//!
//! A refill computes four consecutive blocks at once. On x86_64 it runs
//! the four in the lanes of SSE2 vectors (SSE2 is part of the x86_64
//! baseline, so nothing is detected at run time); elsewhere it calls the
//! scalar block function four times. The scalar function is also the
//! test oracle of the four-block core. Either way the words come out in
//! block order, so the stream is the one the scalar function produces
//! block after block.
//!
//! Deterministic and stable for this repository, but **not** bit-compatible
//! with the crates.io `rand_chacha` output stream. See `shims/README.md`.

use rand::{RngCore, SeedableRng};

const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// Blocks computed per refill.
const BLOCKS: usize = 4;

/// Words buffered per refill.
const BUF_WORDS: usize = 16 * BLOCKS;

#[derive(Clone, Debug)]
struct ChaChaCore<const ROUNDS: usize> {
    state: [u32; 16],
    buf: [u32; BUF_WORDS],
    idx: usize,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The 64-bit block counter in words 12 (low) and 13 (high).
fn counter(state: &[u32; 16]) -> u64 {
    u64::from(state[12]) | (u64::from(state[13]) << 32)
}

fn set_counter(state: &mut [u32; 16], counter: u64) {
    state[12] = counter as u32;
    state[13] = (counter >> 32) as u32;
}

#[cfg(any(test, not(target_arch = "x86_64")))]
#[inline]
fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

/// One ChaCha block of `state` into `out`: the scalar block function.
#[cfg(any(test, not(target_arch = "x86_64")))]
fn block<const ROUNDS: usize>(state: &[u32; 16], out: &mut [u32]) {
    let mut w = *state;
    for _ in 0..ROUNDS / 2 {
        quarter_round(&mut w, 0, 4, 8, 12);
        quarter_round(&mut w, 1, 5, 9, 13);
        quarter_round(&mut w, 2, 6, 10, 14);
        quarter_round(&mut w, 3, 7, 11, 15);
        quarter_round(&mut w, 0, 5, 10, 15);
        quarter_round(&mut w, 1, 6, 11, 12);
        quarter_round(&mut w, 2, 7, 8, 13);
        quarter_round(&mut w, 3, 4, 9, 14);
    }
    for ((out, &w), &s) in out.iter_mut().zip(&w).zip(state) {
        *out = w.wrapping_add(s);
    }
}

/// Blocks `counter .. counter + 4` of `state` into `out`, block after
/// block, by the scalar block function.
#[cfg(any(test, not(target_arch = "x86_64")))]
fn blocks4_scalar<const ROUNDS: usize>(state: &[u32; 16], out: &mut [u32; BUF_WORDS]) {
    let mut s = *state;
    for out in out.chunks_exact_mut(16) {
        block::<ROUNDS>(&s, out);
        let next = counter(&s).wrapping_add(1);
        set_counter(&mut s, next);
    }
}

/// Blocks `counter .. counter + 4` of `state` into `out`, block after
/// block: the same words as `blocks4_scalar`.
///
/// Each of the sixteen state words is one SSE2 vector whose lane `j`
/// belongs to block `counter + j`, so a round is the scalar round on four
/// blocks at once and no lane ever reads another. Only the counter words
/// differ between lanes; the 64-bit counter is carried per lane. At the
/// end each group of four words is transposed from lanes into blocks.
#[cfg(target_arch = "x86_64")]
fn blocks4_sse2<const ROUNDS: usize>(state: &[u32; 16], out: &mut [u32; BUF_WORDS]) {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_or_si128, _mm_set1_epi32, _mm_set_epi32, _mm_shufflehi_epi16,
        _mm_shufflelo_epi16, _mm_slli_epi32, _mm_srli_epi32, _mm_storeu_si128, _mm_unpackhi_epi32,
        _mm_unpackhi_epi64, _mm_unpacklo_epi32, _mm_unpacklo_epi64, _mm_xor_si128,
    };

    let c = counter(state);
    let lanes: [u64; BLOCKS] = std::array::from_fn(|j| c.wrapping_add(j as u64));

    // SAFETY: every intrinsic here requires SSE2, which the x86_64 target
    // enables for every build (it is part of the architecture's
    // baseline), and none of them touches memory: they read and write
    // vector values only.
    let x: [__m128i; 16] = unsafe {
        let init: [__m128i; 16] = std::array::from_fn(|i| match i {
            // Lanes go highest first; `as i32` keeps the low 32 bits.
            12 => _mm_set_epi32(
                lanes[3] as i32,
                lanes[2] as i32,
                lanes[1] as i32,
                lanes[0] as i32,
            ),
            13 => _mm_set_epi32(
                (lanes[3] >> 32) as i32,
                (lanes[2] >> 32) as i32,
                (lanes[1] >> 32) as i32,
                (lanes[0] >> 32) as i32,
            ),
            _ => _mm_set1_epi32(state[i] as i32),
        });
        let mut x = init;
        macro_rules! rotl {
            ($v:expr, 16) => {
                _mm_shufflehi_epi16::<0xB1>(_mm_shufflelo_epi16::<0xB1>($v))
            };
            ($v:expr, $n:literal) => {
                _mm_or_si128(_mm_slli_epi32::<$n>($v), _mm_srli_epi32::<{ 32 - $n }>($v))
            };
        }
        macro_rules! quarter {
            ($a:expr, $b:expr, $c:expr, $d:expr) => {
                x[$a] = _mm_add_epi32(x[$a], x[$b]);
                x[$d] = rotl!(_mm_xor_si128(x[$d], x[$a]), 16);
                x[$c] = _mm_add_epi32(x[$c], x[$d]);
                x[$b] = rotl!(_mm_xor_si128(x[$b], x[$c]), 12);
                x[$a] = _mm_add_epi32(x[$a], x[$b]);
                x[$d] = rotl!(_mm_xor_si128(x[$d], x[$a]), 8);
                x[$c] = _mm_add_epi32(x[$c], x[$d]);
                x[$b] = rotl!(_mm_xor_si128(x[$b], x[$c]), 7);
            };
        }
        for _ in 0..ROUNDS / 2 {
            quarter!(0, 4, 8, 12);
            quarter!(1, 5, 9, 13);
            quarter!(2, 6, 10, 14);
            quarter!(3, 7, 11, 15);
            quarter!(0, 5, 10, 15);
            quarter!(1, 6, 11, 12);
            quarter!(2, 7, 8, 13);
            quarter!(3, 4, 9, 14);
        }
        std::array::from_fn(|i| _mm_add_epi32(x[i], init[i]))
    };

    for (k, g) in x.chunks_exact(4).enumerate() {
        // SAFETY: SSE2 is enabled on every x86_64 target (see above). The
        // unpacks only compute; each store writes 16 bytes, unaligned, to
        // `out[16 * j + 4 * k ..][..4]`, a slice of four `u32`s that the
        // indexing has checked lies inside `out`.
        unsafe {
            let ab_lo = _mm_unpacklo_epi32(g[0], g[1]);
            let cd_lo = _mm_unpacklo_epi32(g[2], g[3]);
            let ab_hi = _mm_unpackhi_epi32(g[0], g[1]);
            let cd_hi = _mm_unpackhi_epi32(g[2], g[3]);
            let blocks = [
                _mm_unpacklo_epi64(ab_lo, cd_lo),
                _mm_unpackhi_epi64(ab_lo, cd_lo),
                _mm_unpacklo_epi64(ab_hi, cd_hi),
                _mm_unpackhi_epi64(ab_hi, cd_hi),
            ];
            for (j, v) in blocks.into_iter().enumerate() {
                let dst: &mut [u32] = &mut out[16 * j + 4 * k..][..4];
                _mm_storeu_si128(dst.as_mut_ptr().cast::<__m128i>(), v);
            }
        }
    }
}

impl<const ROUNDS: usize> ChaChaCore<ROUNDS> {
    fn from_seed_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&SIGMA);
        for i in 0..4 {
            let w = splitmix64(&mut sm);
            state[4 + 2 * i] = w as u32;
            state[4 + 2 * i + 1] = (w >> 32) as u32;
        }
        // counter = 0, nonce = 0
        ChaChaCore {
            state,
            buf: [0; BUF_WORDS],
            idx: BUF_WORDS,
        }
    }

    /// The next four blocks into the buffer.
    #[inline(never)]
    fn refill(&mut self) {
        #[cfg(target_arch = "x86_64")]
        blocks4_sse2::<ROUNDS>(&self.state, &mut self.buf);
        #[cfg(not(target_arch = "x86_64"))]
        blocks4_scalar::<ROUNDS>(&self.state, &mut self.buf);
        let next = counter(&self.state).wrapping_add(BLOCKS as u64);
        set_counter(&mut self.state, next);
        self.idx = 0;
    }

    #[inline]
    fn next_word(&mut self) -> u32 {
        let mut i = self.idx;
        if i >= BUF_WORDS {
            self.refill();
            i = 0;
        }
        self.idx = i + 1;
        self.buf[i]
    }

    /// Two words, low first, read in place while both are buffered.
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let i = self.idx;
        if i + 1 < BUF_WORDS {
            self.idx = i + 2;
            u64::from(self.buf[i]) | (u64::from(self.buf[i + 1]) << 32)
        } else {
            self.next_u64_across()
        }
    }

    /// A draw that needs a refill: the buffer is empty, or holds only the
    /// low word.
    #[inline(never)]
    fn next_u64_across(&mut self) -> u64 {
        let lo = u64::from(self.next_word());
        let hi = u64::from(self.next_word());
        lo | (hi << 32)
    }
}

macro_rules! chacha_rng {
    ($(#[$doc:meta])* $name:ident, $rounds:expr) => {
        $(#[$doc])*
        #[derive(Clone, Debug)]
        pub struct $name {
            core: ChaChaCore<$rounds>,
        }

        impl SeedableRng for $name {
            fn seed_from_u64(seed: u64) -> Self {
                $name {
                    core: ChaChaCore::from_seed_u64(seed),
                }
            }
        }

        impl RngCore for $name {
            #[inline]
            fn next_u64(&mut self) -> u64 {
                self.core.next_u64()
            }

            #[inline]
            fn next_u32(&mut self) -> u32 {
                self.core.next_word()
            }
        }
    };
}

chacha_rng!(
    /// ChaCha with 8 rounds.
    ChaCha8Rng,
    8
);
chacha_rng!(
    /// ChaCha with 12 rounds (the workspace's reproducibility workhorse).
    ChaCha12Rng,
    12
);
chacha_rng!(
    /// ChaCha with 20 rounds.
    ChaCha20Rng,
    20
);

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn deterministic_per_seed() {
        let mut a = ChaCha12Rng::seed_from_u64(1234);
        let mut b = ChaCha12Rng::seed_from_u64(1234);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = ChaCha12Rng::seed_from_u64(1235);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn chacha20_test_vector_block_shape() {
        // Sanity: the all-zero-keyed raw block function must match the
        // RFC 8439 structure (first word of block 0 for the zero key/nonce).
        let mut core = ChaChaCore::<20> {
            state: {
                let mut s = [0u32; 16];
                s[..4].copy_from_slice(&SIGMA);
                s
            },
            buf: [0; BUF_WORDS],
            idx: BUF_WORDS,
        };
        // RFC 8439 §2.3.2-style zero-key block: spot-check the constant mix.
        let w = core.next_word();
        assert_eq!(w, 0xade0b876, "zero-key ChaCha20 block 0 word 0");
    }

    #[test]
    fn stream_continues_across_blocks() {
        let mut r = ChaCha8Rng::seed_from_u64(7);
        let first: Vec<u32> = (0..40).map(|_| r.next_u32()).collect();
        let mut r2 = ChaCha8Rng::seed_from_u64(7);
        let again: Vec<u32> = (0..40).map(|_| r2.next_u32()).collect();
        assert_eq!(first, again);
        // More than one 16-word block was produced and they differ.
        assert_ne!(&first[..16], &first[16..32]);
    }

    /// Refills `core` `refills` times and checks every buffered word
    /// against the scalar block function run block after block.
    fn refills_match_scalar<const ROUNDS: usize>(mut core: ChaChaCore<ROUNDS>, refills: usize) {
        let mut state = core.state;
        let mut want = [0u32; BUF_WORDS];
        for r in 0..refills {
            blocks4_scalar::<ROUNDS>(&state, &mut want);
            core.refill();
            assert_eq!(core.buf, want, "{ROUNDS} rounds, refill {r}");
            let next = counter(&state).wrapping_add(BLOCKS as u64);
            set_counter(&mut state, next);
            assert_eq!(core.state, state, "{ROUNDS} rounds, state after refill {r}");
        }
    }

    fn four_block_core_matches_scalar_from<const ROUNDS: usize>(low_counter: [u32; 2]) {
        for seed in [0, 0x5eed_1234_abcd, u64::MAX] {
            let mut core = ChaChaCore::<ROUNDS>::from_seed_u64(seed);
            core.state[12] = low_counter[0];
            core.state[13] = low_counter[1];
            refills_match_scalar(core, 64);
        }
    }

    /// 64 refills (256 blocks) of each round count for three seeds.
    #[test]
    fn four_block_core_matches_scalar() {
        four_block_core_matches_scalar_from::<8>([0, 0]);
        four_block_core_matches_scalar_from::<12>([0, 0]);
        four_block_core_matches_scalar_from::<20>([0, 0]);
    }

    /// A refill whose blocks carry the counter's low word into word 13,
    /// and one that wraps the whole 64-bit counter.
    #[test]
    fn four_block_core_carries_the_counter() {
        four_block_core_matches_scalar_from::<8>([u32::MAX - 1, 0]);
        four_block_core_matches_scalar_from::<12>([u32::MAX - 1, 7]);
        four_block_core_matches_scalar_from::<20>([u32::MAX - 1, 0]);
        four_block_core_matches_scalar_from::<12>([u32::MAX - 1, u32::MAX]);
        let mut core = ChaChaCore::<12>::from_seed_u64(3);
        core.state[12] = u32::MAX - 1;
        core.refill();
        assert_eq!(counter(&core.state), (1 << 32) + 2);
    }

    /// `next_u64` reads two words in place and spans a refill when only
    /// one is left: both ways it returns the next two `u32`s, low first.
    #[test]
    fn u64_draws_are_word_pairs() {
        let mut words = ChaCha12Rng::seed_from_u64(9);
        let mut draws = ChaCha12Rng::seed_from_u64(9);
        for skip in [0, 1] {
            for _ in 0..skip {
                assert_eq!(draws.next_u32(), words.next_u32());
            }
            for _ in 0..200 {
                let lo = u64::from(words.next_u32());
                let hi = u64::from(words.next_u32());
                assert_eq!(draws.next_u64(), lo | (hi << 32));
            }
        }
    }

    fn first_40<R: SeedableRng + RngCore>(seed: u64) -> Vec<u32> {
        let mut r = R::seed_from_u64(seed);
        (0..40).map(|_| r.next_u32()).collect()
    }

    /// Known answers: the first 40 words (two and a half blocks) of every
    /// round count for two seeds. Any change to keying, the block
    /// function or the block counter moves every traffic draw in the
    /// workspace, so these pin the streams bit for bit.
    #[test]
    fn known_answer_words() {
        assert_eq!(
            first_40::<ChaCha8Rng>(0),
            [
                0x2d8ee5e8, 0xbf94d133, 0xa6da5a01, 0x3a738775, 0xc143ee06, 0x3d46ff10, 0xe9f6424f,
                0x17c6ab23, 0x2fb6898b, 0x5ce2479b, 0x86bff662, 0x0ae8099f, 0xc72f90bd, 0x5f2f09fd,
                0x28e5a01f, 0x95d53efa, 0x94efaf48, 0x1131e62b, 0x17d7a4e4, 0x9eec7e55, 0xcd4c18d1,
                0xe553e127, 0x3505e613, 0xb9d551f1, 0xd28d82a2, 0x0a1ffcc2, 0xf64a441d, 0xfc9216ba,
                0x4b017931, 0xb3c61fd5, 0x23eb502b, 0xe857b19d, 0x1bfcd6d6, 0x5a512cb9, 0x44766985,
                0x029e3799, 0x3c8b61fe, 0xca6410bd, 0xbfdc08ce, 0xa2c1439d,
            ],
            "ChaCha8Rng seed 0"
        );
        assert_eq!(
            first_40::<ChaCha12Rng>(0),
            [
                0x82b67bca, 0xd18c9d7b, 0xdd8c2eb1, 0x73f1688a, 0x2bbe7197, 0x65b16a72, 0xab5ceb0a,
                0x544515e3, 0x7cefd08f, 0xc348ae59, 0xadcb0258, 0x19169280, 0x0513251c, 0xbea27070,
                0xf8fca523, 0xa4599b32, 0xe6e15f10, 0x90eb499a, 0xbedb63ec, 0xc07d704b, 0x8222e7fc,
                0x0b80d6d7, 0xdf5b06ad, 0x53588c93, 0x4b087ecd, 0x0d560479, 0xd3d241f5, 0x41807d37,
                0xc8b0bce9, 0x35ddb463, 0x687f20d9, 0xb280bf30, 0xe49d82c3, 0x8019cf4c, 0xd0da9f85,
                0x5f07f260, 0xcafc7aa7, 0x248a5a8f, 0x1c655b08, 0x25ac2b6a,
            ],
            "ChaCha12Rng seed 0"
        );
        assert_eq!(
            first_40::<ChaCha20Rng>(0),
            [
                0xc1fe3186, 0xd1e7f859, 0x7bcc56d5, 0x547fd235, 0xb1a1bea5, 0x3ec9f510, 0x03199cee,
                0x63a26b2c, 0x063e2cef, 0x9ca28cb9, 0x5e0933b0, 0xc9f0e812, 0x63a872a0, 0x4e8d51f2,
                0x7a3ddf53, 0xcfe90969, 0x7dd9f704, 0xa44de367, 0x004c5a24, 0x5cebf03d, 0x60a3314f,
                0x27ff525c, 0xa915be0e, 0x77fd9187, 0x5ac3324f, 0x3175f7c8, 0x5ba37713, 0xe33a63ae,
                0xb995a8e4, 0x35ece72d, 0xce849fe9, 0x112ad597, 0x948e6601, 0x09140736, 0x2096930e,
                0xc1cb9f78, 0x3319d5da, 0x326a3330, 0x6449b52c, 0x84502276,
            ],
            "ChaCha20Rng seed 0"
        );
        assert_eq!(
            first_40::<ChaCha8Rng>(0x5eed_1234_abcd),
            [
                0xf9b51350, 0x3f942d50, 0x73fb4366, 0x901df263, 0x67b9b2e4, 0xd88df0e3, 0xe0c3bf57,
                0xbbc419b8, 0xa431156d, 0xbbc8e4de, 0x1bc03b19, 0x0774a35d, 0x6c84ce71, 0xd49076de,
                0x0eb7ea2c, 0x3912a1ee, 0x5e77d513, 0x88d138a6, 0xbb4f4693, 0x4ed01191, 0x9d3d0e1a,
                0xba109931, 0x01d82bfe, 0x67417ed8, 0x0a65aff9, 0x80a10659, 0x96a56364, 0xc6f52264,
                0x3c853a42, 0x8207ccc8, 0x440281f0, 0xc9458a4a, 0xb50e3476, 0xbf163379, 0x561627be,
                0xabe92214, 0x5847e107, 0xf47b6335, 0x450fffd1, 0xf7316ba4,
            ],
            "ChaCha8Rng seed 0x5eed_1234_abcd"
        );
        assert_eq!(
            first_40::<ChaCha12Rng>(0x5eed_1234_abcd),
            [
                0x3e94b324, 0x0e3c951c, 0x716613f6, 0x1b8568c2, 0x71673b2b, 0x41d60537, 0xb9d15bda,
                0x98d70998, 0x3b494ace, 0x579ee9a8, 0x2a8ad641, 0x9fe4f86e, 0x6a24e34e, 0x6a8d1a66,
                0x1a1b690e, 0x20b5cb45, 0xa3a9c7ab, 0xfaaab2db, 0x76bbe914, 0x117d7003, 0xae746bc5,
                0xd4637199, 0xec083f24, 0x79ed81bb, 0x8daa6807, 0xcdc0bfc7, 0x7340602a, 0xf2d01862,
                0x1fd04612, 0xb652b3cf, 0x75e6a044, 0x7b801895, 0x19ff9d7b, 0x5ab3d7f0, 0x65c975b2,
                0x65936d57, 0xdca4cb09, 0x35b8901b, 0x7e164d6d, 0x4513b38e,
            ],
            "ChaCha12Rng seed 0x5eed_1234_abcd"
        );
        assert_eq!(
            first_40::<ChaCha20Rng>(0x5eed_1234_abcd),
            [
                0xafa20d12, 0x790422b9, 0x69d1c575, 0xbcc643db, 0x980b1699, 0x6f8e59f5, 0x31ef1249,
                0x547d2b9b, 0x00a43a59, 0x54b89d2d, 0x5b1aa225, 0x6abc0712, 0xe40dacb0, 0x7ba46a35,
                0xd7d95fec, 0xb7bd1d72, 0x01c29da1, 0x54ff35e1, 0x05720415, 0x40756a9c, 0xe0301c05,
                0x5c0cad75, 0x38d16ff1, 0xceab689e, 0x38bf9722, 0xb7efbb1d, 0xb23a4168, 0xabcf90e6,
                0xa87f54c9, 0x187ef10c, 0xf99b9778, 0x18cf1ac2, 0xc0467bf7, 0xada107be, 0xb2324f58,
                0xe369d1f2, 0x60c480e6, 0x08d9f3ca, 0x042b5870, 0xa54a9072,
            ],
            "ChaCha20Rng seed 0x5eed_1234_abcd"
        );
    }

    /// Known answers for the draws traffic generation makes:
    /// `gen_bool(0.02)` (a Bernoulli injection) interleaved with
    /// `gen_range(0..12)` (a destination on the 4x3 machine), and the
    /// cycles of 2,000 Bernoulli draws that came up `true`.
    #[test]
    fn known_answer_draws() {
        let mut r = ChaCha12Rng::seed_from_u64(42);
        let mut bools = String::new();
        let mut ranges = Vec::new();
        for _ in 0..64 {
            bools.push(if r.gen_bool(0.02) { '1' } else { '0' });
            ranges.push(r.gen_range(0..12usize));
        }
        assert_eq!(
            bools,
            "0000000000000000000100000000000000000000000010000000000010000000"
        );
        assert_eq!(
            ranges,
            [
                7, 9, 1, 11, 10, 2, 3, 9, 0, 7, 11, 5, 8, 2, 10, 2, 0, 4, 6, 11, 10, 3, 5, 0, 0, 1,
                6, 2, 1, 4, 3, 9, 0, 9, 7, 4, 1, 4, 4, 1, 7, 3, 6, 2, 7, 2, 2, 2, 2, 9, 0, 8, 7,
                10, 4, 2, 0, 5, 6, 0, 2, 11, 8, 6
            ]
        );
        let mut r = ChaCha12Rng::seed_from_u64(7);
        let hits: Vec<usize> = (0..2000).filter(|_| r.gen_bool(0.02)).collect();
        assert_eq!(
            hits,
            [
                22, 32, 89, 153, 235, 242, 439, 567, 634, 698, 771, 800, 830, 857, 904, 978, 985,
                1010, 1031, 1032, 1033, 1052, 1116, 1118, 1235, 1312, 1319, 1334, 1355, 1379, 1435,
                1541, 1565, 1568, 1626, 1643, 1654, 1661, 1693, 1892, 1917, 1940, 1951
            ]
        );
    }
}

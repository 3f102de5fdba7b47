//! Offline drop-in replacement for the subset of `rand` 0.8 that CapGPU
//! uses: [`rngs::StdRng`], [`SeedableRng::seed_from_u64`] and
//! [`Rng::gen_range`] over float and integer ranges.
//!
//! The build environment has no access to crates.io, so this crate
//! reimplements the exact algorithms of `rand` 0.8 / `rand_chacha` 0.3 /
//! `rand_core` 0.6 rather than approximating them:
//!
//! * `StdRng` is ChaCha with 12 rounds, a 64-bit block counter and the
//!   standard IETF constants, exactly as in `rand_chacha::ChaCha12Rng` —
//!   and, like it, buffers four blocks per refill (SSE2 on `x86_64`, one
//!   block per lane; word-by-word elsewhere, which is also the oracle
//!   the SIMD refill is tested against).
//! * `seed_from_u64` expands the `u64` with the PCG32 output function,
//!   exactly as `rand_core` 0.6 does.
//! * `gen_range` on floats draws `[1, 2)` from the top 52 bits of a
//!   `u64` and rescales; on integers it uses widening-multiply rejection
//!   sampling — both exactly as `rand` 0.8's `UniformFloat`/`UniformInt`
//!   `sample_single`.
//!
//! The streams are therefore bit-identical to the real crate for every
//! call pattern the workspace exercises, so simulations calibrated
//! against `rand` 0.8 seeds reproduce unchanged.

#![warn(missing_docs)]

use std::ops::Range;

/// A random number generator seedable from reproducible state.
pub trait SeedableRng: Sized {
    /// Fixed-size seed type.
    type Seed: Default + AsMut<[u8]>;

    /// Creates the generator from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Creates the generator from a `u64`, expanding it with the PCG32
    /// output function (`rand_core` 0.6's default implementation).
    fn seed_from_u64(mut state: u64) -> Self {
        fn pcg32(state: &mut u64) -> [u8; 4] {
            const MUL: u64 = 6_364_136_223_846_793_005;
            const INC: u64 = 11_634_580_027_462_260_723;
            *state = state.wrapping_mul(MUL).wrapping_add(INC);
            let s = *state;
            let xorshifted = (((s >> 18) ^ s) >> 27) as u32;
            let rot = (s >> 59) as u32;
            xorshifted.rotate_right(rot).to_le_bytes()
        }
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(4) {
            let bytes = pcg32(&mut state);
            let n = chunk.len();
            chunk.copy_from_slice(&bytes[..n]);
        }
        Self::from_seed(seed)
    }
}

/// Core RNG interface: raw 32- and 64-bit draws.
pub trait RngCore {
    /// Next raw `u32`.
    fn next_u32(&mut self) -> u32;
    /// Next raw `u64`.
    fn next_u64(&mut self) -> u64;
}

/// User-facing sampling interface (the subset of `rand::Rng` in use).
pub trait Rng: RngCore {
    /// Samples uniformly from a half-open range, matching `rand` 0.8's
    /// `sample_single` algorithms bit-for-bit.
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        T: SampleUniform,
        R: Into<Range<T>>,
    {
        let r = range.into();
        T::sample_single(r.start, r.end, self)
    }

    /// Samples a value of type `T` (only `u64`/`f64` are implemented).
    fn gen<T: Standard>(&mut self) -> T {
        T::sample_standard(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R where R: Sized {}

/// Types samplable by [`Rng::gen`].
pub trait Standard: Sized {
    /// Draws one value from the standard distribution.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // rand 0.8 `Standard` for f64: 53-bit multiply into [0, 1).
        let x = rng.next_u64() >> 11;
        x as f64 * (1.0 / ((1u64 << 53) as f64))
    }
}

/// Types uniformly samplable over a half-open range.
pub trait SampleUniform: PartialOrd + Sized {
    /// Uniform draw from `[low, high)` (`rand` 0.8 `sample_single`).
    fn sample_single<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self;
}

impl SampleUniform for f64 {
    fn sample_single<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self {
        debug_assert!(low < high, "gen_range: low >= high");
        let scale = high - low;
        // Value in [1, 2) from the top 52 bits, then rescale — exactly
        // rand 0.8's UniformFloat::<f64>::sample_single.
        let value1_2 = f64::from_bits((rng.next_u64() >> 12) | (1023u64 << 52));
        (value1_2 - 1.0) * scale + low
    }
}

impl SampleUniform for f32 {
    fn sample_single<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self {
        debug_assert!(low < high, "gen_range: low >= high");
        let scale = high - low;
        let value1_2 = f32::from_bits((rng.next_u32() >> 9) | (127u32 << 23));
        (value1_2 - 1.0) * scale + low
    }
}

macro_rules! uniform_int_64 {
    ($($ty:ty),*) => {$(
        impl SampleUniform for $ty {
            fn sample_single<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self {
                assert!(low < high, "gen_range: low >= high");
                let range = (high as u64).wrapping_sub(low as u64);
                // rand 0.8 UniformInt::sample_single for 64-bit types:
                // widening multiply with a bit-shifted rejection zone.
                let zone = (range << range.leading_zeros()).wrapping_sub(1);
                loop {
                    let v = rng.next_u64();
                    let wide = (v as u128).wrapping_mul(range as u128);
                    let hi = (wide >> 64) as u64;
                    let lo = wide as u64;
                    if lo <= zone {
                        return (low as u64).wrapping_add(hi) as $ty;
                    }
                }
            }
        }
    )*};
}

uniform_int_64!(u64, i64, usize, isize);

macro_rules! uniform_int_32 {
    ($($ty:ty),*) => {$(
        impl SampleUniform for $ty {
            fn sample_single<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self {
                assert!(low < high, "gen_range: low >= high");
                let range = (high as u32).wrapping_sub(low as u32);
                let zone = (range << range.leading_zeros()).wrapping_sub(1);
                loop {
                    let v = rng.next_u32();
                    let wide = (v as u64).wrapping_mul(range as u64);
                    let hi = (wide >> 32) as u32;
                    let lo = wide as u32;
                    if lo <= zone {
                        return (low as u32).wrapping_add(hi) as $ty;
                    }
                }
            }
        }
    )*};
}

uniform_int_32!(u32, i32);

/// Named generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    const CHACHA_CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

    /// ChaCha blocks generated per refill.
    const BLOCKS: usize = 4;
    /// Words in the output buffer.
    const BUFFER_WORDS: usize = 16 * BLOCKS;

    /// The standard generator of `rand` 0.8: ChaCha with 12 rounds.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        /// Key words (state words 4..12).
        key: [u32; 8],
        /// 64-bit block counter (state words 12, 13) of the next block
        /// to generate.
        counter: u64,
        /// Stream id (state words 14, 15) — 0 for seeded construction.
        stream: [u32; 2],
        /// Four consecutive output blocks.
        buffer: [u32; BUFFER_WORDS],
        /// Next unread word in `buffer`; `BUFFER_WORDS` = exhausted.
        index: usize,
    }

    impl StdRng {
        /// Generates the next four blocks. The words come out in the
        /// order one-block-at-a-time generation yields them; four at a
        /// time is only cheaper (one block per SIMD lane on `x86_64`).
        #[inline(never)]
        fn refill(&mut self) {
            #[cfg(target_arch = "x86_64")]
            {
                self.buffer = sse2::four_blocks(&self.key, self.counter, self.stream);
            }
            #[cfg(not(target_arch = "x86_64"))]
            for (n, out) in self.buffer.chunks_exact_mut(16).enumerate() {
                let counter = self.counter.wrapping_add(n as u64);
                out.copy_from_slice(&scalar_block(&self.key, counter, self.stream));
            }
            self.counter = self.counter.wrapping_add(BLOCKS as u64);
            self.index = 0;
        }
    }

    /// The sixteen input words of block `counter`.
    fn block_input(key: &[u32; 8], counter: u64, stream: [u32; 2]) -> [u32; 16] {
        [
            CHACHA_CONSTANTS[0],
            CHACHA_CONSTANTS[1],
            CHACHA_CONSTANTS[2],
            CHACHA_CONSTANTS[3],
            key[0],
            key[1],
            key[2],
            key[3],
            key[4],
            key[5],
            key[6],
            key[7],
            counter as u32,
            (counter >> 32) as u32,
            stream[0],
            stream[1],
        ]
    }

    /// One ChaCha12 block, word by word: the portable refill, and the
    /// oracle the SIMD refill is tested against.
    #[cfg(any(test, not(target_arch = "x86_64")))]
    pub(super) fn scalar_block(key: &[u32; 8], counter: u64, stream: [u32; 2]) -> [u32; 16] {
        #[inline(always)]
        fn quarter(x: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
            x[a] = x[a].wrapping_add(x[b]);
            x[d] = (x[d] ^ x[a]).rotate_left(16);
            x[c] = x[c].wrapping_add(x[d]);
            x[b] = (x[b] ^ x[c]).rotate_left(12);
            x[a] = x[a].wrapping_add(x[b]);
            x[d] = (x[d] ^ x[a]).rotate_left(8);
            x[c] = x[c].wrapping_add(x[d]);
            x[b] = (x[b] ^ x[c]).rotate_left(7);
        }
        let input = block_input(key, counter, stream);
        let mut x = input;
        for _ in 0..6 {
            // Column round.
            quarter(&mut x, 0, 4, 8, 12);
            quarter(&mut x, 1, 5, 9, 13);
            quarter(&mut x, 2, 6, 10, 14);
            quarter(&mut x, 3, 7, 11, 15);
            // Diagonal round.
            quarter(&mut x, 0, 5, 10, 15);
            quarter(&mut x, 1, 6, 11, 12);
            quarter(&mut x, 2, 7, 8, 13);
            quarter(&mut x, 3, 4, 9, 14);
        }
        for (o, i) in x.iter_mut().zip(input.iter()) {
            *o = o.wrapping_add(*i);
        }
        x
    }

    /// Four ChaCha12 blocks at once with SSE2, which every `x86_64` CPU
    /// has: no runtime feature detection.
    #[cfg(target_arch = "x86_64")]
    mod sse2 {
        use super::block_input;
        use core::arch::x86_64::{
            __m128i, _mm_add_epi32, _mm_or_si128, _mm_set1_epi32, _mm_set_epi32, _mm_slli_epi32,
            _mm_srli_epi32, _mm_unpackhi_epi32, _mm_unpackhi_epi64, _mm_unpacklo_epi32,
            _mm_unpacklo_epi64, _mm_xor_si128,
        };

        macro_rules! rotate_left {
            ($v:expr, $n:literal) => {
                _mm_or_si128(_mm_slli_epi32::<$n>($v), _mm_srli_epi32::<{ 32 - $n }>($v))
            };
        }

        macro_rules! quarter {
            ($x:ident, $a:literal, $b:literal, $c:literal, $d:literal) => {
                $x[$a] = _mm_add_epi32($x[$a], $x[$b]);
                $x[$d] = rotate_left!(_mm_xor_si128($x[$d], $x[$a]), 16);
                $x[$c] = _mm_add_epi32($x[$c], $x[$d]);
                $x[$b] = rotate_left!(_mm_xor_si128($x[$b], $x[$c]), 12);
                $x[$a] = _mm_add_epi32($x[$a], $x[$b]);
                $x[$d] = rotate_left!(_mm_xor_si128($x[$d], $x[$a]), 8);
                $x[$c] = _mm_add_epi32($x[$c], $x[$d]);
                $x[$b] = rotate_left!(_mm_xor_si128($x[$b], $x[$c]), 7);
            };
        }

        /// Blocks `counter .. counter + 4` of the keystream, in order.
        /// Vector `x[w]` holds state word `w` of all four blocks, one
        /// block per 32-bit lane, so the rounds are the scalar rounds
        /// with every operation four wide and no shuffles; a 4 × 4
        /// transpose per word group then lays the blocks out one after
        /// the other.
        pub(super) fn four_blocks(key: &[u32; 8], counter: u64, stream: [u32; 2]) -> [u32; 64] {
            let [c0, c1, c2, c3] = [0, 1, 2, 3].map(|lane| counter.wrapping_add(lane));
            // SAFETY: the intrinsics are unsafe to call only because they
            // are `#[target_feature(enable = "sse2")]` functions, and SSE2
            // is part of the x86_64 baseline this module is compiled for;
            // all of them work on register values, none takes a pointer.
            let blocks: [__m128i; 16] = unsafe {
                // Every word but the counter is the same in all four blocks.
                let mut input = block_input(key, counter, stream).map(|w| _mm_set1_epi32(w as i32));
                input[12] = _mm_set_epi32(c3 as i32, c2 as i32, c1 as i32, c0 as i32);
                input[13] = _mm_set_epi32(
                    (c3 >> 32) as i32,
                    (c2 >> 32) as i32,
                    (c1 >> 32) as i32,
                    (c0 >> 32) as i32,
                );
                let mut x = input;
                for _ in 0..6 {
                    // Column round.
                    quarter!(x, 0, 4, 8, 12);
                    quarter!(x, 1, 5, 9, 13);
                    quarter!(x, 2, 6, 10, 14);
                    quarter!(x, 3, 7, 11, 15);
                    // Diagonal round.
                    quarter!(x, 0, 5, 10, 15);
                    quarter!(x, 1, 6, 11, 12);
                    quarter!(x, 2, 7, 8, 13);
                    quarter!(x, 3, 4, 9, 14);
                }
                let mut blocks = input;
                for group in 0..4 {
                    let word = |w: usize| _mm_add_epi32(x[4 * group + w], input[4 * group + w]);
                    let (a, b, c, d) = (word(0), word(1), word(2), word(3));
                    let ab_lo = _mm_unpacklo_epi32(a, b);
                    let ab_hi = _mm_unpackhi_epi32(a, b);
                    let cd_lo = _mm_unpacklo_epi32(c, d);
                    let cd_hi = _mm_unpackhi_epi32(c, d);
                    // Vector `4 * block + group` is words `4 * group ..
                    // 4 * group + 4` of that block.
                    blocks[group] = _mm_unpacklo_epi64(ab_lo, cd_lo);
                    blocks[4 + group] = _mm_unpackhi_epi64(ab_lo, cd_lo);
                    blocks[8 + group] = _mm_unpacklo_epi64(ab_hi, cd_hi);
                    blocks[12 + group] = _mm_unpackhi_epi64(ab_hi, cd_hi);
                }
                blocks
            };
            // SAFETY: both types are 256 bytes of plain integers with no
            // invalid bit patterns; lane 0 of a vector is its lowest
            // address, so the words land in keystream order.
            unsafe { core::mem::transmute::<[__m128i; 16], [u32; 64]>(blocks) }
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut key = [0u32; 8];
            for (i, k) in key.iter_mut().enumerate() {
                *k = u32::from_le_bytes([
                    seed[4 * i],
                    seed[4 * i + 1],
                    seed[4 * i + 2],
                    seed[4 * i + 3],
                ]);
            }
            StdRng {
                key,
                counter: 0,
                stream: [0, 0],
                buffer: [0; BUFFER_WORDS],
                index: BUFFER_WORDS,
            }
        }
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u32(&mut self) -> u32 {
            if self.index >= BUFFER_WORDS {
                self.refill();
            }
            let v = self.buffer[self.index];
            self.index += 1;
            v
        }

        #[inline]
        fn next_u64(&mut self) -> u64 {
            // rand_core::block::BlockRng pairing: low word first. A draw
            // that starts on the buffer's last word takes its high half
            // from the first word of the next refill.
            if self.index >= BUFFER_WORDS {
                self.refill();
            }
            if self.index == BUFFER_WORDS - 1 {
                let lo = u64::from(self.buffer[BUFFER_WORDS - 1]);
                self.refill();
                let hi = u64::from(self.buffer[0]);
                self.index = 1;
                return (hi << 32) | lo;
            }
            let lo = u64::from(self.buffer[self.index]);
            let hi = u64::from(self.buffer[self.index + 1]);
            self.index += 2;
            (hi << 32) | lo
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::{scalar_block, StdRng};
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn deterministic_streams() {
        // Same seed, same stream.
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        // Different seeds diverge.
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    /// The 12-round keystream of the all-zero key: the first four words
    /// of block 0 and the first of block 1, so an accidental change to
    /// the round count, the word order or the counter is caught.
    #[test]
    fn chacha_block_structure_stable() {
        let mut r = StdRng::from_seed([0u8; 32]);
        let words: Vec<u32> = (0..17).map(|_| r.next_u32()).collect();
        let got = [words[0], words[1], words[2], words[3], words[16]];
        assert_eq!(
            got,
            [
                0x6a9a_f49b,
                0x53f9_5507,
                0x12ce_1f81,
                0xd583_265f,
                0x4188_d50b
            ],
            "{got:#010x?}"
        );
    }

    /// Known-answer words: the `u64` draws number 0, 1, 7 (last of the
    /// first ChaCha block), 8 (first of the second), 31, 32 and 100 of
    /// five seeds, captured from the one-block scalar generator this
    /// shim started as. Pins the seed expansion, the round count, the
    /// word order and the block counter across any refill strategy.
    #[test]
    fn known_answer_words() {
        const DRAWS: [usize; 7] = [0, 1, 7, 8, 31, 32, 100];
        const KAT: [(u64, [u64; 7]); 5] = [
            (
                0,
                [
                    0xbb2a3fb2cd2c6f7f,
                    0xc6017c948e27697b,
                    0xcb30ce1ac9ff61c7,
                    0xbfd4a4ae9e0d7fac,
                    0xfa202be26fdc7e07,
                    0xeadd98ee4c0bcc72,
                    0xd7fc04b3ee7f88eb,
                ],
            ),
            (
                1,
                [
                    0xf9681a64d3301861,
                    0xb0f4d125cc0d694a,
                    0xb560cd66ff56cbc7,
                    0x85353f1c1cb3b3a6,
                    0x3c25aa000c3f0b5d,
                    0xf4c4c9f506cc05a3,
                    0xfe15745d9d22346d,
                ],
            ),
            (
                42,
                [
                    0x86cc7763222724a2,
                    0x8af00a133fad517d,
                    0xd9688d9b2f8eb737,
                    0x219b7e47a11c835e,
                    0xe373bd0032102eec,
                    0xec0619b0ee66b7a9,
                    0x24ccaf5bbcc926f4,
                ],
            ),
            (
                1337,
                [
                    0xa7caf830de1ff4ca,
                    0xa3d9953e23ad5d2c,
                    0xb1f897e5f11fdd4e,
                    0x9e6c3e87ca4203ce,
                    0xac1954f27cf2ab08,
                    0x620670390cf9d0d7,
                    0x2bc3566d4215c312,
                ],
            ),
            (
                u64::MAX,
                [
                    0x0fa798482e3d5fb8,
                    0x0a3370b44112469e,
                    0x24e1c7c768fa6506,
                    0x5ca54de68be6847c,
                    0x63096e3e75a977bf,
                    0x7e139e29dc379ad1,
                    0x0fa76358a9258585,
                ],
            ),
        ];
        for (seed, want) in KAT {
            let mut r = StdRng::seed_from_u64(seed);
            let stream: Vec<u64> = (0..=100).map(|_| r.next_u64()).collect();
            let got = DRAWS.map(|n| stream[n]);
            assert_eq!(got, want, "seed {seed}: {got:#018x?}");
        }
    }

    /// The generator this shim started as: one scalar block per refill.
    #[derive(Clone)]
    struct OneBlockRng {
        key: [u32; 8],
        counter: u64,
        buffer: [u32; 16],
        index: usize,
    }

    impl SeedableRng for OneBlockRng {
        type Seed = [u8; 32];

        fn from_seed(seed: [u8; 32]) -> Self {
            let word = |i: usize| u32::from_le_bytes(seed[4 * i..4 * i + 4].try_into().unwrap());
            OneBlockRng {
                key: std::array::from_fn(word),
                counter: 0,
                buffer: [0; 16],
                index: 16,
            }
        }
    }

    impl RngCore for OneBlockRng {
        fn next_u32(&mut self) -> u32 {
            if self.index == 16 {
                self.buffer = scalar_block(&self.key, self.counter, [0, 0]);
                self.counter += 1;
                self.index = 0;
            }
            self.index += 1;
            self.buffer[self.index - 1]
        }

        fn next_u64(&mut self) -> u64 {
            let lo = u64::from(self.next_u32());
            (u64::from(self.next_u32()) << 32) | lo
        }
    }

    /// Draws one value both ways and compares; `pick` selects the kind.
    fn same_draw(fast: &mut StdRng, oracle: &mut OneBlockRng, pick: u64) {
        match pick % 4 {
            0 => assert_eq!(fast.next_u32(), oracle.next_u32()),
            1 => assert_eq!(fast.next_u64(), oracle.next_u64()),
            2 => {
                let (a, b): (f64, f64) = (fast.gen_range(-3.0..5.0), oracle.gen_range(-3.0..5.0));
                assert_eq!(a.to_bits(), b.to_bits());
            }
            _ => {
                let high = (pick >> 8) as usize % 1000 + 1;
                let (a, b): (usize, usize) = (fast.gen_range(0..high), oracle.gen_range(0..high));
                assert_eq!(a, b);
            }
        }
    }

    /// Property: the four-block refill yields the one-block scalar
    /// generator's stream, for random seeds and random interleavings of
    /// `next_u32` / `next_u64` / `gen_range::<f64 | usize>` — which put
    /// `u64` draws on odd indices, so they straddle buffer ends — and
    /// for a `clone()` taken wherever the interleaving happens to be.
    /// The cases come from a local splitmix64, not from the proptest
    /// shim: that draws its cases from `StdRng`, the code under test.
    #[test]
    fn four_block_refill_equals_the_scalar_oracle() {
        let mut state = 0u64;
        let mut splitmix = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for _ in 0..200 {
            let seed = splitmix();
            let mut fast = StdRng::seed_from_u64(seed);
            let mut oracle = OneBlockRng::seed_from_u64(seed);
            for _ in 0..400 {
                let pick = splitmix();
                if pick % 64 == 0 {
                    // Mid-buffer clone: the twin continues the stream for
                    // more than a whole buffer, the original is unmoved.
                    let (mut twin, mut twin_oracle) = (fast.clone(), oracle.clone());
                    for _ in 0..70 {
                        same_draw(&mut twin, &mut twin_oracle, splitmix());
                    }
                }
                same_draw(&mut fast, &mut oracle, pick >> 6);
            }
        }
    }

    /// The straddle, directed: after an odd number of `u32` draws every
    /// `u64` sits on an odd index, so one of them takes the buffer's last
    /// word and the next refill's first.
    #[test]
    fn odd_index_u64_straddles_the_buffer_end() {
        for skip in [1, 15, 61, 63] {
            let mut fast = StdRng::seed_from_u64(42);
            let mut oracle = OneBlockRng::seed_from_u64(42);
            for _ in 0..skip {
                assert_eq!(fast.next_u32(), oracle.next_u32());
            }
            for n in 0..100 {
                assert_eq!(fast.next_u64(), oracle.next_u64(), "skip {skip} draw {n}");
            }
        }
    }

    #[test]
    fn gen_range_f64_in_bounds() {
        let mut r = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v: f64 = r.gen_range(-3.0..5.0);
            assert!((-3.0..5.0).contains(&v));
        }
    }

    #[test]
    fn gen_range_f64_covers_range() {
        let mut r = StdRng::seed_from_u64(11);
        let n = 10_000;
        let mean: f64 = (0..n).map(|_| r.gen_range(0.0..1.0f64)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn gen_range_usize_uniformish() {
        let mut r = StdRng::seed_from_u64(13);
        let mut counts = [0usize; 6];
        for _ in 0..6000 {
            counts[r.gen_range(0..6usize)] += 1;
        }
        for c in counts {
            assert!((800..1200).contains(&c), "counts skewed: {counts:?}");
        }
    }

    #[test]
    fn seed_from_u64_uses_pcg_expansion() {
        // The PCG expansion must differentiate adjacent seeds strongly.
        let a = StdRng::seed_from_u64(1).next_u64();
        let b = StdRng::seed_from_u64(2).next_u64();
        assert_ne!(a, b);
        assert_ne!(a.count_ones().abs_diff(32), 32); // not degenerate
    }
}

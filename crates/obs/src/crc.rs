//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the
//! checksum sealed journal segments carry in their footer.
//!
//! Two paths compute the same checksum, bit for bit, so segments sealed
//! by any earlier build verify and this build seals the same bytes:
//!
//! - **The kernel** (x86-64 with `pclmulqdq` and SSE4.1, detected at run
//!   time): carry-less multiplication folds the input 4 × 128 bits a step
//!   while 64 bytes remain, then 128 bits a step, and a Barrett reduction
//!   takes the last 64 bits to 32, as in Intel's "Fast CRC Computation
//!   for Generic Polynomials Using PCLMULQDQ" and zlib's kernel. Bytes
//!   past the last whole 16-byte block go through the table.
//! - **The table** (slicing-by-8): eight 256-entry tables, built at
//!   compile time, fold eight input bytes per step with eight
//!   independent lookups. It is the one path on other architectures and
//!   CPUs without the instruction, it folds the kernel's last < 16
//!   bytes, and it is the reference the kernel is tested against
//!   (beside a bit-at-a-time one).
//!
//! The crossover is measured, not guessed: with each call's state fed
//! from the last one (as a writer's running segment CRC is), the kernel
//! beat the table from its shortest input, one 16-byte block, in three
//! rounds of best-of-seven timings in one run on a 2-core x86-64 Xeon
//! (16 B: 10.2 against 12.7 ns; 32 B: 12.4 against 26.1; a 185 B record:
//! 34 against 152; 1 KiB: 55 against 822). Below 16 bytes the kernel has
//! nothing to fold, so an input that short is all table.
//!
//! This is the crate's one production `unsafe`: the unaligned 16-byte
//! loads, and the call into the kernel after its feature check.

/// `TABLES[0]` is the bytewise table; `TABLES[k][i]` is the CRC state
/// after byte `i` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1usize;
    while k < 8 {
        let mut i = 0usize;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 of `bytes` (IEEE, as used by zlib/gzip/PNG).
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

/// Streaming form: fold `bytes` into a running state. Start from
/// `0xFFFF_FFFF` and XOR with `0xFFFF_FFFF` to finish (what
/// [`crc32`] does in one call).
pub fn crc32_update(state: u32, bytes: &[u8]) -> u32 {
    clmul::update(state, bytes).unwrap_or_else(|| table_update(state, bytes))
}

/// Slicing-by-8 over all of `bytes`: the one path where the CPU has no
/// carry-less multiply, and the reference the kernel is tested against.
fn table_update(state: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut c = state;
    let mut chunks = bytes.chunks_exact(8);
    for w in &mut chunks {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// The carry-less-multiply kernel (x86-64 with `pclmulqdq` and SSE4.1).
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    use super::table_update;

    // Folding constants for the reflected polynomial: x^(k) mod P(x),
    // bit-reflected and shifted left one, as in Intel's white paper
    // ("Fast CRC Computation for Generic Polynomials Using PCLMULQDQ")
    // and the Linux and zlib kernels. K1/K2 fold 512 bits ahead, K3/K4
    // 128 bits, K5 the last 64 to 32.
    const K1: i64 = 0x1_5444_2BD4;
    const K2: i64 = 0x1_C6E4_1596;
    const K3: i64 = 0x1_7519_97D0;
    const K4: i64 = 0x0_CCAA_009E;
    const K5: i64 = 0x1_63CD_6124;
    /// P(x), bit-reflected, 33 bits.
    const P_X: i64 = 0x1_DB71_0641;
    /// Barrett's μ = floor(x^64 / P(x)), bit-reflected, 33 bits.
    const MU: i64 = 0x1_F701_1641;

    /// [`super::crc32_update`] by the kernel, or `None` on a CPU without
    /// it. Folds every whole 16-byte block of `bytes` and hands the
    /// remainder (< 16 bytes) to the table.
    pub(super) fn update(state: u32, bytes: &[u8]) -> Option<u32> {
        if !(is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")) {
            return None;
        }
        let split = bytes.len() - bytes.len() % 16;
        let (blocks, tail) = bytes.split_at(split);
        let c = if blocks.is_empty() {
            state
        } else {
            // SAFETY: `fold` needs `pclmulqdq` and SSE4.1, and both were
            // detected on this CPU just above.
            unsafe { fold(state, blocks) }
        };
        Some(table_update(c, tail))
    }

    /// One 16-byte block as a vector.
    #[inline]
    fn load(block: &[u8]) -> __m128i {
        assert_eq!(block.len(), 16);
        // SAFETY: `block` is 16 readable bytes (asserted above), and an
        // unaligned load (`loadu`) has no alignment requirement. SSE2,
        // which it needs, is part of the x86-64 baseline.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// `a` carried 128 (`k` = K3/K4) or 512 (K1/K2) bits forward and
    /// added to `b`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold_into(a: __m128i, b: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(a, k);
        let hi = _mm_clmulepi64_si128::<0x11>(a, k);
        _mm_xor_si128(_mm_xor_si128(b, lo), hi)
    }

    /// The state after `blocks`, whose length is a positive multiple of
    /// 16: four lanes folded 512 bits a step while 64 bytes remain, then
    /// one lane 128 bits a step, then 128 → 64 → 32 bits by Barrett
    /// reduction.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(state: u32, blocks: &[u8]) -> u32 {
        debug_assert!(!blocks.is_empty() && blocks.len().is_multiple_of(16));
        let seed = _mm_cvtsi32_si128(state as i32);
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut rest = blocks;
        let mut x = if rest.len() >= 64 {
            let k1k2 = _mm_set_epi64x(K2, K1);
            let mut lanes = [
                _mm_xor_si128(load(&rest[..16]), seed),
                load(&rest[16..32]),
                load(&rest[32..48]),
                load(&rest[48..64]),
            ];
            rest = &rest[64..];
            while rest.len() >= 64 {
                for (i, lane) in lanes.iter_mut().enumerate() {
                    *lane = fold_into(*lane, load(&rest[16 * i..16 * i + 16]), k1k2);
                }
                rest = &rest[64..];
            }
            let x = fold_into(lanes[0], lanes[1], k3k4);
            let x = fold_into(x, lanes[2], k3k4);
            fold_into(x, lanes[3], k3k4)
        } else {
            let x = _mm_xor_si128(load(&rest[..16]), seed);
            rest = &rest[16..];
            x
        };
        for block in rest.chunks_exact(16) {
            x = fold_into(x, load(block), k3k4);
        }
        // 128 → 64 bits, then 64 → 32 (the low word times K5).
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(x, k3k4),
            _mm_srli_si128::<8>(x),
        );
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(x),
        );
        // Barrett: T1 = (R mod x^32)·μ, T2 = (T1 mod x^32)·P, and the
        // reflected remainder is the upper half of R ^ T2.
        let pu = _mm_set_epi64x(MU, P_X);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pu);
        _mm_extract_epi32::<1>(_mm_xor_si128(x, t2)) as u32
    }
}

/// Where there is no kernel to pick.
#[cfg(not(target_arch = "x86_64"))]
mod clmul {
    pub(super) fn update(_state: u32, _bytes: &[u8]) -> Option<u32> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bit-at-a-time reference: no table at all.
    fn bitwise_update(state: u32, bytes: &[u8]) -> u32 {
        let mut c = state;
        for &b in bytes {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        c
    }

    #[test]
    fn known_vectors() {
        // Classic check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// Non-repeating bytes, so a lookup into the wrong table, a swapped
    /// lane or a wrong folding constant changes the result.
    fn bytes(n: usize) -> Vec<u8> {
        (0..n as u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect()
    }

    #[test]
    fn matches_the_bitwise_oracle_at_every_length_and_split() {
        let data = bytes(300);
        for len in 0..=data.len() {
            let want = bitwise_update(0xFFFF_FFFF, &data[..len]);
            assert_eq!(crc32_update(0xFFFF_FFFF, &data[..len]), want, "len {len}");
        }
        // Streaming: every split point, so the 8-byte lanes start at
        // every alignment, the tail has every length, and each side of
        // a split lands on both sides of the kernel's first 16-byte
        // block and of its 64-byte four-lane step.
        let want = bitwise_update(0xFFFF_FFFF, &data);
        for split in 0..=data.len() {
            let s = crc32_update(0xFFFF_FFFF, &data[..split]);
            assert_eq!(crc32_update(s, &data[split..]), want, "split {split}");
        }
    }

    /// The kernel, the table and the bit-at-a-time reference agree at
    /// every length up to 1 KiB, from eight start offsets (so the
    /// unaligned loads start at every alignment that matters) and from
    /// arbitrary running states, and on a 1 MiB buffer.
    #[test]
    fn the_kernel_is_the_table_bit_for_bit() {
        let kernel = clmul::update(0, &[]).is_some();
        if !kernel {
            println!("no carry-less multiply on this CPU: only the table was checked");
        }
        let data = bytes(1024 + 8);
        let mut state = 0x1234_5678u32;
        for offset in 0..8 {
            for len in 0..=1024 {
                state = state.rotate_left(7) ^ (len as u32).wrapping_mul(0x9E37_79B9);
                let input = &data[offset..offset + len];
                let want = bitwise_update(state, input);
                let at = format!("offset {offset} len {len}");
                assert_eq!(table_update(state, input), want, "table: {at}");
                if kernel {
                    assert_eq!(clmul::update(state, input), Some(want), "kernel: {at}");
                }
            }
        }
        let big = bytes(1 << 20);
        let want = bitwise_update(0xFFFF_FFFF, &big);
        assert_eq!(table_update(0xFFFF_FFFF, &big), want);
        assert_eq!(crc32(&big), want ^ 0xFFFF_FFFF);
    }
}

//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the
//! checksum sealed journal segments carry in their footer.
//!
//! Slicing-by-8: eight 256-entry tables, built at compile time, fold
//! eight input bytes per step with eight independent lookups instead of
//! one dependent lookup per byte. The checksum is the standard one bit
//! for bit (table 0 is the classic bytewise table, which also folds the
//! < 8-byte tail), so segments sealed by any earlier build verify.

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

    #[test]
    fn matches_the_bitwise_oracle_at_every_length_and_split() {
        // Non-repeating bytes, so a lookup into the wrong table or a
        // swapped lane changes the result.
        let data: Vec<u8> = (0..300u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for len in 0..=data.len() {
            let want = bitwise_update(0xFFFF_FFFF, &data[..len]);
            assert_eq!(crc32_update(0xFFFF_FFFF, &data[..len]), want, "len {len}");
        }
        // Streaming: every split point, so the 8-byte lanes start at
        // every alignment and the tail has every length.
        let want = bitwise_update(0xFFFF_FFFF, &data);
        for split in 0..=data.len() {
            let s = crc32_update(0xFFFF_FFFF, &data[..split]);
            assert_eq!(crc32_update(s, &data[split..]), want, "split {split}");
        }
    }
}

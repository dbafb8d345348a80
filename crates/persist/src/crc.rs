//! CRC-32 (IEEE 802.3): the reflected polynomial `0xEDB8_8320`, computed
//! slicing-by-8.
//!
//! Matches the checksum used by zlib/gzip/PNG, so frames written here can be
//! cross-checked with any standard tool. Slicing-by-8 folds eight input
//! bytes per step through eight 256-entry tables (Kounavis and Berry, "A
//! Systematic Approach to Building High Performance Software-Based CRC
//! Generators", ISCC 2005); the tables are `const`, so the compiler folds
//! them into the binary.

/// The eight lookup tables: `TABLES[0]` is the classic byte-at-a-time
/// table, and `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero
/// bytes.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let previous = tables[k - 1][i];
            tables[k][i] = (previous >> 8) ^ tables[0][(previous & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// CRC-32 of `bytes` (IEEE 802.3, initial value `!0`, final complement).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let low = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let t = &TABLES;
        crc = t[7][(low & 0xFF) as usize]
            ^ t[6][((low >> 8) & 0xFF) as usize]
            ^ t[5][((low >> 16) & 0xFF) as usize]
            ^ t[4][(low >> 24) as usize]
            ^ t[3][chunk[4] as usize]
            ^ t[2][chunk[5] as usize]
            ^ t[1][chunk[6] as usize]
            ^ t[0][chunk[7] as usize];
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time loop over the classic table: the oracle.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &byte in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ byte as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // The canonical check value of CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        for vector in [&b"123456789"[..], b"", b"The quick brown fox"] {
            assert_eq!(crc32(vector), crc32_bytewise(vector));
        }
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let payload = b"journal record payload".to_vec();
        let reference = crc32(&payload);
        for byte in 0..payload.len() {
            for bit in 0..8 {
                let mut flipped = payload.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(
                    crc32(&flipped),
                    reference,
                    "flip at {byte}:{bit} undetected"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Slicing-by-8 equals the byte-at-a-time loop on every length
        /// (whole blocks and every remainder) and every start offset, so
        /// unaligned slices of a buffer are covered too.
        #[test]
        fn slicing_by_8_matches_the_bytewise_loop(
            bytes in proptest::collection::vec(any::<u8>(), 0..300),
            start in 0usize..16,
        ) {
            let slice = &bytes[start.min(bytes.len())..];
            prop_assert_eq!(crc32(slice), crc32_bytewise(slice));
        }
    }
}

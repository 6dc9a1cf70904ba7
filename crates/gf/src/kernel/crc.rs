//! Portable CRC-32C tier: slicing-by-8 over compile-time tables.
//!
//! A CRC is the remainder of the message, read as a polynomial over GF(2),
//! divided by a fixed generator — here Castagnoli's, the one the x86
//! `crc32` instruction implements. A byte-at-a-time table loop carries a
//! dependent load per byte; slicing-by-8 (Kounavis & Berry, 2005) folds
//! eight bytes per step through eight independent tables, so the loads of
//! one step issue together. `TABLES[k][b]` is the state contribution of
//! byte `b` followed by `k` zero bytes.

/// Castagnoli's generator, bit-reflected (LSB-first, like the instruction).
const POLY: u32 = 0x82F6_3B78;

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
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

/// 8 KiB of read-only data, generated at compile time.
static TABLES: [[u32; 256]; 8] = build_tables();

pub(crate) fn crc32c(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut steps = data.chunks_exact(8);
    for s in &mut steps {
        let lo = crc ^ u32::from_le_bytes([s[0], s[1], s[2], s[3]]);
        let hi = u32::from_le_bytes([s[4], s[5], s[6], s[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in steps.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

//! Compact pins for serialized simulation surfaces.

/// FNV-1a 64 hash and byte length of `s`: a pin for a surface too large
/// to inline in a test. Each pinned value in these tests was recorded
/// when the chain pump could still run its shards on 1, 2, 4 or 8 epoch
/// worker threads, all of which produced the same bytes, so the serial
/// pump is checked against that reference rather than against itself.
pub fn fingerprint(s: &str) -> (u64, usize) {
    let h = s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    (h, s.len())
}

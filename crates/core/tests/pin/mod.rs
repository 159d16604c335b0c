//! Compact pins for serialized simulation surfaces.

/// FNV-1a 64 hash and byte length of `s`: a pin for a surface too large
/// to inline in a test. The pinned simulation results in these tests
/// were recorded when the chain still advanced its shards in epoch
/// windows on 1, 2, 4 or 8 worker threads, all of which produced the
/// same bytes, so the instant pump is checked against that reference
/// rather than against itself. The observer-artifact pin in
/// `observability.rs` was re-recorded when the epoch profile left the
/// artifacts; it says so where it is pinned.
pub fn fingerprint(s: &str) -> (u64, usize) {
    let h = s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    (h, s.len())
}

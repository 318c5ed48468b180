//! The workspace's one FNV-1a 64-bit hasher.
//!
//! Two uses share it: the line seals of persisted traces and run journals
//! ([`fnv1a64`], byte-at-a-time FNV-1a, so sealed files stay
//! byte-identical across versions), and the solver cache's in-process key
//! fingerprints ([`Fnv1a::word`], which mixes a whole `u64` per step and is
//! never persisted).

/// Incremental FNV-1a 64-bit hasher.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher at the FNV-1a 64-bit offset basis.
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    /// Mixes a whole `u64` in one xor + multiply step: eight times fewer
    /// operations than feeding its bytes, for hot in-process fingerprints.
    /// Not standard FNV-1a; never use it for persisted hashes.
    #[inline]
    pub fn word(&mut self, word: u64) {
        self.0 ^= word;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Mixes `bytes` one at a time (standard FNV-1a).
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.word(u64::from(byte));
        }
    }

    /// The hash of everything mixed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// FNV-1a 64-bit of `bytes` — the seal hash of trace and journal lines.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = Fnv1a::new();
    hash.bytes(bytes);
    hash.finish()
}

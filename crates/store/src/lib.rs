#![warn(missing_docs)]

//! # wavelan-store
//!
//! The persistent result tier behind `wavelan-serve`. Every document the
//! daemon serves is a pure function of its key — `(kind, ident, seed,
//! scale)`, e.g. `run:table2:1996:smoke` — so finished response bodies are
//! content-addressed and never expire: an entry computed once is correct
//! forever (or until the artifact's spec hash changes, which the entry
//! header records and the reader verifies).
//!
//! Three layers, composable but independently usable:
//!
//! - `lru::ShardedLru` — the in-process L1: a sharded, exactly-LRU map
//!   from key to `Arc<String>` body (generalized out of the serve crate's
//!   original result cache).
//! - [`disk::DiskStore`] — the durable L2: one self-describing WLST file
//!   per key under a store directory, written atomically
//!   (write-then-rename) and read back with typed [`StoreError`]s —
//!   corruption, truncation, and version skew are reported, never panic,
//!   and can never serve wrong bytes (the header binds the full key and a
//!   checksum binds the body).
//! - [`tier::TieredStore`] — L1 in front of an optional L2, with atomic
//!   hit/miss/evict/persist-error counters ([`tier::TierSnapshot`]) and
//!   startup warming of a chosen key set.

pub mod disk;
pub mod error;
pub mod lru;
pub mod tier;

pub use disk::DiskStore;
pub use error::StoreError;
pub use tier::{TierSnapshot, TieredStore};

/// FNV-1a 64-bit — the workspace's standard content hash (the same
/// function keys sweeps and trace spec hashes in `wavelan-core`).
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The identity of one stored result: the four fields that fully determine
/// the response bytes of a deterministic run.
///
/// The canonical string form `kind:ident:seed:scale` is the serve layer's
/// historical cache-key format, preserved verbatim: `run:table2:1996:smoke`,
/// `sweep:9f3a…:1996:smoke`, `validate:3:1996:reduced`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StoreKey {
    /// Result namespace: `run`, `sweep`, or `validate`.
    pub kind: String,
    /// The namespace-local identifier: artifact name, canonical space
    /// hash, or seed count.
    pub ident: String,
    /// Base seed of the run.
    pub seed: u64,
    /// Scale name (`smoke`, `reduced`, `paper`).
    pub scale: String,
}

impl StoreKey {
    /// A `run:{artifact}` key.
    pub fn run(artifact: &str, seed: u64, scale: &str) -> StoreKey {
        StoreKey {
            kind: String::from("run"),
            ident: artifact.to_string(),
            seed,
            scale: scale.to_string(),
        }
    }

    /// A `sweep:{space-hash}` key (the hash in its canonical 16-hex-digit
    /// form).
    pub fn sweep(space_hash: u64, seed: u64, scale: &str) -> StoreKey {
        StoreKey {
            kind: String::from("sweep"),
            ident: format!("{space_hash:016x}"),
            seed,
            scale: scale.to_string(),
        }
    }

    /// A `validate:{seeds}` key.
    pub fn validate(seeds: u64, seed: u64, scale: &str) -> StoreKey {
        StoreKey {
            kind: String::from("validate"),
            ident: seeds.to_string(),
            seed,
            scale: scale.to_string(),
        }
    }

    /// The canonical key string (`kind:ident:seed:scale`).
    pub(crate) fn canonical(&self) -> String {
        format!("{}:{}:{}:{}", self.kind, self.ident, self.seed, self.scale)
    }

    /// FNV-1a of the canonical string — the content address the disk file
    /// name uses.
    pub(crate) fn hash(&self) -> u64 {
        fnv64(self.canonical().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_form_matches_the_serve_layers_historical_keys() {
        assert_eq!(
            StoreKey::run("table2", 1996, "smoke").canonical(),
            "run:table2:1996:smoke"
        );
        assert_eq!(
            StoreKey::sweep(0x9f3a, 7, "smoke").canonical(),
            "sweep:0000000000009f3a:7:smoke"
        );
        assert_eq!(
            StoreKey::validate(3, 1996, "reduced").canonical(),
            "validate:3:1996:reduced"
        );
    }

    #[test]
    fn hash_is_fnv_of_the_canonical_string() {
        let key = StoreKey::run("tdma", 1996, "smoke");
        assert_eq!(key.hash(), fnv64(b"run:tdma:1996:smoke"));
    }
}

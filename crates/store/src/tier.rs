//! The tiered facade: L1 memory in front of optional L2 disk.
//!
//! One [`TieredStore::get`] walks the tiers — L1 hit returns immediately,
//! L2 hit promotes the body into L1 before returning, anything else is a
//! miss — and every outcome bumps an atomic counter so `/metrics` can tell
//! the tiers apart. A decode failure on L2 (corruption, truncation,
//! version skew) is counted (`read_errors`) and treated as a miss: the
//! caller recomputes and the fresh [`TieredStore::insert`] overwrites the
//! damaged entry, so the store is self-healing. Persist failures likewise
//! never fail a request — the body is served from memory and
//! `persist_errors` ticks.
//!
//! [`TieredStore::warm`] pre-loads a chosen key set from disk into L1 at
//! startup (a restarted daemon answers its paper-default queries without
//! touching the compute pool or even the disk tier again). Warming does
//! not count as hits.

use crate::disk::DiskStore;
use crate::lru::ShardedLru;
use crate::StoreKey;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counter values of one tier at one instant (all monotonic since
/// construction, except the gauges at the bottom).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierSnapshot {
    /// Lookups answered from the in-memory L1.
    pub l1_hits: u64,
    /// Lookups answered from disk (and promoted into L1).
    pub l2_hits: u64,
    /// Lookups no tier could answer.
    pub misses: u64,
    /// L1 entries evicted to make room.
    pub evictions: u64,
    /// Disk writes that failed (the request still succeeded from memory).
    pub persist_errors: u64,
    /// Disk reads that failed decode (treated as misses; the entry is
    /// overwritten by the recompute).
    pub read_errors: u64,
    /// Keys warmed from disk into L1 at startup.
    pub warmed: u64,
    /// Whether a disk tier is attached.
    pub disk_enabled: bool,
    /// Current L1 entry count.
    pub l1_entries: usize,
    /// Configured L1 capacity.
    pub l1_capacity: usize,
}

/// L1 memory cache over an optional L2 disk store.
#[derive(Debug)]
pub struct TieredStore {
    l1: ShardedLru,
    disk: Option<DiskStore>,
    l1_hits: AtomicU64,
    l2_hits: AtomicU64,
    misses: AtomicU64,
    persist_errors: AtomicU64,
    read_errors: AtomicU64,
    warmed: AtomicU64,
}

impl TieredStore {
    /// A memory-only tier (the pre-store serve behaviour).
    pub fn memory_only(l1_capacity: usize) -> TieredStore {
        TieredStore {
            l1: ShardedLru::new(l1_capacity),
            disk: None,
            l1_hits: AtomicU64::new(0),
            l2_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            persist_errors: AtomicU64::new(0),
            read_errors: AtomicU64::new(0),
            warmed: AtomicU64::new(0),
        }
    }

    /// A tier persisting to (and reading back from) `dir`.
    pub fn with_disk<P: AsRef<Path>>(
        l1_capacity: usize,
        dir: P,
    ) -> Result<TieredStore, crate::StoreError> {
        let mut tier = TieredStore::memory_only(l1_capacity);
        tier.disk = Some(DiskStore::open(dir)?);
        Ok(tier)
    }

    /// Looks up `key` across the tiers. `spec_hash` is the expected spec
    /// hash of the artifact behind the key (0 where none applies); a disk
    /// entry recording a different one is stale — counted a miss so the
    /// caller recomputes and overwrites it.
    pub fn get(&self, key: &StoreKey, spec_hash: u64) -> Option<Arc<String>> {
        let canonical = key.canonical();
        if let Some(body) = self.l1.get(&canonical) {
            self.l1_hits.fetch_add(1, Ordering::Relaxed);
            return Some(body);
        }
        if let Some(disk) = &self.disk {
            match disk.load(key) {
                Ok(Some((meta, body))) if meta.spec_hash == spec_hash => {
                    let body = Arc::new(body);
                    self.l1.insert(canonical, Arc::clone(&body));
                    self.l2_hits.fetch_add(1, Ordering::Relaxed);
                    return Some(body);
                }
                // Absent, collided, or stale (spec hash changed): a miss —
                // the recompute's insert will overwrite.
                Ok(_) => {}
                Err(_) => {
                    self.read_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Stores a freshly computed body in every tier. A disk failure is
    /// counted, not propagated — the request already has its bytes.
    pub fn insert(&self, key: &StoreKey, spec_hash: u64, body: Arc<String>) {
        self.l1.insert(key.canonical(), Arc::clone(&body));
        if let Some(disk) = &self.disk {
            if disk.put(key, spec_hash, &body).is_err() {
                self.persist_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Pre-loads `keys` (each with its expected spec hash) from disk into
    /// L1, returning how many were found. Damaged or stale entries are
    /// skipped silently — they'll heal on first real lookup.
    pub fn warm(&self, keys: &[(StoreKey, u64)]) -> usize {
        let Some(disk) = &self.disk else { return 0 };
        let mut loaded = 0;
        for (key, spec_hash) in keys {
            if let Ok(Some((meta, body))) = disk.load(key) {
                if meta.spec_hash == *spec_hash {
                    self.l1.insert(key.canonical(), Arc::new(body));
                    loaded += 1;
                }
            }
        }
        self.warmed.fetch_add(loaded as u64, Ordering::Relaxed);
        loaded
    }

    /// Current counter values.
    pub fn snapshot(&self) -> TierSnapshot {
        TierSnapshot {
            l1_hits: self.l1_hits.load(Ordering::Relaxed),
            l2_hits: self.l2_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.l1.evictions(),
            persist_errors: self.persist_errors.load(Ordering::Relaxed),
            read_errors: self.read_errors.load(Ordering::Relaxed),
            warmed: self.warmed.load(Ordering::Relaxed),
            disk_enabled: self.disk.is_some(),
            l1_entries: self.l1.len(),
            l1_capacity: self.l1.capacity(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "wavelan-tier-{tag}-{}-{:p}",
            std::process::id(),
            &tag
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn memory_only_counts_hits_and_misses() {
        let tier = TieredStore::memory_only(16);
        let key = StoreKey::run("table2", 1996, "smoke");
        assert!(tier.get(&key, 7).is_none());
        tier.insert(&key, 7, Arc::new("body".into()));
        assert_eq!(tier.get(&key, 7).expect("l1 hit").as_str(), "body");
        let snap = tier.snapshot();
        assert_eq!(
            (snap.l1_hits, snap.l2_hits, snap.misses),
            (1, 0, 1),
            "one L1 hit, one miss"
        );
        assert!(!snap.disk_enabled);
    }

    #[test]
    fn l2_hit_promotes_into_l1() {
        let dir = scratch_dir("promote");
        let key = StoreKey::run("tdma", 1996, "smoke");
        {
            // First process computes and persists.
            let tier = TieredStore::with_disk(16, &dir).expect("open");
            tier.insert(&key, 42, Arc::new("the body".into()));
        }
        // Second process (fresh L1) finds it on disk.
        let tier = TieredStore::with_disk(16, &dir).expect("reopen");
        assert_eq!(tier.get(&key, 42).expect("l2 hit").as_str(), "the body");
        assert_eq!(tier.snapshot().l2_hits, 1);
        // Promoted: the next lookup is an L1 hit.
        assert_eq!(tier.get(&key, 42).expect("l1 hit").as_str(), "the body");
        assert_eq!(tier.snapshot().l1_hits, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_spec_hash_is_a_miss() {
        let dir = scratch_dir("stale");
        let key = StoreKey::run("fec", 1996, "smoke");
        {
            let tier = TieredStore::with_disk(16, &dir).expect("open");
            tier.insert(&key, 1, Arc::new("old spec body".into()));
        }
        let tier = TieredStore::with_disk(16, &dir).expect("reopen");
        // The artifact's spec changed (hash 2 now): the persisted entry is
        // stale and must not be served.
        assert!(tier.get(&key, 2).is_none());
        assert_eq!(tier.snapshot().misses, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_entry_is_a_counted_miss_and_heals_on_insert() {
        let dir = scratch_dir("heal");
        let key = StoreKey::run("harq", 1996, "smoke");
        {
            let tier = TieredStore::with_disk(16, &dir).expect("open");
            tier.insert(&key, 5, Arc::new("good".into()));
        }
        let tier = TieredStore::with_disk(16, &dir).expect("reopen");
        let path = tier.disk.as_ref().expect("disk").entry_path(&key);
        let mut bytes = fs::read(&path).expect("read entry");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, &bytes).expect("corrupt it");
        assert!(tier.get(&key, 5).is_none(), "corruption is a miss");
        assert_eq!(tier.snapshot().read_errors, 1);
        // Recompute path: insert overwrites the damaged file.
        tier.insert(&key, 5, Arc::new("good".into()));
        let fresh = TieredStore::with_disk(16, &dir).expect("reopen again");
        assert_eq!(fresh.get(&key, 5).expect("healed").as_str(), "good");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_loads_fresh_keys_without_counting_hits() {
        let dir = scratch_dir("warm");
        let keep = StoreKey::run("table2", 1996, "smoke");
        let stale = StoreKey::run("table3", 1996, "smoke");
        {
            let tier = TieredStore::with_disk(16, &dir).expect("open");
            tier.insert(&keep, 10, Arc::new("warm me".into()));
            tier.insert(&stale, 11, Arc::new("stale".into()));
        }
        let tier = TieredStore::with_disk(16, &dir).expect("reopen");
        let loaded = tier.warm(&[
            (keep.clone(), 10),
            (stale.clone(), 999),                        // spec changed
            (StoreKey::run("absent", 1996, "smoke"), 0), // never computed
        ]);
        assert_eq!(loaded, 1, "only the fresh persisted key warms");
        let snap = tier.snapshot();
        assert_eq!(snap.warmed, 1);
        assert_eq!((snap.l1_hits, snap.l2_hits), (0, 0), "warming is not a hit");
        // The warmed key now answers from L1.
        assert!(tier.get(&keep, 10).is_some());
        assert_eq!(tier.snapshot().l1_hits, 1);
        let _ = fs::remove_dir_all(&dir);
    }
}

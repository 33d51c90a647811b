//! Runtime observability: request counters, cache and store-tier hit/miss
//! counts, an in-flight gauge, per-status totals, and per-label latency
//! histograms.
//!
//! Counters are lock-free atomics on the hot path; the keyed maps (status
//! codes, endpoint labels, latency histograms) sit behind short-lived
//! mutexes and are only touched once per request at completion. The
//! `/metrics` endpoint serializes a `Snapshot` through the workspace's
//! JSON serializer, so the output parses with `repro --check-json` and the
//! vendored round-trip parser like every other document the repo emits.

use serde::{Serialize, SerializeMap, SerializeStruct, Serializer};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use wavelan_store::TierSnapshot;

/// Upper bounds (µs) of the latency histogram buckets; one overflow bucket
/// follows. Log-spaced: cache hits land in the first buckets, cold
/// paper-scale runs in the last.
pub(crate) const BUCKET_BOUNDS_US: [u64; 6] = [100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000];

/// JSON field names for the buckets, aligned with [`BUCKET_BOUNDS_US`]
/// plus the overflow bucket.
const BUCKET_LABELS: [&str; 7] = [
    "le_100us", "le_1ms", "le_10ms", "le_100ms", "le_1s", "le_10s", "inf",
];

/// One label's latency distribution.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Histogram {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observations, in seconds.
    pub total_seconds: f64,
    /// Cumulative-free bucket counts (each observation lands in exactly
    /// one), aligned with [`BUCKET_BOUNDS_US`] + overflow.
    pub buckets: [u64; BUCKET_BOUNDS_US.len() + 1],
}

impl Histogram {
    fn observe(&mut self, elapsed: Duration) {
        self.count += 1;
        self.total_seconds += elapsed.as_secs_f64();
        let us = elapsed.as_micros() as u64;
        let slot = BUCKET_BOUNDS_US
            .iter()
            .position(|bound| us <= *bound)
            .unwrap_or(BUCKET_BOUNDS_US.len());
        self.buckets[slot] += 1;
    }
}

impl Serialize for Histogram {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("Histogram", 4)?;
        s.serialize_field("count", &self.count)?;
        s.serialize_field("total_seconds", &self.total_seconds)?;
        s.serialize_field(
            "mean_seconds",
            &(self.total_seconds / (self.count.max(1) as f64)),
        )?;
        let mut buckets = BTreeMap::new();
        for (label, count) in BUCKET_LABELS.iter().zip(self.buckets.iter()) {
            buckets.insert(*label, *count);
        }
        s.serialize_field("buckets", &SortedMap(&buckets))?;
        s.end()
    }
}

/// Serializes a `BTreeMap` as a JSON object (keys already sorted).
struct SortedMap<'a, K, V>(&'a BTreeMap<K, V>);

impl<K: std::fmt::Display, V: Serialize> Serialize for SortedMap<'_, K, V> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut map = serializer.serialize_map(Some(self.0.len()))?;
        for (k, v) in self.0 {
            map.serialize_entry(&k.to_string(), v)?;
        }
        map.end()
    }
}

/// The daemon's live counters. One instance per server, shared by every
/// worker.
#[derive(Debug)]
pub(crate) struct Metrics {
    started: Instant,
    /// Connections admitted to the queue (incremented before service, so
    /// tests can observe a request that is still in flight).
    admitted: AtomicU64,
    /// Requests fully served (response written).
    completed: AtomicU64,
    /// Connections rejected at admission (queue full → 429).
    rejected: AtomicU64,
    /// Requests currently being serviced by a worker.
    in_flight: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    status: Mutex<BTreeMap<u16, u64>>,
    latency: Mutex<BTreeMap<String, Histogram>>,
}

impl Metrics {
    /// Fresh, all-zero counters.
    pub(crate) fn new() -> Metrics {
        Metrics {
            started: Instant::now(),
            admitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            status: Mutex::new(BTreeMap::new()),
            latency: Mutex::new(BTreeMap::new()),
        }
    }

    /// Records a connection entering the service queue.
    pub(crate) fn admit(&self) {
        self.admitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a queue-full rejection (the 429 itself is recorded
    /// separately via [`Metrics::complete`] by the admission path).
    pub(crate) fn reject(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks a request as under service; pair with [`Metrics::complete`].
    pub(crate) fn start(&self) {
        self.in_flight.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a served response: status code, routing label, and latency.
    /// `in_service` says whether this request went through
    /// [`Metrics::start`] (admission-path 429s do not).
    pub(crate) fn complete(&self, status: u16, label: &str, elapsed: Duration, in_service: bool) {
        if in_service {
            self.in_flight.fetch_sub(1, Ordering::Relaxed);
        }
        self.completed.fetch_add(1, Ordering::Relaxed);
        *self.status.lock().unwrap().entry(status).or_insert(0) += 1;
        self.latency
            .lock()
            .unwrap()
            .entry(label.to_string())
            .or_default()
            .observe(elapsed);
    }

    /// Records a cache hit.
    pub(crate) fn cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a cache miss.
    pub(crate) fn cache_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of every counter, ready to serialize. The
    /// caller supplies the capacity facts that live outside the counters.
    pub(crate) fn snapshot(&self, ctx: SnapshotContext) -> Snapshot {
        Snapshot {
            uptime_seconds: self.started.elapsed().as_secs_f64(),
            admitted: self.admitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            in_flight: self.in_flight.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            status: self.status.lock().unwrap().clone(),
            latency: self.latency.lock().unwrap().clone(),
            ctx,
        }
    }
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics::new()
    }
}

/// Server-level facts reported alongside the counters.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SnapshotContext {
    /// Worker threads in the service pool.
    pub workers: usize,
    /// Admission-queue depth limit (waiting connections beyond the
    /// workers).
    pub queue_depth: usize,
    /// The result tier's own counters (L1/L2 hits, evictions, persist
    /// errors, warming).
    pub tier: TierSnapshot,
}

/// A serializable point-in-time view of [`Metrics`].
#[derive(Debug, Clone)]
pub(crate) struct Snapshot {
    /// Seconds since the server started.
    pub uptime_seconds: f64,
    /// Connections admitted to the queue.
    pub admitted: u64,
    /// Requests fully served.
    pub completed: u64,
    /// Connections rejected with 429 at admission.
    pub rejected: u64,
    /// Requests currently under service.
    pub in_flight: u64,
    /// Responses served from the result tier (L1 or L2).
    pub cache_hits: u64,
    /// Responses no tier could answer (computed).
    pub cache_misses: u64,
    /// Served responses by status code.
    pub status: BTreeMap<u16, u64>,
    /// Latency histograms by routing label (`run:table2`, `validate`,
    /// `healthz`, …).
    pub latency: BTreeMap<String, Histogram>,
    /// Server capacity facts.
    pub ctx: SnapshotContext,
}

impl Serialize for Snapshot {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("Snapshot", 11)?;
        s.serialize_field("uptime_seconds", &self.uptime_seconds)?;
        s.serialize_field("workers", &self.ctx.workers)?;
        s.serialize_field("queue_depth", &self.ctx.queue_depth)?;
        s.serialize_field("admitted", &self.admitted)?;
        s.serialize_field("completed", &self.completed)?;
        s.serialize_field("rejected", &self.rejected)?;
        s.serialize_field("in_flight", &self.in_flight)?;
        // The "cache" section keeps its historical shape — hits means "any
        // tier answered" — so dashboards and tests written against the
        // memory-only daemon keep working; "store" breaks the tiers out.
        let mut cache = BTreeMap::new();
        cache.insert("hits", self.cache_hits);
        cache.insert("misses", self.cache_misses);
        cache.insert("entries", self.ctx.tier.l1_entries as u64);
        cache.insert("capacity", self.ctx.tier.l1_capacity as u64);
        s.serialize_field("cache", &SortedMap(&cache))?;
        let tier = &self.ctx.tier;
        let mut store = BTreeMap::new();
        store.insert("l1_hits", tier.l1_hits);
        store.insert("l2_hits", tier.l2_hits);
        store.insert("misses", tier.misses);
        store.insert("evictions", tier.evictions);
        store.insert("persist_errors", tier.persist_errors);
        store.insert("read_errors", tier.read_errors);
        store.insert("warmed", tier.warmed);
        store.insert("disk_enabled", u64::from(tier.disk_enabled));
        s.serialize_field("store", &SortedMap(&store))?;
        s.serialize_field("status", &SortedMap(&self.status))?;
        s.serialize_field("latency", &SortedMap(&self.latency))?;
        s.end()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_log_spaced() {
        let mut h = Histogram::default();
        h.observe(Duration::from_micros(50)); // le_100us
        h.observe(Duration::from_micros(999)); // le_1ms
        h.observe(Duration::from_millis(50)); // le_100ms
        h.observe(Duration::from_secs(60)); // inf
        assert_eq!(h.count, 4);
        assert_eq!(h.buckets, [1, 1, 0, 1, 0, 0, 1]);
    }

    #[test]
    fn snapshot_serializes_to_valid_json() {
        let m = Metrics::new();
        m.admit();
        m.start();
        m.cache_miss();
        m.complete(200, "run:table2", Duration::from_millis(3), true);
        m.reject();
        m.complete(429, "admission", Duration::ZERO, false);
        let snap = m.snapshot(SnapshotContext {
            workers: 4,
            queue_depth: 64,
            tier: TierSnapshot {
                l1_hits: 0,
                l2_hits: 3,
                misses: 1,
                evictions: 0,
                persist_errors: 0,
                read_errors: 0,
                warmed: 2,
                disk_enabled: true,
                l1_entries: 1,
                l1_capacity: 256,
            },
        });
        let json = wavelan_analysis::json::to_string_pretty(&snap);
        let value = wavelan_analysis::json::parse(&json).expect("well-formed");
        assert_eq!(
            value.get("completed"),
            Some(&wavelan_analysis::json::Value::Number("2".into()))
        );
        assert_eq!(
            value.get("in_flight"),
            Some(&wavelan_analysis::json::Value::Number("0".into()))
        );
        let store = value.get("store").expect("store section");
        assert_eq!(
            store.get("l2_hits"),
            Some(&wavelan_analysis::json::Value::Number("3".into()))
        );
        assert!(store.get("peer_proxied").is_none(), "no peer counter");
        assert!(value.get("peers").is_none(), "no peer count");
        let latency = value.get("latency").expect("latency map");
        assert!(latency.get("run:table2").is_some());
        assert!(latency.get("admission").is_some());
    }
}

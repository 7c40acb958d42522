//! Digest-keyed result cache: completed campaign rows, keyed by the FNV-1a
//! digest of their scenario token (plus the telemetry options that shaped
//! the row), held in a bounded in-memory ring with an optional disk tier.
//!
//! The cache is exact, not approximate: every row is deterministic per
//! token (see `mdx-campaign`'s replay guarantee), so a hit returns the
//! byte-identical row a fresh simulation would produce. The in-memory tier
//! is capped (FIFO eviction) so a long-lived `campaign serve` process
//! stays bounded; the disk tier — used by `campaign replay` to skip
//! re-simulation across processes — holds one small JSON file per row and
//! is only bounded by the directory the operator points it at.

use mdx_campaign::{fnv1a64, ScenarioReport};
use mdx_metrics::{Counter, Registry};
use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// The cache key for a row: the FNV-1a digest `mdx-campaign` compares
/// replays with, taken over the token and mixed with the options that
/// change the row's shape (window telemetry width). Two requests for the
/// same token with different windows are different rows.
pub fn row_key(token: &str, windows: Option<u64>) -> u64 {
    let mut h = fnv1a64(token.as_bytes());
    if let Some(w) = windows {
        h ^= fnv1a64(&w.to_le_bytes()).rotate_left(1);
    }
    h
}

/// Default in-memory capacity, in rows.
pub const DEFAULT_CACHE_CAPACITY: usize = 256;

/// Which tier served a cache hit — the memory ring, or the disk tier (the
/// row is promoted into memory on the way out). Request spans record this
/// so a "cache hit" that actually paid a disk read is visible in traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheTier {
    /// Served from the in-memory ring.
    Memory,
    /// Served from the disk tier (and promoted).
    Disk,
}

impl CacheTier {
    /// The tier's span-attribute spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheTier::Memory => "hit",
            CacheTier::Disk => "disk",
        }
    }
}

/// The cache's counters (`mdx_serve_cache_*`), registered on the registry
/// the cache is built with — the only place a cache event is counted.
struct CacheMetrics {
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    disk_hits: Counter,
    disk_writes: Counter,
}

impl CacheMetrics {
    fn register(reg: &Registry) -> CacheMetrics {
        CacheMetrics {
            hits: reg.counter(
                "mdx_serve_cache_hits_total",
                "Result-cache hits (memory or disk)",
            ),
            misses: reg.counter("mdx_serve_cache_misses_total", "Result-cache misses"),
            evictions: reg.counter(
                "mdx_serve_cache_evictions_total",
                "Rows evicted from the in-memory tier (FIFO cap)",
            ),
            disk_hits: reg.counter(
                "mdx_serve_cache_disk_hits_total",
                "Hits served from the disk tier (promoted into memory)",
            ),
            disk_writes: reg.counter(
                "mdx_serve_cache_disk_writes_total",
                "Rows written to the disk tier",
            ),
        }
    }
}

struct Mem {
    rows: HashMap<u64, ScenarioReport>,
    order: VecDeque<u64>,
    capacity: usize,
}

/// A bounded, thread-safe row cache with an optional disk tier.
pub struct ResultCache {
    mem: Mutex<Mem>,
    dir: Option<PathBuf>,
    metrics: CacheMetrics,
}

impl ResultCache {
    /// An in-memory cache holding at most `capacity` rows (FIFO eviction),
    /// counting its hits, misses, evictions and disk traffic into `reg`
    /// (the `mdx_serve_cache_*` family).
    pub fn new(capacity: usize, reg: &Registry) -> ResultCache {
        ResultCache {
            mem: Mutex::new(Mem {
                rows: HashMap::new(),
                order: VecDeque::new(),
                capacity: capacity.max(1),
            }),
            dir: None,
            metrics: CacheMetrics::register(reg),
        }
    }

    /// Adds a disk tier under `dir` (created on first write). Disk entries
    /// survive the process and are consulted on memory misses.
    #[must_use]
    pub fn with_dir(mut self, dir: impl Into<PathBuf>) -> ResultCache {
        self.dir = Some(dir.into());
        self
    }

    fn disk_path(&self, key: u64) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|d| d.join(format!("row-{key:016x}.json")))
    }

    /// Fetches the row for `key`, consulting memory then disk. A disk hit
    /// is promoted into memory.
    pub fn get(&self, key: u64) -> Option<ScenarioReport> {
        self.get_tiered(key).map(|(row, _)| row)
    }

    /// Like [`ResultCache::get`], but also reports which tier served the
    /// hit, for span attribution.
    pub fn get_tiered(&self, key: u64) -> Option<(ScenarioReport, CacheTier)> {
        if let Some(row) = self.mem.lock().expect("cache lock").rows.get(&key) {
            self.metrics.hits.inc();
            return Some((row.clone(), CacheTier::Memory));
        }
        if let Some(path) = self.disk_path(key) {
            if let Ok(body) = std::fs::read_to_string(&path) {
                if let Ok(row) = serde_json::from_str::<ScenarioReport>(&body) {
                    self.metrics.hits.inc();
                    self.metrics.disk_hits.inc();
                    self.insert_mem(key, row.clone());
                    return Some((row, CacheTier::Disk));
                }
            }
        }
        self.metrics.misses.inc();
        None
    }

    fn insert_mem(&self, key: u64, row: ScenarioReport) {
        let mut mem = self.mem.lock().expect("cache lock");
        if mem.rows.insert(key, row).is_none() {
            mem.order.push_back(key);
        }
        while mem.order.len() > mem.capacity {
            if let Some(old) = mem.order.pop_front() {
                mem.rows.remove(&old);
                self.metrics.evictions.inc();
            }
        }
    }

    /// Stores a row under `key` in memory and, when configured, on disk.
    pub fn put(&self, key: u64, row: &ScenarioReport) {
        if let Some(path) = self.disk_path(key) {
            // Disk failures degrade to memory-only caching; the row itself
            // is already computed and correct.
            let wrote = path
                .parent()
                .map(std::fs::create_dir_all)
                .transpose()
                .and_then(|_| {
                    std::fs::write(&path, serde_json::to_string(row).expect("row serializes"))
                });
            if wrote.is_ok() {
                self.metrics.disk_writes.inc();
            }
        }
        self.insert_mem(key, row.clone());
    }

    /// Rows currently resident in memory.
    pub fn len(&self) -> usize {
        self.mem.lock().expect("cache lock").rows.len()
    }

    /// True when the memory tier is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The disk tier's directory, when one is configured.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdx_campaign::{run_scenario, Scenario, Workload};

    fn tiny_row(seed: u64) -> ScenarioReport {
        let s = Scenario::new(
            vec![4, 3],
            "sr2201",
            Workload::BroadcastStorm {
                sources: vec![0],
                flits: 4,
            },
            seed,
        );
        run_scenario(&s).expect("tiny scenario runs")
    }

    #[test]
    fn capacity_evicts_oldest_but_serves_hits() {
        let reg = Registry::new();
        let cache = ResultCache::new(2, &reg);
        let rows: Vec<_> = (0..3).map(tiny_row).collect();
        for (i, r) in rows.iter().enumerate() {
            cache.put(row_key(&r.token, None), r);
            assert!(cache.len() <= 2, "cap exceeded at {i}");
        }
        // Oldest evicted, newest two resident.
        assert!(cache.get(row_key(&rows[0].token, None)).is_none());
        assert_eq!(
            cache.get(row_key(&rows[2].token, None)).unwrap().digest,
            rows[2].digest
        );
        let snap = reg.snapshot();
        let count = |name| snap.counter_value(name);
        assert_eq!(count("mdx_serve_cache_hits_total"), Some(1));
        assert_eq!(count("mdx_serve_cache_misses_total"), Some(1));
        assert_eq!(count("mdx_serve_cache_evictions_total"), Some(1));
    }

    #[test]
    fn disk_tier_survives_a_fresh_cache() {
        let dir = std::env::temp_dir().join(format!(
            "mdx-serve-cache-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let row = tiny_row(9);
        let key = row_key(&row.token, Some(64));

        let reg = Registry::new();
        let cache = ResultCache::new(4, &reg).with_dir(&dir);
        cache.put(key, &row);

        let fresh = ResultCache::new(4, &reg).with_dir(&dir);
        let (got, tier) = fresh.get_tiered(key).expect("disk hit");
        assert_eq!(tier, CacheTier::Disk);
        assert_eq!(got.digest, row.digest);
        // Promoted: the second lookup is a memory hit.
        assert_eq!(
            fresh.get_tiered(key).expect("promoted").1,
            CacheTier::Memory
        );
        assert_eq!(
            serde_json::to_string(&got).unwrap(),
            serde_json::to_string(&row).unwrap()
        );
        // Window width is part of the key.
        assert!(fresh.get(row_key(&row.token, Some(128))).is_none());
        // Both caches count into the one registry.
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter_value("mdx_serve_cache_disk_writes_total"),
            Some(1)
        );
        assert_eq!(
            snap.counter_value("mdx_serve_cache_disk_hits_total"),
            Some(1)
        );
        assert_eq!(snap.counter_value("mdx_serve_cache_hits_total"), Some(2));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

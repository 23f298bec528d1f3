//! The partition cache: the amortization engine of the serving layer.
//!
//! Completed partitions are kept in memory and on disk, keyed by
//! `(graph fingerprint, policy, hosts, chunk_edges)` — the inputs that
//! determine the output, which no thread count changes. The on-disk
//! format is the existing `storage.rs` `.part` framing (one file per
//! host) plus a `meta` file — one checked record (`cusp_graph::wire`)
//! holding the partition fingerprint — written last as the commit
//! marker; a corrupted or torn entry loads as a miss and falls back to
//! re-partitioning, mirroring the checkpoint store's any-corruption →
//! full-re-run posture. A partition is fingerprinted once per artefact:
//! part by part, on the thread that writes (cold) or has just read
//! (disk hit) that part's file, and the merged value is what `meta`
//! holds, what a load checks, and what the entry answers with.
//!
//! Concurrent requests for the same key coalesce: the first becomes the
//! runner, later ones block on its result and are counted in
//! `coalesced` — so a thundering herd of identical requests costs one
//! partition job, the property the concurrency battery asserts via
//! [`PartitionCache::jobs_run`].

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use cusp::{
    merge_part_fingerprints, metrics::QualityReport, part_fingerprint, DistGraph, PolicyKind,
};
use cusp_graph::wire;

use crate::error::ServeError;
use crate::protocol::CacheTier;

/// Everything that determines a partition's bytes, and nothing else.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// `cusp::graph_fingerprint` of the input graph (with weights).
    pub graph: u64,
    /// Partitioning policy.
    pub policy: PolicyKind,
    /// Host count.
    pub hosts: u32,
    /// Reader chunk bound; 0 encodes monolithic.
    pub chunk_edges: u64,
}

impl CacheKey {
    /// Stable directory name for the on-disk entry.
    pub fn dir_name(&self) -> String {
        format!(
            "g{:016x}-{}-h{}-c{}",
            self.graph,
            self.policy.name().to_ascii_lowercase(),
            self.hosts,
            self.chunk_edges
        )
    }

    /// 64-bit mix of the key for obs span args.
    pub fn hash64(&self) -> u64 {
        let mut h = self.graph ^ (self.hosts as u64).rotate_left(17) ^ self.chunk_edges;
        h ^= (self.policy as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 33;
        h.wrapping_mul(0xFF51_AFD7_ED55_8CCD)
    }
}

/// A completed, quality-annotated partition set.
pub struct CachedPartition {
    /// One [`DistGraph`] per host, in host order.
    pub parts: Vec<DistGraph>,
    /// `cusp::partition_fingerprint` over `parts`.
    pub fingerprint: u64,
    /// Structural quality of the partition.
    pub quality: QualityReport,
}

impl std::fmt::Debug for CachedPartition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachedPartition")
            .field("hosts", &self.parts.len())
            .field("fingerprint", &format_args!("{:016x}", self.fingerprint))
            .finish()
    }
}

impl CachedPartition {
    /// `fingerprint` is `cusp::partition_fingerprint(&parts)`, which the
    /// caller computed (store) or verified (load) part by part.
    fn new(parts: Vec<DistGraph>, fingerprint: u64) -> Self {
        let quality = cusp::metrics::quality(&parts);
        CachedPartition { parts, fingerprint, quality }
    }
}

/// `f(0..n)` on up to one scoped thread per core, each taking one
/// contiguous run of indices; results in index order. The per-part stage
/// of a store or a load.
fn per_part<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let workers = std::thread::available_parallelism().map_or(1, |p| p.get());
    let run = n.div_ceil(workers).max(1);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .step_by(run)
            .map(|lo| scope.spawn(move || (lo..n.min(lo + run)).map(f).collect::<Vec<T>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    })
}

struct Inflight {
    done: Mutex<Option<Result<Arc<CachedPartition>, ServeError>>>,
    cv: Condvar,
}

/// Best-effort stringification of a caught panic payload.
fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "partition cache runner panicked".into())
}

/// The two-tier (memory + disk) coalescing cache for one namespace.
pub struct PartitionCache {
    root: PathBuf,
    mem: Mutex<HashMap<CacheKey, Arc<CachedPartition>>>,
    inflight: Mutex<HashMap<CacheKey, Arc<Inflight>>>,
    /// Graph fingerprints retired by [`invalidate_graph`]
    /// (`PartitionCache::invalidate_graph`): a job that finishes after
    /// its generation was invalidated consults this and unpublishes its
    /// own entry, so late completions never leak disk bytes. Grows 8
    /// bytes per apply for the cache's lifetime — negligible.
    retired: Mutex<HashSet<u64>>,
    /// Partition jobs actually executed (cache+coalesce misses).
    pub jobs_run: AtomicU64,
    /// Hits served from memory.
    pub mem_hits: AtomicU64,
    /// Hits served by reloading a disk entry.
    pub disk_hits: AtomicU64,
    /// Requests that waited on another request's in-flight job.
    pub coalesced: AtomicU64,
}

impl PartitionCache {
    /// A cache persisting under `root` (created on first write).
    pub fn new(root: PathBuf) -> Self {
        PartitionCache {
            root,
            mem: Mutex::new(HashMap::new()),
            inflight: Mutex::new(HashMap::new()),
            retired: Mutex::new(HashSet::new()),
            jobs_run: AtomicU64::new(0),
            mem_hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
        }
    }

    /// Directory holding `key`'s entry.
    pub fn entry_dir(&self, key: &CacheKey) -> PathBuf {
        self.root.join(key.dir_name())
    }

    /// Returns the partition for `key`, computing it with `compute` on a
    /// full miss. Exactly one caller runs `compute` per key at a time;
    /// the rest coalesce. The returned tier says how this particular call
    /// was served.
    pub fn get_or_compute(
        &self,
        key: CacheKey,
        compute: impl FnOnce() -> Result<Vec<DistGraph>, ServeError>,
    ) -> Result<(Arc<CachedPartition>, CacheTier), ServeError> {
        // Memory tier.
        if let Some(hit) = self.mem.lock().unwrap().get(&key) {
            self.mem_hits.fetch_add(1, Ordering::Relaxed);
            cusp_obs::instant("serve_cache_mem_hit", key.hash64());
            return Ok((Arc::clone(hit), CacheTier::Memory));
        }

        // Join an in-flight job for the key, or become the runner.
        let job = {
            let mut inflight = self.inflight.lock().unwrap();
            // A job may have completed between the mem probe and here.
            if let Some(hit) = self.mem.lock().unwrap().get(&key) {
                self.mem_hits.fetch_add(1, Ordering::Relaxed);
                return Ok((Arc::clone(hit), CacheTier::Memory));
            }
            match inflight.get(&key) {
                Some(job) => {
                    let job = Arc::clone(job);
                    drop(inflight);
                    self.coalesced.fetch_add(1, Ordering::Relaxed);
                    cusp_obs::instant("serve_cache_coalesced", key.hash64());
                    let mut done = job.done.lock().unwrap();
                    while done.is_none() {
                        done = job.cv.wait(done).unwrap();
                    }
                    return done
                        .as_ref()
                        .unwrap()
                        .clone()
                        .map(|p| (p, CacheTier::Coalesced));
                }
                None => {
                    let job = Arc::new(Inflight { done: Mutex::new(None), cv: Condvar::new() });
                    inflight.insert(key, Arc::clone(&job));
                    job
                }
            }
        };

        // We are the runner: disk tier first, then compute. The whole
        // production path — disk probe, compute, fingerprint + quality,
        // disk store, memory publish — runs behind catch_unwind: a panic
        // anywhere here must still become a published error below, or
        // the Inflight entry stays with done=None forever and every
        // coalesced waiter blocks on the condvar while the key is
        // permanently wedged.
        let result = catch_unwind(AssertUnwindSafe(|| {
            let result = match self.load_disk(&key) {
                Some(cached) => {
                    self.disk_hits.fetch_add(1, Ordering::Relaxed);
                    cusp_obs::instant("serve_cache_disk_hit", key.hash64());
                    Ok((Arc::new(cached), CacheTier::Disk))
                }
                None => {
                    self.jobs_run.fetch_add(1, Ordering::Relaxed);
                    let _span = cusp_obs::span_arg("serve_partition_job", key.hash64());
                    compute().map(|parts| {
                        let (fingerprint, stored) = self.store_disk(&key, &parts);
                        if let Err(e) = stored {
                            // Disk persistence is best-effort; memory
                            // still serves the result.
                            eprintln!(
                                "cusp-serve: cache write failed for {}: {e}",
                                self.entry_dir(&key).display()
                            );
                        }
                        (Arc::new(CachedPartition::new(parts, fingerprint)), CacheTier::Cold)
                    })
                }
            };
            if let Ok((cached, _)) = &result {
                self.mem.lock().unwrap().insert(key, Arc::clone(cached));
                // An apply may have retired this graph generation while
                // the job ran. The ordering makes cleanup race-free:
                // invalidation records the fingerprint *before* its
                // sweep, and this check runs *after* our publication —
                // so either the sweep saw our entry, or we see the
                // retired mark and unpublish it ourselves. The caller
                // (and coalesced waiters) still get the result: they
                // asked for the pre-mutation graph and got exactly that.
                if self.retired.lock().unwrap().contains(&key.graph) {
                    self.mem.lock().unwrap().remove(&key);
                    let _ = std::fs::remove_dir_all(self.entry_dir(&key));
                }
            }
            result
        }))
        .unwrap_or_else(|p| Err(ServeError::JobFailed(panic_message(&*p))));

        // Wake coalesced waiters and retire the job.
        let shared = result.as_ref().map(|(c, _)| Arc::clone(c)).map_err(Clone::clone);
        *job.done.lock().unwrap() = Some(shared);
        job.cv.notify_all();
        self.inflight.lock().unwrap().remove(&key);
        result
    }

    /// Drops the in-memory tier (keeps disk). Exposed so tests and the
    /// admin surface can force disk-path coverage.
    pub fn clear_memory(&self) {
        self.mem.lock().unwrap().clear();
    }

    /// Evicts every entry — memory and disk — keyed by graph fingerprint
    /// `graph`. Called when an `apply` retires that fingerprint, so a
    /// stale generation can never be served for the mutated graph (the
    /// new fingerprint keys fresh entries) and its bytes are reclaimed.
    ///
    /// In-flight jobs for the old fingerprint are left to complete: their
    /// callers asked for the pre-mutation graph and get exactly that,
    /// under a key no future lookup of the mutated graph can reach. The
    /// fingerprint is recorded as retired *before* the sweep, so a job
    /// that publishes after this call sees the mark and removes its own
    /// entry — late completions cannot leak memory or disk bytes.
    /// Returns `(memory_entries, disk_entries)` evicted.
    pub fn invalidate_graph(&self, graph: u64) -> (usize, usize) {
        self.retired.lock().unwrap().insert(graph);
        let mem_evicted = {
            let mut mem = self.mem.lock().unwrap();
            let before = mem.len();
            mem.retain(|k, _| k.graph != graph);
            before - mem.len()
        };
        let mut disk_evicted = 0;
        let prefix = format!("g{graph:016x}-");
        if let Ok(entries) = std::fs::read_dir(&self.root) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                if name.to_string_lossy().starts_with(&prefix)
                    && std::fs::remove_dir_all(entry.path()).is_ok()
                {
                    disk_evicted += 1;
                }
            }
        }
        cusp_obs::instant("serve_cache_invalidate", graph);
        (mem_evicted, disk_evicted)
    }

    /// Loads a committed disk entry, or `None` on any inconsistency:
    /// missing/corrupt meta, unreadable part file, wrong part count or
    /// id, or a fingerprint mismatch against the meta record (bit rot, or
    /// a `meta` written by a build whose fingerprint function differed).
    /// All of those mean "miss", never an error — the fallback is
    /// recomputing, whose store overwrites the entry.
    fn load_disk(&self, key: &CacheKey) -> Option<CachedPartition> {
        let dir = self.entry_dir(key);
        let (fingerprint, hosts) = read_meta(&dir.join("meta"))?;
        if hosts != key.hosts {
            return None;
        }
        // Each part is read and digested by one thread.
        let loaded = per_part(hosts as usize, |h| {
            let part = cusp::read_partition(&dir.join(part_file(h as u32))).ok()?;
            (part.part_id == h as u32 && part.num_parts == hosts)
                .then(|| (part_fingerprint(&part), part))
        });
        let (digests, parts): (Vec<u64>, Vec<DistGraph>) =
            loaded.into_iter().collect::<Option<Vec<_>>>()?.into_iter().unzip();
        // Check the store-time fingerprint BEFORE computing quality
        // metrics: bit rot that survives `read_partition`'s shape checks
        // must be caught while the data is still untrusted. The verified
        // value then *is* the entry's fingerprint — nothing recomputes it.
        if merge_part_fingerprints(&digests) != fingerprint {
            return None;
        }
        Some(CachedPartition::new(parts, fingerprint))
    }

    /// Fingerprints `parts` and persists them: a previous `meta` is
    /// removed first (a rewrite is uncommitted while its parts change),
    /// then each part is digested and written by one thread, and the
    /// CRC-checked `meta` goes last as the commit marker — only if every
    /// part file was written, so a torn or failed store leaves no meta →
    /// clean miss. The fingerprint is returned whatever became of the
    /// files; persistence is best-effort.
    fn store_disk(&self, key: &CacheKey, parts: &[DistGraph]) -> (u64, std::io::Result<()>) {
        let dir = self.entry_dir(key);
        let meta = dir.join("meta");
        let uncommitted =
            std::fs::create_dir_all(&dir).and_then(|()| match std::fs::remove_file(&meta) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e),
                _ => Ok(()),
            });
        let (digests, written): (Vec<u64>, Vec<std::io::Result<()>>) =
            per_part(parts.len(), |h| {
                let part = &parts[h];
                let path = dir.join(part_file(part.part_id));
                (part_fingerprint(part), cusp::write_partition(&path, part))
            })
            .into_iter()
            .unzip();
        let fingerprint = merge_part_fingerprints(&digests);
        let stored = uncommitted
            .and(written.into_iter().collect())
            .and_then(|()| write_meta(&meta, fingerprint, key.hosts));
        (fingerprint, stored)
    }
}

/// File name of host `h`'s partition inside an entry directory.
fn part_file(h: u32) -> String {
    format!("part-{h:04}.part")
}

/// Meta file: one checked record whose payload is `fingerprint u64 |
/// hosts u32` (LE), `META_BYTES` long.
const META_BYTES: u32 = 12;

fn write_meta(path: &Path, fingerprint: u64, hosts: u32) -> std::io::Result<()> {
    let mut file = Vec::with_capacity(wire::RECORD_HEADER_BYTES + META_BYTES as usize);
    wire::put_record_with(&mut file, |payload| {
        wire::put_u64(payload, fingerprint);
        wire::put_u32(payload, hosts);
    });
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, &file)?;
    std::fs::rename(&tmp, path)
}

fn read_meta(path: &Path) -> Option<(u64, u32)> {
    let bytes = std::fs::read(path).ok()?;
    let (payload, used) = wire::take_record(&bytes, META_BYTES).ok()?;
    if used != bytes.len() || payload.len() != META_BYTES as usize {
        return None;
    }
    let mut r = wire::Reader::new(payload);
    Some((r.u64().ok()?, r.u32().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cusp_graph::Csr;

    fn tiny_parts(hosts: u32) -> Vec<DistGraph> {
        // A 2-node ring split "by hand" — enough structure for the cache
        // plumbing; real partitions are exercised in tests/cache.rs.
        (0..hosts)
            .map(|h| DistGraph {
                part_id: h,
                num_parts: hosts,
                global_nodes: 2,
                global_edges: 2,
                num_masters: 1,
                local2global: vec![h, 1 - h],
                master_of: vec![h, 1 - h],
                graph: Csr::from_edges(2, &[(0, 1)]),
                edge_data: None,
                class: cusp::PartitionClass::GeneralVertexCut,
            })
            .collect()
    }

    fn temp_root(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("cusp-serve-cache-{}-{tag}", std::process::id()))
    }

    #[test]
    fn mem_then_disk_then_recompute() {
        let root = temp_root("tiers");
        let _ = std::fs::remove_dir_all(&root);
        let cache = PartitionCache::new(root.clone());
        let key = CacheKey { graph: 42, policy: PolicyKind::Cvc, hosts: 2, chunk_edges: 0 };

        let (a, tier) = cache.get_or_compute(key, || Ok(tiny_parts(2))).unwrap();
        assert_eq!(tier, CacheTier::Cold);
        let (b, tier) = cache.get_or_compute(key, || panic!("should be cached")).unwrap();
        assert_eq!(tier, CacheTier::Memory);
        assert_eq!(a.fingerprint, b.fingerprint);

        // A fresh cache over the same root = server restart: disk tier.
        let cache2 = PartitionCache::new(root.clone());
        let (c, tier) = cache2.get_or_compute(key, || panic!("disk should hit")).unwrap();
        assert_eq!(tier, CacheTier::Disk);
        assert_eq!(c.fingerprint, a.fingerprint);
        assert_eq!(cache2.jobs_run.load(Ordering::Relaxed), 0);
        // Both tiers answer with the library's fingerprint of what they hold.
        assert_eq!(a.fingerprint, cusp::partition_fingerprint(&a.parts));
        assert_eq!(c.fingerprint, cusp::partition_fingerprint(&c.parts));

        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn failed_part_write_commits_nothing_and_the_next_request_is_cold() {
        let root = temp_root("unwritable");
        let _ = std::fs::remove_dir_all(&root);
        let cache = PartitionCache::new(root.clone());
        let key = CacheKey { graph: 21, policy: PolicyKind::Cvc, hosts: 2, chunk_edges: 0 };
        // A directory squats on part 1's file name: that write fails (for
        // any uid, unlike a permission bit) while part 0's succeeds.
        let dir = cache.entry_dir(&key);
        std::fs::create_dir_all(dir.join(part_file(1))).unwrap();

        // Best-effort persistence: the request itself is served.
        let (a, tier) = cache.get_or_compute(key, || Ok(tiny_parts(2))).unwrap();
        assert_eq!(tier, CacheTier::Cold);
        assert!(dir.join(part_file(0)).is_file(), "the other part was written");
        assert!(!dir.join("meta").exists(), "a half-written entry must not be committed");

        // A restart sees a clean miss, not a disk hit on the half entry.
        let cache2 = PartitionCache::new(root.clone());
        let (b, tier) = cache2.get_or_compute(key, || Ok(tiny_parts(2))).unwrap();
        assert_eq!(tier, CacheTier::Cold);
        assert_eq!(cache2.disk_hits.load(Ordering::Relaxed), 0);
        assert_eq!(cache2.jobs_run.load(Ordering::Relaxed), 1);
        assert_eq!(b.fingerprint, a.fingerprint);
        assert!(!dir.join("meta").exists());

        // Once the path is writable the recompute commits the entry.
        std::fs::remove_dir(dir.join(part_file(1))).unwrap();
        let cache3 = PartitionCache::new(root.clone());
        let (_, tier) = cache3.get_or_compute(key, || Ok(tiny_parts(2))).unwrap();
        assert_eq!(tier, CacheTier::Cold);
        let cache4 = PartitionCache::new(root.clone());
        let (d, tier) = cache4.get_or_compute(key, || panic!("disk should hit")).unwrap();
        assert_eq!((tier, d.fingerprint), (CacheTier::Disk, a.fingerprint));

        // A rewrite that fails un-commits the entry it was replacing.
        std::fs::remove_file(dir.join(part_file(1))).unwrap();
        std::fs::create_dir(dir.join(part_file(1))).unwrap();
        let cache5 = PartitionCache::new(root.clone());
        let (_, tier) = cache5.get_or_compute(key, || Ok(tiny_parts(2))).unwrap();
        assert_eq!(tier, CacheTier::Cold);
        assert!(!dir.join("meta").exists(), "the old commit marker must not outlive its parts");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn meta_from_another_fingerprint_function_is_a_miss_the_recompute_overwrites() {
        let root = temp_root("stale-meta");
        let _ = std::fs::remove_dir_all(&root);
        let cache = PartitionCache::new(root.clone());
        let key = CacheKey { graph: 22, policy: PolicyKind::Cvc, hosts: 2, chunk_edges: 0 };
        let (a, _) = cache.get_or_compute(key, || Ok(tiny_parts(2))).unwrap();

        // A well-formed meta whose value this build's function would not
        // produce — what a data directory kept across the change holds.
        let meta = cache.entry_dir(&key).join("meta");
        write_meta(&meta, !a.fingerprint, key.hosts).unwrap();
        assert_eq!(read_meta(&meta), Some((!a.fingerprint, 2)));

        let cache2 = PartitionCache::new(root.clone());
        let (b, tier) = cache2.get_or_compute(key, || Ok(tiny_parts(2))).unwrap();
        assert_eq!((tier, b.fingerprint), (CacheTier::Cold, a.fingerprint));
        assert_eq!(read_meta(&meta), Some((a.fingerprint, 2)), "recompute overwrites the entry");

        let cache3 = PartitionCache::new(root.clone());
        let (c, tier) = cache3.get_or_compute(key, || panic!("disk should hit")).unwrap();
        assert_eq!((tier, c.fingerprint), (CacheTier::Disk, a.fingerprint));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn corrupt_meta_or_part_falls_back_to_compute() {
        let root = temp_root("corrupt");
        let _ = std::fs::remove_dir_all(&root);
        let cache = PartitionCache::new(root.clone());
        let key = CacheKey { graph: 7, policy: PolicyKind::Eec, hosts: 2, chunk_edges: 16 };
        cache.get_or_compute(key, || Ok(tiny_parts(2))).unwrap();

        // Flip a byte mid-part-file; a restarted cache must recompute.
        let victim = cache.entry_dir(&key).join("part-0001.part");
        let mut bytes = std::fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&victim, &bytes).unwrap();

        let cache2 = PartitionCache::new(root.clone());
        let (back, tier) = cache2.get_or_compute(key, || Ok(tiny_parts(2))).unwrap();
        assert_eq!(tier, CacheTier::Cold, "corrupt entry must not serve");
        assert_eq!(cache2.jobs_run.load(Ordering::Relaxed), 1);
        assert_eq!(back.parts.len(), 2);

        // Truncated meta likewise.
        let meta = cache2.entry_dir(&key).join("meta");
        std::fs::write(&meta, b"short").unwrap();
        let cache3 = PartitionCache::new(root.clone());
        let (_, tier) = cache3.get_or_compute(key, || Ok(tiny_parts(2))).unwrap();
        assert_eq!(tier, CacheTier::Cold);

        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn compute_error_propagates_and_does_not_poison() {
        let root = temp_root("err");
        let _ = std::fs::remove_dir_all(&root);
        let cache = PartitionCache::new(root.clone());
        let key = CacheKey { graph: 9, policy: PolicyKind::Hvc, hosts: 2, chunk_edges: 0 };
        let err = cache
            .get_or_compute(key, || Err(ServeError::JobFailed("boom".into())))
            .unwrap_err();
        assert!(matches!(err, ServeError::JobFailed(_)));
        // The key is not wedged: a later request computes fresh.
        let (_, tier) = cache.get_or_compute(key, || Ok(tiny_parts(2))).unwrap();
        assert_eq!(tier, CacheTier::Cold);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn panicking_compute_publishes_error_and_does_not_wedge() {
        let root = temp_root("panic");
        let _ = std::fs::remove_dir_all(&root);
        let cache = Arc::new(PartitionCache::new(root.clone()));
        let key = CacheKey { graph: 11, policy: PolicyKind::Hvc, hosts: 2, chunk_edges: 0 };

        // A coalesced waiter must see the runner's panic as a typed
        // error, not block forever on the condvar. The channel proves
        // the panicking thread owns the inflight entry before the waiter
        // calls in.
        let (claimed_tx, claimed_rx) = std::sync::mpsc::channel();
        let runner = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                cache.get_or_compute(key, || -> Result<Vec<DistGraph>, ServeError> {
                    claimed_tx.send(()).unwrap();
                    // Hold the job long enough for the waiter to coalesce.
                    std::thread::sleep(std::time::Duration::from_millis(100));
                    panic!("runner blew up")
                })
            })
        };
        claimed_rx.recv().unwrap();
        let err = cache.get_or_compute(key, || Ok(tiny_parts(2))).unwrap_err();
        assert!(matches!(err, ServeError::JobFailed(ref m) if m.contains("blew up")), "{err}");
        let runner_err = runner.join().unwrap().unwrap_err();
        assert!(matches!(runner_err, ServeError::JobFailed(_)), "{runner_err}");

        // The key is not wedged: a later request computes fresh.
        let (_, tier) = cache.get_or_compute(key, || Ok(tiny_parts(2))).unwrap();
        assert_eq!(tier, CacheTier::Cold);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn job_finishing_after_invalidation_unpublishes_itself() {
        let root = temp_root("retired");
        let _ = std::fs::remove_dir_all(&root);
        let cache = Arc::new(PartitionCache::new(root.clone()));
        let key = CacheKey { graph: 13, policy: PolicyKind::Cvc, hosts: 2, chunk_edges: 0 };

        // Invalidate the graph while its job is in flight; when the job
        // completes it must clean up its own memory + disk publication.
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let runner = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                cache.get_or_compute(key, || {
                    started_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    Ok(tiny_parts(2))
                })
            })
        };
        started_rx.recv().unwrap();
        cache.invalidate_graph(key.graph);
        release_tx.send(()).unwrap();
        let (_, tier) = runner.join().unwrap().expect("late job still serves its caller");
        assert_eq!(tier, CacheTier::Cold);

        assert!(
            !cache.entry_dir(&key).exists(),
            "late disk write for a retired generation must be reclaimed"
        );
        assert!(cache.mem.lock().unwrap().is_empty(), "late memory publish must be removed");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn key_dir_names_are_distinct_and_stable() {
        let a = CacheKey { graph: 1, policy: PolicyKind::Cvc, hosts: 4, chunk_edges: 0 };
        let b = CacheKey { chunk_edges: 1024, ..a };
        let c = CacheKey { policy: PolicyKind::Hdrf, ..a };
        assert_eq!(a.dir_name(), a.dir_name());
        assert_ne!(a.dir_name(), b.dir_name());
        assert_ne!(a.dir_name(), c.dir_name());
        assert!(a.dir_name().starts_with("g0000000000000001-cvc-h4-c0"));
    }
}

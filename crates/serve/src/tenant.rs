//! Multi-tenancy: named namespaces with resource quotas.
//!
//! Each tenant owns a set of resident graphs, a byte budget, and a bound
//! on in-flight partition requests. Over-quota requests are *rejected*
//! with a typed [`ServeError::QuotaExceeded`] — never queued — so one
//! tenant's burst cannot starve another's latency. On disk, each tenant's
//! partition cache lives under its own `tenants/<name>/` directory, so
//! nothing a tenant uploads or caches is visible outside its namespace.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use cusp_graph::Csr;

use crate::error::{QuotaKind, ServeError};

/// Per-tenant resource ceilings.
#[derive(Clone, Copy, Debug)]
pub struct Quota {
    /// Most graphs resident at once.
    pub max_graphs: usize,
    /// Most resident graph heap bytes (CSR arrays + weights).
    pub max_bytes: u64,
    /// Most partition/quality requests in flight at once.
    pub max_concurrent_jobs: u32,
}

impl Default for Quota {
    fn default() -> Self {
        Quota { max_graphs: 64, max_bytes: 4 << 30, max_concurrent_jobs: 8 }
    }
}

/// One uploaded graph, shared by reference with every job that uses it.
pub struct GraphEntry {
    /// Name within the tenant.
    pub name: String,
    /// The graph itself.
    pub graph: Arc<Csr>,
    /// Per-edge data aligned with the CSR edge order, if weighted.
    pub weights: Option<Arc<Vec<u32>>>,
    /// `cusp::graph_fingerprint` — the graph half of every cache key.
    pub fingerprint: u64,
    /// Heap bytes charged against the tenant's byte quota.
    pub heap_bytes: u64,
}

impl GraphEntry {
    /// The entry for `graph` under `name`, with its fingerprint and the
    /// bytes its offsets, destinations and weights charge to the quota.
    pub fn new(name: &str, graph: Arc<Csr>, weights: Option<Arc<Vec<u32>>>) -> Self {
        let fingerprint = cusp::graph_fingerprint(&graph, weights.as_ref().map(|w| &w[..]));
        let heap_bytes = ((graph.num_nodes() + 1) * 8
            + graph.num_edges() as usize * 4
            + weights.as_ref().map_or(0, |w| w.len() * 4)) as u64;
        GraphEntry { name: name.to_string(), graph, weights, fingerprint, heap_bytes }
    }
}

impl std::fmt::Debug for GraphEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphEntry")
            .field("name", &self.name)
            .field("nodes", &self.graph.num_nodes())
            .field("edges", &self.graph.num_edges())
            .field("fingerprint", &format_args!("{:016x}", self.fingerprint))
            .finish()
    }
}

/// One tenant's graphs and live counters.
pub struct Tenant {
    /// Tenant name (validated: also its storage directory name).
    pub name: String,
    quota: Quota,
    graphs: Mutex<HashMap<String, Arc<GraphEntry>>>,
    graph_locks: Mutex<HashMap<String, Arc<Mutex<()>>>>,
    bytes: AtomicU64,
    active_jobs: AtomicU32,
}

impl Tenant {
    fn new(name: String, quota: Quota) -> Self {
        Tenant {
            name,
            quota,
            graphs: Mutex::new(HashMap::new()),
            graph_locks: Mutex::new(HashMap::new()),
            bytes: AtomicU64::new(0),
            active_jobs: AtomicU32::new(0),
        }
    }

    /// The per-graph write lock. Every mutation of a named graph —
    /// `apply`'s snapshot → WAL append → publish sequence, and uploads
    /// that replace an existing name — must hold this across the whole
    /// read-modify-write, so two concurrent mutations serialize instead
    /// of last-insert-wins silently discarding an acknowledged batch.
    /// Reads (`graph`, partition jobs) stay lock-free with respect to it.
    pub fn graph_lock(&self, name: &str) -> Arc<Mutex<()>> {
        let mut locks = self.graph_locks.lock().unwrap();
        Arc::clone(locks.entry(name.to_string()).or_default())
    }

    /// Registers (or replaces) a graph, enforcing the graph-count and
    /// byte quotas. Replacing an existing name releases its bytes first.
    pub fn insert_graph(&self, entry: GraphEntry) -> Result<Arc<GraphEntry>, ServeError> {
        let mut graphs = self.graphs.lock().unwrap();
        let replaced_bytes = graphs.get(&entry.name).map(|e| e.heap_bytes).unwrap_or(0);
        let adding_graph = usize::from(!graphs.contains_key(&entry.name));
        if graphs.len() + adding_graph > self.quota.max_graphs {
            return Err(ServeError::QuotaExceeded {
                tenant: self.name.clone(),
                kind: QuotaKind::Graphs,
                limit: self.quota.max_graphs as u64,
            });
        }
        let current = self.bytes.load(Ordering::Relaxed) - replaced_bytes;
        if current + entry.heap_bytes > self.quota.max_bytes {
            return Err(ServeError::QuotaExceeded {
                tenant: self.name.clone(),
                kind: QuotaKind::Bytes,
                limit: self.quota.max_bytes,
            });
        }
        self.bytes.store(current + entry.heap_bytes, Ordering::Relaxed);
        let entry = Arc::new(entry);
        graphs.insert(entry.name.clone(), Arc::clone(&entry));
        Ok(entry)
    }

    /// Looks up a graph by name.
    pub fn graph(&self, name: &str) -> Result<Arc<GraphEntry>, ServeError> {
        self.graphs.lock().unwrap().get(name).cloned().ok_or_else(|| ServeError::NoSuchGraph {
            tenant: self.name.clone(),
            graph: name.to_string(),
        })
    }

    /// `(name, nodes, edges)` rows for every resident graph, name-sorted.
    pub fn list_graphs(&self) -> Vec<(String, u64, u64)> {
        let graphs = self.graphs.lock().unwrap();
        let mut rows: Vec<_> = graphs
            .values()
            .map(|e| (e.name.clone(), e.graph.num_nodes() as u64, e.graph.num_edges()))
            .collect();
        rows.sort();
        rows
    }

    /// Number of resident graphs.
    pub fn num_graphs(&self) -> usize {
        self.graphs.lock().unwrap().len()
    }

    /// Resident graph bytes currently charged.
    pub fn resident_bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Claims a job slot, or rejects immediately when the tenant is at
    /// its concurrency ceiling. The returned permit releases the slot on
    /// drop (including on panic), so a crashed job never leaks capacity.
    pub fn acquire_job(self: &Arc<Self>) -> Result<JobPermit, ServeError> {
        // CAS loop so two racers cannot both squeeze past the ceiling.
        let mut cur = self.active_jobs.load(Ordering::Relaxed);
        loop {
            if cur >= self.quota.max_concurrent_jobs {
                return Err(ServeError::QuotaExceeded {
                    tenant: self.name.clone(),
                    kind: QuotaKind::Jobs,
                    limit: self.quota.max_concurrent_jobs as u64,
                });
            }
            match self.active_jobs.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Ok(JobPermit { tenant: Arc::clone(self) }),
                Err(seen) => cur = seen,
            }
        }
    }

    /// Jobs currently holding permits.
    pub fn active_jobs(&self) -> u32 {
        self.active_jobs.load(Ordering::Relaxed)
    }
}

/// RAII job-slot claim; dropping it frees the slot.
pub struct JobPermit {
    tenant: Arc<Tenant>,
}

impl std::fmt::Debug for JobPermit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobPermit").field("tenant", &self.tenant.name).finish()
    }
}

impl Drop for JobPermit {
    fn drop(&mut self) {
        self.tenant.active_jobs.fetch_sub(1, Ordering::AcqRel);
    }
}

/// All tenants known to the server. Tenants are created on first use
/// with the server's default quota.
pub struct TenantRegistry {
    tenants: Mutex<HashMap<String, Arc<Tenant>>>,
    default_quota: Quota,
}

impl TenantRegistry {
    /// An empty registry handing `default_quota` to new tenants.
    pub fn new(default_quota: Quota) -> Self {
        TenantRegistry { tenants: Mutex::new(HashMap::new()), default_quota }
    }

    /// The tenant named `name`, created on first use. Names are
    /// validated because they become storage directory components.
    pub fn get_or_create(&self, name: &str) -> Result<Arc<Tenant>, ServeError> {
        self.get_or_create_with(name, self.default_quota)
    }

    /// The tenant named `name`, with an explicit quota if it does not
    /// exist yet (used by tests and by per-tenant config).
    pub fn get_or_create_with(&self, name: &str, quota: Quota) -> Result<Arc<Tenant>, ServeError> {
        validate_name(name)?;
        let mut tenants = self.tenants.lock().unwrap();
        Ok(Arc::clone(
            tenants
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Tenant::new(name.to_string(), quota))),
        ))
    }

    /// Number of registered tenants.
    pub fn num_tenants(&self) -> usize {
        self.tenants.lock().unwrap().len()
    }

    /// Total graphs resident across all tenants.
    pub fn total_graphs(&self) -> usize {
        self.tenants.lock().unwrap().values().map(|t| t.num_graphs()).sum()
    }
}

/// Tenant and graph names become path components and wire fields, so the
/// alphabet is locked down: `[A-Za-z0-9_.-]`, 1–64 chars, no leading dot
/// (also excludes `.` / `..` traversal).
pub fn validate_name(name: &str) -> Result<(), ServeError> {
    let ok = !name.is_empty()
        && name.len() <= 64
        && !name.starts_with('.')
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.'));
    if ok {
        Ok(())
    } else {
        Err(ServeError::BadName(name.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::QuotaKind;

    fn entry(name: &str, edges: &[(u32, u32)], bytes: u64) -> GraphEntry {
        let graph = Arc::new(Csr::from_edges(4, edges));
        GraphEntry {
            name: name.to_string(),
            fingerprint: cusp::graph_fingerprint(&graph, None),
            graph,
            weights: None,
            heap_bytes: bytes,
        }
    }

    #[test]
    fn name_validation_blocks_traversal() {
        for bad in ["", "..", ".hidden", "a/b", "a\\b", "x y", &"n".repeat(65)] {
            assert!(validate_name(bad).is_err(), "{bad:?} accepted");
        }
        for good in ["acme", "t-1", "a.b", "X_9"] {
            assert!(validate_name(good).is_ok(), "{good:?} rejected");
        }
    }

    #[test]
    fn graph_count_quota_rejects_typed() {
        let reg = TenantRegistry::new(Quota { max_graphs: 1, ..Quota::default() });
        let t = reg.get_or_create("acme").unwrap();
        t.insert_graph(entry("a", &[(0, 1)], 10)).unwrap();
        // Replacing the same name is fine; a second name is over quota.
        t.insert_graph(entry("a", &[(0, 2)], 12)).unwrap();
        let err = t.insert_graph(entry("b", &[(1, 2)], 10)).unwrap_err();
        assert!(
            matches!(err, ServeError::QuotaExceeded { kind: QuotaKind::Graphs, limit: 1, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn byte_quota_accounts_replacement() {
        let reg = TenantRegistry::new(Quota { max_bytes: 100, ..Quota::default() });
        let t = reg.get_or_create("acme").unwrap();
        t.insert_graph(entry("a", &[(0, 1)], 80)).unwrap();
        assert_eq!(t.resident_bytes(), 80);
        // 80 + 30 > 100 for a new name...
        let err = t.insert_graph(entry("b", &[(1, 2)], 30)).unwrap_err();
        assert!(matches!(err, ServeError::QuotaExceeded { kind: QuotaKind::Bytes, .. }));
        // ...but replacing "a" releases its 80 first.
        t.insert_graph(entry("a", &[(0, 3)], 90)).unwrap();
        assert_eq!(t.resident_bytes(), 90);
    }

    #[test]
    fn job_permits_bound_concurrency_and_release_on_drop() {
        let reg = TenantRegistry::new(Quota { max_concurrent_jobs: 2, ..Quota::default() });
        let t = reg.get_or_create("acme").unwrap();
        let p1 = t.acquire_job().unwrap();
        let _p2 = t.acquire_job().unwrap();
        let err = t.acquire_job().unwrap_err();
        assert!(matches!(err, ServeError::QuotaExceeded { kind: QuotaKind::Jobs, limit: 2, .. }));
        drop(p1);
        assert_eq!(t.active_jobs(), 1);
        let _p3 = t.acquire_job().unwrap();
    }
}

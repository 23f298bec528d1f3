//! Request routing and job execution, independent of any transport.
//!
//! [`ServerState::handle`] maps one decoded [`Request`] to one
//! [`Response`] and never panics: partition jobs run behind
//! `catch_unwind`, so a policy bug surfaces as a typed `JobFailed`
//! response instead of killing the connection thread. Both the TCP loop
//! and the HTTP front end call into this router, and the test batteries
//! drive it directly — the transports stay thin.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cusp::{partition_with_policy, CuspConfig, DistGraph, GraphSource, PolicyKind};
use cusp_graph::{Csr, GraphEvent, Wal};
use cusp_net::Cluster;

use crate::cache::{CacheKey, CachedPartition, PartitionCache};
use crate::error::ServeError;
use crate::protocol::{CacheTier, Request, Response, DEFAULT_MAX_FRAME, MAX_HOSTS};
use crate::tenant::{GraphEntry, Quota, TenantRegistry};

/// Server-wide knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Root of all durable state; each tenant caches under
    /// `<data_dir>/tenants/<tenant>/cache/<key>/`.
    pub data_dir: PathBuf,
    /// Quota handed to tenants on first use.
    pub default_quota: Quota,
    /// Worker threads per simulated host inside partition jobs. The cache
    /// key carries no thread count: a partition is the same at any.
    pub threads_per_host: usize,
    /// Frame payload cap for both directions.
    pub max_frame: u32,
    /// Socket read timeout — bounds how long a silent peer can hold a
    /// connection thread.
    pub read_timeout: Duration,
    /// Most concurrent TCP connections accepted.
    pub max_connections: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            data_dir: PathBuf::from("cusp-serve-data"),
            default_quota: Quota::default(),
            threads_per_host: 1,
            max_frame: DEFAULT_MAX_FRAME,
            read_timeout: Duration::from_secs(30),
            max_connections: 64,
        }
    }
}

/// Aggregated request/cache counters (the `ServerStats` response body).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeCounters {
    /// Requests handled, all kinds.
    pub requests: u64,
    /// Partition jobs actually executed.
    pub jobs_run: u64,
    /// In-memory cache hits.
    pub mem_hits: u64,
    /// Disk cache hits.
    pub disk_hits: u64,
    /// Requests coalesced onto in-flight jobs.
    pub coalesced: u64,
    /// Registered tenants.
    pub tenants: u64,
    /// Resident graphs across tenants.
    pub graphs: u64,
}

/// Shared state behind every transport: tenants, caches, counters.
pub struct ServerState {
    /// The configuration the server was built with.
    pub config: ServeConfig,
    registry: TenantRegistry,
    caches: Mutex<HashMap<String, Arc<PartitionCache>>>,
    requests: AtomicU64,
}

impl ServerState {
    /// Builds the state and ensures the data directory exists.
    pub fn new(config: ServeConfig) -> std::io::Result<Arc<ServerState>> {
        std::fs::create_dir_all(&config.data_dir)?;
        Ok(Arc::new(ServerState {
            registry: TenantRegistry::new(config.default_quota),
            caches: Mutex::new(HashMap::new()),
            requests: AtomicU64::new(0),
            config,
        }))
    }

    /// The tenant registry (tests use this to pre-create tenants with
    /// tightened quotas).
    pub fn registry(&self) -> &TenantRegistry {
        &self.registry
    }

    /// The per-tenant cache, created on first use under the tenant's
    /// namespaced directory.
    pub fn cache_for(&self, tenant: &str) -> Arc<PartitionCache> {
        let mut caches = self.caches.lock().unwrap();
        Arc::clone(caches.entry(tenant.to_string()).or_insert_with(|| {
            Arc::new(PartitionCache::new(
                self.config.data_dir.join("tenants").join(tenant).join("cache"),
            ))
        }))
    }

    /// Drops every tenant's in-memory cache tier (disk entries survive).
    pub fn clear_memory_caches(&self) {
        for cache in self.caches.lock().unwrap().values() {
            cache.clear_memory();
        }
    }

    /// Current counter snapshot.
    pub fn counters(&self) -> ServeCounters {
        let caches = self.caches.lock().unwrap();
        let mut c = ServeCounters {
            requests: self.requests.load(Ordering::Relaxed),
            tenants: self.registry.num_tenants() as u64,
            graphs: self.registry.total_graphs() as u64,
            ..ServeCounters::default()
        };
        for cache in caches.values() {
            c.jobs_run += cache.jobs_run.load(Ordering::Relaxed);
            c.mem_hits += cache.mem_hits.load(Ordering::Relaxed);
            c.disk_hits += cache.disk_hits.load(Ordering::Relaxed);
            c.coalesced += cache.coalesced.load(Ordering::Relaxed);
        }
        c
    }

    /// Routes one request to one response. Total: every failure is a
    /// typed `Error` response, never a panic.
    pub fn handle(&self, req: Request) -> Response {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let _span = cusp_obs::span("serve_request");
        self.dispatch(req).unwrap_or_else(Response::from)
    }

    fn dispatch(&self, req: Request) -> Result<Response, ServeError> {
        match req {
            Request::UploadGraph { tenant, name, offsets, dests, weights } => {
                self.upload(&tenant, &name, offsets, dests, weights)
            }
            Request::Partition { tenant, graph, policy, hosts, chunk_edges } => {
                let t0 = Instant::now();
                let (cached, tier) =
                    self.partition(&tenant, &graph, &policy, hosts, chunk_edges)?;
                Ok(Response::Partitioned {
                    fingerprint: cached.fingerprint,
                    tier,
                    wall_micros: t0.elapsed().as_micros() as u64,
                    replication_factor: cached.quality.replication_factor,
                    edge_balance: cached.quality.edge_balance,
                })
            }
            Request::GraphStats { tenant, graph } => {
                let t = self.registry.get_or_create(&tenant)?;
                let entry = t.graph(&graph)?;
                let g = &entry.graph;
                let max_degree =
                    (0..g.num_nodes()).map(|v| g.out_degree(v as u32)).max().unwrap_or(0);
                Ok(Response::GraphStatsReport {
                    fingerprint: entry.fingerprint,
                    nodes: g.num_nodes() as u64,
                    edges: g.num_edges(),
                    max_degree,
                    weighted: entry.weights.is_some(),
                })
            }
            Request::Quality { tenant, graph, policy, hosts, chunk_edges } => {
                let (cached, tier) =
                    self.partition(&tenant, &graph, &policy, hosts, chunk_edges)?;
                Ok(Response::QualityReport {
                    fingerprint: cached.fingerprint,
                    tier,
                    replication_factor: cached.quality.replication_factor,
                    node_balance: cached.quality.node_balance,
                    edge_balance: cached.quality.edge_balance,
                    total_mirrors: cached.quality.total_mirrors,
                })
            }
            Request::ListGraphs { tenant } => {
                let t = self.registry.get_or_create(&tenant)?;
                Ok(Response::Graphs { rows: t.list_graphs() })
            }
            Request::Apply { tenant, graph, batch } => self.apply(&tenant, &graph, &batch),
            Request::ServerStats => {
                let c = self.counters();
                Ok(Response::ServerStatsReport {
                    requests: c.requests,
                    jobs_run: c.jobs_run,
                    mem_hits: c.mem_hits,
                    disk_hits: c.disk_hits,
                    coalesced: c.coalesced,
                    tenants: c.tenants,
                    graphs: c.graphs,
                })
            }
        }
    }

    fn upload(
        &self,
        tenant: &str,
        name: &str,
        offsets: Vec<u64>,
        dests: Vec<u32>,
        weights: Option<Vec<u32>>,
    ) -> Result<Response, ServeError> {
        crate::tenant::validate_name(name)?;
        let t = self.registry.get_or_create(tenant)?;

        // CSR well-formedness before Csr::from_parts (which asserts):
        // non-empty monotone offsets bracketing dests, in-range dests,
        // aligned weights.
        if offsets.is_empty() {
            return Err(ServeError::BadRequest("offsets must have at least one entry".into()));
        }
        let nodes = offsets.len() - 1;
        if offsets[0] != 0 || offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(ServeError::BadRequest("offsets must start at 0 and be monotone".into()));
        }
        if *offsets.last().unwrap() != dests.len() as u64 {
            return Err(ServeError::BadRequest(format!(
                "last offset {} != dest count {}",
                offsets.last().unwrap(),
                dests.len()
            )));
        }
        // A max reduction vectorizes where a short-circuiting `any` does
        // not: half the time of the one scan of an upload's destinations.
        if dests.iter().max().is_some_and(|&d| (d as usize) >= nodes.max(1)) {
            return Err(ServeError::BadRequest("destination id out of range".into()));
        }
        if let Some(ws) = &weights {
            if ws.len() != dests.len() {
                return Err(ServeError::BadRequest(format!(
                    "{} weights for {} edges",
                    ws.len(),
                    dests.len()
                )));
            }
        }

        let heap_bytes = (offsets.len() * 8
            + dests.len() * 4
            + weights.as_ref().map_or(0, |w| w.len() * 4)) as u64;
        let graph = Arc::new(Csr::from_parts(offsets, dests));
        let weights = weights.map(Arc::new);
        let fingerprint = cusp::graph_fingerprint(&graph, weights.as_ref().map(|w| &w[..]));
        // The per-graph write lock serializes this upload against applies
        // (and other uploads) of the same name — without it a concurrent
        // apply could snapshot the graph being replaced and re-publish it
        // over this upload.
        let lock = t.graph_lock(name);
        let _write = lock.lock().unwrap();
        let entry = t.insert_graph(GraphEntry {
            name: name.to_string(),
            graph,
            weights,
            fingerprint,
            heap_bytes,
        })?;
        // This upload is a new base graph: any WAL recorded against a
        // previous graph of the same name no longer replays over it, so
        // the journal must not survive the replacement.
        Wal::new(self.wal_path(&t.name, name))
            .clear()
            .map_err(|e| ServeError::Io(e.to_string()))?;
        cusp_obs::instant("serve_upload", fingerprint);
        Ok(Response::GraphUploaded {
            fingerprint: entry.fingerprint,
            nodes: entry.graph.num_nodes() as u64,
            edges: entry.graph.num_edges(),
        })
    }

    /// Path of the per-tenant, per-graph mutation WAL.
    fn wal_path(&self, tenant: &str, graph: &str) -> PathBuf {
        self.config
            .data_dir
            .join("tenants")
            .join(tenant)
            .join("wal")
            .join(format!("{graph}.wal"))
    }

    /// Applies a mutation batch to a resident graph: validate + apply in
    /// memory, journal to the tenant's WAL, publish the mutated graph
    /// under its new fingerprint, and retire every cache entry keyed by
    /// the old one. Ordering matters: the WAL append is durable *before*
    /// the registry swap (a crash replays, never loses, an acknowledged
    /// batch), and the swap lands before invalidation (a request racing
    /// the apply resolves either generation's fingerprint, both of which
    /// serve correct bytes for their graph). The whole sequence runs
    /// under the per-graph write lock: concurrent applies to one graph
    /// serialize, so each sees the other's mutations instead of both
    /// snapshotting the same base and the last insert silently dropping
    /// the other acknowledged batch.
    fn apply(
        &self,
        tenant: &str,
        graph: &str,
        batch: &[GraphEvent],
    ) -> Result<Response, ServeError> {
        let t = self.registry.get_or_create(tenant)?;
        let lock = t.graph_lock(graph);
        let _write = lock.lock().unwrap();
        let entry = t.graph(graph)?;
        let applied = entry
            .graph
            .apply_batch(entry.weights.as_ref().map(|w| &w[..]), batch)
            .map_err(|e| ServeError::BadRequest(format!("batch rejected: {e}")))?;

        let wal = Wal::new(self.wal_path(&t.name, graph));
        let prior_len = wal.append(batch).map_err(|e| ServeError::Io(e.to_string()))?;

        let new_graph = Arc::new(applied.graph);
        let new_weights = applied.weights.map(Arc::new);
        let new_fp =
            cusp::graph_fingerprint(&new_graph, new_weights.as_ref().map(|w| &w[..]));
        let heap_bytes = ((new_graph.num_nodes() + 1) * 8
            + new_graph.num_edges() as usize * 4
            + new_weights.as_ref().map_or(0, |w| w.len() * 4)) as u64;
        let old_fp = entry.fingerprint;
        let nodes = new_graph.num_nodes() as u64;
        let edges = new_graph.num_edges();

        let inserted = t.insert_graph(GraphEntry {
            name: graph.to_string(),
            graph: new_graph,
            weights: new_weights,
            fingerprint: new_fp,
            heap_bytes,
        });
        if let Err(e) = inserted {
            // Quota rejection after the append: truncate the WAL back to
            // its pre-append length so the journal never claims an
            // unpublished mutation.
            let _ = wal.truncate_to(prior_len);
            return Err(e);
        }

        self.cache_for(&t.name).invalidate_graph(old_fp);
        cusp_obs::instant("serve_apply", new_fp);

        Ok(Response::Applied {
            old_fingerprint: old_fp,
            new_fingerprint: new_fp,
            dirty_vertices: applied.dirty.len() as u64,
            nodes,
            edges,
        })
    }

    /// The shared partition path: resolve tenant + graph, claim a job
    /// permit, then let the cache serve or coalesce or compute.
    ///
    /// `hosts` is validated here — not only at frame decode — so every
    /// transport (framed, HTTP, tests driving the router directly)
    /// inherits the bound; each host becomes an OS thread in the
    /// simulated cluster, so an unchecked value is a resource-exhaustion
    /// vector.
    fn partition(
        &self,
        tenant: &str,
        graph: &str,
        policy: &str,
        hosts: u32,
        chunk_edges: u64,
    ) -> Result<(Arc<CachedPartition>, CacheTier), ServeError> {
        if hosts == 0 || hosts > MAX_HOSTS {
            return Err(ServeError::BadRequest(format!(
                "hosts must be in 1..={MAX_HOSTS} (got {hosts})"
            )));
        }
        let t = self.registry.get_or_create(tenant)?;
        let entry = t.graph(graph)?;
        let Some(kind) = PolicyKind::parse(&policy.to_ascii_uppercase()) else {
            return Err(ServeError::UnknownPolicy(policy.to_string()));
        };
        // The permit is held for the whole request — including coalesced
        // waits — so max_concurrent_jobs bounds a tenant's in-flight
        // partition requests, not just the jobs it wins.
        let _permit = t.acquire_job()?;
        let key =
            CacheKey { graph: entry.fingerprint, policy: kind, hosts, chunk_edges };
        let cache = self.cache_for(&t.name);
        cache.get_or_compute(key, || self.run_job(&entry.graph, entry.weights.clone(), key))
    }

    /// Runs the five-phase pipeline on a simulated `hosts`-host cluster.
    /// Panics inside the cluster surface as `JobFailed`.
    fn run_job(
        &self,
        graph: &Arc<Csr>,
        weights: Option<Arc<Vec<u32>>>,
        key: CacheKey,
    ) -> Result<Vec<DistGraph>, ServeError> {
        let source = match weights {
            Some(ws) => GraphSource::MemoryWeighted(Arc::clone(graph), ws),
            None => GraphSource::Memory(Arc::clone(graph)),
        };
        let cfg = CuspConfig {
            threads_per_host: self.config.threads_per_host,
            chunk_edges: (key.chunk_edges > 0).then_some(key.chunk_edges),
            ..CuspConfig::default()
        };
        let hosts = key.hosts as usize;
        let kind = key.policy;
        catch_unwind(AssertUnwindSafe(move || {
            let out = Cluster::run(hosts, move |comm| {
                partition_with_policy(comm, source.clone(), kind, &cfg).dist_graph
            });
            out.results
        }))
        .map_err(|p| {
            let msg = p
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| p.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "partition job panicked".into());
            ServeError::JobFailed(msg)
        })
    }
}

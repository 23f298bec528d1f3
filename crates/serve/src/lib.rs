//! cusp-serve: a long-running multi-tenant partition server.
//!
//! CuSP's library entry points partition one graph and exit. This crate
//! turns the pipeline into a *service*: a daemon that holds uploaded
//! graphs resident, runs partition jobs on a simulated cluster, caches
//! completed [`DistGraph`](cusp::DistGraph) sets in memory and on disk,
//! and answers analytics queries — so a fleet of analytics jobs can
//! share one partitioning pass instead of each repeating it.
//!
//! Layers, bottom up:
//!
//! - [`protocol`] — the framed wire format: every request and response
//!   is one `magic | length | crc32 | payload` frame over TCP, with the
//!   payload encoded by the same `cusp-net` LE primitives the cluster
//!   codec uses. Decoding is *total*: any byte string yields `Ok` or a
//!   typed [`ProtocolError`](error::ProtocolError), never a panic, and
//!   attacker-controlled length fields are validated against the bytes
//!   actually present before anything is allocated.
//! - [`tenant`] — named namespaces with quotas (resident graphs, bytes,
//!   concurrent jobs). Over-quota requests fail fast with a typed
//!   error; they are never queued.
//! - [`cache`] — the partition cache, keyed by
//!   `(graph fingerprint, policy, hosts, chunk_edges)`. Memory tier →
//!   disk tier (`storage::write_partition` files plus a CRC'd meta
//!   record) → recompute; concurrent requests for the same key coalesce
//!   onto a single in-flight job.
//! - [`state`] — the transport-independent request router and job
//!   runner (a partition depends on no thread count, so cache hits are
//!   bit-identical to fresh runs).
//! - [`api`] — what the front ends share: the request table (verb and
//!   named arguments → [`Request`], with each verb's HTTP route) and the
//!   one JSON rendering of a [`Response`].
//! - [`server`] / [`http`] — the framed TCP loop, and an HTTP adapter
//!   over the request table for curl.
//! - [`client`] — a blocking typed client for the framed protocol;
//!   `cusp-part client` builds every routed request through the table
//!   (uploads and batches from local files through [`Client`]) and prints
//!   the JSON HTTP would return.

pub mod api;
pub mod cache;
pub mod client;
pub mod error;
pub mod http;
pub mod protocol;
pub mod server;
pub mod state;
pub mod tenant;

pub use api::{Verb, VERBS};
pub use cache::{CacheKey, CachedPartition, PartitionCache};
pub use client::{Client, ClientError};
pub use error::{ProtocolError, QuotaKind, ServeError};
pub use http::{serve_http, HttpHandle};
pub use protocol::{CacheTier, Request, Response};
pub use server::{serve, ServerHandle};
pub use state::{ServeConfig, ServeCounters, ServerState};
pub use tenant::{Quota, Tenant, TenantRegistry};

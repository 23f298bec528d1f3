//! Gluon-style synchronization plan (paper §V-C's "communication
//! optimizations in D-Galois").
//!
//! Built once per partition, the plan precomputes, for every peer:
//!
//! * **reduce** — which of my mirror proxies report to masters on that
//!   peer, and (statically) whether any traffic can flow in each
//!   direction, so empty-round messages are only exchanged on links that
//!   can ever carry data;
//! * **broadcast** — which of my master proxies that peer *subscribed* to.
//!   A mirror subscribes only if it has local out-edges: a value that is
//!   never read locally need not be refreshed. This single rule yields the
//!   paper's invariant-specific behaviours — edge-cut mirrors have no
//!   out-edges (no broadcast at all), CVC mirrors confine partners to the
//!   grid row/column, and general vertex-cuts broadcast widely.
//!
//! Every app synchronizes through [`SyncPlan::reduce`] and
//! [`SyncPlan::broadcast`], one exchange each: a message to every peer with
//! a non-empty list, then one message from every peer on the matching
//! `*_in_from` list. A message is `count u64 | (gid u32, value u64)*`,
//! little-endian, with the pairs in list order; an `f64` value travels as
//! its `to_bits()`. `exchange` writes it and [`Received`] reads it.

use cusp::DistGraph;
use cusp_graph::wire;
use cusp_net::{Bytes, Comm, Tag, WireReader, WireWriter};

/// Tag for the one-time plan exchange (and [`global_out_degrees`]).
pub const TAG_PLAN: Tag = Tag(10);
/// Tag for mirror→master reduction rounds.
pub const TAG_REDUCE: Tag = Tag(11);
/// Tag for master→mirror broadcast rounds.
pub const TAG_BCAST: Tag = Tag(12);

/// The `(local id, value)` pairs one exchange received, decoded as the
/// caller iterates. Drain it before the next exchange on the same tag.
/// A named type: an `impl Iterator` would capture `pick`'s borrows, and a
/// boxed one costs a virtual call per pair.
pub struct Received<'a> {
    comm: &'a Comm,
    dg: &'a DistGraph,
    tag: Tag,
    from: std::slice::Iter<'a, usize>,
    msg: WireReader,
    left: u64,
}

impl Iterator for Received<'_> {
    type Item = (u32, u64);

    #[inline]
    fn next(&mut self) -> Option<(u32, u64)> {
        while self.left == 0 {
            let &src = self.from.next()?;
            self.msg = WireReader::new(self.comm.recv_from(src, self.tag));
            self.left = self.msg.get_u64().expect("malformed sync message");
        }
        self.left -= 1;
        let g = self.msg.get_u32().expect("malformed sync pair");
        let l = self.dg.local_of(g).expect("sync pair for an absent vertex");
        Some((l, self.msg.get_u64().expect("malformed sync pair")))
    }
}

/// Precomputed synchronization lists for one partition.
pub struct SyncPlan {
    /// `reduce_out[p]`: local ids of my mirrors whose master is on `p`.
    pub reduce_out: Vec<Vec<u32>>,
    /// Hosts that will send me reduce messages (they own mirrors of my
    /// masters).
    pub reduce_in_from: Vec<usize>,
    /// `bcast_out[p]`: local ids of my masters that host `p` subscribed to.
    pub bcast_out: Vec<Vec<u32>>,
    /// Hosts that will send me broadcast messages (I subscribed to ≥ 1 of
    /// their masters).
    pub bcast_in_from: Vec<usize>,
}

impl SyncPlan {
    /// Builds the plan with one metadata exchange.
    pub fn build(comm: &Comm, dg: &DistGraph) -> SyncPlan {
        let k = comm.num_hosts();
        let me = comm.host();

        // Mirrors grouped by master owner.
        let mut reduce_out: Vec<Vec<u32>> = vec![Vec::new(); k];
        // My subscriptions: mirrors with local out-edges, grouped by owner.
        let mut subscriptions: Vec<Vec<u32>> = vec![Vec::new(); k];
        for l in dg.num_masters as u32..dg.num_local() as u32 {
            let owner = dg.master_of[l as usize] as usize;
            debug_assert_ne!(owner, me);
            reduce_out[owner].push(l);
            if dg.graph.out_degree(l) > 0 {
                subscriptions[owner].push(l);
            }
        }

        // Exchange subscriptions (as global ids) so owners can build their
        // broadcast lists; the same message advertises whether we will send
        // reduce traffic at all.
        for peer in 0..k {
            if peer == me {
                continue;
            }
            let globals: Vec<u32> = subscriptions[peer]
                .iter()
                .map(|&l| dg.global_of(l))
                .collect();
            let mut w = WireWriter::with_capacity(9 + globals.len() * 4);
            w.put_u8(u8::from(!reduce_out[peer].is_empty()));
            w.put_u32_slice(&globals);
            comm.send_bytes(peer, TAG_PLAN, w.finish());
        }

        let mut bcast_out: Vec<Vec<u32>> = vec![Vec::new(); k];
        let mut reduce_in_from = Vec::new();
        // recv_from (not recv_any): per-source FIFO keeps this step from
        // consuming messages of a later exchange on the same tag.
        for src in (0..k).filter(|&p| p != me) {
            let payload = comm.recv_from(src, TAG_PLAN);
            let mut r = WireReader::new(payload);
            let sends_reduce = r.get_u8().expect("malformed plan") != 0;
            if sends_reduce {
                reduce_in_from.push(src);
            }
            let subs = r.get_u32_vec().expect("malformed plan subscriptions");
            bcast_out[src] = subs
                .iter()
                .map(|&g| {
                    let l = dg.local_of(g).expect("subscribed to absent vertex");
                    debug_assert!(dg.is_master(l), "subscription to a non-master");
                    l
                })
                .collect();
        }
        reduce_in_from.sort_unstable();
        let mut bcast_in_from: Vec<usize> = (0..k)
            .filter(|&p| p != me && !subscriptions[p].is_empty())
            .collect();
        bcast_in_from.sort_unstable();

        SyncPlan {
            reduce_out,
            reduce_in_from,
            bcast_out,
            bcast_in_from,
        }
    }

    /// Mirrors → masters: sends `pick(l)` for each of my mirrors `l` it
    /// returns a value for, and yields what my masters' mirrors sent.
    pub fn reduce<'a>(
        &'a self,
        comm: &'a Comm,
        dg: &'a DistGraph,
        pick: impl FnMut(u32) -> Option<u64>,
    ) -> Received<'a> {
        let (out, from) = (&self.reduce_out, &self.reduce_in_from);
        exchange(comm, dg, TAG_REDUCE, out, from, pick)
    }

    /// Masters → subscribed mirrors: sends `pick(l)` for each of my masters
    /// `l` a peer subscribed to, and yields what my own subscriptions got.
    /// A master on several peers' lists is picked once per list.
    pub fn broadcast<'a>(
        &'a self,
        comm: &'a Comm,
        dg: &'a DistGraph,
        pick: impl FnMut(u32) -> Option<u64>,
    ) -> Received<'a> {
        let (out, from) = (&self.bcast_out, &self.bcast_in_from);
        exchange(comm, dg, TAG_BCAST, out, from, pick)
    }

    /// Hosts I send reduce messages to every round.
    pub fn reduce_targets(&self) -> impl Iterator<Item = usize> + '_ {
        non_empty(&self.reduce_out)
    }

    /// Hosts I send broadcast messages to every round.
    pub fn bcast_targets(&self) -> impl Iterator<Item = usize> + '_ {
        non_empty(&self.bcast_out)
    }
}

/// The peers whose list is non-empty: the ones an exchange sends to.
fn non_empty(lists: &[Vec<u32>]) -> impl Iterator<Item = usize> + '_ {
    (0..lists.len()).filter(|&p| !lists[p].is_empty())
}

/// The one exchange: sends every peer with a non-empty `out_lists[p]` the
/// listed proxies `pick` returns a value for, then returns the pairs from
/// `in_from`, in that order. `pick` is dropped before the first pair is
/// yielded, so the caller may write what it read.
fn exchange<'a>(
    comm: &'a Comm,
    dg: &'a DistGraph,
    tag: Tag,
    out_lists: &[Vec<u32>],
    in_from: &'a [usize],
    mut pick: impl FnMut(u32) -> Option<u64>,
) -> Received<'a> {
    for peer in non_empty(out_lists) {
        let list = &out_lists[peer];
        let mut msg = Vec::with_capacity(8 + 12 * list.len());
        wire::put_u64(&mut msg, 0); // the count, patched below
        let mut count = 0u64;
        for &l in list {
            if let Some(v) = pick(l) {
                wire::put_u32(&mut msg, dg.global_of(l));
                wire::put_u64(&mut msg, v);
                count += 1;
            }
        }
        wire::encode_u64s(&[count], &mut msg[..8]);
        comm.send_bytes(peer, tag, Bytes::from(msg));
    }
    Received {
        comm,
        dg,
        tag,
        from: in_from.iter(),
        msg: WireReader::new(Bytes::new()),
        left: 0,
    }
}

/// Computes each proxy's **global** out-degree (sum of the local
/// out-degrees of all its proxies) via one reduce + broadcast round.
/// Needed by pagerank, whose contribution per edge divides by the global
/// out-degree even though a vertex-cut spreads the edges across hosts.
pub fn global_out_degrees(comm: &Comm, dg: &DistGraph, plan: &SyncPlan) -> Vec<u64> {
    let n = dg.num_local();
    let mut deg: Vec<u64> = (0..n as u32).map(|l| dg.graph.out_degree(l)).collect();
    // Mirrors report their local degree to the master, which publishes the sum.
    let (out, from) = (&plan.reduce_out, &plan.reduce_in_from);
    for (l, d) in exchange(comm, dg, TAG_PLAN, out, from, |l| Some(deg[l as usize])) {
        deg[l as usize] += d;
    }
    let (out, from) = (&plan.bcast_out, &plan.bcast_in_from);
    for (l, d) in exchange(comm, dg, TAG_PLAN, out, from, |l| Some(deg[l as usize])) {
        deg[l as usize] = d;
    }
    deg
}

#[cfg(test)]
mod tests {
    use super::*;
    use cusp::{partition_with_policy, CuspConfig, GraphSource, PolicyKind};
    use cusp_graph::gen::uniform::erdos_renyi;
    use cusp_net::Cluster;
    use std::sync::Arc;

    fn plans_for(kind: PolicyKind, k: usize) -> Vec<(SyncPlan, DistGraph)> {
        let g = Arc::new(erdos_renyi(400, 4000, 7));
        let out = Cluster::run(k, move |comm| {
            let p = partition_with_policy(
                comm,
                GraphSource::Memory(g.clone()),
                kind,
                &CuspConfig::default(),
            );
            let plan = SyncPlan::build(comm, &p.dist_graph);
            (plan, p.dist_graph)
        });
        out.results
    }

    #[test]
    fn edge_cut_has_no_broadcast_traffic() {
        // EEC: all out-edges of a vertex are with its master, so mirrors
        // have no out-edges and never subscribe.
        for (plan, _dg) in plans_for(PolicyKind::Eec, 4) {
            assert_eq!(plan.bcast_targets().count(), 0);
            assert!(plan.bcast_in_from.is_empty());
        }
    }

    #[test]
    fn vertex_cut_broadcasts() {
        // Under HVC a hub above the degree threshold scatters its edges to
        // destination masters, so its proxies on other hosts have
        // out-edges and must subscribe to broadcasts.
        let mut edges: Vec<(u32, u32)> = (1..1500u32).map(|d| (0, d % 400)).collect();
        edges.extend((1..100u32).map(|i| (i, i + 1)));
        let g = Arc::new(cusp_graph::Csr::from_edges(400, &edges));
        let out = Cluster::run(4, move |comm| {
            let p = partition_with_policy(
                comm,
                GraphSource::Memory(g.clone()),
                PolicyKind::Hvc,
                &CuspConfig::default(),
            );
            let plan = SyncPlan::build(comm, &p.dist_graph);
            plan.bcast_out.iter().map(Vec::len).sum::<usize>()
        });
        let total_subs: usize = out.results.iter().sum();
        assert!(total_subs > 0, "HVC with a hub should require broadcast");
    }

    #[test]
    fn reduce_lists_cover_all_mirrors() {
        for (plan, dg) in plans_for(PolicyKind::Cvc, 4) {
            let listed: usize = plan.reduce_out.iter().map(Vec::len).sum();
            assert_eq!(listed, dg.num_mirrors());
        }
    }

    #[test]
    fn global_degrees_match_original_graph() {
        let g = Arc::new(erdos_renyi(300, 3600, 11));
        let g2 = Arc::clone(&g);
        let out = Cluster::run(4, move |comm| {
            let p = partition_with_policy(
                comm,
                GraphSource::Memory(g2.clone()),
                PolicyKind::Hvc,
                &CuspConfig::default(),
            );
            let plan = SyncPlan::build(comm, &p.dist_graph);
            let deg = global_out_degrees(comm, &p.dist_graph, &plan);
            // Report (global id, degree) for masters.
            (0..p.dist_graph.num_masters as u32)
                .map(|l| (p.dist_graph.global_of(l), deg[l as usize]))
                .collect::<Vec<_>>()
        });
        for host in out.results {
            for (gid, deg) in host {
                assert_eq!(deg, g.out_degree(gid), "global degree of {gid}");
            }
        }
    }
}

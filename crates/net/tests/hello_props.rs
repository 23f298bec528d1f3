//! Property battery for the extended HELLO / rejoin handshake codec.
//!
//! The HELLO frame is the only thing a transport will parse from an
//! unauthenticated stranger, so its decoder must be total: any byte
//! string — truncated, bit-flipped, or outright garbage — must come back
//! as a typed [`RejectReason`], never a panic, and the field checks must
//! fire in a fixed order so a corrupt frame is diagnosed by its first
//! broken field. The ACCEPT body (the acceptor's incarnation) decodes
//! the same way. The admission rules (the HELLO of the incarnation this
//! host's dial reached is hooked; any other needs rejoin and a strictly
//! newer incarnation) ride on top and are pinned here too, through the peer
//! link that applies them.

use proptest::prelude::*;

use cusp_net::transport::link::{Action, Event, LinkState, PeerLink};
use cusp_net::transport::tcp::{accept_body, hello_body, parse_accept, parse_hello};
use cusp_net::RejectReason;

/// Byte offsets of the HELLO fields, for targeted corruption.
const MAGIC_RANGE: std::ops::Range<usize> = 0..4;
const VERSION_RANGE: std::ops::Range<usize> = 4..5;
const HOST_ID_RANGE: std::ops::Range<usize> = 5..9;
const HOSTS_RANGE: std::ops::Range<usize> = 9..13;
const NONCE_RANGE: std::ops::Range<usize> = 13..21;
const INCARNATION_RANGE: std::ops::Range<usize> = 21..25;
const HELLO_LEN: usize = 25;

/// The HELLO exactly as the dialer frames it, as mutable bytes.
fn encode_hello(me: usize, hosts: usize, run_nonce: u64, incarnation: u32) -> Vec<u8> {
    hello_body(me, hosts, run_nonce, incarnation).to_vec()
}

/// `far`, or half the time (`pick < 5`) a value within 2 of `base`, so that
/// equal and adjacent incarnations are drawn at all.
fn near(base: u32, far: u32, pick: i64) -> u32 {
    let near = (i64::from(base) + pick - 2).clamp(0, u32::MAX.into());
    if pick < 5 { near as u32 } else { far }
}

/// A cluster shape and a sender/receiver pair within it.
fn cluster() -> impl Strategy<Value = (usize, usize, usize)> {
    (2usize..65).prop_flat_map(|hosts| {
        // receiver = sender + (1..hosts) mod hosts: distinct by construction.
        (Just(hosts), 0..hosts, 1..hosts)
            .prop_map(|(hosts, s, off)| (hosts, s, (s + off) % hosts))
    })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 192,
        ..ProptestConfig::default()
    })]

    /// A well-formed HELLO is exactly [`HELLO_LEN`] bytes and parses back
    /// to the claimed (sender, incarnation) at any receiver of the same
    /// run; the same HELLO from a version-3 peer (no incarnation in its
    /// ACCEPT) is [`RejectReason::BadVersion`]. The ACCEPT body is the
    /// acceptor's incarnation, 4 bytes, and only that parses as one.
    #[test]
    fn valid_hello_roundtrips(
        (hosts, sender, receiver) in cluster(),
        nonce in any::<u64>(),
        inc in any::<u32>(),
        cut in 0usize..9,
    ) {
        let mut body = encode_hello(sender, hosts, nonce, inc);
        prop_assert_eq!(body.len(), HELLO_LEN);
        prop_assert_eq!(
            parse_hello(&body, receiver, hosts, nonce),
            Ok((sender, inc))
        );
        body[VERSION_RANGE.start] = 3;
        prop_assert_eq!(parse_hello(&body, receiver, hosts, nonce), Err(RejectReason::BadVersion));
        let accept = accept_body(inc);
        prop_assert_eq!(parse_accept(&accept), Some(inc));
        let mut garbled = accept.to_vec();
        garbled.resize(cut, 0);
        prop_assert_eq!(parse_accept(&garbled).is_some(), cut == 4);
    }

    /// Every strict prefix of a valid HELLO is rejected with a typed
    /// reason — the decoder never reads past the end, never panics, and
    /// blames the first field the truncation cut into.
    #[test]
    fn truncation_is_typed_rejection(
        (hosts, sender, receiver) in cluster(),
        nonce in any::<u64>(),
        inc in any::<u32>(),
        cut in 0..HELLO_LEN,
    ) {
        let body = encode_hello(sender, hosts, nonce, inc);
        let got = parse_hello(&body[..cut], receiver, hosts, nonce);
        let expected = if cut < MAGIC_RANGE.end {
            RejectReason::BadMagic
        } else if cut < VERSION_RANGE.end {
            RejectReason::BadVersion
        } else if cut < HOSTS_RANGE.end {
            // host_id and hosts truncations both classify as shape errors;
            // the decoder reads host_id first.
            if cut < HOST_ID_RANGE.end { RejectReason::BadHostId } else { RejectReason::BadHosts }
        } else if cut < NONCE_RANGE.end {
            RejectReason::BadNonce
        } else {
            // incarnation cut off
            RejectReason::BadHostId
        };
        prop_assert_eq!(got, Err(expected));
    }

    /// Arbitrary garbage never panics and never parses as a peer of this
    /// run unless it actually is one: any `Ok` must name an in-range,
    /// non-self host — the acceptor trusts nothing else about it.
    #[test]
    fn garbage_never_panics_and_never_impersonates(
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
        (hosts, _, receiver) in cluster(),
        nonce in any::<u64>(),
    ) {
        if let Ok((claimed, _inc)) = parse_hello(&bytes, receiver, hosts, nonce) {
            prop_assert!(claimed < hosts && claimed != receiver);
        }
    }

    /// A single flipped bit is either survivable (it landed in host_id or
    /// incarnation and still names a legal peer) or a typed rejection
    /// blaming exactly the field it landed in. It is never a panic, and
    /// never an `Ok` that misreports nonce-, shape-, or version-agreement.
    #[test]
    fn single_bit_flip_is_classified_by_field(
        (hosts, sender, receiver) in cluster(),
        nonce in any::<u64>(),
        inc in any::<u32>(),
        bit in 0..(HELLO_LEN * 8),
    ) {
        let mut body = encode_hello(sender, hosts, nonce, inc);
        body[bit / 8] ^= 1 << (bit % 8);
        let got = parse_hello(&body, receiver, hosts, nonce);
        let byte = bit / 8;
        if MAGIC_RANGE.contains(&byte) {
            prop_assert_eq!(got, Err(RejectReason::BadMagic));
        } else if VERSION_RANGE.contains(&byte) {
            prop_assert_eq!(got, Err(RejectReason::BadVersion));
        } else if HOSTS_RANGE.contains(&byte) {
            prop_assert_eq!(got, Err(RejectReason::BadHosts));
        } else if NONCE_RANGE.contains(&byte) {
            prop_assert_eq!(got, Err(RejectReason::BadNonce));
        } else if HOST_ID_RANGE.contains(&byte) {
            // The flipped id may still be a legal foreign peer; if so the
            // parse succeeds with that id (slot policy catches liars
            // later). Out-of-range or self ids must be typed rejections.
            match got {
                Ok((claimed, got_inc)) => {
                    prop_assert!(claimed < hosts && claimed != receiver);
                    prop_assert_ne!(claimed, sender);
                    prop_assert_eq!(got_inc, inc);
                }
                Err(reason) => prop_assert_eq!(reason, RejectReason::BadHostId),
            }
        } else {
            // Incarnation bits carry no validity constraint at parse time.
            let flipped_inc = inc ^ (1u32 << (bit - INCARNATION_RANGE.start * 8));
            prop_assert_eq!(got, Ok((sender, flipped_inc)));
        }
    }

    /// A HELLO from a different run (any nonce but ours) is always
    /// [`RejectReason::BadNonce`] — stale workers from a previous launch
    /// can never splice into a live mesh.
    #[test]
    fn wrong_nonce_is_always_rejected(
        (hosts, sender, receiver) in cluster(),
        nonce in any::<u64>(),
        other in any::<u64>(),
        inc in any::<u32>(),
    ) {
        prop_assume!(other != nonce);
        let body = encode_hello(sender, hosts, other, inc);
        prop_assert_eq!(
            parse_hello(&body, receiver, hosts, nonce),
            Err(RejectReason::BadNonce)
        );
    }

    /// A HELLO disagreeing about the cluster size is always
    /// [`RejectReason::BadHosts`], even when every other field matches.
    #[test]
    fn wrong_cluster_size_is_always_rejected(
        (hosts, sender, receiver) in cluster(),
        other_hosts in 0usize..1024,
        nonce in any::<u64>(),
        inc in any::<u32>(),
    ) {
        prop_assume!(other_hosts != hosts);
        let body = encode_hello(sender, other_hosts, nonce, inc);
        prop_assert_eq!(
            parse_hello(&body, receiver, hosts, nonce),
            Err(RejectReason::BadHosts)
        );
    }

    /// The rejoin admission rule: a claimed incarnation supersedes the
    /// last admitted one iff it is strictly newer. Equal (a duplicate of
    /// the live worker) and older (a zombie from a previous generation)
    /// both classify as [`RejectReason::StaleIncarnation`] and leave the
    /// link as it was.
    #[test]
    fn rejoin_admission_is_strictly_monotone(
        claimed in any::<u32>(),
        last in any::<u32>(),
        pick in 0i64..10,
    ) {
        let claimed = near(last, claimed, pick);
        let mut link = PeerLink::new(true, 0, 1, 2);
        link.step(Event::Dialed { inc: last });
        link.step(Event::HelloFrom { inc: last });
        let before = link.state();
        let got = link.step(Event::HelloFrom { inc: claimed });
        if claimed > last {
            prop_assert_eq!(got, vec![Action::Unhook, Action::Admit { gen: 1 }]);
        } else {
            prop_assert_eq!(got, vec![Action::Reject(RejectReason::StaleIncarnation)]);
            prop_assert_eq!(link.state(), before);
        }
    }

    /// The first HELLO of the incarnation this host's dial reached is hooked
    /// as generation 0, in either mode: no `Unhook`, no `Admit`. With rejoin
    /// a newer one is admitted with a redial (its predecessor answered the
    /// dial and died), an older one is stale; without it either is a taken
    /// slot. A HELLO stepped before the dial reports is hooked, and the
    /// report checks it: a dial that reached an older incarnation is
    /// refused (and made again), one that reached a newer one unhooks it.
    #[test]
    fn first_hello_hooks_generation_0(
        rejoin in any::<bool>(),
        dialed in any::<u32>(),
        claimed in any::<u32>(),
        pick in 0i64..10,
    ) {
        use RejectReason::*;
        let claimed = near(dialed, claimed, pick);
        let mut link = PeerLink::new(rejoin, 0, 1, 2);
        prop_assert_eq!(link.step(Event::Dialed { inc: dialed }), vec![]);
        let want = if claimed == dialed {
            vec![Action::Hook]
        } else if !rejoin {
            vec![Action::Reject(BadHostId)]
        } else if claimed < dialed {
            vec![Action::Reject(StaleIncarnation)]
        } else {
            vec![Action::Unhook, Action::Admit { gen: 1 }]
        };
        prop_assert_eq!(link.step(Event::HelloFrom { inc: claimed }), want);

        let mut link = PeerLink::new(rejoin, 0, 1, 2);
        prop_assert_eq!(link.step(Event::HelloFrom { inc: claimed }), vec![Action::Hook]);
        prop_assert_eq!(link.state(), LinkState::Up { gen: 0, inc: claimed });
        let want = match dialed.cmp(&claimed) {
            std::cmp::Ordering::Less => vec![Action::Reject(StaleIncarnation)],
            std::cmp::Ordering::Equal => vec![],
            std::cmp::Ordering::Greater => vec![Action::Unhook],
        };
        prop_assert_eq!(link.step(Event::Dialed { inc: dialed }), want);
        let hooked = LinkState::Up { gen: 0, inc: claimed };
        let state = if dialed > claimed { LinkState::Awaiting } else { hooked };
        prop_assert_eq!(link.state(), state);
    }

    /// Without rejoin, any HELLO after the first is a taken slot,
    /// [`RejectReason::BadHostId`], and leaves the link as it was.
    #[test]
    fn second_hello_without_rejoin_is_bad_host_id(first in any::<u32>(), claimed in any::<u32>()) {
        let mut link = PeerLink::new(false, 0, 1, 2);
        link.step(Event::Dialed { inc: first });
        link.step(Event::HelloFrom { inc: first });
        let before = link.state();
        let got = link.step(Event::HelloFrom { inc: claimed });
        prop_assert_eq!(got, vec![Action::Reject(RejectReason::BadHostId)]);
        prop_assert_eq!(link.state(), before);
    }
}

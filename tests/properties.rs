//! Property-based tests on the core data structures and invariants.

use proptest::prelude::*;

use itcrypto::merkle::MerkleTree;
use itcrypto::sha256::{sha256, Sha256};
use itcrypto::stream::{open, seal};
use modbus::crc::{check_and_strip, crc16};
use modbus::{Request, Response};
use plc::logic::LogicConfig;
use plc::topology::fig4_topology;
use prime::types::{Config, Update};
use scada::state::ScadaState;
use scada::updates::ScadaUpdate;
use simnet::wire::Wire;
use spines::fairness::FairQueue;
use spines::message::{Destination, MsgKind, SpinesMsg};

proptest! {
    // ---- crypto ----

    #[test]
    fn sha256_incremental_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..4096), split in 0usize..4096) {
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), sha256(&data));
    }

    #[test]
    fn sealed_boxes_roundtrip_and_reject_tamper(
        key in any::<[u8; 32]>(),
        nonce in any::<u64>(),
        msg in proptest::collection::vec(any::<u8>(), 0..512),
        flip_byte in any::<u8>(),
        flip_at in any::<usize>(),
    ) {
        let sealed = seal(&key, nonce, &msg);
        prop_assert_eq!(open(&key, &sealed), Some(msg.clone()));
        if !sealed.ciphertext.is_empty() && flip_byte != 0 {
            let mut bad = sealed.clone();
            let i = flip_at % bad.ciphertext.len();
            bad.ciphertext[i] ^= flip_byte;
            prop_assert_eq!(open(&key, &bad), None);
        }
    }

    #[test]
    fn merkle_proofs_verify_and_bind(leaves in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..32), 1..40), idx in any::<usize>()) {
        let tree = MerkleTree::from_leaves(&leaves);
        let i = idx % leaves.len();
        let proof = tree.prove(i).expect("index in range");
        prop_assert!(MerkleTree::verify(tree.root(), &leaves[i], &proof));
        // The proof must not verify a different leaf value.
        let mut other = leaves[i].clone();
        other.push(0xAB);
        prop_assert!(!MerkleTree::verify(tree.root(), &other, &proof));
    }

    // ---- wire codecs: decoding arbitrary bytes must never panic ----

    #[test]
    fn spines_msg_decode_never_panics(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = SpinesMsg::from_wire(&data);
    }

    #[test]
    fn prime_msg_decode_never_panics(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = prime::messages::PrimeMsg::from_wire(&data);
    }

    #[test]
    fn scada_update_decode_never_panics(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = ScadaUpdate::from_wire(&data);
    }

    #[test]
    fn modbus_request_decode_never_panics(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Request::decode(&data);
    }

    #[test]
    fn modbus_response_decode_never_panics(data in proptest::collection::vec(any::<u8>(), 0..256), count in 1u16..50) {
        let req = Request::ReadCoils { address: 0, count };
        let _ = Response::decode(&data, &req);
    }

    #[test]
    fn plc_config_image_decode_never_panics(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = LogicConfig::from_image(&data);
    }

    #[test]
    fn spines_msg_roundtrip(
        src in any::<u32>(),
        seq in any::<u64>(),
        daemon_dst in any::<bool>(),
        dst_val in any::<u32>(),
        priority in any::<u8>(),
        payload in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let msg = SpinesMsg {
            src,
            seq,
            dst: if daemon_dst { Destination::Daemon(dst_val) } else { Destination::Group(dst_val as u16) },
            priority,
            kind: MsgKind::Data,
            payload: bytes::Bytes::from(payload),
        };
        prop_assert_eq!(SpinesMsg::from_wire(&msg.to_wire()).expect("roundtrip"), msg);
    }

    #[test]
    fn prime_update_roundtrip(client in any::<u32>(), seq in any::<u64>(), payload in proptest::collection::vec(any::<u8>(), 0..128)) {
        let u = Update::new(client, seq, bytes::Bytes::from(payload));
        prop_assert_eq!(Update::from_wire(&u.to_wire()).expect("roundtrip"), u);
    }

    // ---- obs histograms ----

    #[test]
    fn histogram_quantiles_are_ordered_and_counts_conserved(
        values in proptest::collection::vec(0u64..10_000_000, 1..300),
    ) {
        let hub = obs::ObsHub::new();
        let h = hub.histogram("prop.test");
        for &v in &values {
            h.record(v);
        }
        let s = h.summary();
        prop_assert_eq!(s.count, values.len() as u64, "every sample counted");
        prop_assert!(s.min <= s.p50, "min <= p50 ({} <= {})", s.min, s.p50);
        prop_assert!(s.p50 <= s.p99, "p50 <= p99 ({} <= {})", s.p50, s.p99);
        prop_assert!(s.p99 <= s.max, "p99 <= max ({} <= {})", s.p99, s.max);
        let lo = *values.iter().min().expect("nonempty");
        let hi = *values.iter().max().expect("nonempty");
        prop_assert_eq!(s.min, lo, "min is exact");
        prop_assert_eq!(s.max, hi, "max is exact");
        prop_assert!(s.mean >= lo && s.mean <= hi, "mean within sample range");
        // Quantiles are monotone in q and clamped to the sample range.
        let mut prev = 0u64;
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let v = h.quantile(q);
            prop_assert!(v >= prev, "quantile monotone at q={q}");
            prop_assert!(v >= lo && v <= hi, "quantile clamped at q={q}");
            prev = v;
        }
    }

    #[test]
    fn histogram_relative_error_bounded(value in 1u64..1_000_000_000) {
        // Log-linear buckets with 16 sub-buckets per power of two keep the
        // upper-edge estimate within ~6.25% of the true value. A far-out
        // second sample keeps the clamp-to-max from hiding the bucket edge.
        let hub = obs::ObsHub::new();
        let h = hub.histogram("prop.err");
        h.record(value);
        h.record(value.saturating_mul(1_000));
        let est = h.quantile(0.5);
        prop_assert!(est >= value, "upper edge never under-reports");
        let err = (est - value) as f64 / value as f64;
        prop_assert!(err <= 0.0625 + 1e-9, "relative error {err} at {value}");
    }

    // ---- causal span trees ----

    #[test]
    fn span_trees_well_formed_under_arbitrary_interleavings(
        ops in proptest::collection::vec((0u8..4, any::<usize>(), 1u64..5_000), 0..150),
    ) {
        // Drive the span API with an arbitrary interleaving of root
        // starts, child starts (under any live-or-dead span), instant
        // spans, and out-of-order ends, then reassemble the journal:
        // every end must match a start, every trace must have exactly
        // one root, and children must nest within their parents.
        let hub = obs::ObsHub::new();
        hub.set_tracing(true);
        let mut now = 0u64;
        let mut open: Vec<obs::TraceCtx> = Vec::new();
        let mut started: Vec<obs::TraceCtx> = Vec::new();
        let mut roots = 0u64;
        for &(op, idx, dt) in &ops {
            now += dt;
            hub.set_now_us(now);
            match op {
                0 => {
                    let ctx = hub
                        .start_root(obs::Stage::Command, (idx % 7) as u32)
                        .expect("tracing is on");
                    open.push(ctx);
                    started.push(ctx);
                    roots += 1;
                }
                1 if !started.is_empty() => {
                    let parent = started[idx % started.len()];
                    if let Some(ctx) =
                        hub.start_span(Some(parent), obs::Stage::SpinesHop, (idx % 7) as u32)
                    {
                        open.push(ctx);
                        started.push(ctx);
                    }
                }
                2 if !open.is_empty() => {
                    let ctx = open.swap_remove(idx % open.len());
                    hub.end_span(Some(ctx));
                }
                3 if !started.is_empty() => {
                    let parent = started[idx % started.len()];
                    hub.instant_span(Some(parent), obs::Stage::Deliver, (idx % 7) as u32);
                }
                _ => {}
            }
        }
        let asm = obs::trace::assemble(&hub.journal_records());
        prop_assert_eq!(asm.orphan_ends, 0, "every journaled end had a start");
        prop_assert_eq!(
            asm.traces.len() as u64,
            roots,
            "one assembled trace per injected root"
        );
        for trace in &asm.traces {
            let mut parentless = 0usize;
            for span in &trace.spans {
                prop_assert!(span.end_us >= span.start_us, "span ends after it starts");
                match span.parent {
                    None => parentless += 1,
                    Some(p) => {
                        let parent = trace.span(p).expect("parent assembled in the same trace");
                        prop_assert!(
                            span.start_us >= parent.start_us,
                            "child {:?} starts within its parent",
                            span.id
                        );
                        // The clamp prefers end >= start over nesting: a
                        // child started after its parent already ended
                        // collapses to zero duration instead.
                        prop_assert!(
                            span.end_us <= parent.end_us || span.end_us == span.start_us,
                            "child {:?} clamped into its parent",
                            span.id
                        );
                    }
                }
            }
            prop_assert_eq!(parentless, 1, "exactly one root per trace");
        }
    }

    // ---- CRC ----

    #[test]
    fn crc_roundtrip_and_single_bitflip_detected(mut body in proptest::collection::vec(any::<u8>(), 1..64), bit in any::<u8>(), at in any::<usize>()) {
        modbus::crc::append_crc(&mut body);
        prop_assert!(check_and_strip(&body).is_some());
        let i = at % body.len();
        let mask = 1u8 << (bit % 8);
        body[i] ^= mask;
        // A single bit flip is always detected by CRC-16.
        prop_assert!(check_and_strip(&body).is_none());
        let _ = crc16(&body);
    }

    // ---- power topology ----

    #[test]
    fn closing_breakers_is_monotone(closed in proptest::collection::vec(any::<bool>(), 7), extra in 0usize..7) {
        let topo = fig4_topology();
        let before = topo.energized_count(&closed);
        let mut more = closed.clone();
        more[extra] = true;
        let after = topo.energized_count(&more);
        prop_assert!(after >= before, "closing a breaker must never darken a load");
    }

    #[test]
    fn breaker_currents_zero_when_open(closed in proptest::collection::vec(any::<bool>(), 7)) {
        let topo = fig4_topology();
        for b in 0..7u16 {
            if !closed[b as usize] {
                prop_assert_eq!(topo.breaker_current(b, &closed), 0);
            }
        }
    }

    // ---- SCADA state ----

    #[test]
    fn scada_state_snapshot_roundtrip(polls in proptest::collection::vec((any::<u8>(), proptest::collection::vec(any::<bool>(), 0..8)), 0..10)) {
        let mut st = ScadaState::new();
        for (i, (tag, positions)) in polls.iter().enumerate() {
            let currents = positions.iter().map(|&p| u16::from(p) * 100).collect();
            st.apply(&ScadaUpdate::RtuStatus {
                scenario: format!("s{tag}"),
                poll_seq: i as u64 + 1,
                positions: positions.clone(),
                currents,
            });
        }
        let restored = ScadaState::restore(&st.snapshot());
        prop_assert_eq!(restored.digest(), st.digest());
        prop_assert_eq!(restored, st);
    }

    // ---- fairness queue ----

    #[test]
    fn fair_queue_conserves_items(pushes in proptest::collection::vec((0u32..8, any::<u16>()), 0..200), budget in 1usize..50) {
        let mut q = FairQueue::new(1_000);
        for &(src, v) in &pushes {
            q.push(src, v);
        }
        let mut drained = 0usize;
        loop {
            let batch = q.drain(budget);
            if batch.is_empty() {
                break;
            }
            drained += batch.len();
        }
        prop_assert_eq!(drained, pushes.len());
        prop_assert!(q.is_empty());
    }

    #[test]
    fn fair_queue_serves_all_sources_within_budget(n_per_src in 1usize..20) {
        // With k sources and budget >= k, every source is served each round.
        let mut q = FairQueue::new(1_000);
        for src in 0..5u32 {
            for i in 0..n_per_src {
                q.push(src, i);
            }
        }
        let batch = q.drain(5);
        let sources: std::collections::BTreeSet<u32> = batch.iter().map(|i| i.src).collect();
        prop_assert_eq!(sources.len(), 5, "one item from each source per round");
    }

    // ---- prime configuration arithmetic ----

    #[test]
    fn prime_quorums_intersect_in_a_correct_replica(f in 0u32..4, k in 0u32..4) {
        let c = Config::new(f, k);
        let n = c.n();
        let q = c.ordering_quorum();
        // Any two quorums intersect in at least f+1 replicas → ≥1 correct.
        prop_assert!(2 * q > n + f, "quorum intersection must beat f (n={n}, q={q})");
        // Coverage threshold guarantees at least one correct, non-recovering row.
        prop_assert!(c.coverage_threshold() > f + k);
        // Liveness: a quorum must survive f byzantine + k recovering.
        prop_assert!(n - f - k >= q, "quorum reachable with f+k unavailable");
    }
}

// ---- signature-verification memoization ----
//
// The verify cache must be observationally invisible: for any signed
// message — well-formed, corrupted, or outright forged — the cached
// verdict equals the uncached one, on the miss path, the hit path, and
// after eviction.

proptest! {
    #[test]
    fn verify_cache_agrees_with_uncached_for_arbitrary_messages(
        signer_seed in any::<u64>(),
        view in any::<u64>(),
        seq in any::<u64>(),
        digest in any::<[u8; 32]>(),
        flip_sig in any::<u8>(),
        wrong_sender in any::<bool>(),
    ) {
        use itcrypto::keys::{KeyPair, KeyRegistry, Principal};
        use itcrypto::verify_cache::VerifyCache;
        use prime::messages::{PrimeMsg, SignedMsg};
        use prime::types::ReplicaId;

        let mut kp = KeyPair::generate(signer_seed);
        let mut registry = KeyRegistry::new();
        registry.register(Principal::Replica(0), kp.public_key());
        registry.register(Principal::Replica(1), KeyPair::generate(signer_seed ^ 1).public_key());

        let msg = PrimeMsg::Prepare {
            view,
            seq,
            digest: itcrypto::Digest(digest),
        };
        let mut signed = SignedMsg::sign(ReplicaId(0), msg, &mut kp);
        // Corruptions: a flipped signature byte, or a claimed sender that
        // did not produce the signature.
        if flip_sig != 0 {
            let mut bytes = signed.sig.to_bytes();
            bytes[(flip_sig as usize) % bytes.len()] ^= flip_sig;
            signed.sig = itcrypto::Signature::from_bytes(&bytes);
        }
        if wrong_sender {
            signed.from = ReplicaId(1);
        }

        let mut cache = VerifyCache::new(16);
        let uncached = signed.verify(&registry);
        // Miss path, then hit path: both must agree with the uncached verdict.
        prop_assert_eq!(signed.verify_cached(&registry, &mut cache), uncached);
        prop_assert_eq!(signed.verify_cached(&registry, &mut cache), uncached);
        prop_assert_eq!((cache.hits, cache.misses), (1, 1));
    }

    #[test]
    fn verify_cache_eviction_never_flips_a_verdict(
        n_msgs in 3usize..20,
        cap in 1usize..4,
        tamper_mask in any::<u32>(),
    ) {
        use itcrypto::keys::{KeyPair, KeyRegistry, Principal};
        use itcrypto::verify_cache::VerifyCache;
        use prime::messages::{PrimeMsg, SignedMsg};
        use prime::types::ReplicaId;

        let mut kp = KeyPair::generate(7);
        let mut registry = KeyRegistry::new();
        registry.register(Principal::Replica(0), kp.public_key());

        let msgs: Vec<SignedMsg> = (0..n_msgs)
            .map(|i| {
                let mut m = SignedMsg::sign(
                    ReplicaId(0),
                    PrimeMsg::SuspectLeader { view: i as u64 },
                    &mut kp,
                );
                if tamper_mask & (1 << (i % 32)) != 0 {
                    let mut bytes = m.sig.to_bytes();
                    bytes[i % bytes.len()] ^= 0x5a;
                    m.sig = itcrypto::Signature::from_bytes(&bytes);
                }
                m
            })
            .collect();

        // A cache smaller than the message set forces evictions; cycling
        // through the set repeatedly exercises miss → hit → evict → miss.
        let mut cache = VerifyCache::new(cap);
        for round in 0..3 {
            for m in &msgs {
                prop_assert_eq!(
                    m.verify_cached(&registry, &mut cache),
                    m.verify(&registry),
                    "round {}: cached verdict diverged",
                    round
                );
            }
        }
        prop_assert!(cache.len() <= cap, "cache exceeded its bound");
    }
}

// ---- wide-area Spines overlays (E13 tentpole) ----
//
// The WAN route selector must deliver the redundancy the topology
// offers — k node-disjoint inter-site links yield at least k mutually
// node-disjoint routes — and the internal (replication) overlay must
// never route over links that belong only to the external (client)
// overlay, for ANY link tagging.

use spines::wan::{Overlay, WanLink, WanSite, WanTopology};

/// A two-site topology: `na`/`nb` internal daemons per site (site A ids
/// `0..na`, site B ids `10..10+nb`), the given internal WAN links, the
/// given external WAN links, and one proxy daemon per site (20, 21) on
/// the external overlay.
fn two_site_wan(
    na: u32,
    nb: u32,
    internal_links: &[(u32, u32)],
    external_links: &[(u32, u32)],
) -> WanTopology {
    let link = |&(a, b): &(u32, u32), overlay| WanLink {
        a,
        b,
        overlay,
        latency_us: 2_000,
        loss: 0.0,
    };
    WanTopology {
        sites: vec![
            WanSite {
                name: "cc-a".into(),
                internal_daemons: (0..na).collect(),
                external_daemons: (0..na).chain([20]).collect(),
            },
            WanSite {
                name: "cc-b".into(),
                internal_daemons: (10..10 + nb).collect(),
                external_daemons: (10..10 + nb).chain([21]).collect(),
            },
        ],
        links: internal_links
            .iter()
            .map(|l| link(l, Overlay::Internal))
            .chain(external_links.iter().map(|l| link(l, Overlay::External)))
            .collect(),
    }
}

/// Asserts the routes are internally node-disjoint `s → t` paths whose
/// every hop is an edge of `overlay`.
fn assert_routes_well_formed(
    t: &WanTopology,
    overlay: Overlay,
    routes: &[Vec<u32>],
    s: u32,
    d: u32,
) {
    let edges = t.overlay_edges(overlay);
    let mut middles = std::collections::BTreeSet::new();
    for route in routes {
        assert_eq!(route.first(), Some(&s));
        assert_eq!(route.last(), Some(&d));
        for m in &route[1..route.len() - 1] {
            assert!(middles.insert(*m), "routes share intermediate daemon {m}");
        }
        for hop in route.windows(2) {
            let e = if hop[0] <= hop[1] {
                (hop[0], hop[1])
            } else {
                (hop[1], hop[0])
            };
            assert!(
                edges.contains(&e),
                "hop {e:?} is not a link of the {overlay:?} overlay"
            );
        }
    }
}

proptest! {
    /// k parallel node-disjoint inter-site links (daemon i of site A to
    /// daemon i of site B) must yield at least k mutually node-disjoint
    /// internal routes between the sites — the redundancy the topology
    /// offers is the redundancy the selector delivers.
    #[test]
    fn wan_route_selection_is_node_disjoint_when_topology_offers(
        na in 1u32..4,
        nb in 1u32..4,
        k_seed in any::<u32>(),
    ) {
        let k = 1 + k_seed % na.min(nb);
        let internal: Vec<(u32, u32)> = (0..k).map(|i| (i, 10 + i)).collect();
        let t = two_site_wan(na, nb, &internal, &[(20, 21)]);
        let routes = t.select_routes(Overlay::Internal, 0, 10);
        prop_assert!(
            routes.len() as u32 >= k,
            "topology offers {} disjoint links but selector found {} routes",
            k,
            routes.len()
        );
        assert_routes_well_formed(&t, Overlay::Internal, &routes, 0, 10);
    }

    /// For ANY tagging of inter-site links — including external-only
    /// links whose endpoints are replica daemons — internal routes use
    /// only internal-overlay links, and vice versa. The overlays are
    /// separate networks, not traffic classes on one network.
    #[test]
    fn overlay_routes_never_cross_overlays(
        na in 1u32..4,
        nb in 1u32..4,
        internal_mask in any::<u16>(),
        external_mask in any::<u16>(),
    ) {
        // Candidate inter-site pairs (i, 10+j); each mask bit tags one
        // pair into an overlay. Both masks may select the same pair —
        // a link provisioned on both networks is legal.
        let pairs: Vec<(u32, u32)> = (0..na)
            .flat_map(|i| (0..nb).map(move |j| (i, 10 + j)))
            .collect();
        let pick = |mask: u16| -> Vec<(u32, u32)> {
            pairs
                .iter()
                .enumerate()
                .filter(|(idx, _)| mask & (1 << (idx % 16)) != 0)
                .map(|(_, &p)| p)
                .collect()
        };
        let mut internal = pick(internal_mask);
        if internal.is_empty() {
            internal.push((0, 10)); // keep the sites internally connected
        }
        let mut external = pick(external_mask);
        external.push((20, 21));
        let t = two_site_wan(na, nb, &internal, &external);

        let routes = t.select_routes(Overlay::Internal, 0, 10);
        prop_assert!(!routes.is_empty(), "sites are internally connected");
        assert_routes_well_formed(&t, Overlay::Internal, &routes, 0, 10);

        let ext_routes = t.select_routes(Overlay::External, 20, 21);
        prop_assert!(!ext_routes.is_empty());
        assert_routes_well_formed(&t, Overlay::External, &ext_routes, 20, 21);
    }
}

// ---- Modbus framing: round-trip and malformed-frame rejection ----

proptest! {
    /// RTU frames round-trip exactly for any unit id and PDU.
    #[test]
    fn rtu_frame_roundtrip(
        unit in any::<u8>(),
        pdu in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let f = modbus::frame::RtuFrame { unit, pdu };
        prop_assert_eq!(modbus::frame::RtuFrame::decode(&f.encode()), Some(f));
    }

    /// TCP frames round-trip exactly for any transaction, unit, and PDU.
    #[test]
    fn tcp_frame_roundtrip(
        transaction in any::<u16>(),
        unit in any::<u8>(),
        pdu in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let f = modbus::frame::TcpFrame::new(transaction, unit, pdu);
        prop_assert_eq!(modbus::frame::TcpFrame::decode(&f.encode()), Some(f));
    }

    /// Malformed TCP frames — truncated anywhere, or with an oversized
    /// declared length — are rejected with `None`, never a panic.
    #[test]
    fn malformed_tcp_frames_rejected(
        transaction in any::<u16>(),
        unit in any::<u8>(),
        pdu in proptest::collection::vec(any::<u8>(), 1..64),
        cut in any::<usize>(),
        inflate in 1u16..16,
    ) {
        let bytes = modbus::frame::TcpFrame::new(transaction, unit, pdu).encode();
        // Truncation: every strict prefix fails to parse.
        let cut = cut % bytes.len();
        prop_assert_eq!(modbus::frame::TcpFrame::decode(&bytes[..cut]), None);
        // Oversized declared length: header promises more than arrived.
        let mut oversized = bytes.clone();
        let declared = u16::from_be_bytes([bytes[4], bytes[5]]);
        oversized[4..6].copy_from_slice(&(declared.saturating_add(inflate)).to_be_bytes());
        prop_assert_eq!(modbus::frame::TcpFrame::decode(&oversized), None);
    }

    /// Truncated RTU frames are rejected (the CRC no longer matches, or
    /// the frame is below the minimum length), never a panic.
    #[test]
    fn truncated_rtu_frames_rejected(
        unit in any::<u8>(),
        pdu in proptest::collection::vec(any::<u8>(), 1..64),
        cut in any::<usize>(),
    ) {
        let bytes = modbus::frame::RtuFrame { unit, pdu }.encode();
        let cut = cut % bytes.len();
        prop_assert_eq!(modbus::frame::RtuFrame::decode(&bytes[..cut]), None);
    }

    /// A PDU whose function code is not one the reproduction's PLCs
    /// implement is rejected by `Request::decode` — error, never panic —
    /// even when the rest of the PDU is perfectly plausible.
    #[test]
    fn bad_function_codes_rejected(
        fc in any::<u8>(),
        body in proptest::collection::vec(any::<u8>(), 0..16),
    ) {
        const KNOWN: &[u8] = &[0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x0F, 0x10, 0x2B, 0x5A, 0x5B];
        if !KNOWN.contains(&fc) {
            let mut pdu = vec![fc];
            pdu.extend_from_slice(&body);
            prop_assert_eq!(Request::decode(&pdu), None);
        }
    }
}

// ---- simnet event queue ----

proptest! {
    /// The slab-backed queue agrees with a naive model (a plain vector
    /// scanned for its minimum) under arbitrary interleavings of insert
    /// and pop: same length, same payloads, same total (time, key) pop
    /// order. Times collide often, so equal-time entries must pop in key
    /// order, and pops free slots that later inserts reuse, so a stale
    /// payload would show up as a mismatch.
    #[test]
    fn event_queue_matches_naive_model(
        ops in proptest::collection::vec((0u8..3, 0u64..8), 1..200),
    ) {
        let mut queue = simnet::queue::EventQueue::new();
        // Queued events as (at, key, payload).
        let mut model: Vec<(u64, u64, u32)> = Vec::new();
        for (i, &(sel, at)) in ops.iter().enumerate() {
            // Two inserts to a pop, so the queue gets deep enough to matter.
            if sel > 0 {
                queue.insert(at, i as u64, i as u32);
                model.push((at, i as u64, i as u32));
            } else {
                let min = model.iter().copied().min();
                model.retain(|&e| Some(e) != min);
                prop_assert_eq!(queue.pop(), min);
            }
            prop_assert_eq!(queue.len(), model.len());
        }
        model.sort_unstable();
        for &expected in &model {
            prop_assert_eq!(queue.pop(), Some(expected));
        }
        prop_assert_eq!(queue.pop(), None);
    }
}

// ---- Merkle-batched PO-Request dissemination (E11 tentpole) ----
//
// Batching must be a pure amortization of the pre-ordering hot path:
// the wire form must roundtrip for any member set, every member must
// carry a valid inclusion proof (and any corrupted leaf must fail),
// the root-signature verdict must be identical through the verify
// cache and without it, and a batched cluster must deliver the exact
// client update sequence of an unbatched one.

/// A batch signed by replica 2 over sequential client updates, plus a
/// registry holding the origin's and the client's keys.
fn batch_fixture(
    payloads: &[Vec<u8>],
    first_po_seq: u64,
) -> (prime::messages::PoBatch, itcrypto::keys::KeyRegistry) {
    use itcrypto::keys::{KeyPair, KeyRegistry, Principal};
    use prime::types::{ReplicaId, SignedUpdate};

    let mut okey = KeyPair::generate(11);
    let mut ckey = KeyPair::generate(12);
    let mut registry = KeyRegistry::new();
    registry.register(Principal::Replica(2), okey.public_key());
    registry.register(Principal::Client(0), ckey.public_key());
    let updates: Vec<SignedUpdate> = payloads
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let update = Update::new(0, i as u64 + 1, p.clone());
            let sig = ckey.sign(&update.to_wire());
            SignedUpdate { update, sig }
        })
        .collect();
    let batch = prime::messages::PoBatch::sign(ReplicaId(2), first_po_seq, updates, &mut okey);
    (batch, registry)
}

proptest! {
    #[test]
    fn po_batch_encoding_roundtrips_for_arbitrary_member_sets(
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..24), 1..24),
        first_po_seq in 1u64..1_000_000_000,
    ) {
        use prime::messages::{PoBatch, PrimeMsg};

        let (batch, _) = batch_fixture(&payloads, first_po_seq);
        let decoded = PoBatch::from_wire(&batch.to_wire()).expect("batch decodes");
        prop_assert_eq!(&decoded, &batch);
        // And through the full protocol-message envelope.
        let msg = PrimeMsg::PoRequestBatch {
            batch: batch.clone(),
        };
        let rt = PrimeMsg::from_wire(&msg.to_wire()).expect("message decodes");
        prop_assert_eq!(rt, msg);
    }

    #[test]
    fn po_batch_inclusion_proofs_verify_every_member_and_reject_corruption(
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..24), 1..24),
        corrupt_at in any::<usize>(),
        corrupt_byte in 1u8..255,
    ) {
        use prime::messages::PoBatch;

        let (batch, _) = batch_fixture(&payloads, 1);
        let tree = batch.tree();
        for (i, update) in batch.updates.iter().enumerate() {
            let leaf = PoBatch::leaf_bytes(batch.first_po_seq + i as u64, update);
            let proof = tree.prove(i).expect("index in range");
            prop_assert!(MerkleTree::verify(tree.root(), &leaf, &proof));
            prop_assert_eq!(proof.fold_root(&leaf), tree.root());
            // A leaf claiming a different slot must not verify.
            let wrong_slot = PoBatch::leaf_bytes(batch.first_po_seq + i as u64 + 1, update);
            prop_assert!(!MerkleTree::verify(tree.root(), &wrong_slot, &proof));
        }
        // A corrupted member's leaf must fail against the signed root.
        let i = corrupt_at % batch.updates.len();
        let mut bad = batch.updates[i].clone();
        if bad.update.payload.is_empty() {
            bad.update.client_seq ^= u64::from(corrupt_byte);
        } else {
            let mut p = bad.update.payload.to_vec();
            let at = corrupt_at % p.len();
            p[at] ^= corrupt_byte;
            bad.update.payload = p.into();
        }
        let bad_leaf = PoBatch::leaf_bytes(batch.first_po_seq + i as u64, &bad);
        let proof = tree.prove(i).expect("index in range");
        prop_assert!(!MerkleTree::verify(tree.root(), &bad_leaf, &proof));
    }

    #[test]
    fn po_batch_cached_verdict_equals_uncached_for_corrupted_members(
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..24), 1..16),
        tamper in any::<bool>(),
        tamper_at in any::<usize>(),
        tamper_byte in 1u8..255,
    ) {
        use itcrypto::verify_cache::VerifyCache;
        use itcrypto::keys::Principal;
        use prime::messages::PoBatch;

        let (mut batch, registry) = batch_fixture(&payloads, 1);
        if tamper {
            let i = tamper_at % batch.updates.len();
            batch.updates[i].update.client_seq ^= u64::from(tamper_byte);
        }
        // The uncached verdict: the origin's signature over the batch
        // coordinates and the root recomputed from the (possibly
        // corrupted) members.
        let bytes = PoBatch::signed_root_bytes(
            batch.origin,
            batch.first_po_seq,
            batch.updates.len() as u32,
            batch.root(),
        );
        let uncached = registry.verify(
            Principal::Replica(batch.origin.0),
            &bytes,
            &batch.root_sig,
        );
        prop_assert_eq!(uncached, !tamper);
        // Miss path, then hit path: both must agree with the uncached
        // verdict (the cache keys on the recomputed root, so a corrupted
        // member can never hit a stale "valid" entry).
        let mut cache = VerifyCache::new(16);
        prop_assert_eq!(batch.verify_cached(&registry, &mut cache), uncached);
        prop_assert_eq!(batch.verify_cached(&registry, &mut cache), uncached);
        prop_assert_eq!((cache.hits, cache.misses), (1, 1));
    }
}

// ---- regional state partitioning (E14 tentpole) ----
//
// The partitioned SCADA master must be observationally identical to the
// flat register map: partition assignment is a pure function of the
// scenario tag, so the merged ground-truth view — digest, snapshot
// bytes, per-device state — must not depend on the partitioning, and
// batched substation reports must preserve the per-device latest-value
// (highest poll_seq wins, stale drops) semantics of individual polls
// under any interleaving.

proptest! {
    /// The same ordered update stream through ANY partitioning — flat,
    /// by-substation, or salted hash sharding — yields the identical
    /// merged register view: same digest, same snapshot bytes, same
    /// state. Restoring a flat snapshot under a different partitioning
    /// preserves the view too.
    #[test]
    fn partitioned_state_matches_flat_for_any_update_stream(
        updates in proptest::collection::vec(
            (
                any::<bool>(),
                0u32..4,
                0u32..4,
                (1u64..30, proptest::collection::vec(any::<bool>(), 1..6)),
            ),
            0..40,
        ),
        buckets in 1u32..8,
        salt in any::<u64>(),
    ) {
        use scada::state::Partitioning;

        let sharded_scheme = Partitioning::Sharded { buckets, salt };
        let mut flat = ScadaState::new();
        let mut by_sub = ScadaState::partitioned(Partitioning::BySubstation);
        let mut sharded = ScadaState::partitioned(sharded_scheme);
        for &(substation_tag, station, device, (poll_seq, ref positions)) in &updates {
            // Mix substation-device tags with legacy plant tags so the
            // BySubstation fallback partition is exercised too.
            let scenario = if substation_tag {
                format!("s{station}d{device}")
            } else {
                format!("plant{station}")
            };
            let currents = positions.iter().map(|&p| u16::from(p) * 7).collect();
            let u = ScadaUpdate::RtuStatus {
                scenario,
                poll_seq,
                positions: positions.clone(),
                currents,
            };
            flat.apply(&u);
            by_sub.apply(&u);
            sharded.apply(&u);
        }
        prop_assert_eq!(by_sub.digest(), flat.digest());
        prop_assert_eq!(sharded.digest(), flat.digest());
        prop_assert_eq!(by_sub.snapshot(), flat.snapshot());
        prop_assert_eq!(sharded.snapshot(), flat.snapshot());
        prop_assert_eq!(&by_sub, &flat);
        prop_assert_eq!(&sharded, &flat);
        let restored = ScadaState::restore_with(sharded_scheme, &flat.snapshot());
        prop_assert_eq!(restored.digest(), flat.digest());
        prop_assert_eq!(&restored, &flat);
    }

    /// Coalesced substation reports preserve per-device latest-value
    /// semantics under arbitrary interleavings with individual RTU
    /// polls: for every device, the surviving view is the highest
    /// poll_seq applied, stale sequences drop, and the flat and
    /// by-substation masters agree.
    #[test]
    fn aggregation_preserves_latest_value_semantics(
        ops in proptest::collection::vec(
            (
                any::<bool>(),
                0u32..3,
                proptest::collection::vec(
                    (0u32..3, 1u64..20, proptest::collection::vec(any::<bool>(), 1..5)),
                    1..4,
                ),
            ),
            0..30,
        ),
    ) {
        use scada::state::Partitioning;
        use scada::updates::DeviceReport;

        let mut flat = ScadaState::new();
        let mut by_sub = ScadaState::partitioned(Partitioning::BySubstation);
        // The model: per device, the latest (highest poll_seq) report.
        let mut model: std::collections::BTreeMap<String, (u64, Vec<bool>, Vec<u16>)> =
            std::collections::BTreeMap::new();
        for (batched, station, reports) in &ops {
            let device = |&(dev, poll_seq, ref positions): &(u32, u64, Vec<bool>)| {
                let currents: Vec<u16> =
                    positions.iter().map(|&p| u16::from(p) * 9).collect();
                (format!("s{station}d{dev}"), poll_seq, positions.clone(), currents)
            };
            let updates: Vec<ScadaUpdate> = if *batched {
                vec![ScadaUpdate::SubstationReport {
                    station: *station,
                    devices: reports
                        .iter()
                        .map(|r| {
                            let (scenario, poll_seq, positions, currents) = device(r);
                            DeviceReport { scenario, poll_seq, positions, currents }
                        })
                        .collect(),
                }]
            } else {
                reports
                    .iter()
                    .map(|r| {
                        let (scenario, poll_seq, positions, currents) = device(r);
                        ScadaUpdate::RtuStatus { scenario, poll_seq, positions, currents }
                    })
                    .collect()
            };
            let op_tags: std::collections::BTreeSet<String> = reports
                .iter()
                .map(|r| device(r).0)
                .collect();
            for u in &updates {
                flat.apply(u);
                // Every changed tag the master would frame out belongs
                // to the update that was just applied.
                for tag in by_sub.apply_tracking_changes(u) {
                    prop_assert!(
                        op_tags.contains(&tag),
                        "changed tag {} not in the applied update",
                        tag
                    );
                }
            }
            for r in reports {
                let (scenario, poll_seq, positions, currents) = device(r);
                let entry = model.entry(scenario).or_insert((0, Vec::new(), Vec::new()));
                if poll_seq > entry.0 {
                    *entry = (poll_seq, positions, currents);
                }
            }
        }
        prop_assert_eq!(&by_sub, &flat);
        for (tag, (poll_seq, positions, currents)) in &model {
            let s = by_sub.scenario(tag).expect("device has state");
            prop_assert_eq!(s.last_poll_seq, *poll_seq, "latest poll_seq wins for {}", tag);
            prop_assert_eq!(&s.positions, positions, "latest positions survive for {}", tag);
            prop_assert_eq!(&s.currents, currents, "latest currents survive for {}", tag);
        }
    }
}

/// Batched and unbatched clusters must deliver the *identical* client
/// update sequence. A deterministic sweep (cluster runs are too heavy
/// for the 64-case proptest loop) over batch sizes, pipeline depths,
/// and submission burst shapes — bursts keep several updates inside one
/// batch window (the 5 ms default delay), singleton gaps exercise the
/// immediate-flush path.
#[test]
fn batched_cluster_delivers_identical_client_update_sequence() {
    use prime::harness::Cluster;
    use prime::replica::Timing;
    use simnet::time::SimDuration;

    let run = |cfg: Config, n_updates: usize, burst: usize| {
        let mut c = Cluster::new(cfg, 1);
        c.set_timing(Timing {
            aru_interval: SimDuration::from_millis(10),
            pp_interval: SimDuration::from_millis(10),
            suspect_timeout: SimDuration::from_millis(400),
            checkpoint_interval: 10,
            catchup_timeout: SimDuration::from_millis(200),
        });
        for i in 0..n_updates {
            c.submit(0, format!("k{i}=1"));
            if i % burst == burst - 1 {
                c.run_for(SimDuration::from_millis(7));
            }
        }
        c.run_for(SimDuration::from_secs(2));
        c.assert_consistent();
        c.exec_logs[0]
            .iter()
            .map(|&(_, client, client_seq)| (client, client_seq))
            .collect::<Vec<_>>()
    };
    for &(n_updates, batch_max, pipeline, burst) in &[
        (1usize, 1u32, 1u32, 1usize),
        (5, 2, 4, 2),
        (8, 16, 4, 3),
        (12, 4, 2, 3),
        (16, 8, 1, 2),
        (7, 3, 8, 1),
    ] {
        let legacy = run(Config::plant(), n_updates, burst);
        let batched = run(
            Config::plant().with_batching(batch_max, pipeline),
            n_updates,
            burst,
        );
        assert_eq!(
            legacy.len(),
            n_updates,
            "unbatched run executed everything (batch={batch_max} pipe={pipeline})"
        );
        assert_eq!(
            legacy, batched,
            "batching changed the delivered sequence \
             (n={n_updates} batch={batch_max} pipe={pipeline} burst={burst})"
        );
    }
}

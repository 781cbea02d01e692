//! Property-based tests on the core data structures and invariants.

use proptest::prelude::*;

use itcrypto::merkle::MerkleTree;
use itcrypto::sha256::{sha256, Sha256};
use itcrypto::stream::{open, seal};
use modbus::crc::{check_and_strip, crc16};
use modbus::{Request, Response};
use plc::logic::LogicConfig;
use plc::topology::fig4_topology;
use prime::types::{Config, Membership, Update};
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

    #[test]
    fn level_built_root_equals_the_tree_root_and_every_proof(
        // Leaves of 0..150 bytes, so paired leaves often differ in block
        // count; every prefix of 1..=40 of them, so every right edge.
        leaves in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..150), 40),
    ) {
        for n in 1..=leaves.len() {
            let leaves = &leaves[..n];
            let tree = MerkleTree::from_leaves(leaves);
            let root = MerkleTree::root_of(leaves);
            prop_assert_eq!(root, tree.root());
            for (i, leaf) in leaves.iter().enumerate() {
                let proof = tree.prove(i).expect("index in range");
                prop_assert_eq!(proof.fold_root(leaf), root);
            }
        }
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

    /// A catch-up peer's snapshot bytes: arbitrary, and a real snapshot
    /// with one byte changed and arbitrary bytes appended. Whatever a
    /// restore yields snapshots and restores to itself.
    #[test]
    fn scada_state_restore_never_panics(
        data in proptest::collection::vec(any::<u8>(), 0..256),
        stations in proptest::collection::vec(any::<u8>(), 0..4),
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let mut st = ScadaState::new();
        for (i, &station) in stations.iter().enumerate() {
            st.apply(&ScadaUpdate::RtuStatus {
                scenario: format!("s{station}d{i}"),
                poll_seq: i as u64 + 1,
                positions: vec![station % 2 == 0; 3],
                currents: vec![u16::from(station); 3],
            });
        }
        let mut snapshot = st.snapshot();
        let len = snapshot.len();
        snapshot[at % len] = byte;
        snapshot.extend_from_slice(&data);
        for bytes in [&data[..], &snapshot[..]] {
            let once = ScadaState::restore(bytes);
            prop_assert_eq!(&ScadaState::restore(&once.snapshot()), &once);
        }
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
        // The full membership is the configuration: same budget, quorum,
        // suspicion threshold, leader rotation and replicas.
        let m = Membership::full(&c);
        prop_assert_eq!(m.ordering_quorum(), q);
        prop_assert_eq!(m.suspect_threshold(), f + k + 1);
        prop_assert_eq!((m.f, m.k), (f, k));
        for v in 0..3 * u64::from(n) {
            prop_assert_eq!(m.leader_of(v), c.leader_of(v));
        }
        for r in 0..n + 3 {
            prop_assert_eq!(m.contains(prime::ReplicaId(r)), r < n);
        }
    }
}

// ---- signature verification ----
//
// Every verdict a replica reaches equals the uncached one: for any signed
// message — well-formed, corrupted, or outright forged — on each
// delivery, and for client updates it recognises by their bytes, after
// eviction too.

/// A red-team replica (id 0) that checks signatures against `registry` and
/// counts on `hub`.
fn verifying_replica(
    registry: &itcrypto::keys::KeyRegistry,
    hub: &obs::ObsHub,
) -> prime::Replica<prime::KvApp> {
    prime::Replica::new(
        prime::ReplicaId(0),
        Config::red_team(),
        itcrypto::keys::KeyPair::generate(3),
        registry.clone(),
        prime::KvApp::new(),
        hub,
    )
}

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
        use prime::messages::{PrimeMsg, SignedMsg};
        use prime::types::ReplicaId;
        use simnet::time::SimTime;

        let mut kp = KeyPair::generate(signer_seed);
        let mut registry = KeyRegistry::new();
        registry.register(Principal::Replica(1), kp.public_key());
        registry.register(Principal::Replica(2), KeyPair::generate(signer_seed ^ 1).public_key());

        let msg = PrimeMsg::Prepare {
            view,
            seq,
            digest: itcrypto::Digest(digest),
        };
        let mut signed = SignedMsg::sign(ReplicaId(1), msg, &mut kp);
        // Corruptions: a flipped signature byte, or a claimed sender that
        // did not produce the signature.
        if flip_sig != 0 {
            let mut bytes = signed.sig.to_bytes();
            bytes[(flip_sig as usize) % bytes.len()] ^= flip_sig;
            signed.sig = itcrypto::Signature::from_bytes(&bytes);
        }
        if wrong_sender {
            signed.from = ReplicaId(2);
        }

        // The uncached verdict, from the wire bytes alone: the signature
        // covers the domain tag, the sender and the message.
        let wire = signed.to_wire();
        let covered = [b"prime".as_slice(), &wire[..wire.len() - 16]].concat();
        let uncached = registry.verify(Principal::Replica(signed.from.0), &covered, &signed.sig);
        prop_assert_eq!(uncached, flip_sig == 0 && !wrong_sender);
        prop_assert_eq!(signed.verify(&registry), uncached);
        // A replica verifies the envelope on every delivery, the repeat
        // included, and rejects exactly the corrupted ones.
        let hub = obs::ObsHub::new();
        let mut replica = verifying_replica(&registry, &hub);
        let bad_sigs = || hub.counter_value("prime.r0.bad_sigs");
        for _ in 0..2 {
            let bad = bad_sigs();
            let _ = replica.on_message(signed.clone(), SimTime(0));
            prop_assert_eq!(bad_sigs() - bad, u64::from(!uncached));
        }
    }

    #[test]
    fn verify_cache_eviction_never_flips_a_verdict(
        n_updates in 3usize..20,
        cap in 1usize..4,
        tamper_mask in any::<u32>(),
    ) {
        use bytes::Bytes;
        use itcrypto::keys::{KeyPair, KeyRegistry, Principal};
        use prime::types::{SignedUpdate, VerifiedUpdates};

        let mut ckey = KeyPair::generate(7);
        let mut registry = KeyRegistry::new();
        registry.register(Principal::Client(0), ckey.public_key());

        let updates: Vec<SignedUpdate> = (0..n_updates)
            .map(|i| {
                let update = Update::new(0, i as u64 + 1, vec![i as u8; i]);
                let mut sig = ckey.sign(&update.to_wire());
                if tamper_mask & (1 << (i % 32)) != 0 {
                    let mut bytes = sig.to_bytes();
                    bytes[i % bytes.len()] ^= 0x5a;
                    sig = itcrypto::Signature::from_bytes(&bytes);
                }
                SignedUpdate { update, sig }
            })
            .collect();

        // A table smaller than the update set forces evictions; cycling
        // through the set repeatedly exercises verify → recognise → evict
        // → verify. Each update is followed by a twin under its key with
        // another payload, which must never pass for it.
        let mut table = VerifiedUpdates::new(cap);
        for round in 0..3 {
            for u in &updates {
                let mut twin = u.clone();
                twin.update.payload = Bytes::from_static(b"twin");
                for candidate in [u, &twin] {
                    let mut verified = false;
                    let verdict = table.check(candidate, || {
                        verified = true;
                        candidate.verify(&registry)
                    });
                    prop_assert_eq!(
                        verdict,
                        candidate.verify(&registry),
                        "round {}: the table's verdict diverged",
                        round
                    );
                    prop_assert!(verified || verdict, "an invalid update was recognised");
                }
            }
        }
        prop_assert!(table.len() <= cap, "the table exceeded its bound");
    }
}

// ---- the deployed Spines overlays ----
//
// Flooding uses every path, so a correct pair of daemons stays connected
// through `f` compromised daemons when the overlay holds `f + 1`
// node-disjoint paths between them. Proven on the overlays the
// deployments run (`SpireConfig::internal_spines` / `external_spines`),
// in every shape they take: one LAN, each site placement, and the
// regional sparse mesh.

use plc::topology::Scenario;
use spines::routing::{disjoint_paths, resilience};
use spire::site::SubstationTopology;
use spire::{SiteTopology, SpireConfig};

#[test]
fn every_deployed_overlay_survives_f_compromised_daemons() {
    // The plant cut to 3 proxies keeps every placement's homing pattern;
    // the full 26-daemon mesh takes seconds in a debug build.
    let mut cut_plant = SpireConfig::plant();
    cut_plant.proxies.truncate(3);
    let placements = [
        SiteTopology::six_at_one(),
        SiteTopology::three_plus_three(),
        SiteTopology::two_two_one_one(),
    ];
    let mut configs = vec![
        ("red_team".to_string(), SpireConfig::red_team()),
        (
            "minimal".to_string(),
            SpireConfig::minimal(Config::red_team(), Scenario::PlantSubset),
        ),
        ("cut plant".to_string(), cut_plant.clone()),
    ];
    for sites in placements {
        let name = format!("cut plant {}", sites.label());
        configs.push((name, cut_plant.clone().with_sites(sites)));
    }
    for count in 1..=8 {
        let topo = SubstationTopology::new(count, 3);
        let name = format!("regional {count}");
        configs.push((name, SpireConfig::regional(Config::plant(), topo)));
    }
    for (name, cfg) in &configs {
        let internal = cfg.internal_spines();
        let replicas: Vec<u32> = (0..cfg.n()).collect();
        let daemons: Vec<u32> = internal.daemons.keys().copied().collect();
        assert_eq!(
            daemons, replicas,
            "{name}: the internal overlay is the replicas"
        );
        let f = cfg.prime.f;
        for (overlay, spines) in [("internal", internal), ("external", cfg.external_spines())] {
            let c = resilience(&spines);
            assert!(
                c > f,
                "{name} {overlay}: resilience {c} < f + 1 = {}",
                f + 1
            );
        }
    }
}

/// The 3-proxy plant placed over up to four sites: replica `r` lives in
/// site `assign[r]` (empty sites dropped), and site `i > 0` is a data
/// center when bit `i` of `dc_mask` is set (the first stays a control
/// center, so every client has a home).
fn placed_plant(assign: &[usize], dc_mask: u8) -> SpireConfig {
    let mut cfg = SpireConfig::plant();
    cfg.proxies.truncate(3);
    let mut groups = vec![Vec::new(); 4];
    for (r, &s) in assign.iter().enumerate() {
        groups[s].push(r as u32);
    }
    groups.retain(|g| !g.is_empty());
    let sites = groups
        .into_iter()
        .enumerate()
        .map(|(i, replicas)| spire::Site {
            name: format!("site-{i}"),
            kind: if i > 0 && dc_mask & (1 << i) != 0 {
                spire::SiteKind::DataCenter
            } else {
                spire::SiteKind::ControlCenter
            },
            replicas,
            wan_latency: simnet::time::SimDuration::from_micros(1_000),
            wan_loss: 0.0,
        })
        .collect();
    cfg.with_sites(SiteTopology { sites })
}

proptest! {
    /// Between two sites the overlays offer `min(2, |A|, |B|)` aligned
    /// gateway pairs; for any placement, every replica of one site
    /// reaches every replica of another over at least that many
    /// node-disjoint paths, on both overlays — the redundancy the
    /// placement offers is the redundancy the deployed overlay delivers.
    #[test]
    fn wan_route_selection_is_node_disjoint_when_topology_offers(
        assign in proptest::collection::vec(0usize..4, 6),
        dc_mask in any::<u8>(),
    ) {
        let cfg = placed_plant(&assign, dc_mask);
        let sites = &cfg.sites.as_ref().expect("placed").sites;
        let (internal, external) = (cfg.internal_spines(), cfg.external_spines());
        for (i, a) in sites.iter().enumerate() {
            for b in &sites[i + 1..] {
                let offered = 2.min(a.replicas.len()).min(b.replicas.len()) as u32;
                for &x in &a.replicas {
                    for &y in &b.replicas {
                        let found = disjoint_paths(&internal, x, y);
                        prop_assert!(
                            found >= offered,
                            "internal {}-{}: {} gateway pairs offered, {} disjoint paths",
                            x, y, offered, found
                        );
                        let (ex, ey) = (cfg.ext_daemon_of_replica(x), cfg.ext_daemon_of_replica(y));
                        let found = disjoint_paths(&external, ex, ey);
                        prop_assert!(
                            found >= offered,
                            "external {}-{}: {} gateway pairs offered, {} disjoint paths",
                            ex, ey, offered, found
                        );
                    }
                }
            }
        }
    }

    /// The two overlays are separate networks, not traffic classes on one
    /// network: for any placement, and for the regional sparse mesh, every
    /// edge of an overlay joins two of its own daemons, the internal
    /// overlay's daemons are the replicas alone, and no address is a
    /// daemon of both.
    #[test]
    fn overlay_routes_never_cross_overlays(
        assign in proptest::collection::vec(0usize..4, 6),
        dc_mask in any::<u8>(),
        substations in 1u32..9,
    ) {
        let regional = SpireConfig::regional(Config::plant(), SubstationTopology::new(substations, 3));
        for cfg in [placed_plant(&assign, dc_mask), regional] {
            let (internal, external) = (cfg.internal_spines(), cfg.external_spines());
            for spines in [&internal, &external] {
                for &(a, b) in &spines.edges {
                    prop_assert!(
                        spines.daemons.contains_key(&a) && spines.daemons.contains_key(&b),
                        "edge ({}, {}) leaves its overlay", a, b
                    );
                }
            }
            prop_assert!(internal.daemons.keys().copied().eq(0..cfg.n()));
            for (id, addr) in &internal.daemons {
                prop_assert_eq!(external.id_of(*addr), None, "daemon {} is on both overlays", id);
            }
        }
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

// ---- Modbus replies: exactly what was asked for ----

/// The read request of function `fc` (0x01..=0x04) for `count` values.
fn read_request(fc: u8, address: u16, count: u16) -> Request {
    match fc {
        0x01 => Request::ReadCoils { address, count },
        0x02 => Request::ReadDiscreteInputs { address, count },
        0x03 => Request::ReadHoldingRegisters { address, count },
        _ => Request::ReadInputRegisters { address, count },
    }
}

proptest! {
    /// Read replies near the right shape (the byte count and the body each
    /// off by at most one, the padding bits random or clear) are accepted
    /// only holding exactly `count` values, and re-encode to their own
    /// bytes; the exact shape with clear padding is accepted.
    #[test]
    fn modbus_read_replies_hold_exactly_count_values(
        fc in 1u8..5,
        count in 0u16..40,
        skew in (-1i32..2, -1i32..2),
        body in proptest::collection::vec(any::<u8>(), 0..96),
        clear_padding in any::<bool>(),
    ) {
        let req = read_request(fc, 0, count);
        let exact = i32::from(if fc <= 2 { count.div_ceil(8) } else { 2 * count });
        let byte_count = (exact + skew.0).max(0);
        let mut body = body;
        body.resize((byte_count + skew.1).max(0) as usize, 0);
        let bits = fc <= 2 && count % 8 != 0;
        if bits && clear_padding {
            if let Some(last) = body.get_mut(exact as usize - 1) {
                *last &= (1u8 << (count % 8)) - 1;
            }
        }
        let reply = [&[fc, byte_count as u8][..], &body].concat();
        let decoded = Response::decode(&reply, &req);
        if let Some(resp) = &decoded {
            let held = match resp {
                Response::Bits { values, .. } => values.len(),
                Response::Registers { values, .. } => values.len(),
                other => panic!("a read reply decoded as {other:?}"),
            };
            prop_assert_eq!(held, count as usize);
            prop_assert_eq!(resp.encode(), reply.clone());
        }
        if skew == (0, 0) && (!bits || clear_padding) {
            prop_assert!(decoded.is_some(), "exact reply {:?} refused", reply);
        }
    }

    /// What a server answers decodes to itself: every request kind, in
    /// range or out of it (an exception), against a store of random
    /// contents.
    #[test]
    fn modbus_server_replies_decode_to_themselves(
        kind in 0u8..11,
        address in 0u16..80,
        count in 0u16..80,
        contents in proptest::collection::vec(any::<u16>(), 64),
        image in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        let mut store = modbus::DataStore::new(64, 64);
        for (i, &v) in (0u16..).zip(&contents) {
            store.set_coil(i, v & 1 != 0);
            store.set_discrete_input(i, v & 2 != 0);
            store.set_holding(i, v);
            store.set_input(i, v.rotate_left(8));
        }
        store.config_image = image.clone();
        let n = count as usize % 20;
        let req = match kind {
            0..=3 => read_request(kind + 1, address, count),
            4 => Request::WriteSingleCoil { address, value: count % 2 == 1 },
            5 => Request::WriteSingleRegister { address, value: count },
            6 => Request::WriteMultipleCoils {
                address,
                values: contents[..n].iter().map(|v| v % 2 == 1).collect(),
            },
            7 => Request::WriteMultipleRegisters { address, values: contents[..n].to_vec() },
            8 => Request::ReadDeviceId,
            9 => Request::ConfigDownload,
            _ => Request::ConfigUpload { image },
        };
        let resp = modbus::execute(&req, &mut store);
        prop_assert_eq!(Response::decode(&resp.encode(), &req), Some(resp));
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

// ---- Merkle-batched pre-order dissemination (E11 tentpole) ----
//
// Batching must be a pure amortization of the pre-ordering hot path:
// the wire form must roundtrip for any member set, every member must
// carry a valid inclusion proof (and any corrupted leaf must fail),
// a replica's verdict on a batch must equal the uncached one even when
// it already verified the members, and a batched cluster must deliver
// the exact client update sequence of an unbatched one.

/// A batch signed by replica 2 over sequential client updates, a
/// registry holding the origin's and the client's keys, and the origin's
/// key.
fn batch_fixture(
    payloads: &[Vec<u8>],
    first_po_seq: u64,
) -> (
    prime::messages::PoBatch,
    itcrypto::keys::KeyRegistry,
    itcrypto::keys::KeyPair,
) {
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
    (batch, registry, okey)
}

proptest! {
    #[test]
    fn po_batch_encoding_roundtrips_for_arbitrary_member_sets(
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..24), 1..24),
        first_po_seq in 1u64..1_000_000_000,
    ) {
        use prime::messages::{PoBatch, PrimeMsg};

        let (batch, ..) = batch_fixture(&payloads, first_po_seq);
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

        let (batch, ..) = batch_fixture(&payloads, 1);
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
        tamper in 0u8..3,
        tamper_at in any::<usize>(),
        tamper_byte in 1u8..255,
    ) {
        use itcrypto::keys::Principal;
        use prime::messages::{PoBatch, PrimeMsg, SignedMsg};
        use prime::types::ReplicaId;
        use simnet::time::SimTime;

        let (mut batch, registry, mut origin_key) = batch_fixture(&payloads, 1);
        // A replica that verified every member when the client sent it,
        // and remembers them.
        let hub = obs::ObsHub::new();
        let mut replica = verifying_replica(&registry, &hub);
        for update in &batch.updates {
            let _ = replica.submit(update.clone(), SimTime(0));
        }
        let i = tamper_at % batch.updates.len();
        match tamper {
            // A member changed after signing: the root no longer matches.
            1 => batch.updates[i].update.client_seq ^= u64::from(tamper_byte),
            // A faulty origin signs a root over a member whose client
            // signature no longer matches, under a key the replica holds.
            2 => {
                let mut updates = batch.updates.clone();
                let mut payload = updates[i].update.payload.to_vec();
                payload.push(tamper_byte);
                updates[i].update.payload = payload.into();
                batch = PoBatch::sign(ReplicaId(2), 1, updates, &mut origin_key);
            }
            _ => {}
        }
        // The uncached verdict: the origin's signature over the batch
        // coordinates and the root recomputed from the (possibly
        // corrupted) members, and every member's client signature.
        let bytes = PoBatch::signed_root_bytes(
            batch.origin,
            batch.first_po_seq,
            batch.updates.len() as u32,
            batch.root(),
        );
        let uncached = registry.verify(Principal::Replica(batch.origin.0), &bytes, &batch.root_sig)
            && batch.updates.iter().all(|u| u.verify(&registry));
        prop_assert_eq!(uncached, tamper == 0);
        prop_assert_eq!(batch.verify(&registry), tamper != 1);
        // The replica recognises the members it verified and nothing else:
        // it accepts the batch (its members raise the replica's ARU)
        // exactly when the uncached verdict does, and refuses it for a
        // signature otherwise.
        let msg = PrimeMsg::PoRequestBatch { batch };
        let signed = SignedMsg::sign(ReplicaId(2), msg, &mut origin_key);
        let aru = replica.health_sample(SimTime(1)).aru;
        let _ = replica.on_message(signed, SimTime(1));
        prop_assert_eq!(replica.health_sample(SimTime(1)).aru > aru, uncached);
        prop_assert_eq!(hub.counter_value("prime.r0.bad_sigs"), u64::from(!uncached));
    }
}

// ---- regional substation reports (E14) ----
//
// Batched substation reports must preserve the per-device latest-value
// (highest poll_seq wins, stale drops) semantics of individual polls
// under any interleaving.

proptest! {
    /// Coalesced substation reports preserve per-device latest-value
    /// semantics under arbitrary interleavings with individual RTU
    /// polls: for every device, the surviving view is the highest
    /// poll_seq applied and stale sequences drop.
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
        use scada::updates::DeviceReport;

        let mut st = ScadaState::new();
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
                // Every changed tag the master would frame out belongs
                // to the update that was just applied.
                for tag in st.apply(u) {
                    prop_assert!(
                        op_tags.contains(tag),
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
        for (tag, (poll_seq, positions, currents)) in &model {
            let s = st.scenario(tag).expect("device has state");
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
        let unbatched = run(Config::plant(), n_updates, burst);
        let batched = run(
            Config::plant().with_batching(batch_max, pipeline),
            n_updates,
            burst,
        );
        assert_eq!(
            unbatched.len(),
            n_updates,
            "unbatched run executed everything (batch={batch_max} pipe={pipeline})"
        );
        assert_eq!(
            unbatched, batched,
            "batching changed the delivered sequence \
             (n={n_updates} batch={batch_max} pipe={pipeline} burst={burst})"
        );
    }
}

//! Security-focused unit tests on the replica's message validation: a
//! Byzantine replica must not be able to forge updates, bind foreign
//! pre-order slots, or impersonate peers.

#![cfg(test)]

use bytes::Bytes;
use itcrypto::keys::{KeyPair, KeyRegistry, Principal};
use simnet::time::SimTime;
use simnet::wire::Wire;

use crate::application::KvApp;
use crate::messages::{AruRow, PrimeMsg, SignedMsg};
use crate::replica::{po_compose, po_counter, po_incarnation, Replica};
use crate::types::{Config, ReplicaId, SignedUpdate, Update};

pub(crate) fn registry_and_keys(n: u32, clients: u32) -> (KeyRegistry, Vec<KeyPair>, Vec<KeyPair>) {
    let mut reg = KeyRegistry::new();
    let mut rkeys = Vec::new();
    for i in 0..n {
        let kp = KeyPair::generate(0x5250 + i as u64);
        reg.register(Principal::Replica(i), kp.public_key());
        rkeys.push(kp);
    }
    let mut ckeys = Vec::new();
    for c in 0..clients {
        let kp = KeyPair::generate(0x434C + c as u64);
        reg.register(Principal::Client(c), kp.public_key());
        ckeys.push(kp);
    }
    (reg, rkeys, ckeys)
}

fn replica(id: u32) -> (Replica<KvApp>, Vec<KeyPair>, Vec<KeyPair>) {
    let config = Config::red_team();
    let (reg, rkeys, ckeys) = registry_and_keys(config.n(), 2);
    let r = Replica::new(
        ReplicaId(id),
        config,
        rkeys[id as usize].clone(),
        reg,
        KvApp::new(),
    );
    (r, rkeys, ckeys)
}

fn signed_update(ckeys: &mut [KeyPair], client: u32, seq: u64) -> SignedUpdate {
    let update = Update::new(client, seq, Bytes::from_static(b"x=1"));
    let sig = ckeys[client as usize].sign(&update.to_wire());
    SignedUpdate { update, sig }
}

#[test]
fn po_composite_arithmetic() {
    let c = po_compose(3, 41);
    assert_eq!(po_incarnation(c), 3);
    assert_eq!(po_counter(c), 41);
    // Higher incarnation always dominates any counter of a lower one.
    assert!(po_compose(2, 0) > po_compose(1, (1 << 40) - 1));
}

#[test]
fn forged_client_signature_rejected() {
    let (mut r, _rk, mut ck) = replica(0);
    let mut bad = signed_update(&mut ck, 0, 1);
    bad.update.payload = Bytes::from_static(b"tampered=1");
    let out = r.submit(bad, SimTime(0));
    assert!(out.is_empty(), "tampered update must not be introduced");
    assert_eq!(r.stats.bad_sigs, 1);
}

#[test]
fn replica_message_with_wrong_envelope_key_rejected() {
    let (mut r0, mut rk, _ck) = replica(0);
    // Replica 2's message signed with replica 3's key.
    let msg = PrimeMsg::SuspectLeader { view: 0 };
    let forged = SignedMsg::sign(ReplicaId(2), msg, &mut rk[3]);
    let before = r0.stats.bad_sigs;
    let out = r0.on_message(forged, SimTime(0));
    assert!(out.is_empty());
    assert_eq!(r0.stats.bad_sigs, before + 1);
}

#[test]
fn po_request_relayed_by_non_origin_is_ignored() {
    // Replica 2 tries to bind a slot in replica 1's pre-order space.
    let (mut r0, mut rk, mut ck) = replica(0);
    let update = signed_update(&mut ck, 0, 1);
    let msg = PrimeMsg::PoRequest {
        origin: ReplicaId(1),
        po_seq: po_compose(0, 1),
        update,
    };
    let signed = SignedMsg::sign(ReplicaId(2), msg, &mut rk[2]);
    let _ = r0.on_message(signed, SimTime(0));
    // The slot must remain unbound: an honest fetch would find nothing.
    let fetch = PrimeMsg::PoFetch {
        origin: ReplicaId(1),
        po_seq: po_compose(0, 1),
    };
    let signed_fetch = SignedMsg::sign(ReplicaId(3), fetch, &mut rk[3]);
    let out = r0.on_message(signed_fetch, SimTime(1));
    assert!(out.is_empty(), "no PoData reply for an unbound slot");
}

#[test]
fn po_data_with_forged_inner_envelope_rejected() {
    let (mut r0, mut rk, mut ck) = replica(0);
    // Inner envelope claims origin replica 1 but is signed by replica 2.
    let update = signed_update(&mut ck, 0, 1);
    let inner = PrimeMsg::PoRequest {
        origin: ReplicaId(1),
        po_seq: po_compose(0, 1),
        update,
    };
    let forged_inner = SignedMsg::sign(ReplicaId(1), inner, &mut rk[2]); // wrong key
    let po_data = PrimeMsg::PoData {
        original: forged_inner.to_wire().to_vec(),
    };
    let outer = SignedMsg::sign(ReplicaId(2), po_data, &mut rk[2]);
    let before = r0.stats.bad_sigs;
    let _ = r0.on_message(outer, SimTime(0));
    assert!(r0.stats.bad_sigs > before, "forged inner envelope detected");
}

#[test]
fn pre_prepare_from_non_leader_ignored() {
    let (mut r1, mut rk, _ck) = replica(1);
    // View 0's leader is replica 0; replica 2 proposes anyway.
    let row_vec = vec![0u64; 4];
    let sig = rk[2].sign(&AruRow::signed_bytes(ReplicaId(2), &row_vec));
    let row = AruRow {
        replica: ReplicaId(2),
        vector: row_vec,
        sig,
    };
    let pp = PrimeMsg::PrePrepare {
        view: 0,
        seq: 1,
        matrix: vec![row.clone(), row.clone(), row.clone()],
    };
    let signed = SignedMsg::sign(ReplicaId(2), pp, &mut rk[2]);
    let out = r1.on_message(signed, SimTime(0));
    // No Prepare is emitted for a usurper's proposal.
    assert!(
        !out.iter().any(|e| matches!(
            e,
            crate::replica::OutEvent::Broadcast(m) if matches!(m.msg.msg, PrimeMsg::Prepare { .. })
        )),
        "prepared a non-leader's pre-prepare"
    );
}

#[test]
fn pre_prepare_with_undersized_matrix_ignored() {
    let (mut r1, mut rk, _ck) = replica(1);
    // Only 2 rows < ordering quorum (3 for n=4).
    let row_vec = vec![0u64; 4];
    let sig = rk[0].sign(&AruRow::signed_bytes(ReplicaId(0), &row_vec));
    let row = AruRow {
        replica: ReplicaId(0),
        vector: row_vec,
        sig,
    };
    let pp = PrimeMsg::PrePrepare {
        view: 0,
        seq: 1,
        matrix: vec![row.clone(), row],
    };
    let signed = SignedMsg::sign(ReplicaId(0), pp, &mut rk[0]);
    let out = r1.on_message(signed, SimTime(0));
    assert!(
        !out.iter().any(|e| matches!(
            e,
            crate::replica::OutEvent::Broadcast(m) if matches!(m.msg.msg, PrimeMsg::Prepare { .. })
        )),
        "prepared an undersized matrix"
    );
}

#[test]
fn duplicate_client_seq_not_reintroduced() {
    let (mut r0, _rk, mut ck) = replica(0);
    let u = signed_update(&mut ck, 0, 7);
    let first = r0.submit(u.clone(), SimTime(0));
    assert!(!first.is_empty());
    let second = r0.submit(u, SimTime(1));
    assert!(second.is_empty(), "same (client, seq) introduced twice");
    assert_eq!(r0.stats.po_introduced, 1);
}

#[test]
fn message_claiming_own_id_ignored() {
    let (mut r0, mut rk, _ck) = replica(0);
    // A message "from ourselves" arriving over the network is bogus.
    let msg = PrimeMsg::SuspectLeader { view: 0 };
    let spoofed = SignedMsg::sign(ReplicaId(0), msg, &mut rk[0]);
    let out = r0.on_message(spoofed, SimTime(0));
    assert!(out.is_empty());
}

#[test]
fn out_of_range_replica_id_ignored() {
    let (mut r0, mut rk, _ck) = replica(0);
    let msg = PrimeMsg::SuspectLeader { view: 0 };
    let alien = SignedMsg::sign(ReplicaId(99), msg, &mut rk[1]);
    let out = r0.on_message(alien, SimTime(0));
    assert!(out.is_empty());
}

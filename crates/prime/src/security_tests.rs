//! Security-focused unit tests on the replica's message validation: a
//! Byzantine replica must not be able to forge updates, bind foreign
//! pre-order slots, or impersonate peers.

#![cfg(test)]

use bytes::Bytes;
use itcrypto::keys::{KeyPair, KeyRegistry, Principal};
use simnet::time::SimTime;
use simnet::wire::Wire;

use crate::application::KvApp;
use crate::messages::{AruRow, Envelope, PoBatch, PrimeMsg, SignedMsg};
use crate::replica::{po_compose, po_counter, po_incarnation, OutEvent, Replica};
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
    replica_on(id, &obs::ObsHub::new())
}

/// Replica `id` counting on `hub`, where its refusals can be read.
fn replica_on(id: u32, hub: &obs::ObsHub) -> (Replica<KvApp>, Vec<KeyPair>, Vec<KeyPair>) {
    let config = Config::red_team();
    let (reg, rkeys, ckeys) = registry_and_keys(config.n(), 2);
    let r = Replica::new(
        ReplicaId(id),
        config,
        rkeys[id as usize].clone(),
        reg,
        KvApp::new(),
        hub,
    );
    (r, rkeys, ckeys)
}

/// Envelopes, updates and batches `r` refused for a signature.
fn bad_sigs(hub: &obs::ObsHub, r: &Replica<KvApp>) -> u64 {
    hub.counter_value(&format!("prime.r{}.bad_sigs", r.id().0))
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
    let hub = obs::ObsHub::new();
    let (mut r, _rk, mut ck) = replica_on(0, &hub);
    let mut bad = signed_update(&mut ck, 0, 1);
    bad.update.payload = Bytes::from_static(b"tampered=1");
    let out = r.submit(bad, SimTime(0));
    assert!(out.is_empty(), "tampered update must not be introduced");
    assert_eq!(bad_sigs(&hub, &r), 1);
}

#[test]
fn replica_message_with_wrong_envelope_key_rejected() {
    let hub = obs::ObsHub::new();
    let (mut r0, mut rk, _ck) = replica_on(0, &hub);
    // Replica 2's message signed with replica 3's key.
    let msg = PrimeMsg::SuspectLeader { view: 0 };
    let forged = SignedMsg::sign(ReplicaId(2), msg, &mut rk[3]);
    let out = r0.on_message(forged, SimTime(0));
    assert!(out.is_empty());
    assert_eq!(bad_sigs(&hub, &r0), 1);
}

#[test]
fn an_envelope_its_signer_made_in_another_replica_s_name_is_refused() {
    let hub = obs::ObsHub::new();
    let (mut r0, mut rk, _ck) = replica_on(0, &hub);
    // Replica 2's key signs as replica 1: the thread's table holds the
    // envelope under replica 2's key, not the one replica 0 holds for 1.
    let msg = PrimeMsg::SuspectLeader { view: 0 };
    let forged = Envelope::sign(ReplicaId(1), msg, &mut rk[2]);
    let out = r0.on_message(forged.msg, SimTime(0));
    assert!(out.is_empty());
    assert_eq!(bad_sigs(&hub, &r0), 1);
}

#[test]
fn po_batch_relayed_by_non_origin_is_ignored() {
    let hub = obs::ObsHub::new();
    let (mut r0, mut rk, mut ck) = replica_on(0, &hub);
    // Replica 2 relays replica 1's batch as its own message, trying to
    // bind a slot in replica 1's pre-order space.
    let update = signed_update(&mut ck, 0, 1);
    let batch = PoBatch::sign(ReplicaId(1), po_compose(0, 1), vec![update], &mut rk[1]);
    let relayed = SignedMsg::sign(ReplicaId(2), PrimeMsg::PoRequestBatch { batch }, &mut rk[2]);
    assert!(r0.on_message(relayed, SimTime(0)).is_empty());
    // The slot must remain unbound: an honest fetch finds nothing.
    assert!(
        fetch(&mut r0, &mut rk, 1, 1).is_empty(),
        "no PoBatchMember reply for an unbound slot"
    );
    assert_eq!(
        bad_sigs(&hub, &r0),
        0,
        "refused for its sender, not a signature"
    );
}

/// Replica 2 serving the member of a batch of one in replica 1's name,
/// whose root `root_signer`'s key signed: the update is genuine.
fn served_member(rk: &mut [KeyPair], ck: &mut [KeyPair], root_signer: usize) -> SignedMsg {
    let update = signed_update(ck, 0, 1);
    let first_po_seq = po_compose(0, 1);
    let batch = PoBatch::sign(
        ReplicaId(1),
        first_po_seq,
        vec![update.clone()],
        &mut rk[root_signer],
    );
    let proof = batch.tree().prove(0).expect("in range");
    let member = PrimeMsg::PoBatchMember {
        origin: ReplicaId(1),
        first_po_seq,
        count: 1,
        index: 0,
        update,
        path: proof.path,
        root_sig: batch.root_sig,
    };
    SignedMsg::sign(ReplicaId(2), member, &mut rk[2])
}

#[test]
fn po_batch_member_under_a_root_a_non_origin_signed_is_refused() {
    let hub = obs::ObsHub::new();
    let (mut r0, mut rk, mut ck) = replica_on(0, &hub);
    let served = served_member(&mut rk, &mut ck, 2);
    assert!(r0.on_message(served, SimTime(0)).is_empty());
    assert_eq!(bad_sigs(&hub, &r0), 1, "forged root signature detected");
    assert!(
        fetch(&mut r0, &mut rk, 1, 1).is_empty(),
        "the slot stays unbound"
    );
}

/// A member of a batch of one is the batch its origin signed: the
/// replica that learnt the slot from it serves it onward, as a replica
/// that received the batch itself does.
#[test]
fn a_slot_learnt_from_a_member_of_a_batch_of_one_is_served_onward() {
    let (mut r0, mut rk, mut ck) = replica(0);
    let served = served_member(&mut rk, &mut ck, 1);
    let _ = r0.on_message(served.clone(), SimTime(0));
    let reply = fetch(&mut r0, &mut rk, 1, 1);
    assert!(
        matches!(&reply[..], [OutEvent::Send(ReplicaId(3), m)] if m.msg.msg == served.msg),
        "the member is served on: {reply:?}"
    );
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
    assert!(
        matches!(&first[..], [OutEvent::Broadcast(m)]
            if matches!(&m.msg.msg, PrimeMsg::PoRequestBatch { batch } if batch.updates == [u.clone()])),
        "introduced once, as a batch of one: {first:?}"
    );
    let second = r0.submit(u, SimTime(1));
    assert!(second.is_empty(), "same (client, seq) introduced twice");
}

/// What `r` spent on one message: signature verifications run, and
/// messages rejected for a bad signature.
fn cost(r: &mut Replica<KvApp>, hub: &obs::ObsHub, msg: SignedMsg) -> (u64, u64) {
    let (ran, bad) = (r.verifications(), bad_sigs(hub, r));
    let _ = r.on_message(msg, SimTime(1));
    (r.verifications() - ran, bad_sigs(hub, r) - bad)
}

/// What `r` answers replica 3's fetch of `origin`'s slot `counter` with.
fn fetch(r: &mut Replica<KvApp>, rk: &mut [KeyPair], origin: u32, counter: u64) -> Vec<OutEvent> {
    let msg = PrimeMsg::PoFetch {
        origin: ReplicaId(origin),
        po_seq: po_compose(0, counter),
    };
    r.on_message(SignedMsg::sign(ReplicaId(3), msg, &mut rk[3]), SimTime(1))
}

/// A batch from slot `counter` on whose origin signed it as it is: the
/// root verifies, so only the members' own signatures can reject it.
fn po_batch(
    rk: &mut [KeyPair],
    origin: u32,
    counter: u64,
    updates: Vec<SignedUpdate>,
) -> SignedMsg {
    let batch = PoBatch::sign(
        ReplicaId(origin),
        po_compose(0, counter),
        updates,
        &mut rk[origin as usize],
    );
    let msg = PrimeMsg::PoRequestBatch { batch };
    SignedMsg::sign(ReplicaId(origin), msg, &mut rk[origin as usize])
}

#[test]
fn an_update_verified_at_submission_is_recognised_and_a_changed_one_is_not() {
    let hub = obs::ObsHub::new();
    let (mut r0, mut rk, mut ck) = replica_on(0, &hub);
    let u = signed_update(&mut ck, 0, 1);
    let _ = r0.submit(u.clone(), SimTime(0));
    assert_eq!(r0.verifications(), 1);
    // The same bytes in an origin's batch: only the envelope and the
    // root are checked.
    assert_eq!(
        cost(&mut r0, &hub, po_batch(&mut rk, 1, 1, vec![u.clone()])),
        (2, 0)
    );
    // u's (client, client_seq) with another payload, and u with one
    // signature byte flipped: each is verified, rejected and counted,
    // as a batch member and as a fetched member.
    let mut payload = u.clone();
    payload.update.payload = Bytes::from_static(b"x=2");
    let mut sig = u.clone();
    let mut bytes = sig.sig.to_bytes();
    bytes[15] ^= 1;
    sig.sig = itcrypto::Signature::from_bytes(&bytes);
    for (counter, forged) in [(2, payload), (3, sig)] {
        assert_eq!(
            cost(
                &mut r0,
                &hub,
                po_batch(&mut rk, 1, counter, vec![forged.clone()])
            ),
            (3, 1)
        );
        let member = PrimeMsg::PoBatchMember {
            origin: ReplicaId(2),
            first_po_seq: po_compose(0, 9),
            count: 1,
            index: 0,
            update: forged,
            path: Vec::new(),
            root_sig: u.sig,
        };
        assert_eq!(
            cost(
                &mut r0,
                &hub,
                SignedMsg::sign(ReplicaId(3), member, &mut rk[3])
            ),
            (2, 1)
        );
    }
    // A rejected update was not remembered, and u still is.
    assert_eq!(
        cost(&mut r0, &hub, po_batch(&mut rk, 3, 1, vec![u])),
        (2, 0)
    );
}

#[test]
fn the_update_table_forgets_the_oldest_past_its_cap_and_on_recovery() {
    let hub = obs::ObsHub::new();
    let (mut r0, _rk, mut ck) = replica_on(0, &hub);
    let updates: Vec<SignedUpdate> = (1..=4097)
        .map(|seq| signed_update(&mut ck, 0, seq))
        .collect();
    for u in &updates {
        let _ = r0.submit(u.clone(), SimTime(0));
    }
    assert_eq!(r0.verifications(), 4097);
    let resubmit = |r: &mut Replica<KvApp>, u: &SignedUpdate| {
        let ran = r.verifications();
        let _ = r.submit(u.clone(), SimTime(1));
        r.verifications() - ran
    };
    // The second oldest and the newest are remembered; the oldest alone
    // was evicted, costs one verification and is accepted.
    assert_eq!(resubmit(&mut r0, &updates[1]), 0);
    assert_eq!(resubmit(&mut r0, &updates[4096]), 0);
    assert_eq!(resubmit(&mut r0, &updates[0]), 1);
    assert_eq!(resubmit(&mut r0, &updates[0]), 0);
    assert_eq!(bad_sigs(&hub, &r0), 0);
    // A recovered replica has verified nothing.
    let _ = r0.recover(SimTime(2));
    assert_eq!(resubmit(&mut r0, &updates[4096]), 1);
}

/// Replica `replica`'s signed ARU row over `vector`.
fn aru_row(rk: &mut [KeyPair], replica: u32, vector: Vec<u64>) -> AruRow {
    let sig = rk[replica as usize].sign(&AruRow::signed_bytes(ReplicaId(replica), &vector));
    AruRow {
        replica: ReplicaId(replica),
        vector,
        sig,
    }
}

fn pre_prepare(rk: &mut [KeyPair], seq: u64, matrix: Vec<AruRow>) -> SignedMsg {
    let msg = PrimeMsg::PrePrepare {
        view: 0,
        seq,
        matrix,
    };
    SignedMsg::sign(ReplicaId(0), msg, &mut rk[0])
}

fn po_aru(rk: &mut [KeyPair], from: u32, row: AruRow) -> SignedMsg {
    SignedMsg::sign(
        ReplicaId(from),
        PrimeMsg::PoAru { row },
        &mut rk[from as usize],
    )
}

#[test]
fn a_row_recurring_in_consecutive_pre_prepares_is_verified_once() {
    let hub = obs::ObsHub::new();
    let (mut r1, mut rk, _ck) = replica_on(1, &hub);
    let rows: Vec<AruRow> = (0..4)
        .map(|i| aru_row(&mut rk, i, vec![i as u64; 4]))
        .collect();
    // The envelope and three rows, then the envelope and the one row the
    // second matrix has not carried before.
    let first = pre_prepare(&mut rk, 1, rows[..3].to_vec());
    assert_eq!(cost(&mut r1, &hub, first), (4, 0));
    let second = pre_prepare(&mut rk, 2, rows[1..].to_vec());
    assert_eq!(cost(&mut r1, &hub, second), (2, 0));
    let third = pre_prepare(&mut rk, 3, rows.clone());
    assert_eq!(cost(&mut r1, &hub, third), (1, 0));
    // Gossiped as a PO-ARU, a row seen in a matrix is recognised too.
    assert_eq!(
        cost(&mut r1, &hub, po_aru(&mut rk, 2, rows[2].clone())),
        (1, 0)
    );
}

#[test]
fn a_known_replicas_altered_row_is_verified_and_rejected_every_time() {
    let hub = obs::ObsHub::new();
    let (mut r1, mut rk, _ck) = replica_on(1, &hub);
    let row = aru_row(&mut rk, 2, vec![3, 1, 4, 1]);
    assert_eq!(cost(&mut r1, &hub, po_aru(&mut rk, 2, row.clone())), (2, 0));
    let mut vector = row.clone();
    vector.vector[3] = 5;
    let mut sig = row.clone();
    let mut bytes = sig.sig.to_bytes();
    bytes[0] ^= 1;
    sig.sig = itcrypto::Signature::from_bytes(&bytes);
    for forged in [vector, sig] {
        for _ in 0..2 {
            assert_eq!(
                cost(&mut r1, &hub, po_aru(&mut rk, 2, forged.clone())),
                (2, 1)
            );
        }
        // Inside a matrix a bad row drops the pre-prepare unprepared.
        let matrix = vec![row.clone(), forged.clone(), aru_row(&mut rk, 3, vec![0; 4])];
        let out = r1.on_message(pre_prepare(&mut rk, 1, matrix), SimTime(1));
        assert!(out.is_empty(), "prepared a matrix with a forged row");
    }
    // The genuine row is still recognised.
    assert_eq!(cost(&mut r1, &hub, po_aru(&mut rk, 2, row)), (1, 0));
}

#[test]
fn a_recovered_replica_recognises_no_row() {
    let hub = obs::ObsHub::new();
    let (mut r1, mut rk, _ck) = replica_on(1, &hub);
    let row = aru_row(&mut rk, 2, vec![2, 7, 1, 8]);
    assert_eq!(cost(&mut r1, &hub, po_aru(&mut rk, 3, row.clone())), (2, 0));
    assert_eq!(cost(&mut r1, &hub, po_aru(&mut rk, 3, row.clone())), (1, 0));
    let _ = r1.recover(SimTime(2));
    assert_eq!(cost(&mut r1, &hub, po_aru(&mut rk, 3, row)), (2, 0));
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

#[test]
fn a_changed_envelope_under_a_signature_another_replica_accepted_is_refused() {
    let hub = obs::ObsHub::new();
    let (mut r0, mut rk, mut ck) = replica_on(0, &hub);
    let (mut r1, _, _) = replica_on(1, &hub);
    let honest = po_batch(&mut rk, 2, 1, vec![signed_update(&mut ck, 0, 1)]);
    // Replica 1 accepts the batch: its envelope and root are now known
    // on this thread.
    assert_eq!(cost(&mut r1, &hub, honest.clone()), (3, 0));
    // The same signature over another first sequence: verified in full
    // and refused, as it would be on a thread of its own.
    let mut changed = honest.clone();
    let PrimeMsg::PoRequestBatch { batch } = &mut changed.msg else {
        unreachable!("po_batch builds a PoRequestBatch");
    };
    batch.first_po_seq += 1;
    assert_eq!(cost(&mut r0, &hub, changed), (1, 1));
    // The envelope as signed is accepted, and costs replica 0 every
    // check it would have run alone.
    assert_eq!(cost(&mut r0, &hub, honest), (3, 0));
}

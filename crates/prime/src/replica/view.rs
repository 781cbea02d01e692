//! Leader election: suspicion, view changes (one vote form, carrying a
//! window of prepared certificates), and view installation.

use super::log::forget_through;
use super::*;

impl<A: Application> Replica<A> {
    pub(super) fn on_suspect(
        &mut self,
        from: ReplicaId,
        view: u64,
        now: SimTime,
        out: &mut Vec<OutEvent>,
    ) {
        if view < self.view {
            return;
        }
        self.suspects.entry(view).or_default().insert(from.0);
        let count =
            self.suspects[&view].len() as u32 + u32::from(self.sent_suspect.contains(&view));
        if view == self.view && count >= self.membership.suspect_threshold() {
            self.start_view_change(view + 1, now, out);
        }
    }

    pub(super) fn start_view_change(&mut self, target: u64, now: SimTime, out: &mut Vec<OutEvent>) {
        if self.in_view_change && self.vc_target >= target {
            return;
        }
        self.in_view_change = true;
        self.vc_target = target;
        self.last_vc_broadcast_at = now;
        // Every prepared-but-uncommitted certificate above the committed
        // watermark travels in the vote, so a view change cannot orphan
        // the tail of an in-flight window.
        let certs: CertWindow = self
            .prepared_certs
            .range(self.max_committed + 1..)
            .map(|(seq, (view, matrix))| (*seq, *view, matrix.clone()))
            .collect();
        self.view_changes
            .entry(target)
            .or_default()
            .insert(self.id.0, (self.max_committed, certs));
        self.broadcast_vote(target, out);
    }

    /// Broadcasts the vote this replica recorded for `target`, if any.
    pub(super) fn broadcast_vote(&mut self, target: u64, out: &mut Vec<OutEvent>) {
        let Some((max_committed, certs)) = self
            .view_changes
            .get(&target)
            .and_then(|votes| votes.get(&self.id.0))
            .cloned()
        else {
            return;
        };
        let vc = self.sign(PrimeMsg::ViewChangeWindow {
            new_view: target,
            max_committed,
            certs,
        });
        out.push(OutEvent::Broadcast(vc));
    }

    /// Receives a view-change vote: joins the view change once f+1
    /// replicas are moving, and as the new leader installs the view once
    /// a quorum has voted.
    pub(super) fn on_view_change_window(
        &mut self,
        from: ReplicaId,
        new_view: u64,
        max_committed: u64,
        certs: CertWindow,
        now: SimTime,
        out: &mut Vec<OutEvent>,
    ) {
        if new_view <= self.view {
            return;
        }
        // Certificates must be strictly ascending and above the voter's
        // own watermark; a malformed window is discarded whole.
        let mut last = max_committed;
        for (seq, _, _) in &certs {
            if *seq <= last {
                return;
            }
            last = *seq;
        }
        let votes = self.view_changes.entry(new_view).or_default();
        votes.insert(from.0, (max_committed, certs));
        let votes = votes.len() as u32;
        // Join a view change once f+1 replicas are moving (can't all be faulty).
        if votes > self.membership.f && (!self.in_view_change || self.vc_target < new_view) {
            self.start_view_change(new_view, now, out);
        }
        if votes >= self.membership.ordering_quorum()
            && self.membership.leader_of(new_view) == self.id
            && self.view < new_view
        {
            self.install_view(new_view, out);
        }
    }

    pub(super) fn install_view(&mut self, new_view: u64, out: &mut Vec<OutEvent>) {
        let votes = self.view_changes.remove(&new_view).unwrap_or_default();
        let max_committed_any = votes
            .values()
            .map(|(mc, _)| *mc)
            .max()
            .unwrap_or(0)
            .max(self.max_committed);
        // Per sequence above the watermark, the certificate with the
        // highest prepared view (a prepared certificate is unique per
        // view, so ties agree on the matrix).
        let mut window_certs: BTreeMap<u64, (u64, Vec<AruRow>)> = BTreeMap::new();
        for (_, window) in votes.into_values() {
            for (seq, pv, matrix) in window {
                if seq <= max_committed_any {
                    continue;
                }
                if window_certs.get(&seq).is_none_or(|(held, _)| pv > *held) {
                    window_certs.insert(seq, (pv, matrix));
                }
            }
        }
        let start_seq = window_certs
            .keys()
            .next_back()
            .map_or(max_committed_any, |&top| top)
            + 1;
        self.view = new_view;
        self.in_view_change = false;
        self.unordered_since = None;
        self.forget_views_before(new_view);
        self.c_view_changes.inc();
        self.obs.journal(obs::Event::ViewChange {
            replica: self.id.0,
            view: new_view,
        });
        let nv = self.sign(PrimeMsg::NewView {
            view: new_view,
            start_seq,
        });
        out.push(OutEvent::Broadcast(nv));
        // Re-propose every surviving prepared matrix under the new view.
        for (seq, (_, matrix)) in window_certs {
            if !matrix.is_empty() {
                self.propose_matrix(seq, matrix, out);
            }
        }
    }

    pub(super) fn on_new_view(
        &mut self,
        from: ReplicaId,
        view: u64,
        _start_seq: u64,
        now: SimTime,
    ) {
        if view <= self.view || from != self.membership.leader_of(view) {
            return;
        }
        // Accept if we participated (sent or observed the view change).
        let votes = self.view_changes.get(&view).map_or(0, |m| m.len() as u32);
        if votes == 0 {
            return;
        }
        self.view = view;
        self.in_view_change = false;
        self.unordered_since = Some(now);
        self.forget_views_before(view);
        self.c_view_changes.inc();
        self.obs.journal(obs::Event::ViewChange {
            replica: self.id.0,
            view,
        });
    }

    /// Forgets the view-keyed state an installed `view` has made
    /// unreadable: suspicions below it (suspicion reads only views at or
    /// above the current one) and votes at or below it (a vote counts
    /// only for a view above the current one). Without it each leader
    /// change leaves an entry behind until the next proactive recovery.
    fn forget_views_before(&mut self, view: u64) {
        self.suspects = self.suspects.split_off(&view);
        self.sent_suspect = self.sent_suspect.split_off(&view);
        forget_through(&mut self.view_changes, view);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::tests::fast_timing;
    use crate::harness::Cluster;

    /// Twenty-four leaders in turn go mute with updates waiting, and each
    /// is deposed. After every step, on every replica, the view-keyed
    /// tables hold at most two views: without the forgetting each one
    /// holds an entry per view change.
    #[test]
    fn view_keyed_tables_hold_at_most_two_views() {
        for config in [Config::red_team(), Config::red_team().with_batching(16, 4)] {
            let mut c = Cluster::new(config, 1);
            c.set_timing(fast_timing());
            for i in 0..24 {
                let view = c.replicas[0].view();
                let leader = config.leader_of(view).0 as usize;
                c.replicas[leader].byz = ByzMode::MuteLeader;
                c.submit(0, format!("k{i}=v"));
                c.run_for(SimDuration::from_secs(2));
                c.replicas[leader].byz = ByzMode::Correct;
                for r in &c.replicas {
                    assert!(
                        r.view() > view,
                        "{config:?}: {:?} still in view {view}",
                        r.id()
                    );
                    let held = [r.suspects.len(), r.sent_suspect.len(), r.view_changes.len()];
                    assert!(
                        held.iter().all(|&views| views <= 2),
                        "{config:?}: {:?} in view {} holds {held:?} views \
                         (suspects, sent_suspect, view_changes)",
                        r.id(),
                        r.view()
                    );
                }
            }
            c.run_for(SimDuration::from_secs(1));
            assert!(c.replicas[0].view() >= 24, "{config:?}");
            assert_eq!(c.min_executed(), 24, "{config:?}");
            c.assert_consistent();
        }
    }
}

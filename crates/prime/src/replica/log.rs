//! Pre-ordering and ordering log: PO-Request acceptance, cumulative
//! PO-ARU aggregation, the Pre-Prepare/Prepare/Commit pipeline, plan
//! extension and execution, checkpoints, and catch-up state transfer.

use super::*;

impl<A: Application> Replica<A> {
    /// Accepts a PO-Request whose signed envelope came from its origin —
    /// directly or replayed inside a `PoData` reconciliation reply.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn accept_po_request(
        &mut self,
        envelope: SignedMsg,
        from: ReplicaId,
        origin: ReplicaId,
        po_seq: u64,
        update: SignedUpdate,
        now: SimTime,
        out: &mut Vec<OutEvent>,
    ) {
        // Only the origin may bind (origin, po_seq) → update: a faulty
        // relayer must not be able to fill foreign slots.
        if from != origin || origin.0 >= self.config.n() || po_counter(po_seq) == 0 {
            return;
        }
        if self.po_store.is_forgotten(origin.0, po_seq) {
            return;
        }
        if !update.verify_cached(&self.registry, &mut self.verify_cache) {
            self.stats.bad_sigs += 1;
            return;
        }
        // Incarnation tracking: a higher incarnation from the origin means
        // it recovered; contiguity restarts in the new incarnation.
        let inc = po_incarnation(po_seq);
        let o = origin.0 as usize;
        if origin != self.id && inc > self.origin_inc[o] {
            self.origin_inc[o] = inc;
            self.aru_counter[o] = 0;
        }
        self.po_store.insert_if_absent(origin.0, po_seq, update);
        self.po_envelopes[o].entry(po_seq).or_insert(envelope);
        self.advance_my_aru();
        self.note_unordered(now);
        self.try_execute(now, out);
    }

    pub(super) fn on_po_aru(&mut self, row: AruRow, _out: &mut [OutEvent]) {
        if row.replica.0 >= self.config.n() || row.vector.len() != self.config.n() as usize {
            return;
        }
        if !row.verify_cached(&self.registry, &mut self.verify_cache) {
            self.stats.bad_sigs += 1;
            return;
        }
        let entry = self.latest_rows.entry(row.replica.0);
        match entry {
            std::collections::btree_map::Entry::Vacant(v) => {
                v.insert(row);
            }
            std::collections::btree_map::Entry::Occupied(mut o) => {
                // Keep the row with the largest total coverage (monotone).
                let old_sum: u64 = o.get().vector.iter().sum();
                let new_sum: u64 = row.vector.iter().sum();
                if new_sum > old_sum {
                    o.insert(row);
                }
            }
        }
    }

    pub(super) fn on_pre_prepare(
        &mut self,
        from: ReplicaId,
        view: u64,
        seq: u64,
        matrix: Vec<AruRow>,
        now: SimTime,
        out: &mut Vec<OutEvent>,
    ) {
        if view != self.view || self.in_view_change {
            return;
        }
        if from != self.active_leader_of(view) {
            return;
        }
        if seq <= self.max_committed || seq == 0 {
            return;
        }
        // Validate the matrix: enough distinct, signed rows.
        let mut seen = BTreeSet::new();
        for row in &matrix {
            if row.vector.len() != self.config.n() as usize
                || !row.verify_cached(&self.registry, &mut self.verify_cache)
            {
                return;
            }
            seen.insert(row.replica.0);
        }
        if (seen.len() as u32) < self.active_ordering_quorum() {
            return;
        }
        let digest = Self::matrix_digest(&matrix);
        // A proposal from a newer view supersedes an uncommitted entry a
        // dead view left behind (a partition can cut a pre-prepare off
        // from its prepare quorum; any value that might have committed is
        // protected by the prepared-certificate carryover in
        // `install_view`). Without the replacement the stale entry blocks
        // this sequence in every later view and ordering wedges.
        let replace = match self.pre_prepares.get(&seq) {
            Some((stored_view, _, _)) => *stored_view < view,
            None => true,
        };
        if replace {
            self.pre_prepares.insert(seq, (view, matrix, digest));
        }
        let stored = &self.pre_prepares[&seq];
        if stored.0 != view || stored.2 != digest {
            return; // conflicting proposal for this seq; ignore.
        }
        // Leader's proposal advanced things: reset the suspicion clock.
        self.unordered_since = Some(now);
        if self.sent_prepare.insert((seq, view)) {
            if !self.trace_phase.contains_key(&seq) {
                self.trace_ordering_phase(seq, obs::Stage::PrimePrePrepare);
            }
            let prep = self.sign(PrimeMsg::Prepare { view, seq, digest });
            self.prepares
                .entry((seq, view, digest))
                .or_default()
                .insert(self.id.0);
            out.push(OutEvent::Broadcast(prep));
        }
        self.check_prepared(view, seq, digest, now, out);
    }

    pub(super) fn on_prepare(
        &mut self,
        from: ReplicaId,
        view: u64,
        seq: u64,
        digest: Digest,
        now: SimTime,
        out: &mut Vec<OutEvent>,
    ) {
        if view != self.view || seq <= self.order_floor {
            return;
        }
        self.prepares
            .entry((seq, view, digest))
            .or_default()
            .insert(from.0);
        self.check_prepared(view, seq, digest, now, out);
    }

    /// Opens the next ordering-phase span for `seq`, ending the
    /// previous one. The first phase (pre-prepare) parents on the
    /// oldest traced in-flight update — exact when a single traced
    /// update is in flight (the E5 measurement), approximate under
    /// concurrent traced load.
    pub(super) fn trace_ordering_phase(&mut self, seq: u64, stage: obs::Stage) {
        let parent = match self.trace_phase.get(&seq) {
            Some(prev) => Some(*prev),
            None => self.trace_queue.values().next().copied(),
        };
        if let Some(span) = self.obs.start_span(parent, stage, self.id.0) {
            if let Some(prev) = self.trace_phase.insert(seq, span) {
                self.obs.end_span(Some(prev));
            }
        }
    }

    pub(super) fn check_prepared(
        &mut self,
        view: u64,
        seq: u64,
        digest: Digest,
        now: SimTime,
        out: &mut Vec<OutEvent>,
    ) {
        let Some((pp_view, matrix, pp_digest)) = self.pre_prepares.get(&seq) else {
            return;
        };
        if *pp_view != view || *pp_digest != digest {
            return;
        }
        let prepare_count = self
            .prepares
            .get(&(seq, view, digest))
            .map_or(0, |s| s.len() as u32);
        // The leader does not send Prepare; its pre-prepare counts.
        let have = prepare_count + 1;
        if have >= self.active_ordering_quorum() && self.sent_commit.insert((seq, view)) {
            self.prepared_cert = Some((seq, view, matrix.clone()));
            // The window form keeps every uncommitted certificate; with
            // the pipeline off it mirrors `prepared_cert` (at most one
            // live entry) and is never put on the wire.
            self.prepared_certs.insert(seq, (view, matrix.clone()));
            let commit = self.sign(PrimeMsg::Commit { view, seq, digest });
            self.commits
                .entry((seq, view, digest))
                .or_default()
                .insert(self.id.0);
            out.push(OutEvent::Broadcast(commit));
            self.trace_ordering_phase(seq, obs::Stage::PrimePrepare);
            self.check_committed(view, seq, digest, now, out);
        }
    }

    pub(super) fn on_commit(
        &mut self,
        from: ReplicaId,
        view: u64,
        seq: u64,
        digest: Digest,
        now: SimTime,
        out: &mut Vec<OutEvent>,
    ) {
        if seq <= self.order_floor {
            return;
        }
        self.commits
            .entry((seq, view, digest))
            .or_default()
            .insert(from.0);
        self.check_committed(view, seq, digest, now, out);
    }

    pub(super) fn check_committed(
        &mut self,
        view: u64,
        seq: u64,
        digest: Digest,
        now: SimTime,
        out: &mut Vec<OutEvent>,
    ) {
        if self.committed.contains_key(&seq) {
            return;
        }
        let Some((pp_view, matrix, pp_digest)) = self.pre_prepares.get(&seq) else {
            return;
        };
        if *pp_view != view || *pp_digest != digest {
            return;
        }
        let count = self
            .commits
            .get(&(seq, view, digest))
            .map_or(0, |s| s.len() as u32);
        if count >= self.active_ordering_quorum() {
            self.committed.insert(seq, matrix.clone());
            self.trace_ordering_phase(seq, obs::Stage::PrimeCommit);
            self.max_committed = self.max_committed.max(seq);
            if self
                .prepared_cert
                .as_ref()
                .is_some_and(|(s, _, _)| *s == seq)
            {
                self.prepared_cert = None;
            }
            let watermark = self.max_committed;
            self.prepared_certs.retain(|s, _| *s > watermark);
            self.extend_plan();
            // A committed sequence beyond our contiguous plan means we
            // missed earlier commits (partition): treat as a stall so the
            // tick driver escalates to catch-up.
            if self.max_committed > self.planned_through {
                self.stall_since.get_or_insert(now);
            } else if self.exec_plan.is_empty() {
                self.stall_since = None;
            }
            self.try_execute(now, out);
            // Ordering-phase spans for sequences at or below this one
            // have served their purpose; drop them, ending any still
            // open so the journal stays balanced.
            let keep = self.trace_phase.split_off(&(seq + 1));
            for (_, span) in std::mem::replace(&mut self.trace_phase, keep) {
                self.obs.end_span(Some(span));
            }
        }
    }

    /// Extends the execution plan with newly covered updates from
    /// contiguous committed sequences.
    pub(super) fn extend_plan(&mut self) {
        while let Some(matrix) = self.committed.get(&(self.planned_through + 1)) {
            let n = self.config.n() as usize;
            // Deliberately the *static* coverage threshold even inside a
            // restricted epoch: a commit processed by one survivor before
            // the epoch switch and by another after it must yield the
            // same execution plan, so the plan function cannot depend on
            // epoch state.
            let threshold = self.config.coverage_threshold() as usize;
            let mut target = self.plan_cover.clone();
            for (origin, cover) in target.iter_mut().enumerate().take(n) {
                let mut column: Vec<u64> = matrix.iter().map(|row| row.vector[origin]).collect();
                column.sort_unstable_by(|a, b| b.cmp(a));
                if column.len() >= threshold {
                    *cover = (*cover).max(column[threshold - 1]);
                }
            }
            for (origin, (&from_cover, &to_cover)) in self
                .plan_cover
                .clone()
                .iter()
                .zip(target.iter())
                .enumerate()
            {
                if to_cover <= from_cover {
                    continue;
                }
                if po_incarnation(from_cover) == po_incarnation(to_cover) {
                    for s in from_cover + 1..=to_cover {
                        self.exec_plan.push_back((origin as u32, s));
                    }
                } else {
                    // Incarnation jump: the tail of the old incarnation is
                    // abandoned deterministically (all replicas process the
                    // same committed matrices in order, so all abandon the
                    // same slots); the new incarnation executes from 1.
                    let inc = po_incarnation(to_cover);
                    for c in 1..=po_counter(to_cover) {
                        self.exec_plan
                            .push_back((origin as u32, po_compose(inc, c)));
                    }
                }
            }
            self.plan_cover = target;
            self.planned_through += 1;
        }
    }

    /// Drains the execution plan while updates are available.
    pub(super) fn try_execute(&mut self, now: SimTime, out: &mut Vec<OutEvent>) {
        while let Some(&(origin, po_seq)) = self.exec_plan.front() {
            let Some(signed) = self.po_store.get(origin, po_seq) else {
                // Missing: reconciliation.
                self.stall_since.get_or_insert(now);
                if now.since(self.last_fetch_at) >= SimDuration::from_millis(50) {
                    self.last_fetch_at = now;
                    self.stats.fetches += 1;
                    let fetch = self.sign(PrimeMsg::PoFetch {
                        origin: ReplicaId(origin),
                        po_seq,
                    });
                    out.push(OutEvent::Broadcast(fetch));
                }
                return;
            };
            let update = signed.update.clone();
            self.exec_plan.pop_front();
            self.exec_cover[origin as usize] = po_seq;
            self.stall_since = None;
            if !self
                .executed_clients
                .insert(update.client, update.client_seq)
            {
                self.stats.dup_suppressed += 1;
                continue;
            }
            self.exec_seq += 1;
            self.stats.executed += 1;
            self.c_executed.inc();
            self.app.execute(&update, self.exec_seq);
            // Close the update's pre-ordering span and stamp the
            // execution instant, parented on the latest ordering phase
            // (falling back to the queue span under catch-up paths
            // that bypass the three-phase rounds).
            let queue = self.trace_queue.remove(&(update.client, update.client_seq));
            let trace = if queue.is_some() {
                let parent = self
                    .trace_phase
                    .iter()
                    .next_back()
                    .map(|(_, ctx)| *ctx)
                    .or(queue);
                let span = self
                    .obs
                    .instant_span(parent, obs::Stage::PrimeExecute, self.id.0);
                self.obs.end_span(queue);
                span
            } else {
                None
            };
            obs::prof::charge_msg("prime;execute", 1, 0);
            out.push(OutEvent::Execute {
                exec_seq: self.exec_seq,
                update,
                trace,
            });
            // Checkpoint when due.
            if self.exec_seq - self.last_checkpoint_at_exec >= self.timing.checkpoint_interval {
                self.last_checkpoint_at_exec = self.exec_seq;
                let app_digest = self.app.digest();
                let cp = self.sign(PrimeMsg::Checkpoint {
                    exec_seq: self.exec_seq,
                    app_digest,
                });
                // Vote for our own checkpoint too.
                self.checkpoint_votes
                    .entry((self.exec_seq, app_digest))
                    .or_default()
                    .insert(self.id.0);
                out.push(OutEvent::Broadcast(cp));
                self.mark_executed();
            }
        }
        self.drained_through = self.planned_through;
        // Plan drained: if nothing eligible remains, clear suspicion clock.
        if !self.has_unordered_eligible() {
            self.unordered_since = None;
        }
    }

    pub(super) fn has_unordered_eligible(&self) -> bool {
        self.my_aru
            .iter()
            .zip(self.plan_cover.iter())
            .any(|(a, c)| a > c)
            || !self.exec_plan.is_empty()
    }

    pub(super) fn note_unordered(&mut self, now: SimTime) {
        if self.has_unordered_eligible() && self.unordered_since.is_none() {
            self.unordered_since = Some(now);
        }
    }

    pub(super) fn on_po_data(&mut self, original: &[u8], now: SimTime, out: &mut Vec<OutEvent>) {
        // The payload must be the origin's own signed PoRequest envelope.
        let Ok(envelope) = SignedMsg::from_wire(original) else {
            return;
        };
        if !envelope.verify_cached(&self.registry, &mut self.verify_cache) {
            self.stats.bad_sigs += 1;
            return;
        }
        let PrimeMsg::PoRequest {
            origin,
            po_seq,
            update,
        } = envelope.msg.clone()
        else {
            return;
        };
        let from = envelope.from;
        self.accept_po_request(envelope, from, origin, po_seq, update, now, out);
    }

    pub(super) fn on_checkpoint(
        &mut self,
        from: ReplicaId,
        exec_seq: u64,
        app_digest: Digest,
        now: SimTime,
        out: &mut Vec<OutEvent>,
    ) {
        self.checkpoint_votes
            .entry((exec_seq, app_digest))
            .or_default()
            .insert(from.0);
        let votes = self.checkpoint_votes[&(exec_seq, app_digest)].len() as u32;
        if votes >= self.active_ordering_quorum() && exec_seq > self.stable_checkpoint {
            self.stable_checkpoint = exec_seq;
            out.push(OutEvent::CheckpointStable { exec_seq });
            // Garbage-collect old vote state.
            self.checkpoint_votes.retain(|(s, _), _| *s >= exec_seq);
            self.forget_behind(exec_seq);
            // If we are far behind a stable checkpoint, catch up.
            if self.exec_seq + self.timing.checkpoint_interval < exec_seq {
                self.request_catchup(now, out);
            }
        }
    }

    /// Records what this replica has executed as of the checkpoint it
    /// just took (or a snapshot it just installed), for `forget_behind`.
    fn mark_executed(&mut self) {
        if self.checkpoint_marks.len() == RETAIN_CHECKPOINTS {
            self.checkpoint_marks.pop_front();
        }
        self.checkpoint_marks.push_back(ExecMark {
            exec_seq: self.exec_seq,
            cover: self.exec_cover.clone(),
            ordered: self.drained_through,
        });
    }

    /// Forgets what checkpoint `stable` has made unnecessary: every
    /// pre-order slot, batch and PoRequest envelope, and every ordering
    /// sequence, that this replica had executed at the *previous* stable
    /// checkpoint, once each replica's latest PO-ARU row acknowledges the
    /// slot — so no correct peer will fetch it again — or once it lies
    /// `RETAIN_CHECKPOINTS` stable checkpoints back, so that `f` silent or
    /// lying replicas cannot pin memory. A peer that far behind is past
    /// fetching: it catches up by state transfer (`on_checkpoint`).
    ///
    /// A stable checkpoint this replica took no checkpoint at or below
    /// (it is behind, or just caught up) forgets nothing.
    fn forget_behind(&mut self, stable: u64) {
        let mut mark = None;
        while self
            .checkpoint_marks
            .front()
            .is_some_and(|m| m.exec_seq <= stable)
        {
            mark = self.checkpoint_marks.pop_front();
        }
        let Some(mark) = mark else {
            return;
        };
        if self.stable_marks.len() > RETAIN_CHECKPOINTS {
            self.stable_marks.pop_front();
        }
        self.stable_marks.push_back(mark);
        let marks = self.stable_marks.len();
        if marks < 2 {
            return;
        }
        let previous = &self.stable_marks[marks - 2];
        let escape = (marks > RETAIN_CHECKPOINTS).then(|| &self.stable_marks[0]);
        let n = self.config.n();
        for origin in 0..n as usize {
            let acked = (0..n)
                .map(|r| self.latest_rows.get(&r).map_or(0, |row| row.vector[origin]))
                .min()
                .unwrap_or(0);
            let floor = previous.cover[origin]
                .min(acked)
                .max(escape.map_or(0, |m| m.cover[origin]));
            self.po_store.forget_through(origin as u32, floor);
            forget_through(&mut self.po_envelopes[origin], floor);
            // A batch straddling the floor still serves its upper members.
            let batches = &mut self.po_batches[origin];
            let cut = match batches.range(..=floor).next_back() {
                Some((&first, batch)) if first + batch.updates.len() as u64 - 1 > floor => first,
                _ => floor.saturating_add(1),
            };
            *batches = batches.split_off(&cut);
        }
        let ordered = previous.ordered;
        if ordered > self.order_floor {
            self.order_floor = ordered;
            let above = ordered + 1;
            forget_through(&mut self.pre_prepares, ordered);
            forget_through(&mut self.committed, ordered);
            self.prepares = self.prepares.split_off(&(above, 0, Digest([0; 32])));
            self.commits = self.commits.split_off(&(above, 0, Digest([0; 32])));
            self.sent_prepare = self.sent_prepare.split_off(&(above, 0));
            self.sent_commit = self.sent_commit.split_off(&(above, 0));
        }
    }

    /// Requests replication + application state transfer from peers.
    pub fn request_catchup(&mut self, now: SimTime, out: &mut Vec<OutEvent>) {
        if self.catching_up {
            return;
        }
        self.catching_up = true;
        self.catchup_started = now;
        self.catchup_attempts = 0;
        self.catchup_offers.clear();
        self.catchup_dedup.clear();
        self.catchup_chunks.clear();
        out.push(OutEvent::StateTransferRequested);
        let req = self.sign(PrimeMsg::CatchupRequest {
            have_exec_seq: self.exec_seq,
        });
        out.push(OutEvent::Broadcast(req));
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn on_catchup_reply(
        &mut self,
        from: ReplicaId,
        exec_seq: u64,
        app_digest: Digest,
        snapshot: Vec<u8>,
        next_order_seq: u64,
        exec_cover: Vec<u64>,
        view: u64,
        out: &mut Vec<OutEvent>,
    ) {
        if !self.catching_up || exec_seq <= self.exec_seq {
            return;
        }
        if exec_cover.len() != self.config.n() as usize {
            return;
        }
        // A reply with an empty snapshot is the splice marker for a
        // chunked transfer: reassemble the sender's buffered chunks if
        // they are complete and match this reply's exec_seq. A sender
        // with chunking off that legitimately has an empty snapshot has
        // no buffered chunks, so the reply passes through unchanged.
        let snapshot = if snapshot.is_empty() {
            match self.catchup_chunks.get(&from.0) {
                Some((chunk_seq, count, parts))
                    if *chunk_seq == exec_seq && parts.len() as u32 == *count =>
                {
                    let mut whole = Vec::new();
                    for part in parts.values() {
                        whole.extend_from_slice(part);
                    }
                    whole
                }
                _ => snapshot,
            }
        } else {
            snapshot
        };
        // Pair the reply with the sender's `CatchupDedup` companion (sent
        // just ahead of it); absent or mismatched means no table.
        let dedup: DedupTable = match self.catchup_dedup.get(&from.0) {
            Some((e, table)) if *e == exec_seq => table.clone(),
            _ => Vec::new(),
        };
        let key = (exec_seq, app_digest, dedup_digest(&dedup));
        let offer = PrimeMsg::CatchupReply {
            exec_seq,
            app_digest,
            snapshot,
            next_order_seq,
            exec_cover,
            view,
        };
        let active_f = self.active_f();
        let entry = self
            .catchup_offers
            .entry(key)
            .or_insert_with(|| (BTreeSet::new(), offer, dedup));
        entry.0.insert(from.0);
        if entry.0.len() as u32 > active_f {
            // f+1 matching offers: at least one from a correct replica.
            let dedup = entry.2.clone();
            let PrimeMsg::CatchupReply {
                exec_seq,
                app_digest,
                snapshot,
                next_order_seq,
                exec_cover,
                view,
            } = entry.1.clone()
            else {
                return;
            };
            // The group agrees on `app_digest`, but the bytes are its first
            // offerer's, who may have vouched for the honest digest over
            // garbage; only installing them tells. Keep our own state to
            // fall back on, or one faulty replica wipes a recovering one.
            let own = self.app.snapshot();
            self.app.install_snapshot(&snapshot);
            if self.app.digest() != app_digest {
                // Corrupt snapshot from a faulty replica; discard the group.
                self.app.install_snapshot(&own);
                self.catchup_offers.remove(&key);
                return;
            }
            self.exec_seq = exec_seq;
            if !dedup.is_empty() {
                // Empty means the senders do not transfer their dedup
                // tables (`Config::transfer_dedup` off); keep ours rather
                // than wiping it.
                self.executed_clients = ClientSeqs::from_table(&dedup);
            }
            self.plan_cover = exec_cover;
            self.planned_through = next_order_seq.saturating_sub(1);
            self.max_committed = self.max_committed.max(self.planned_through);
            self.exec_plan.clear();
            // What was installed is what has been executed: the marks
            // start again from it, and the floors rise no faster than
            // `RETAIN_CHECKPOINTS` fresh stable checkpoints allow.
            self.exec_cover = self.plan_cover.clone();
            self.drained_through = self.planned_through;
            self.checkpoint_marks.clear();
            self.stable_marks.clear();
            self.view = self.view.max(view);
            self.in_view_change = false;
            self.catching_up = false;
            self.catchup_chunks.clear();
            self.stall_since = None;
            self.last_checkpoint_at_exec = exec_seq;
            self.mark_executed();
            self.stats.catchups += 1;
            out.push(OutEvent::StateTransferInstalled { exec_seq });
        }
    }

    pub(super) fn maybe_propose(&mut self, now: SimTime, out: &mut Vec<OutEvent>) {
        if let ByzMode::DelayLeader(extra) = self.byz {
            if now.since(self.last_pp_at) < self.timing.pp_interval + extra {
                return;
            }
        } else if now.since(self.last_pp_at) < self.timing.pp_interval {
            return;
        }
        if self.byz.is_mute_leader() {
            return;
        }
        if self.config.pipeline > 1 {
            self.maybe_propose_pipelined(now, out);
            return;
        }
        // Only one outstanding proposal at a time — but an entry left by
        // a dead view does not count: it can never gather prepares in
        // this view, so the new leader must re-propose the sequence.
        let next_seq = self.max_committed + 1;
        if self
            .pre_prepares
            .get(&next_seq)
            .is_some_and(|(v, _, _)| *v == self.view)
        {
            return;
        }
        // Collect rows; require a quorum of distinct replicas.
        let rows: Vec<AruRow> = self.latest_rows.values().cloned().collect();
        if (rows.len() as u32) < self.active_ordering_quorum() {
            return;
        }
        // Only propose if coverage advances.
        let n = self.config.n() as usize;
        let threshold = self.config.coverage_threshold() as usize;
        let mut cover = vec![0u64; n];
        for (origin, c) in cover.iter_mut().enumerate() {
            let mut column: Vec<u64> = rows.iter().map(|r| r.vector[origin]).collect();
            column.sort_unstable_by(|a, b| b.cmp(a));
            if column.len() >= threshold {
                *c = column[threshold - 1];
            }
        }
        if cover
            .iter()
            .zip(self.plan_cover.iter())
            .all(|(c, p)| c <= p)
        {
            return;
        }
        self.last_pp_at = now;
        self.propose_matrix(next_seq, rows, now, out);
    }

    /// Pipelined proposal path (`Config::pipeline > 1`): up to `pipeline`
    /// sequences may be in flight above the committed watermark at once,
    /// so the three ordering rounds of sequence `s+1` overlap the
    /// dissemination that feeds `s+2` instead of serializing behind the
    /// commit of `s`. The next free slot is proposed when the current
    /// quorum rows advance coverage beyond everything already planned
    /// *or in flight* — computed statelessly by folding the in-flight
    /// pre-prepare matrices over the plan cover, so no extra state can
    /// drift across view changes or recoveries.
    pub(super) fn maybe_propose_pipelined(&mut self, now: SimTime, out: &mut Vec<OutEvent>) {
        let n = self.config.n() as usize;
        let threshold = self.config.coverage_threshold() as usize;
        let window = self.config.pipeline as u64;
        let fold = |cover: &mut [u64], rows: &[AruRow]| {
            for (origin, c) in cover.iter_mut().enumerate() {
                let mut column: Vec<u64> = rows.iter().map(|r| r.vector[origin]).collect();
                column.sort_unstable_by(|a, b| b.cmp(a));
                if column.len() >= threshold {
                    *c = (*c).max(column[threshold - 1]);
                }
            }
        };
        // Coverage already promised: the executed/planned prefix plus
        // every proposal of this view still in flight above it.
        let mut covered = self.plan_cover.clone();
        let mut in_flight_tip = self.max_committed;
        for (seq, (view, matrix, _)) in self.pre_prepares.range(self.max_committed + 1..) {
            if *view != self.view {
                continue;
            }
            fold(&mut covered, matrix);
            in_flight_tip = in_flight_tip.max(*seq);
        }
        // The lowest window slot not yet proposed in this view. Slots
        // from dead views do not count (they can never gather prepares
        // here), and a slot *below* the in-flight tip is a hole a view
        // change left behind: it must be re-proposed for the committed
        // prefix to become contiguous again.
        let mut next_seq = 0;
        for seq in self.max_committed + 1..=self.max_committed + window {
            if self
                .pre_prepares
                .get(&seq)
                .is_none_or(|(v, _, _)| *v != self.view)
            {
                next_seq = seq;
                break;
            }
        }
        if next_seq == 0 {
            return; // window full
        }
        let rows: Vec<AruRow> = self.latest_rows.values().cloned().collect();
        if (rows.len() as u32) < self.active_ordering_quorum() {
            return;
        }
        // Filling a hole is unconditional (liveness); opening a new tip
        // slot must advance coverage past everything already promised.
        if next_seq > in_flight_tip {
            let mut cover = vec![0u64; n];
            fold(&mut cover, &rows);
            if cover.iter().zip(covered.iter()).all(|(c, p)| c <= p) {
                return;
            }
        }
        self.last_pp_at = now;
        self.propose_matrix(next_seq, rows, now, out);
    }

    pub(super) fn propose_matrix(
        &mut self,
        seq: u64,
        matrix: Vec<AruRow>,
        now: SimTime,
        out: &mut Vec<OutEvent>,
    ) {
        let digest = Self::matrix_digest(&matrix);
        let view = self.view;
        self.stats.proposals += 1;
        self.pre_prepares
            .insert(seq, (view, matrix.clone(), digest));
        if !self.trace_phase.contains_key(&seq) {
            self.trace_ordering_phase(seq, obs::Stage::PrimePrePrepare);
        }
        // The leader counts as prepared implicitly; it still must collect
        // the quorum of Prepares from followers.
        let msg = self.sign(PrimeMsg::PrePrepare { view, seq, matrix });
        out.push(OutEvent::Broadcast(msg));
        let _ = now;
    }

    /// Buffers one chunk of a chunked catch-up transfer, keyed by
    /// sender. The chunks carry no signature of their own beyond the
    /// envelope; integrity is enforced end-to-end, because the installed
    /// snapshot must reproduce the `app_digest` that f+1 senders agreed
    /// on (`on_catchup_reply`), so corrupt or missing chunks discard the
    /// offer group exactly like a corrupt monolithic snapshot.
    pub(super) fn on_catchup_chunk(
        &mut self,
        from: ReplicaId,
        exec_seq: u64,
        index: u32,
        count: u32,
        data: Vec<u8>,
    ) {
        if !self.catching_up || count == 0 || index >= count {
            return;
        }
        let entry = self
            .catchup_chunks
            .entry(from.0)
            .or_insert_with(|| (exec_seq, count, BTreeMap::new()));
        if entry.0 != exec_seq || entry.1 != count {
            // A newer transfer from the same sender supersedes the old
            // buffer; a stale chunk for an older one is dropped.
            if exec_seq > entry.0 {
                *entry = (exec_seq, count, BTreeMap::new());
            } else {
                return;
            }
        }
        entry.2.insert(index, data);
    }
}

/// The wait before catch-up retransmission number `attempt + 1`: one plain
/// `base` timeout for the first retry (identical to a non-backoff retry),
/// then doubling per unanswered round, capped at `16 × base` so a long
/// partition cannot push the next retry arbitrarily far past its heal.
pub fn catchup_backoff(base: SimDuration, attempt: u32) -> SimDuration {
    base.saturating_mul(1u64 << attempt.min(4))
}

/// Drops every entry of `map` keyed at or below `floor` with one split,
/// not a walk of the whole map.
fn forget_through<V>(map: &mut BTreeMap<u64, V>, floor: u64) {
    match floor.checked_add(1) {
        Some(above) => *map = map.split_off(&above),
        None => map.clear(),
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use bytes::Bytes;

    use super::*;
    use crate::application::KvApp;
    use crate::harness::Cluster;
    use crate::security_tests::registry_and_keys;
    use crate::types::Config;

    /// Replica 0 of the four-replica configuration (f = 1), every
    /// replica's key, and one client's.
    fn replica<A: Application>(app: A) -> (Replica<A>, Vec<KeyPair>, KeyPair) {
        let config = Config::red_team();
        let (registry, keys, mut clients) = registry_and_keys(config.n(), 1);
        let r = Replica::new(ReplicaId(0), config, keys[0].clone(), registry, app);
        (r, keys, clients.remove(0))
    }

    fn update(client_seq: u64, payload: &str) -> Update {
        Update::new(0, client_seq, Bytes::from(payload.as_bytes().to_vec()))
    }

    /// A key-value application that counts the digests asked of it.
    #[derive(Default)]
    struct CountingApp {
        kv: KvApp,
        digests: Cell<u32>,
    }

    impl Application for CountingApp {
        fn execute(&mut self, update: &Update, exec_seq: u64) {
            self.kv.execute(update, exec_seq);
        }
        fn digest(&self) -> Digest {
            self.digests.set(self.digests.get() + 1);
            self.kv.digest()
        }
        fn snapshot(&self) -> Vec<u8> {
            self.kv.snapshot()
        }
        fn install_snapshot(&mut self, snapshot: &[u8]) {
            self.kv.install_snapshot(snapshot);
        }
    }

    #[test]
    fn a_checkpoint_digests_the_application_once() {
        let (mut r, _, mut client) = replica(CountingApp::default());
        let interval = r.timing.checkpoint_interval;
        for seq in 1..=interval {
            let update = update(seq, &format!("k{seq}=v"));
            let sig = client.sign(&update.to_wire());
            r.po_store
                .insert_if_absent(1, seq, SignedUpdate { update, sig });
            r.exec_plan.push_back((1, seq));
        }
        let mut out = Vec::new();
        r.try_execute(SimTime(0), &mut out);
        assert_eq!(r.exec_seq, interval);
        let announced: Vec<Digest> = out
            .iter()
            .filter_map(|e| match e {
                OutEvent::Broadcast(m) => match m.msg.msg {
                    PrimeMsg::Checkpoint { app_digest, .. } => Some(app_digest),
                    _ => None,
                },
                _ => None,
            })
            .collect();
        assert_eq!(r.app.digests.get(), 1, "one checkpoint, one digest");
        assert_eq!(announced, [r.app.kv.digest()]);
        assert!(
            r.checkpoint_votes[&(interval, announced[0])].contains(&0),
            "the self-vote is for the digest announced"
        );
    }

    #[test]
    fn a_corrupt_snapshot_under_the_honest_digest_leaves_the_state_alone() {
        // What the recovering replica holds, and what its peers are at.
        let (mut r, mut keys, _) = replica(KvApp::new());
        r.app.execute(&update(1, "breaker=closed"), 1);
        r.exec_seq = 1;
        let own = r.app.clone();
        let mut honest = KvApp::new();
        for seq in 1..=5 {
            honest.execute(&update(seq, &format!("k{seq}=v{seq}")), seq);
        }
        let mut corrupt = honest.snapshot();
        *corrupt.last_mut().expect("non-empty") ^= 1;
        let mut offer = |r: &mut Replica<KvApp>, from: u32, snapshot: &[u8]| {
            let reply = PrimeMsg::CatchupReply {
                exec_seq: 5,
                app_digest: honest.digest(),
                snapshot: snapshot.to_vec(),
                next_order_seq: 3,
                exec_cover: vec![0; 4],
                view: 0,
            };
            let signed = SignedMsg::sign(ReplicaId(from), reply, &mut keys[from as usize]);
            r.on_message(signed, SimTime(1))
        };
        let mut out = Vec::new();
        r.request_catchup(SimTime(0), &mut out);

        // The faulty replica offers first, so the group's bytes are its
        // garbage; an honest offer then completes the f + 1.
        offer(&mut r, 3, &corrupt);
        offer(&mut r, 1, &honest.snapshot());
        assert_eq!(r.app, own, "the rejected group left the state as it was");
        assert_eq!(r.exec_seq(), 1);
        assert!(r.is_catching_up());

        // The group was dropped whole: the next one starts from an honest
        // offer and installs.
        offer(&mut r, 1, &honest.snapshot());
        let installed = offer(&mut r, 2, &honest.snapshot());
        assert_eq!(r.app, honest);
        assert_eq!(r.exec_seq(), 5);
        assert!(!r.is_catching_up());
        assert!(installed
            .iter()
            .any(|e| matches!(e, OutEvent::StateTransferInstalled { exec_seq: 5 })));
    }

    /// The retention runs' cadence: the benchmark's deployments', with a
    /// checkpoint every `CHECKPOINT` executions.
    const CHECKPOINT: u64 = 20;
    const SOAK_TIMING: Timing = Timing {
        aru_interval: SimDuration::from_millis(10),
        pp_interval: SimDuration::from_millis(10),
        suspect_timeout: SimDuration::from_millis(2_000),
        checkpoint_interval: CHECKPOINT,
        catchup_timeout: SimDuration::from_millis(300),
    };

    /// What a retention run does to replica 5 besides loading it.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Fault {
        None,
        /// Cut off for the whole run: its PO-ARU row never arrives.
        Partitioned,
        /// Proactively recovered halfway through.
        Recovered,
    }

    /// Six plant replicas order `updates` from one client at 800/s over
    /// 64 keys, then drain, all executing every update. Returns each
    /// replica's largest table sizes, sampled every 10 ms.
    fn soak(config: Config, updates: u64, fault: Fault) -> Vec<Retained> {
        let config = Config {
            transfer_dedup: fault == Fault::Recovered,
            ..config
        };
        let mut c = Cluster::new(config, 1);
        c.set_timing(SOAK_TIMING);
        if fault == Fault::Partitioned {
            c.partitioned.insert(5);
        }
        let mut peak = vec![Retained::default(); c.replicas.len()];
        let mut run = |c: &mut Cluster, ms: u64| {
            for _ in 0..ms / 10 {
                c.run_for(SimDuration::from_millis(10));
                for (peak, r) in peak.iter_mut().zip(&c.replicas) {
                    let held = r.retained();
                    peak.slots = peak.slots.max(held.slots);
                    peak.batches = peak.batches.max(held.batches);
                    peak.envelopes = peak.envelopes.max(held.envelopes);
                    peak.ordering = peak.ordering.max(held.ordering);
                }
            }
        };
        for i in 0..updates {
            if fault == Fault::Recovered && i == updates / 2 {
                c.recover_replica(ReplicaId(5));
            }
            c.submit(0, format!("k{}=v{i}", i % 64));
            if i % 8 == 7 {
                run(&mut c, 10);
            }
        }
        run(&mut c, 2_000);
        assert_eq!(c.min_executed(), updates, "{fault:?}");
        c.assert_consistent();
        peak
    }

    /// One window: every origin's slots for the checkpoints a replica
    /// may keep — the escape's `RETAIN_CHECKPOINTS`, the one being taken,
    /// the one before it, and one a recovered replica spends catching up
    /// before its marks restart.
    fn window(config: Config) -> usize {
        (RETAIN_CHECKPOINTS + 3) * CHECKPOINT as usize * config.n() as usize
    }

    /// No replica ever holds more than one window in any table, whatever
    /// the run's length: without truncation the slots alone reach
    /// `updates × n`.
    fn assert_retention_bounded(config: Config, updates: u64, fault: Fault) {
        let window = window(config);
        for (id, peak) in soak(config, updates, fault).iter().enumerate() {
            assert!(
                peak.slots <= window
                    && peak.envelopes <= window
                    && peak.batches <= window
                    && peak.ordering <= window,
                "r{id} over {updates} updates ({fault:?}, batch_max {}) held {peak:?}, \
                 more than a window of {window}",
                config.batch_max,
            );
        }
    }

    #[test]
    fn retention_is_bounded_on_the_batched_path() {
        for updates in [2_000, 8_000] {
            assert_retention_bounded(Config::plant().with_batching(16, 4), updates, Fault::None);
        }
    }

    #[test]
    fn retention_is_bounded_on_the_per_update_path() {
        for updates in [2_000, 8_000] {
            assert_retention_bounded(Config::plant(), updates, Fault::None);
        }
    }

    /// A replica that never speaks leaves every peer's ARU gate shut; the
    /// `RETAIN_CHECKPOINTS` escape still bounds them.
    #[test]
    fn retention_is_bounded_with_a_replica_partitioned_throughout() {
        assert_retention_bounded(
            Config::plant().with_batching(16, 4),
            2_000,
            Fault::Partitioned,
        );
        assert_retention_bounded(Config::plant(), 2_000, Fault::Partitioned);
    }

    /// A recovered replica starts from an empty store, catches up, and
    /// truncates again; its peers keep truncating around it.
    #[test]
    fn retention_is_bounded_across_a_proactive_recovery() {
        assert_retention_bounded(
            Config::plant().with_batching(16, 4),
            2_000,
            Fault::Recovered,
        );
        assert_retention_bounded(Config::plant(), 2_000, Fault::Recovered);
    }

    /// The CI soak (release only: `cargo test --release -p prime --
    /// --ignored retention`).
    #[test]
    #[ignore = "release-mode soak, run by ci/check.sh"]
    fn retention_is_bounded_over_a_100k_update_soak() {
        assert_retention_bounded(Config::plant().with_batching(16, 4), 100_000, Fault::None);
    }

    /// Input a replica has forgotten the context of — a pre-order slot,
    /// a batch, a PoRequest, an ordering message for a truncated
    /// sequence — does nothing: no event, no table regrows, no counter
    /// moves. A PoFetch for a forgotten slot goes unanswered.
    #[test]
    fn stale_input_after_truncation_is_a_no_op() {
        for config in [Config::plant().with_batching(16, 4), Config::plant()] {
            let mut c = Cluster::new(config, 1);
            c.set_timing(SOAK_TIMING);
            for i in 0..64 {
                c.submit(0, format!("k{i}=v"));
                if i % 8 == 7 {
                    c.run_for(SimDuration::from_millis(10));
                }
            }
            c.run_for(SimDuration::from_millis(500));
            // What replica 1 sent and what replica 0 proposed early on.
            let origin = ReplicaId(1);
            let mut stale = Vec::new();
            let fetched = if config.batch_max > 0 {
                let (&first, batch) = c.replicas[1].po_batches[1]
                    .first_key_value()
                    .expect("replica 1 sent a batch");
                let batch = batch.clone();
                let member = c.replicas[1]
                    .batch_member_reply(origin, first)
                    .expect("a member of its own batch");
                stale.push(member.msg);
                stale.push(c.replicas[1].sign(PrimeMsg::PoRequestBatch { batch }).msg);
                first
            } else {
                let (&po_seq, request) = c.replicas[1].po_envelopes[1]
                    .first_key_value()
                    .expect("replica 1 sent a PoRequest");
                stale.push(request.clone());
                po_seq
            };
            let (&seq, (view, matrix, digest)) = c.replicas[0]
                .pre_prepares
                .first_key_value()
                .expect("replica 0 proposed");
            let (view, matrix, digest) = (*view, matrix.clone(), *digest);
            stale.push(
                c.replicas[0]
                    .sign(PrimeMsg::PrePrepare { view, seq, matrix })
                    .msg,
            );
            for from in [1, 3] {
                let r = &mut c.replicas[from];
                stale.push(r.sign(PrimeMsg::Prepare { view, seq, digest }).msg);
                stale.push(r.sign(PrimeMsg::Commit { view, seq, digest }).msg);
            }
            let fetch = c.replicas[3].sign(PrimeMsg::PoFetch {
                origin,
                po_seq: fetched,
            });

            for i in 64..1_000 {
                c.submit(0, format!("k{}=v{i}", i % 64));
                if i % 8 == 7 {
                    c.run_for(SimDuration::from_millis(10));
                }
            }
            c.run_for(SimDuration::from_secs(1));
            let now = c.now();
            let r = &mut c.replicas[2];
            assert!(r.po_store.is_forgotten(origin.0, fetched) && seq <= r.order_floor);
            let (held, stats) = (r.retained(), r.stats);
            for msg in stale {
                let what = format!("{:?}", msg.msg.prof_stack());
                assert!(r.on_message(msg, now).is_empty(), "{what} produced events");
                assert_eq!(r.retained(), held, "{what} regrew a table");
                assert_eq!(r.stats, stats, "{what} moved a counter");
            }
            assert!(
                r.on_message(fetch.msg, now).is_empty(),
                "a forgotten slot is not served"
            );
        }
    }
}

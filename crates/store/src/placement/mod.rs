//! Multi-provider placement: k-of-n erasure striping over child
//! backends.
//!
//! One pseudonymous cloud account is both a single point of failure
//! and a single point of surveillance. [`PlacementStore`] removes both
//! by striping every sealed object across N child [`ObjectBackend`]s
//! as k-of-n Reed–Solomon shards ([`gf256`]), each wrapped in a
//! hash-verified [`shard`] (`NYMP`) header. No child ever holds enough
//! to reconstruct an object on its own (for `k > 1`), and no single
//! child outage, throttle or lie can make one unreachable.
//!
//! # The degraded-read / repair / fail-closed model
//!
//! * **Reads** fetch shards child by child, verify each shard's hash
//!   *before* it is allowed anywhere near the decoder, group verified
//!   shards by the whole-object hash embedded in every header (so a
//!   byzantine child serving a stale-but-genuine shard can never mix
//!   versions into one decode), and reconstruct from the first k
//!   verified, version-consistent shards. The decoded bytes are
//!   checked against the object hash once more before they are
//!   returned. Fewer than k verified shards → the read **fails
//!   closed**; bytes are never fabricated from an unverified quorum.
//! * **Absence** is only reported when enough children answer
//!   authoritatively: `Ok(None)` requires at least `n − k + 1` children
//!   to report the object absent — any smaller set is consistent with
//!   the object existing on the unreachable children, so the read
//!   fails [`BackendError::Unavailable`] instead of silently
//!   truncating a delta chain.
//! * **Writes** (`apply_batch`, and `put` as a one-object batch) send
//!   each of the n children one batch of its shards and the batch's
//!   deletes, and track per-child outcomes. [`BackendError::Denied`]
//!   from any child fails the whole operation closed (refused
//!   credentials are not an availability problem). Other failures
//!   degrade: if at least k children accepted, the write **succeeds**
//!   and the missing shards are queued for [`PlacementStore::repair`];
//!   below k the write fails (`Unavailable` when any child was
//!   unreachable). Deletes that miss a child are queued the same way,
//!   so a recovered child's stale shard cannot resurrect a deleted
//!   object.
//! * **Repair** ([`PlacementStore::repair`]) re-reads *only* the
//!   degraded objects, re-encodes them, and re-materializes exactly
//!   the missing shards (and flushes pending deletes), restoring full
//!   n-shard redundancy. Degraded reads feed the same queue: a shard
//!   found absent, corrupt or stale during a successful read is queued
//!   for re-materialization.
//!
//! The `k = 1` degenerate case is n-way mirroring; see [`gf256`] for
//! the coding scheme and [`crate::archive`] for the `NYMP` wire
//! format.

pub mod gf256;
pub mod shard;

use std::collections::{BTreeMap, BTreeSet};

use nymix_net::Ip;
use nymix_sim::SimDuration;

use crate::backend::{BackendError, ObjectBackend};
use crate::cloud::{CloudProvider, CloudSession};

/// What one [`PlacementStore::repair`] pass accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RepairReport {
    /// Missing/stale shards successfully re-materialized.
    pub shards_rebuilt: usize,
    /// Queued deletes successfully flushed to recovered children.
    pub deletes_flushed: usize,
    /// Degraded objects that could not be read back (left queued).
    pub objects_unrecovered: usize,
    /// Shards still missing after the pass (left queued).
    pub shards_still_missing: usize,
}

/// Shards of one object version, keyed by the header's
/// `(object_len, object_hash)` — the version-consistency anchor.
type GroupKey = (u64, [u8; 32]);

/// A successful degraded-or-healthy read, before it reaches the
/// caller: the reconstructed bytes plus the children whose shard was
/// absent, corrupt or stale and should be re-materialized.
struct DecodedRead {
    bytes: Vec<u8>,
    refresh: BTreeSet<u8>,
}

/// k-of-n erasure striping over N child backends. See the module docs
/// for the degraded-read / repair / fail-closed model.
pub struct PlacementStore<B> {
    children: Vec<B>,
    k: u8,
    /// object name → children whose shard needs re-materializing.
    repair_queue: BTreeMap<String, BTreeSet<u8>>,
    /// object name → children whose delete has not landed yet.
    pending_deletes: BTreeMap<String, BTreeSet<u8>>,
    read_buf: Vec<u8>,
}

impl<B: ObjectBackend> PlacementStore<B> {
    /// A placement over `children` where any `k` of them reconstruct
    /// every object. `k = 1` is n-way mirroring.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= k <= children.len() <= gf256::MAX_SHARDS`.
    pub fn new(children: Vec<B>, k: usize) -> Self {
        assert!(
            (1..=children.len()).contains(&k) && children.len() <= gf256::MAX_SHARDS,
            "invalid placement config k={k} n={}",
            children.len()
        );
        Self {
            children,
            k: k as u8,
            repair_queue: BTreeMap::new(),
            pending_deletes: BTreeMap::new(),
            read_buf: Vec::new(),
        }
    }

    /// Stripes needed to reconstruct an object.
    pub fn k(&self) -> usize {
        self.k as usize
    }

    /// Total children (shards per object).
    pub fn n(&self) -> usize {
        self.children.len()
    }

    /// Stored-bytes amplification of this redundancy level (n / k).
    pub fn redundancy_overhead(&self) -> f64 {
        self.n() as f64 / self.k() as f64
    }

    /// The child backends.
    pub fn children(&self) -> &[B] {
        &self.children
    }

    /// Mutable access to child `i` (tests arm faults through this).
    pub fn child_mut(&mut self, i: usize) -> &mut B {
        &mut self.children[i]
    }

    /// Shards currently queued for re-materialization.
    pub fn pending_repairs(&self) -> usize {
        self.repair_queue.values().map(BTreeSet::len).sum()
    }

    /// Object names with missing shards, in name order.
    #[cfg(test)]
    fn queued_objects(&self) -> Vec<String> {
        self.repair_queue.keys().cloned().collect()
    }

    /// Deletes queued for children that were unreachable when the
    /// delete ran.
    fn pending_delete_count(&self) -> usize {
        self.pending_deletes.values().map(BTreeSet::len).sum()
    }

    /// Objects stored on each child (shard counts, by child index).
    /// Full redundancy means every entry equals every other.
    // lint:allow(test-only-pub): nymix's manager scenarios check full redundancy across children with it
    pub fn shard_counts(&mut self) -> Result<Vec<usize>, BackendError> {
        let mut counts = Vec::with_capacity(self.children.len());
        for child in &mut self.children {
            let mut names = Vec::new();
            child.list(&mut names)?;
            counts.push(names.len());
        }
        Ok(counts)
    }

    fn encode_object(&self, name: &str, data: &[u8]) -> Vec<Vec<u8>> {
        let (k, n) = (self.k as usize, self.children.len());
        let oh = shard::object_hash(data);
        gf256::encode(data, k, n)
            .iter()
            .enumerate()
            .map(|(i, payload)| {
                shard::encode_shard(
                    name,
                    i as u8,
                    self.k,
                    n as u8,
                    data.len() as u64,
                    &oh,
                    payload,
                )
            })
            .collect()
    }

    /// Settles one fan-out write: per-child outcomes become quorum
    /// success (missing shards queued) or closed failure. A failed
    /// batch leaves both queues exactly as they were.
    fn settle_writes(
        &mut self,
        put_names: &[String],
        delete_names: &[String],
        outcomes: Vec<Result<(), BackendError>>,
    ) -> Result<(), BackendError> {
        let _span = nymix_obs::span!("quorum_wait", "objects" => put_names.len());
        let (k, n) = (self.k as usize, self.children.len());
        let mut landed: Vec<u8> = Vec::new();
        let mut failed: Vec<u8> = Vec::new();
        let mut saw_unreachable = false;
        let mut detail = String::new();
        for (ci, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                Ok(()) => {
                    nymix_obs::counter!("placement.shard_writes", put_names.len());
                    landed.push(ci as u8);
                }
                Err(BackendError::Denied) => return Err(BackendError::Denied),
                Err(e) => {
                    nymix_obs::counter!("placement.shard_failures", put_names.len());
                    saw_unreachable |=
                        matches!(e, BackendError::Unavailable(_) | BackendError::Transient(_));
                    detail = e.to_string();
                    failed.push(ci as u8);
                }
            }
        }
        if n - failed.len() < k {
            let msg = format!(
                "{} of {n} children accepted (need {k}): {detail}",
                n - failed.len()
            );
            return Err(if saw_unreachable {
                BackendError::Unavailable(msg)
            } else {
                BackendError::Other(msg)
            });
        }
        // A landed write supersedes any delete still queued for its
        // child; flushing it later would destroy the fresh shard.
        for ci in landed {
            for name in put_names {
                if let Some(set) = self.pending_deletes.get_mut(name) {
                    set.remove(&ci);
                    if set.is_empty() {
                        self.pending_deletes.remove(name);
                    }
                }
            }
        }
        // A delete retires the object logically even when some child
        // still holds a shard — queue the stragglers, drop any repair
        // work for a name that no longer exists.
        for name in delete_names {
            self.repair_queue.remove(name);
        }
        for ci in failed {
            for name in put_names {
                self.repair_queue
                    .entry(name.clone())
                    .or_default()
                    .insert(ci);
            }
            for name in delete_names {
                self.pending_deletes
                    .entry(name.clone())
                    .or_default()
                    .insert(ci);
            }
        }
        self.publish_queue_gauges();
        Ok(())
    }

    /// Publishes the repair/delete backlog depths as obs gauges (only
    /// when the recorder is on — the depths are O(queue) to compute).
    fn publish_queue_gauges(&self) {
        if nymix_obs::enabled() {
            nymix_obs::gauge!("placement.repair_queue", self.pending_repairs());
            nymix_obs::gauge!("placement.pending_deletes", self.pending_delete_count());
        }
    }

    /// Fetches, verifies and reconstructs one object. Pure with
    /// respect to the queues — callers decide what to queue from
    /// `refresh` — so [`PlacementStore::repair`] can reuse it without
    /// re-queueing its own reads.
    fn fetch_decoded(&mut self, name: &str) -> Result<Option<DecodedRead>, BackendError> {
        let (k, n) = (self.k as usize, self.children.len());
        let ignore: BTreeSet<u8> = self.pending_deletes.get(name).cloned().unwrap_or_default();
        let queued: BTreeSet<u8> = self.repair_queue.get(name).cloned().unwrap_or_default();
        // Verified shards per object version; each entry keeps its
        // first shard per distinct index: (index, child, payload).
        let mut groups: BTreeMap<GroupKey, Vec<(u8, u8, Vec<u8>)>> = BTreeMap::new();
        // Children whose shard was absent, corrupt, or stale.
        let mut bad: BTreeSet<u8> = BTreeSet::new();
        // Children proven not to hold a live shard: a pending delete,
        // or an "absent" answer from a child with no queued repair for
        // this object (every write a child missed *is* queued, so a
        // clean child answering "absent" rules the object out).
        let mut strong_absent = 0usize;
        // Children whose live-shard status is known at all (answered,
        // or logically deleted) — the denominator absence is judged
        // against when some children are unreachable.
        let mut determined = 0usize;
        let mut unreachable = 0usize;
        for ci in 0..n {
            if ignore.contains(&(ci as u8)) {
                // This child's shard is scheduled for deletion; letting
                // it vote would resurrect a deleted object.
                strong_absent += 1;
                determined += 1;
                continue;
            }
            let ready = match self.children[ci].get(name) {
                Ok(None) => {
                    if !queued.contains(&(ci as u8)) {
                        strong_absent += 1;
                    }
                    determined += 1;
                    bad.insert(ci as u8);
                    false
                }
                Ok(Some(blob)) => {
                    determined += 1;
                    match shard::decode_shard(blob, name) {
                        Ok((hdr, payload))
                            if hdr.k == self.k && hdr.n as usize == n && hdr.index < hdr.n =>
                        {
                            let key = (hdr.object_len, hdr.object_hash);
                            let group = groups.entry(key).or_default();
                            if !group.iter().any(|&(idx, _, _)| idx == hdr.index) {
                                group.push((hdr.index, ci as u8, payload.to_vec()));
                            }
                            group.len() >= k
                        }
                        _ => {
                            bad.insert(ci as u8);
                            false
                        }
                    }
                }
                Err(BackendError::Denied) => return Err(BackendError::Denied),
                Err(_) => {
                    // The shard is probably intact, just unreachable —
                    // not repair work, and not an authoritative absence.
                    unreachable += 1;
                    false
                }
            };
            if ready {
                // A full quorum of one version: the healthy path reads
                // exactly k children.
                break;
            }
        }
        // Decode the best-supported version first: more children
        // agreeing beats the arbitrary map order when a byzantine
        // minority pushes a stale version.
        let mut versions: Vec<_> = groups.iter().collect();
        versions.sort_by_key(|(_, shards)| std::cmp::Reverse(shards.len()));
        for (key, shards) in versions {
            if shards.len() < k {
                continue;
            }
            let sel: Vec<(usize, &[u8])> = shards
                .iter()
                .map(|(idx, _, payload)| (*idx as usize, payload.as_slice()))
                .collect();
            let Some(bytes) = gf256::reconstruct(&sel, k, key.0 as usize) else {
                continue;
            };
            if shard::object_hash(&bytes) != key.1 {
                continue; // Correct bytes or nothing.
            }
            let winners: BTreeSet<u8> = shards.iter().map(|&(_, ci, _)| ci).collect();
            let mut refresh = bad;
            for shards in groups.values() {
                for &(_, ci, _) in shards {
                    if !winners.contains(&ci) {
                        refresh.insert(ci); // stale-version contributor
                    }
                }
            }
            return Ok(Some(DecodedRead { bytes, refresh }));
        }
        // No version reached a verified quorum. Absence is
        // authoritative when enough children *proved* they hold no
        // live shard: n−k+1 proofs normally (so no lone lying child
        // can truncate a delta chain), relaxed to "every child whose
        // status is knowable" when outages leave fewer than that —
        // an unreachable child with no queued repair would hold
        // exactly what its reachable peers hold, so their unanimous
        // "absent" settles it.
        let needed = (n - k + 1).min(determined).max(1);
        if strong_absent >= needed {
            return Ok(None);
        }
        if unreachable > 0 {
            return Err(BackendError::Unavailable(format!(
                "fewer than {k} verified shards for {name}: {unreachable} of {n} children unreachable"
            )));
        }
        Err(BackendError::Other(format!(
            "fewer than {k} verified shards for {name}: object present but unreconstructable"
        )))
    }

    /// Flushes pending deletes and re-materializes every queued shard,
    /// re-reading **only** the degraded objects. Each child gets at
    /// most two writes: one batch of its pending deletes, then one
    /// batch of its rebuilt shards. Children that are still failing
    /// leave their entries queued for the next pass; repair itself
    /// never fails the store.
    pub fn repair(&mut self) -> RepairReport {
        let _span = nymix_obs::span!("repair");
        nymix_obs::counter!("placement.repair_passes", 1u64);
        let mut report = RepairReport::default();
        let n = self.children.len();
        // Deletes first: a queued delete and a queued re-materialize
        // for the same (object, child) must not land new-then-delete.
        let mut deletes: Vec<Vec<String>> = vec![Vec::new(); n];
        for (name, children) in std::mem::take(&mut self.pending_deletes) {
            for ci in children {
                deletes[ci as usize].push(name.clone());
            }
        }
        for (ci, names) in deletes.into_iter().enumerate() {
            if names.is_empty() {
                continue;
            }
            match self.children[ci].apply_batch(Vec::new(), names.clone()) {
                Ok(()) => report.deletes_flushed += names.len(),
                Err(_) => {
                    for name in names {
                        self.pending_deletes
                            .entry(name)
                            .or_default()
                            .insert(ci as u8);
                    }
                }
            }
        }
        let mut shards: Vec<Vec<(String, Vec<u8>)>> = vec![Vec::new(); n];
        for (name, mut missing) in std::mem::take(&mut self.repair_queue) {
            match self.fetch_decoded(&name) {
                Ok(Some(decoded)) => {
                    // Anything found degraded during the read joins
                    // this pass instead of waiting for the next one.
                    missing.extend(decoded.refresh.iter().copied());
                    let mut encoded = self.encode_object(&name, &decoded.bytes);
                    for ci in missing {
                        let shard = std::mem::take(&mut encoded[ci as usize]);
                        shards[ci as usize].push((name.clone(), shard));
                    }
                }
                // The object no longer exists; nothing to rebuild.
                Ok(None) => {}
                Err(_) => {
                    report.objects_unrecovered += 1;
                    report.shards_still_missing += missing.len();
                    self.repair_queue.insert(name, missing);
                }
            }
        }
        for (ci, batch) in shards.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            let names: Vec<String> = batch.iter().map(|(name, _)| name.clone()).collect();
            if self.children[ci].apply_batch(batch, Vec::new()).is_ok() {
                report.shards_rebuilt += names.len();
            } else {
                report.shards_still_missing += names.len();
                for name in names {
                    self.repair_queue.entry(name).or_default().insert(ci as u8);
                }
            }
        }
        nymix_obs::counter!("placement.shards_rebuilt", report.shards_rebuilt);
        nymix_obs::counter!("placement.deletes_flushed", report.deletes_flushed);
        self.publish_queue_gauges();
        report
    }
}

impl<B: ObjectBackend> ObjectBackend for PlacementStore<B> {
    /// One batch per child — the round-trip amortization survives the
    /// fan-out. A child that fails its batch is conservatively assumed
    /// to have landed none of it (the trait only promises a prefix),
    /// so every object of the batch is queued for repair on that child.
    fn apply_batch(
        &mut self,
        puts: Vec<(String, Vec<u8>)>,
        deletes: Vec<String>,
    ) -> Result<(), BackendError> {
        let _span = nymix_obs::span!("shard_write", "objects" => puts.len());
        let n = self.children.len();
        let mut per_child: Vec<Vec<(String, Vec<u8>)>> =
            (0..n).map(|_| Vec::with_capacity(puts.len())).collect();
        let put_names: Vec<String> = puts.iter().map(|(name, _)| name.clone()).collect();
        for (name, data) in &puts {
            for (ci, blob) in self.encode_object(name, data).into_iter().enumerate() {
                per_child[ci].push((name.clone(), blob));
            }
        }
        let outcomes: Vec<Result<(), BackendError>> = per_child
            .into_iter()
            .enumerate()
            .map(|(ci, batch)| self.children[ci].apply_batch(batch, deletes.clone()))
            .collect();
        self.settle_writes(&put_names, &deletes, outcomes)
    }

    fn get(&mut self, name: &str) -> Result<Option<&[u8]>, BackendError> {
        match self.fetch_decoded(name)? {
            Some(decoded) => {
                if !decoded.refresh.is_empty() {
                    self.repair_queue
                        .entry(name.to_string())
                        .or_default()
                        .extend(decoded.refresh.iter().copied());
                }
                self.read_buf = decoded.bytes;
                Ok(Some(&self.read_buf))
            }
            None => Ok(None),
        }
    }

    /// The union of child listings. Complete as long as no more than
    /// `n − k` children are unreachable (every object has at least k
    /// shards, so some reachable child lists it); beyond that the
    /// listing fails closed rather than silently omitting objects.
    fn list(&mut self, out: &mut Vec<String>) -> Result<(), BackendError> {
        let (k, n) = (self.k as usize, self.children.len());
        let mut names = BTreeSet::new();
        let mut failures = 0usize;
        for child in &mut self.children {
            let mut child_names = Vec::new();
            match child.list(&mut child_names) {
                Ok(()) => names.extend(child_names),
                Err(BackendError::Denied) => return Err(BackendError::Denied),
                Err(_) => failures += 1,
            }
        }
        if failures > n - k {
            return Err(BackendError::Unavailable(format!(
                "{failures} of {n} children unreachable: listing would be incomplete"
            )));
        }
        out.extend(names);
        Ok(())
    }
}

/// Striped cloud children: each is one owned provider behind a
/// long-lived session, observed (access-logged) at the provider with
/// the anonymizer exit the manager routes striped traffic through.
impl PlacementStore<CloudSession<CloudProvider>> {
    /// Routes every child's traffic through `exit` (what the providers
    /// observe).
    pub fn set_observed_ip(&mut self, exit: Ip) {
        for child in &mut self.children {
            child.set_observed_ip(exit);
        }
    }

    /// Drains simulated retry backoff accrued across all children.
    pub fn take_accrued_backoff(&mut self) -> SimDuration {
        let mut total = SimDuration::ZERO;
        for child in &mut self.children {
            total = total.saturating_add(child.take_accrued_backoff());
        }
        total
    }

    /// The child provider named `name`, if present.
    pub fn provider(&self, name: &str) -> Option<&CloudProvider> {
        self.children
            .iter()
            .map(CloudSession::provider)
            .find(|p| p.name() == name)
    }

    /// Mutable access to the child provider named `name`.
    pub fn provider_mut(&mut self, name: &str) -> Option<&mut CloudProvider> {
        self.children
            .iter_mut()
            .map(CloudSession::provider_mut)
            .find(|p| p.name() == name)
    }
}

#[cfg(test)]
mod tests;

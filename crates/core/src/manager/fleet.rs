//! The **fleet** layer: many nyms, one deterministic schedule.
//!
//! The paper's architecture is many independent nyms per user; this
//! module is what runs them *together*. Two pieces:
//!
//! * [`NymManager::save_nyms_incremental`] — the batched store-nym
//!   entry point. All requested sessions move through the store
//!   pipeline as one run: one save job per nym (capture, chunk, seal)
//!   on a shared worker pool (each job owns its session's scratch,
//!   RNG, chunk cache and chain keys, so the jobs share nothing and
//!   the output is bit-identical to a serial run), and one
//!   `apply_batch` upload per destination. The
//!   simulation clock advances once, by the *concurrent* completion
//!   time of the batch — N nyms saving together cost the wall time of
//!   the slowest transfer, not the sum.
//!
//! * [`NymFleet`] — a deterministic round-robin driver over a set of
//!   sessions. Every round visits (or saves) each nym in creation
//!   order; all randomness flows from the manager's world RNG and the
//!   sessions' forked nonce RNGs, so a fleet run is reproducible
//!   byte-for-byte from the manager's seed regardless of how many
//!   threads ran the save jobs.
//!
//! Determinism rule: fleet operations never consult wall-clock time or
//! OS scheduling. Thread-level parallelism exists only in the save
//! jobs, which are data-independent; results are reassembled in
//! request order before anything touches shared state.

use nymix_anon::AnonymizerKind;
use nymix_sim::SimDuration;
use nymix_workload::Site;

use super::pipeline::{save_many, SaveRequest};
use super::{NymId, NymManager, NymManagerError, SaveKind, StorageDest};
use crate::nymbox::UsageModel;
use crate::timing::StartupBreakdown;

/// One nym's slot in a batched fleet save.
pub struct FleetSaveRequest<'a> {
    /// The nym to save.
    pub id: NymId,
    /// Its sealing password.
    pub password: &'a str,
    /// Where its chain lives.
    pub dest: &'a StorageDest,
}

impl NymManager {
    /// Incremental store-nym over any number of sessions at once — the
    /// batched counterpart of [`NymManager::save_nym_incremental`],
    /// returning per-request `(kind, uploaded bytes, duration)` in
    /// request order.
    ///
    /// Each session keeps its own chain semantics (delta when its
    /// chain can absorb one, full compaction otherwise); the batch
    /// shares only the pipeline's worker threads — one save job per
    /// nym, with its own chunk cache, RNG and keys — and one backend
    /// round trip per destination. The clock advances by the batch's
    /// concurrent completion time.
    ///
    /// A batch that names one nym twice fails with
    /// [`NymManagerError::DuplicateNym`], and one that holds two nyms
    /// of one name saved to one destination fails with
    /// [`NymManagerError::DuplicateLabel`], before anything is listed
    /// or captured.
    pub fn save_nyms_incremental(
        &mut self,
        reqs: &[FleetSaveRequest<'_>],
    ) -> Result<Vec<(SaveKind, usize, SimDuration)>, NymManagerError> {
        let requests: Vec<SaveRequest<'_>> = reqs
            .iter()
            .map(|r| SaveRequest {
                id: r.id,
                password: r.password,
                dest: r.dest,
                allow_delta: true,
            })
            .collect();
        let outcomes = save_many(&mut self.env, &mut self.sessions, requests)?;
        if let Some(last) = outcomes.last() {
            self.last_save_breakdown = Some(last.breakdown);
        }
        Ok(outcomes
            .into_iter()
            .map(|o| (o.kind, o.uploaded, o.duration))
            .collect())
    }
}

/// A deterministic driver for N concurrent sessions: spawn them
/// together, interleave their browsing round-robin over sim time, and
/// snapshot them through the batched pipeline.
pub struct NymFleet {
    ids: Vec<NymId>,
    names: Vec<String>,
}

impl NymFleet {
    /// Spawns `count` nyms named `{prefix}-{i}` in creation order.
    /// Fails on the first admission refusal (fleet size is bounded by
    /// host RAM — see [`NymManager::with_host_ram`]).
    pub fn spawn(
        manager: &mut NymManager,
        prefix: &str,
        count: usize,
        kind: AnonymizerKind,
        model: UsageModel,
    ) -> Result<Self, NymManagerError> {
        let mut ids = Vec::with_capacity(count);
        let mut names = Vec::with_capacity(count);
        for i in 0..count {
            let name = format!("{prefix}-{i}");
            let (id, _) = manager.create_nym(&name, kind, model)?;
            ids.push(id);
            names.push(name);
        }
        Ok(Self { ids, names })
    }

    /// The fleet's nym ids, in creation order.
    pub fn ids(&self) -> &[NymId] {
        &self.ids
    }

    /// The fleet's nym names, in creation order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// One browsing round: every session visits `site_for(its index)`,
    /// in creation order. Returns the page-load times.
    pub fn visit_round(
        &self,
        manager: &mut NymManager,
        mut site_for: impl FnMut(usize) -> Site,
    ) -> Result<Vec<SimDuration>, NymManagerError> {
        self.ids
            .iter()
            .enumerate()
            .map(|(i, id)| {
                let mut span = nymix_obs::span!("browse", "session" => id.0);
                let duration = manager.visit_site(*id, site_for(i))?;
                span.add_modeled_us(duration.0);
                nymix_obs::sim_clock(manager.env.clock.as_micros());
                Ok(duration)
            })
            .collect()
    }

    /// One snapshot round through the batched pipeline: every session
    /// saves to `dest_for(its index)` under `password`.
    pub fn save_round(
        &self,
        manager: &mut NymManager,
        password: &str,
        dest_for: impl Fn(usize) -> StorageDest,
    ) -> Result<Vec<(SaveKind, usize, SimDuration)>, NymManagerError> {
        let dests: Vec<StorageDest> = (0..self.ids.len()).map(dest_for).collect();
        let reqs: Vec<FleetSaveRequest<'_>> = self
            .ids
            .iter()
            .zip(&dests)
            .map(|(id, dest)| FleetSaveRequest {
                id: *id,
                password,
                dest,
            })
            .collect();
        manager.save_nyms_incremental(&reqs)
    }

    /// Destroys every session (amnesia for the whole fleet). Chains
    /// die with their sessions; their objects stay on the destination,
    /// which is where a later save or restore learns their epochs.
    pub fn destroy_all(self, manager: &mut NymManager) -> Result<(), NymManagerError> {
        for id in self.ids {
            manager.destroy_nym(id)?;
        }
        Ok(())
    }

    /// Restores every nym of a destroyed fleet from storage, in
    /// creation order, rebuilding the fleet handle.
    pub fn restore_all(
        manager: &mut NymManager,
        names: &[String],
        kind: AnonymizerKind,
        model: UsageModel,
        password: &str,
        dest_for: impl Fn(usize) -> StorageDest,
    ) -> Result<(Self, Vec<StartupBreakdown>), NymManagerError> {
        let mut ids = Vec::with_capacity(names.len());
        let mut breakdowns = Vec::with_capacity(names.len());
        for (i, name) in names.iter().enumerate() {
            let mut span = nymix_obs::span!("restore", "session" => i);
            let (id, b) = manager.restore_nym(name, kind, model, password, &dest_for(i))?;
            span.add_modeled_us(b.total().0);
            nymix_obs::sim_clock(manager.env.clock.as_micros());
            drop(span);
            ids.push(id);
            breakdowns.push(b);
        }
        Ok((
            Self {
                ids,
                names: names.to_vec(),
            },
            breakdowns,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::manager;
    use super::*;
    use crate::timing::StartupBreakdown;
    use nymix_anon::AnonymizerKind;
    use nymix_workload::Site;

    /// A shared cloud account three nyms store through (labels still
    /// differ per nym name — the account is what the adversary controls).
    fn shared_dest() -> StorageDest {
        StorageDest::Cloud {
            provider: "drive".into(),
            account: "shared-acct".into(),
            credential: "tok".into(),
        }
    }

    /// Objects currently stored under the shared account, by name.
    fn account_objects(m: &NymManager, filter: &str) -> Vec<(String, Vec<u8>)> {
        m.cloud_provider("drive")
            .expect("registered")
            .subpoena("shared-acct")
            .into_iter()
            .filter(|(n, _)| n.contains(filter))
            .map(|(n, d)| (n.to_string(), d.to_vec()))
            .collect()
    }

    fn overwrite_object(m: &mut NymManager, name: &str, data: Vec<u8>) {
        use nymix_store::ObjectBackend;
        let exit = nymix_net::Ip::parse("198.18.0.9");
        m.env
            .cloud
            .get_mut("drive")
            .expect("registered")
            .session("shared-acct", "tok", exit)
            .put(name, data)
            .expect("adversarial overwrite");
    }

    /// Spawns a 3-nym fleet at low browser scale (so disk records chunk),
    /// browses distinct sites, stains each nym with its own marker, and
    /// runs two interleaved batched save rounds over the shared account.
    fn stained_fleet(seed: u64) -> (NymManager, Vec<String>) {
        let mut m = NymManager::new(seed, 8);
        m.register_cloud("drive", "shared-acct", "tok");
        let fleet = NymFleet::spawn(&mut m, "f", 3, AnonymizerKind::Tor, UsageModel::Persistent)
            .expect("capacity for 3 nymboxes");
        let sites = [Site::Twitter, Site::Bbc, Site::Facebook];
        fleet.visit_round(&mut m, |i| sites[i]).expect("live fleet");
        let kinds = fleet
            .save_round(&mut m, "pw", |_| shared_dest())
            .expect("first fleet save");
        assert!(kinds.iter().all(|(k, _, _)| *k == SaveKind::Full));
        for (i, id) in fleet.ids().iter().enumerate() {
            m.inject_stain(*id, &format!("mark-{i}")).unwrap();
        }
        let kinds = fleet
            .save_round(&mut m, "pw", |_| shared_dest())
            .expect("second fleet save");
        assert!(kinds.iter().all(|(k, _, _)| *k == SaveKind::Delta));
        let names = fleet.names().to_vec();
        fleet.destroy_all(&mut m).expect("fleet teardown");
        (m, names)
    }

    fn restore_one(
        m: &mut NymManager,
        name: &str,
    ) -> Result<(NymId, StartupBreakdown), NymManagerError> {
        m.restore_nym(
            name,
            AnonymizerKind::Tor,
            UsageModel::Persistent,
            "pw",
            &shared_dest(),
        )
    }

    #[test]
    fn fleet_interleaved_saves_restore_isolated() {
        let (mut m, names) = stained_fleet(501);
        // Untampered: every nym restores with exactly its own stain.
        for (i, name) in names.iter().enumerate() {
            let (id, breakdown) = restore_one(&mut m, name).expect("clean restore");
            assert!(breakdown.ephemeral_fetch > SimDuration::ZERO);
            assert!(m.has_stain(id, &format!("mark-{i}")).unwrap(), "{name}");
            for other in 0..names.len() {
                if other != i {
                    assert!(
                        !m.has_stain(id, &format!("mark-{other}")).unwrap(),
                        "{name} sees mark-{other}"
                    );
                }
            }
            m.destroy_nym(id).unwrap();
        }
        // The shared provider never saw the user's address across both
        // interleaved rounds and the restores.
        let user_ip = m.public_ip();
        for entry in m.cloud_provider("drive").unwrap().access_log() {
            assert_ne!(entry.observed_ip, user_ip, "provider saw the user");
        }
    }

    #[test]
    fn cross_nym_base_blob_cannot_satisfy_another_restore() {
        let (mut m, names) = stained_fleet(502);
        // The shared account serves nym 0's (valid!) base blob under nym
        // 1's label: every byte authenticates under the chain key, but
        // against the wrong label — restore must refuse.
        let label0 = format!("nym:{}@drive/shared-acct", names[0]);
        let label1 = format!("nym:{}@drive/shared-acct", names[1]);
        let base0 = account_objects(&m, &label0)
            .into_iter()
            .find(|(n, _)| *n == label0)
            .expect("nym 0 base present")
            .1;
        overwrite_object(&mut m, &label1, base0);
        assert!(matches!(
            restore_one(&mut m, &names[1]),
            Err(NymManagerError::Storage(_))
        ));
        // Nym 0 itself is unaffected.
        let (id, _) = restore_one(&mut m, &names[0]).expect("nym 0 intact");
        assert!(m.has_stain(id, "mark-0").unwrap());
    }

    #[test]
    fn cross_nym_chunks_cannot_satisfy_another_restore() {
        let (mut m, names) = stained_fleet(503);
        // Transplant one of nym 0's chunk objects into one of nym 1's
        // chunk slots. Both blobs are individually valid ciphertext, but
        // each chunk is sealed with its own full object name — which
        // embeds the nym's label — as AEAD data, so the transplant fails
        // authentication at the manager level.
        let chunks0 = account_objects(&m, &format!("nym:{}@drive/shared-acct#", names[0]));
        let chunks1 = account_objects(&m, &format!("nym:{}@drive/shared-acct#", names[1]));
        let donor = chunks0
            .iter()
            .find(|(n, _)| n.contains("/c/"))
            .expect("nym 0 stored chunks");
        let victim = chunks1
            .iter()
            .find(|(n, _)| n.contains("/c/"))
            .expect("nym 1 stored chunks");
        overwrite_object(&mut m, &victim.0.clone(), donor.1.clone());
        assert!(matches!(
            restore_one(&mut m, &names[1]),
            Err(NymManagerError::Storage(_))
        ));
        // And a delta transplant: nym 0's delta blob in nym 1's slot.
        let (mut m, names) = stained_fleet(504);
        let delta0 = account_objects(&m, &format!("nym:{}@drive/shared-acct#e1.1", names[0]))
            .pop()
            .expect("nym 0 delta present");
        let slot1 = format!("nym:{}@drive/shared-acct#e1.1", names[1]);
        overwrite_object(&mut m, &slot1, delta0.1);
        assert!(matches!(
            restore_one(&mut m, &names[1]),
            Err(NymManagerError::Storage(_))
        ));
    }

    #[test]
    fn batched_fleet_save_matches_serial_outcomes() {
        // The same fleet saved through the batched pipeline and through
        // serial save_nym_incremental calls must produce the same save
        // kinds and restorable state.
        let mut m = NymManager::new(505, 64);
        let fleet = NymFleet::spawn(&mut m, "s", 3, AnonymizerKind::Tor, UsageModel::Persistent)
            .expect("capacity");
        fleet.visit_round(&mut m, |_| Site::Bbc).unwrap();
        let batched = fleet
            .save_round(&mut m, "pw", |_| StorageDest::Disk)
            .unwrap();
        assert!(batched.iter().all(|(k, _, _)| *k == SaveKind::Full));

        // Serial deltas against the chains the batched save established.
        for (i, id) in fleet.ids().iter().enumerate() {
            m.inject_stain(*id, &format!("serial-{i}")).unwrap();
            let (kind, _, _) = m
                .save_nym_incremental(*id, "pw", &StorageDest::Disk)
                .unwrap();
            assert_eq!(kind, SaveKind::Delta);
        }
        // And batched deltas against serially-extended chains.
        for (i, id) in fleet.ids().iter().enumerate() {
            m.inject_stain(*id, &format!("batch-{i}")).unwrap();
        }
        let reqs: Vec<FleetSaveRequest<'_>> = fleet
            .ids()
            .iter()
            .map(|id| FleetSaveRequest {
                id: *id,
                password: "pw",
                dest: &StorageDest::Disk,
            })
            .collect();
        let outcomes = m.save_nyms_incremental(&reqs).unwrap();
        assert!(outcomes.iter().all(|(k, _, _)| *k == SaveKind::Delta));

        let names = fleet.names().to_vec();
        fleet.destroy_all(&mut m).unwrap();
        for (i, name) in names.iter().enumerate() {
            let (id, _) = m
                .restore_nym(
                    name,
                    AnonymizerKind::Tor,
                    UsageModel::Persistent,
                    "pw",
                    &StorageDest::Disk,
                )
                .expect("restore after mixed serial/batched chain");
            assert!(m.has_stain(id, &format!("serial-{i}")).unwrap());
            assert!(m.has_stain(id, &format!("batch-{i}")).unwrap());
            m.destroy_nym(id).unwrap();
        }
    }

    #[test]
    fn same_label_takeover_forces_compaction() {
        // Two live nyms with the same name fight over one storage label.
        // Whoever saves after the other's full save must fall back to a
        // full save on a fresh epoch — never append deltas to a base it no
        // longer owns.
        let mut m = manager();
        let (a, _) = m
            .create_nym("twin", AnonymizerKind::Tor, UsageModel::Persistent)
            .unwrap();
        let (b, _) = m
            .create_nym("twin", AnonymizerKind::Tor, UsageModel::Persistent)
            .unwrap();
        m.visit_site(a, Site::Bbc).unwrap();
        let (kind, _, _) = m.save_nym_incremental(a, "pw", &StorageDest::Disk).unwrap();
        assert_eq!(kind, SaveKind::Full); // epoch 1
        let (kind, _, _) = m.save_nym_incremental(b, "pw", &StorageDest::Disk).unwrap();
        assert_eq!(kind, SaveKind::Full); // epoch 2: b's listing finds a's epoch
                                          // a's chain is stale now — its next save must compact, not delta.
        m.inject_stain(a, "stale-chain").unwrap();
        let (kind, _, _) = m.save_nym_incremental(a, "pw", &StorageDest::Disk).unwrap();
        assert_eq!(kind, SaveKind::Full); // epoch 3
                                          // The label restores to a's latest state (last full save wins).
        m.destroy_nym(a).unwrap();
        m.destroy_nym(b).unwrap();
        let (id, _) = m
            .restore_nym(
                "twin",
                AnonymizerKind::Tor,
                UsageModel::Persistent,
                "pw",
                &StorageDest::Disk,
            )
            .unwrap();
        assert!(m.has_stain(id, "stale-chain").unwrap());
    }
}

//! Simulated cloud storage providers.
//!
//! §3.5: "By utilizing free-to-use cloud storage options, such as
//! DropBox or Google Drive, a user can create a pseudonymous cloud
//! account for each pseudonym. Because all interactions with the cloud
//! storage are anonymized, the cloud provider learns nothing about the
//! account owner."
//!
//! The provider model therefore records exactly what a real provider
//! would observe — account id, object name, blob bytes, and the *source
//! address of the connection* — so tests can check the deniability
//! claims: blobs are ciphertext, and the observed address is an
//! anonymizer exit, never the user.

use std::borrow::BorrowMut;
use std::collections::{BTreeMap, VecDeque};

use nymix_net::Ip;
use nymix_sim::SimDuration;

use crate::backend::{BackendError, ObjectBackend};

/// Errors from provider operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CloudError {
    /// Unknown account.
    NoSuchAccount,
    /// Wrong account credential.
    BadCredential,
    /// The provider shed load on this write — transient; retry after a
    /// backoff may succeed.
    Throttled,
    /// The provider is down (a scheduled outage): every operation
    /// fails before authentication, and no quick retry helps. Maps to
    /// [`BackendError::Unavailable`], *not* `Transient` — sessions must
    /// not burn their backoff budget hammering a dead provider.
    Unavailable,
}

impl core::fmt::Display for CloudError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CloudError::NoSuchAccount => write!(f, "no such account"),
            CloudError::BadCredential => write!(f, "bad credential"),
            CloudError::Throttled => write!(f, "provider throttled the request"),
            CloudError::Unavailable => write!(f, "provider unavailable"),
        }
    }
}

/// A provider's availability / byzantine state. Exactly one mode is
/// active at a time; [`CloudProvider::heal`] returns to `Healthy`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
enum FaultMode {
    /// Normal operation.
    #[default]
    Healthy,
    /// Down hard: every operation fails [`CloudError::Unavailable`]
    /// until healed.
    Outage,
    /// Persistently shedding write load: every put attempt fails
    /// [`CloudError::Throttled`] until healed (reads still work).
    Throttled,
    /// Byzantine: serves reads from a snapshot taken when the mode was
    /// armed — genuine, hash-valid, *old* bytes. Writes still land (and
    /// are observable once healed); reads just don't reflect them.
    ServeStale,
    /// Byzantine: serves deterministic garbage of the right length for
    /// every stored object.
    ServeGarbage,
}

impl std::error::Error for CloudError {}

/// One observed provider-side event (the provider's access log).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessLogEntry {
    /// Account the operation touched.
    pub account: String,
    /// Operation ("put", "get", "list", "delete").
    pub op: &'static str,
    /// Object name, if applicable.
    pub object: Option<String>,
    /// Source address the provider observed.
    pub observed_ip: Ip,
    /// Blob size, if applicable.
    pub bytes: usize,
}

/// Bound on retained access-log entries per provider.
pub const ACCESS_LOG_CAPACITY: usize = 4096;

/// A bounded, oldest-out ring of [`AccessLogEntry`] observations.
///
/// The unbounded `Vec` it replaces grew by one entry per provider
/// operation forever — a chunked save alone performs dozens of puts, so
/// a long-lived simulation leaked memory linearly in operation count.
/// Real providers rotate logs too; the ring models exactly that: the
/// newest [`ACCESS_LOG_CAPACITY`] entries are retained for the
/// intersection-attack auditing views, older ones fall off the front,
/// and [`AccessLog::total_recorded`] still counts everything ever seen.
#[derive(Debug, Clone)]
pub struct AccessLog {
    entries: VecDeque<AccessLogEntry>,
    /// Lifetime op tally, mirrored into the `cloud.ops` obs counter —
    /// the log's totals are a *view* over the same metric the fleet
    /// snapshot reports.
    total: nymix_obs::Meter,
    /// Entries rotated off the front, mirrored into `cloud.dropped`.
    dropped: nymix_obs::Meter,
}

impl AccessLog {
    fn new() -> Self {
        Self {
            entries: VecDeque::with_capacity(64),
            total: nymix_obs::meter!("cloud.ops"),
            dropped: nymix_obs::meter!("cloud.dropped"),
        }
    }

    fn push(&mut self, entry: AccessLogEntry) {
        if self.entries.len() == ACCESS_LOG_CAPACITY {
            self.entries.pop_front();
            self.dropped.add(1);
        }
        self.entries.push_back(entry);
        self.total.add(1);
    }

    /// Entries currently retained.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The ring's fixed capacity, [`ACCESS_LOG_CAPACITY`].
    pub fn capacity(&self) -> usize {
        ACCESS_LOG_CAPACITY
    }

    /// Operations ever recorded, including ones the ring dropped.
    pub fn total_recorded(&self) -> u64 {
        self.total.get()
    }

    /// Entries dropped off the front of the ring so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// Iterates retained entries, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &AccessLogEntry> {
        self.entries.iter()
    }
}

impl<'a> IntoIterator for &'a AccessLog {
    type Item = &'a AccessLogEntry;
    type IntoIter = std::collections::vec_deque::Iter<'a, AccessLogEntry>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

#[derive(Debug, Clone)]
struct Account {
    credential: String,
    objects: BTreeMap<String, Vec<u8>>,
}

/// A cloud storage provider.
///
/// # Examples
///
/// ```
/// use nymix_store::{CloudProvider, ObjectBackend};
/// use nymix_net::Ip;
///
/// let mut dropbox = CloudProvider::new("dropbox");
/// dropbox.create_account("anon4711", "token");
/// let exit = Ip::parse("198.18.0.5"); // a Tor exit, not the user
/// dropbox
///     .session("anon4711", "token", exit)
///     .put("nym.bin", vec![1, 2, 3])
///     .unwrap();
/// assert_eq!(dropbox.object_size("anon4711", "nym.bin"), Some(3));
/// // The provider observed the exit address, never the user's.
/// assert!(dropbox.access_log().iter().all(|e| e.observed_ip == exit));
/// ```
#[derive(Debug, Clone)]
pub struct CloudProvider {
    name: String,
    accounts: BTreeMap<String, Account>,
    log: AccessLog,
    /// Deterministic fault injection: the next N write attempts are
    /// throttled ([`CloudError::Throttled`]) before landing.
    transient_put_faults: u32,
    /// Write attempts to let through before the injected faults fire
    /// (puts a fault window mid-batch).
    transient_put_skip: u32,
    fault: FaultMode,
    /// Per-account object snapshots taken when [`FaultMode::ServeStale`]
    /// was armed.
    stale_snapshot: BTreeMap<String, BTreeMap<String, Vec<u8>>>,
    /// Scratch for byzantine garbage reads (borrowed returns).
    garbage_buf: Vec<u8>,
}

impl CloudProvider {
    /// A provider with no accounts, retaining up to
    /// [`ACCESS_LOG_CAPACITY`] access-log entries.
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            accounts: BTreeMap::new(),
            log: AccessLog::new(),
            transient_put_faults: 0,
            transient_put_skip: 0,
            fault: FaultMode::Healthy,
            stale_snapshot: BTreeMap::new(),
            garbage_buf: Vec::new(),
        }
    }

    /// Arms deterministic write-fault injection: the next `n` put
    /// attempts (single or batched) fail with [`CloudError::Throttled`]
    /// before any byte lands, then the provider behaves normally again.
    /// The tests drive the session retry path with it.
    #[cfg(test)]
    pub(crate) fn inject_transient_put_failures(&mut self, n: u32) {
        self.inject_transient_put_failures_after(0, n);
    }

    /// Arms deterministic write-fault injection: the first `skip` put
    /// attempts succeed, then the next `n` fail with
    /// [`CloudError::Throttled`] before any byte lands — the window
    /// lands mid-batch, which is what the resume-from-failed-index
    /// regression tests need.
    // lint:allow(test-only-pub): nymix's manager scenarios put a fault window mid-batch with it
    pub fn inject_transient_put_failures_after(&mut self, skip: u32, n: u32) {
        self.transient_put_skip = skip;
        self.transient_put_faults = n;
    }

    /// Takes the provider down until [`CloudProvider::heal`].
    pub fn outage(&mut self) {
        self.fault = FaultMode::Outage;
    }

    /// Persistently throttles every write until [`CloudProvider::heal`]
    /// (reads still served) — sessions exhaust their retry budget
    /// against this.
    // lint:allow(test-only-pub): nymix's manager scenarios throttle one striped child with it
    pub fn throttle(&mut self) {
        self.fault = FaultMode::Throttled;
    }

    /// Arms byzantine stale serving: reads (and listings) answer from a
    /// snapshot of every account's objects taken *now*. The bytes are
    /// genuine and hash-valid — just old. Writes keep landing on the
    /// live store.
    // lint:allow(test-only-pub): nymix's manager scenarios arm a stale striped child with it
    pub fn serve_stale(&mut self) {
        self.stale_snapshot = self
            .accounts
            .iter()
            .map(|(name, acct)| (name.clone(), acct.objects.clone()))
            .collect();
        self.fault = FaultMode::ServeStale;
    }

    /// Arms byzantine garbage serving: every read answers
    /// deterministic wrong bytes of the stored object's length.
    // lint:allow(test-only-pub): nymix's manager scenarios arm a lying striped child with it
    pub fn serve_garbage(&mut self) {
        self.fault = FaultMode::ServeGarbage;
    }

    /// Clears every scheduled/byzantine fault mode.
    pub fn heal(&mut self) {
        self.fault = FaultMode::Healthy;
        self.stale_snapshot.clear();
    }

    /// Whether the provider is down.
    fn is_down(&self) -> bool {
        self.fault == FaultMode::Outage
    }

    /// Provider name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Registers a (pseudonymous) account.
    pub fn create_account(&mut self, account: &str, credential: &str) {
        self.accounts.insert(
            account.to_string(),
            Account {
                credential: credential.to_string(),
                objects: BTreeMap::new(),
            },
        );
    }

    fn auth(&self, account: &str, credential: &str) -> Result<(), CloudError> {
        nymix_obs::counter!("cloud.auth", 1u64);
        // An unreachable provider fails before it can even check
        // credentials — outages gate every operation here.
        if self.is_down() {
            return Err(CloudError::Unavailable);
        }
        let acct = self
            .accounts
            .get(account)
            .ok_or(CloudError::NoSuchAccount)?;
        if acct.credential != credential {
            return Err(CloudError::BadCredential);
        }
        Ok(())
    }

    /// The post-auth read path: healthy reads answer the live object,
    /// [`FaultMode::ServeStale`] answers the armed snapshot,
    /// [`FaultMode::ServeGarbage`] answers deterministic wrong bytes of
    /// the right length.
    fn serve_read(&mut self, account: &str, object: &str) -> Option<&[u8]> {
        match self.fault {
            FaultMode::ServeStale => self
                .stale_snapshot
                .get(account)
                .and_then(|objects| objects.get(object))
                .map(Vec::as_slice),
            FaultMode::ServeGarbage => {
                let len = self.accounts.get(account)?.objects.get(object)?.len();
                self.garbage_buf = garbage_bytes(&self.name, object, len);
                Some(&self.garbage_buf)
            }
            _ => self
                .accounts
                .get(account)?
                .objects
                .get(object)
                .map(Vec::as_slice),
        }
    }

    /// The post-auth half of every write: the session's retry loop
    /// lands (and access-logs) each object through here. Fails with
    /// [`CloudError::Throttled`] while injected transient faults remain
    /// (after the configured skip window), or unconditionally under a
    /// persistent [`FaultMode::Throttled`]; a throttled write lands
    /// nothing and logs nothing (the provider dropped it at the door).
    ///
    /// The payload is borrowed, so a retrying caller resends it without
    /// copying it first. The provider keeps its own exact-size copy of
    /// what lands, as a remote store would: keeping the caller's buffer
    /// instead would pin seal-worker allocations, growth slack included,
    /// for the object's lifetime, which measurably raises peak RSS.
    fn put_authed(
        &mut self,
        account: &str,
        object: &str,
        data: &[u8],
        observed_ip: Ip,
    ) -> Result<(), CloudError> {
        if self.transient_put_skip > 0 {
            self.transient_put_skip -= 1;
        } else if self.transient_put_faults > 0 {
            self.transient_put_faults -= 1;
            return Err(CloudError::Throttled);
        }
        if self.fault == FaultMode::Throttled {
            return Err(CloudError::Throttled);
        }
        let bytes = data.len();
        self.accounts
            .get_mut(account)
            .expect("authenticated by caller")
            .objects
            .insert(object.to_string(), data.to_vec());
        self.log_op(account, "put", Some(object), observed_ip, bytes);
        nymix_obs::counter!("cloud.puts", 1u64);
        nymix_obs::histogram!("cloud.put_bytes", bytes);
        Ok(())
    }

    /// Appends one observed operation to the access log.
    fn log_op(
        &mut self,
        account: &str,
        op: &'static str,
        object: Option<&str>,
        observed_ip: Ip,
        bytes: usize,
    ) {
        self.log.push(AccessLogEntry {
            account: account.to_string(),
            op,
            object: object.map(str::to_string),
            observed_ip,
            bytes,
        });
    }

    /// The provider's access log (the adversary's subpoena view): the
    /// newest [`AccessLog::capacity`] operations, oldest first.
    pub fn access_log(&self) -> &AccessLog {
        &self.log
    }

    /// Opens an authenticated [`ObjectBackend`] session on `account`
    /// that borrows the provider: every operation is checked against
    /// `credential` and logged with `observed_ip` (the connection's
    /// source as the provider sees it — an anonymizer exit, never the
    /// user, if the caller did their job).
    pub fn session(
        &mut self,
        account: &str,
        credential: &str,
        observed_ip: Ip,
    ) -> CloudSession<&mut CloudProvider> {
        CloudSession::new(self, account, credential, observed_ip)
    }

    /// Stored size of an object, if present.
    pub fn object_size(&self, account: &str, object: &str) -> Option<usize> {
        self.accounts
            .get(account)?
            .objects
            .get(object)
            .map(Vec::len)
    }

    /// Everything the provider could hand an adversary about `account`:
    /// the raw blobs. (Deniability analysis: are they distinguishable
    /// from random?)
    pub fn subpoena(&self, account: &str) -> Vec<(&str, &[u8])> {
        self.accounts
            .get(account)
            .map(|a| {
                a.objects
                    .iter()
                    .map(|(k, v)| (k.as_str(), v.as_slice()))
                    .collect()
            })
            .unwrap_or_default()
    }
}

/// An authenticated pseudonymous-account session presenting a cloud
/// provider as a flat [`ObjectBackend`] namespace — the only client of
/// a [`CloudProvider`]. Holds the account, credential, and the source
/// address the provider will observe; every operation is auth-checked
/// and access-logged.
///
/// `P` is how the session holds its provider: borrowed for one save or
/// restore ([`CloudProvider::session`]), or owned by a long-lived
/// placement child (`CloudSession<CloudProvider>`).
///
/// # Examples
///
/// ```
/// use nymix_store::{CloudProvider, ObjectBackend};
/// use nymix_net::Ip;
///
/// let mut drive = CloudProvider::new("drive");
/// drive.create_account("anon", "tok");
/// let exit = Ip::parse("198.18.0.5");
/// let mut session = drive.session("anon", "tok", exit);
/// session.put("nym.bin", vec![1, 2, 3]).unwrap();
/// assert_eq!(session.get("nym.bin").unwrap(), Some(&[1u8, 2, 3][..]));
/// ```
#[derive(Debug)]
pub struct CloudSession<P> {
    provider: P,
    account: String,
    credential: String,
    observed_ip: Ip,
    /// Total simulated backoff this session has waited, in
    /// microseconds, mirrored into the `cloud.backoff_us` obs counter.
    /// The nym manager adds it to the save's modeled duration so
    /// retries cost simulated time, deterministically.
    backoff_accrued: nymix_obs::Meter,
}

/// Retries per write after the first attempt.
pub const DEFAULT_RETRY_MAX: u32 = 3;

/// First-retry backoff (doubles per further retry).
pub const DEFAULT_RETRY_BASE: SimDuration = SimDuration(500_000);

fn denied(e: CloudError) -> BackendError {
    match e {
        CloudError::NoSuchAccount | CloudError::BadCredential => BackendError::Denied,
        CloudError::Throttled => BackendError::Transient(e.to_string()),
        CloudError::Unavailable => BackendError::Unavailable(e.to_string()),
    }
}

/// Deterministic wrong bytes for [`FaultMode::ServeGarbage`]: seeded
/// by provider and object name so repeated byzantine reads are
/// reproducible, and never equal to any plausible stored blob.
fn garbage_bytes(provider: &str, object: &str, len: usize) -> Vec<u8> {
    let mut x = 0x9e3779b97f4a7c15u64 ^ (len as u64).wrapping_mul(0xff51afd7ed558ccd);
    for &b in provider.as_bytes().iter().chain(object.as_bytes()) {
        x = (x ^ u64::from(b)).wrapping_mul(0x100000001b3);
    }
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        out.extend_from_slice(&x.to_le_bytes());
    }
    out.truncate(len);
    out
}

impl<P: BorrowMut<CloudProvider>> CloudSession<P> {
    /// Opens a session on `account` over `provider`, observed from
    /// `observed_ip`.
    pub fn new(provider: P, account: &str, credential: &str, observed_ip: Ip) -> Self {
        Self {
            provider,
            account: account.to_string(),
            credential: credential.to_string(),
            observed_ip,
            backoff_accrued: nymix_obs::meter!("cloud.backoff_us"),
        }
    }

    /// The provider (access-log inspection).
    pub fn provider(&self) -> &CloudProvider {
        self.provider.borrow()
    }

    /// Mutable provider access (fault arming, the fault clock).
    pub fn provider_mut(&mut self) -> &mut CloudProvider {
        self.provider.borrow_mut()
    }

    /// Sets the source address the provider observes from now on (an
    /// anonymizer exit, never the user).
    pub fn set_observed_ip(&mut self, ip: Ip) {
        self.observed_ip = ip;
    }

    /// Checks the session's credentials (one `cloud.auth` count), then
    /// hands out the provider with the account and the observed
    /// address the operation is logged under.
    fn authed(&mut self) -> Result<(&mut CloudProvider, &str, Ip), BackendError> {
        let provider = self.provider.borrow_mut();
        provider
            .auth(&self.account, &self.credential)
            .map_err(denied)?;
        Ok((provider, &self.account, self.observed_ip))
    }

    /// Total simulated backoff accrued by retried writes so far.
    #[cfg(test)]
    pub(crate) fn accrued_backoff(&self) -> SimDuration {
        SimDuration(self.backoff_accrued.get())
    }

    /// Resets the accrued-backoff accumulator (after the caller has
    /// charged it to the clock). The `cloud.backoff_us` obs mirror is
    /// monotonic and unaffected.
    pub fn take_accrued_backoff(&mut self) -> SimDuration {
        SimDuration(self.backoff_accrued.take())
    }
}

impl<P: BorrowMut<CloudProvider>> ObjectBackend for CloudSession<P> {
    /// Every write goes through this one retry loop. One credential
    /// check covers the whole batch, deletes included — the
    /// round-trip amortization a fleet save is after — while the
    /// provider still observes (and logs) every object it receives and
    /// every existing object it deletes.
    ///
    /// A throttled object is retried after a deterministic exponential
    /// backoff, up to [`DEFAULT_RETRY_MAX`] times, and the budget
    /// refills per object, so a batch tolerates a throttle blip per
    /// object, not one blip total. Objects that already landed are
    /// never re-sent: the landed prefix (trait contract) is uploaded
    /// and access-logged exactly once. Permanent errors (notably
    /// [`BackendError::Denied`]) fail closed before any attempt,
    /// because re-presenting refused credentials is both useless and
    /// the exact traffic signature an observing adversary wants. Puts
    /// are idempotent overwrites, so a retry cannot corrupt state.
    /// Deletes run once every put has landed and are never throttled.
    fn apply_batch(
        &mut self,
        puts: Vec<(String, Vec<u8>)>,
        deletes: Vec<String>,
    ) -> Result<(), BackendError> {
        self.authed()?;
        for (name, data) in &puts {
            let mut retries_left = DEFAULT_RETRY_MAX;
            let mut backoff = DEFAULT_RETRY_BASE;
            while let Err(e) =
                self.provider
                    .borrow_mut()
                    .put_authed(&self.account, name, data, self.observed_ip)
            {
                let e = denied(e);
                if !e.is_transient() || retries_left == 0 {
                    return Err(e);
                }
                retries_left -= 1;
                self.backoff_accrued.add(backoff.0);
                backoff = backoff.saturating_add(backoff);
            }
        }
        let provider = self.provider.borrow_mut();
        for name in &deletes {
            let existed = provider
                .accounts
                .get_mut(&self.account)
                .expect("authenticated above")
                .objects
                .remove(name)
                .is_some();
            if existed {
                provider.log_op(&self.account, "delete", Some(name), self.observed_ip, 0);
            }
        }
        Ok(())
    }

    fn get(&mut self, name: &str) -> Result<Option<&[u8]>, BackendError> {
        let (provider, account, observed_ip) = self.authed()?;
        let Some(bytes) = provider.serve_read(account, name).map(<[u8]>::len) else {
            return Ok(None);
        };
        provider.log_op(account, "get", Some(name), observed_ip, bytes);
        nymix_obs::counter!("cloud.gets", 1u64);
        // Re-serve for the borrowed return value (the log push above
        // needed the mutable half of the provider).
        Ok(provider.serve_read(account, name))
    }

    /// Lists the account's object names (from the armed snapshot while
    /// serving stale — a byzantine provider's listing is as old as its
    /// reads).
    fn list(&mut self, out: &mut Vec<String>) -> Result<(), BackendError> {
        let (provider, account, observed_ip) = self.authed()?;
        provider.log_op(account, "list", None, observed_ip, 0);
        let objects = match provider.fault {
            FaultMode::ServeStale => provider.stale_snapshot.get(account),
            _ => provider.accounts.get(account).map(|a| &a.objects),
        };
        out.extend(objects.into_iter().flat_map(|o| o.keys().cloned()));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exit() -> Ip {
        Ip::parse("198.18.0.7")
    }

    #[test]
    fn put_get_list_delete() {
        let mut p = CloudProvider::new("drive");
        p.create_account("a1", "c1");
        let mut s = p.session("a1", "c1", exit());
        s.put("o1", vec![1, 2]).unwrap();
        s.put("o2", vec![3]).unwrap();
        assert_eq!(s.get("o1").unwrap(), Some(&[1u8, 2][..]));
        let mut names = Vec::new();
        s.list(&mut names).unwrap();
        assert_eq!(names, vec!["o1", "o2"]);
        assert_eq!(s.provider().object_size("a1", "o2"), Some(1));
        s.apply_batch(Vec::new(), vec!["o2".into()]).unwrap();
        assert_eq!(s.get("o2").unwrap(), None);
    }

    #[test]
    fn auth_enforced() {
        let mut p = CloudProvider::new("drive");
        p.create_account("a1", "c1");
        assert_eq!(
            p.session("a1", "wrong", exit()).put("o", vec![]),
            Err(BackendError::Denied)
        );
        assert_eq!(
            p.session("nobody", "c", exit()).get("o"),
            Err(BackendError::Denied)
        );
    }

    #[test]
    fn access_log_records_observed_ip_only() {
        let mut p = CloudProvider::new("drive");
        p.create_account("anon", "c");
        let user_ip = Ip::parse("203.0.113.9");
        let tor_exit = Ip::parse("198.18.0.40");
        let mut s = p.session("anon", "c", tor_exit);
        s.put("nym.bin", vec![0; 64]).unwrap();
        s.get("nym.bin").unwrap();
        // The provider's log contains only the exit address.
        assert_eq!(p.access_log().len(), 2);
        for entry in p.access_log() {
            assert_eq!(entry.observed_ip, tor_exit);
            assert_ne!(entry.observed_ip, user_ip);
        }
    }

    #[test]
    fn access_log_is_bounded_ring() {
        // Regression: the log grew without limit — one entry per
        // operation, forever. The ring keeps the newest
        // `ACCESS_LOG_CAPACITY` entries and still counts the total.
        let mut p = CloudProvider::new("drive");
        p.create_account("a", "c");
        let ops = ACCESS_LOG_CAPACITY + 12;
        let mut s = p.session("a", "c", exit());
        for i in 0..ops {
            s.put(&format!("o{i}"), vec![0; 4]).unwrap();
        }
        let log = p.access_log();
        assert_eq!(log.len(), ACCESS_LOG_CAPACITY);
        assert_eq!(log.capacity(), ACCESS_LOG_CAPACITY);
        assert_eq!(log.total_recorded(), ops as u64);
        assert_eq!(log.dropped(), 12);
        // Oldest retained entry is op 12; newest is the last op.
        assert_eq!(log.iter().next().unwrap().object.as_deref(), Some("o12"));
        let newest = format!("o{}", ops - 1);
        assert_eq!(log.iter().last().unwrap().object, Some(newest));
        // The intersection-auditing view still iterates.
        assert!(log.into_iter().all(|e| e.observed_ip == exit()));
    }

    #[test]
    fn session_backend_auths_and_logs() {
        let mut p = CloudProvider::new("drive");
        p.create_account("anon", "tok");
        {
            let mut s = p.session("anon", "tok", exit());
            s.put("x", vec![1, 2, 3]).unwrap();
            assert_eq!(s.get("x").unwrap(), Some(&[1u8, 2, 3][..]));
            assert_eq!(s.get("ghost").unwrap(), None);
            let mut names = Vec::new();
            s.list(&mut names).unwrap();
            assert_eq!(names, vec!["x"]);
            s.apply_batch(Vec::new(), vec!["x".into()]).unwrap();
            s.apply_batch(Vec::new(), vec!["x".into()]).unwrap();
            assert_eq!(s.get("x").unwrap(), None);
        }
        // put + get + list + one successful delete were logged with the
        // session's observed address (missing-object probes don't log).
        assert_eq!(p.access_log().len(), 4);
        assert!(p.access_log().iter().all(|e| e.observed_ip == exit()));

        // Bad credentials are denied on every operation.
        let mut s = p.session("anon", "wrong", exit());
        assert_eq!(s.put("x", vec![]), Err(BackendError::Denied));
        assert_eq!(s.get("x"), Err(BackendError::Denied));
        assert_eq!(
            s.apply_batch(Vec::new(), vec!["x".into()]),
            Err(BackendError::Denied)
        );
        let mut names = Vec::new();
        assert_eq!(s.list(&mut names), Err(BackendError::Denied));
    }

    #[test]
    fn apply_batch_logs_each_object_and_auths_once_per_batch() {
        let mut p = CloudProvider::new("drive");
        p.create_account("anon", "tok");
        {
            let mut s = p.session("anon", "tok", exit());
            s.apply_batch(
                vec![
                    ("a".to_string(), vec![1]),
                    ("b".to_string(), vec![2, 3]),
                    ("a".to_string(), vec![9; 4]), // later duplicate wins
                ],
                Vec::new(),
            )
            .unwrap();
            assert_eq!(s.get("a").unwrap(), Some(&[9u8; 4][..]));
            assert_eq!(s.get("b").unwrap(), Some(&[2u8, 3][..]));
        }
        // The provider observed every object of the batch.
        let puts: Vec<_> = p.access_log().iter().filter(|e| e.op == "put").collect();
        assert_eq!(puts.len(), 3);
        assert!(puts.iter().all(|e| e.observed_ip == exit()));

        let mut s = p.session("anon", "wrong", exit());
        assert_eq!(
            s.apply_batch(vec![("x".to_string(), vec![])], Vec::new()),
            Err(BackendError::Denied)
        );
    }

    #[test]
    fn transient_faults_are_retried_with_backoff() {
        let mut p = CloudProvider::new("drive");
        p.create_account("anon", "tok");
        p.inject_transient_put_failures(2);
        let mut s = p.session("anon", "tok", exit());
        s.put("x", vec![1, 2, 3]).unwrap();
        assert_eq!(s.get("x").unwrap(), Some(&[1u8, 2, 3][..]));
        // Two failed attempts → backoff base + 2*base accrued.
        assert_eq!(s.accrued_backoff(), SimDuration(3 * DEFAULT_RETRY_BASE.0),);
        assert_eq!(
            s.take_accrued_backoff(),
            SimDuration(3 * DEFAULT_RETRY_BASE.0)
        );
        assert_eq!(s.accrued_backoff(), SimDuration::ZERO);
        drop(s);
        assert_eq!(p.transient_put_faults, 0);
    }

    #[test]
    fn exhausted_retries_fail_with_transient_error() {
        let mut p = CloudProvider::new("drive");
        p.create_account("anon", "tok");
        // More faults than 1 + DEFAULT_RETRY_MAX attempts can absorb.
        p.inject_transient_put_failures(1 + DEFAULT_RETRY_MAX + 1);
        let mut s = p.session("anon", "tok", exit());
        let err = s.put("x", vec![1]).unwrap_err();
        assert!(err.is_transient(), "got {err:?}");
        assert_eq!(s.get("x").unwrap(), None, "nothing landed");
    }

    #[test]
    fn apply_batch_retries_per_object_and_later_objects_still_land() {
        let mut p = CloudProvider::new("drive");
        p.create_account("anon", "tok");
        // First object's first attempt throttled; its retry and the
        // second object succeed.
        p.inject_transient_put_failures(1);
        let mut s = p.session("anon", "tok", exit());
        s.apply_batch(
            vec![("a".into(), vec![1]), ("b".into(), vec![2])],
            Vec::new(),
        )
        .unwrap();
        assert_eq!(s.get("a").unwrap(), Some(&[1u8][..]));
        assert_eq!(s.get("b").unwrap(), Some(&[2u8][..]));
        assert_eq!(s.accrued_backoff(), DEFAULT_RETRY_BASE);
    }

    #[test]
    fn permanent_errors_fail_closed_without_retry() {
        let mut p = CloudProvider::new("drive");
        p.create_account("anon", "tok");
        p.inject_transient_put_failures(0);
        let mut s = p.session("anon", "wrong", exit());
        assert_eq!(s.put("x", vec![1]), Err(BackendError::Denied));
        // No backoff was spent hammering refused credentials.
        assert_eq!(s.accrued_backoff(), SimDuration::ZERO);
    }

    #[test]
    fn apply_batch_resumes_from_failed_index_without_resending_prefix() {
        // Regression for the batch-resume contract: a transient fault
        // in the *middle* of a batch must retry only the failed
        // object. Each object is uploaded — and access-logged — at
        // most once per successful batch.
        let mut p = CloudProvider::new("drive");
        p.create_account("anon", "tok");
        // "a" lands, "b"'s first attempt is throttled, its retry and
        // "c" succeed.
        p.inject_transient_put_failures_after(1, 1);
        {
            let mut s = p.session("anon", "tok", exit());
            s.apply_batch(
                vec![
                    ("a".into(), vec![1]),
                    ("b".into(), vec![2]),
                    ("c".into(), vec![3]),
                ],
                Vec::new(),
            )
            .unwrap();
            assert_eq!(s.get("a").unwrap(), Some(&[1u8][..]));
            assert_eq!(s.get("b").unwrap(), Some(&[2u8][..]));
            assert_eq!(s.get("c").unwrap(), Some(&[3u8][..]));
            // Exactly one retry of one object: one base backoff.
            assert_eq!(s.accrued_backoff(), DEFAULT_RETRY_BASE);
        }
        let puts: Vec<_> = p
            .access_log()
            .iter()
            .filter(|e| e.op == "put")
            .map(|e| e.object.as_deref().unwrap().to_string())
            .collect();
        // The landed prefix ["a"] was never re-sent: one logged put
        // per object, in batch order.
        assert_eq!(puts, vec!["a", "b", "c"]);
    }

    #[test]
    fn outage_gates_every_operation_until_the_deadline() {
        let mut p = CloudProvider::new("drive");
        p.create_account("anon", "tok");
        p.session("anon", "tok", exit()).put("x", vec![7]).unwrap();
        p.outage();
        assert!(p.is_down());
        {
            let down = BackendError::Unavailable(CloudError::Unavailable.to_string());
            let mut s = p.session("anon", "tok", exit());
            assert_eq!(s.get("x").unwrap_err(), down);
            assert_eq!(s.put("y", vec![1]).unwrap_err(), down);
            assert_eq!(
                s.apply_batch(Vec::new(), vec!["x".into()]).unwrap_err(),
                down
            );
            assert_eq!(s.list(&mut Vec::new()).unwrap_err(), down);
            // No backoff burned hammering a dead provider: an outage
            // is not a Transient blip.
            assert_eq!(s.accrued_backoff(), SimDuration::ZERO);
        }
        // The outage ends (an outage's deadline is the `heal` call) —
        // the provider is back, state intact.
        p.heal();
        assert!(!p.is_down());
        let mut s = p.session("anon", "tok", exit());
        assert_eq!(s.get("x").unwrap(), Some(&[7u8][..]));
    }

    #[test]
    fn indefinite_outage_holds_until_healed() {
        let mut p = CloudProvider::new("drive");
        p.create_account("anon", "tok");
        p.outage();
        assert!(p.is_down());
        assert!(matches!(
            p.session("anon", "tok", exit()).get("x"),
            Err(BackendError::Unavailable(_))
        ));
        p.heal();
        assert!(!p.is_down());
        assert_eq!(p.session("anon", "tok", exit()).get("x"), Ok(None));
    }

    #[test]
    fn throttled_provider_rejects_writes_but_serves_reads() {
        let mut p = CloudProvider::new("drive");
        p.create_account("anon", "tok");
        p.session("anon", "tok", exit()).put("x", vec![7]).unwrap();
        p.throttle();
        let mut s = p.session("anon", "tok", exit());
        // Persistent throttling outlasts the whole retry budget.
        let err = s.put("y", vec![1]).unwrap_err();
        assert!(err.is_transient(), "got {err:?}");
        // base + 2·base + 4·base accrued across the three retries.
        assert_eq!(s.accrued_backoff(), SimDuration(7 * DEFAULT_RETRY_BASE.0));
        // Reads are unaffected — a throttle is a write-side fault.
        assert_eq!(s.get("x").unwrap(), Some(&[7u8][..]));
        assert_eq!(s.get("y").unwrap(), None, "throttled write landed nothing");
        drop(s);
        p.heal();
        let mut s = p.session("anon", "tok", exit());
        s.put("y", vec![1]).unwrap();
    }

    #[test]
    fn serve_stale_answers_the_armed_snapshot() {
        let mut p = CloudProvider::new("drive");
        p.create_account("anon", "tok");
        p.session("anon", "tok", exit()).put("x", vec![1]).unwrap();
        p.serve_stale();
        let mut s = p.session("anon", "tok", exit());
        // Writes after arming still land in the live store…
        s.put("x", vec![2]).unwrap();
        s.put("new", vec![3]).unwrap();
        // …but every read (and listing) answers from the snapshot.
        assert_eq!(s.get("x").unwrap(), Some(&[1u8][..]));
        assert_eq!(s.get("new").unwrap(), None);
        let mut names = Vec::new();
        s.list(&mut names).unwrap();
        assert_eq!(names, vec!["x"]);
        p.heal();
        let mut s = p.session("anon", "tok", exit());
        assert_eq!(s.get("x").unwrap(), Some(&[2u8][..]));
    }

    #[test]
    fn serve_garbage_returns_wrong_bytes_of_the_right_length() {
        let mut p = CloudProvider::new("drive");
        p.create_account("anon", "tok");
        p.session("anon", "tok", exit())
            .put("x", vec![0xAB; 100])
            .unwrap();
        p.serve_garbage();
        let mut s = p.session("anon", "tok", exit());
        let lie = s.get("x").unwrap().expect("present").to_vec();
        assert_eq!(lie.len(), 100, "right length");
        assert_ne!(lie, vec![0xAB; 100], "wrong bytes");
        // Deterministic: the byzantine provider lies consistently.
        assert_eq!(s.get("x").unwrap(), Some(&lie[..]));
        p.heal();
        let mut s = p.session("anon", "tok", exit());
        assert_eq!(s.get("x").unwrap(), Some(&[0xAB; 100][..]));
    }

    #[test]
    fn subpoena_returns_blobs() {
        let mut p = CloudProvider::new("drive");
        p.create_account("anon", "c");
        p.session("anon", "c", exit())
            .put("x", vec![0xAB; 10])
            .unwrap();
        let dump = p.subpoena("anon");
        assert_eq!(dump.len(), 1);
        assert_eq!(dump[0].0, "x");
        assert_eq!(dump[0].1, &[0xAB; 10][..]);
        assert!(p.subpoena("ghost").is_empty());
    }
}

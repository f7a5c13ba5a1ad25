//! The pluggable object-storage backend.
//!
//! Every place Nymix keeps sealed bytes — a local partition / USB drive
//! ([`crate::LocalStore`]), a pseudonymous cloud account
//! ([`crate::CloudProvider`] via [`crate::cloud::CloudSession`]) — is a
//! flat namespace of named blobs. [`ObjectBackend`] is that contract:
//! `put`/`get`/`delete`/`list` over opaque names. The Nym Manager's
//! snapshot chains and the content-addressed chunk store
//! ([`crate::cas`]) are written against it, so the same snapshot /
//! dedup machinery runs unchanged against any storage destination.
//!
//! Methods take `&mut self` even for reads: real backends observe
//! accesses (the cloud provider's access log is the intersection-attack
//! evidence trail), and a trait that hid reads from the log would hide
//! them from the adversary model too.

/// Errors a storage backend can raise. Missing objects are **not**
/// errors — [`ObjectBackend::get`] returns `Ok(None)` and
/// [`ObjectBackend::delete`] returns `Ok(false)` — so "the clean end of
/// a delta chain" stays distinguishable from real failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendError {
    /// The backend refused the caller's credentials or account.
    /// Permanent: retrying with the same credentials cannot succeed,
    /// and hammering a provider that said "no" is exactly the traffic
    /// pattern a deanonymizing adversary hopes for. Fail closed.
    Denied,
    /// A transient fault — throttling, a dropped connection, a busy
    /// replica. Retrying the same operation after a backoff may
    /// succeed; [`crate::cloud::CloudSession`] does so with bounded
    /// deterministic exponential backoff.
    Transient(String),
    /// The backend is down — an outage, not a refusal and not a blip a
    /// quick retry fixes. Distinct from [`BackendError::Denied`]
    /// (which must fail closed: the stored state may be fine but the
    /// caller is not getting in with these credentials) and from
    /// [`BackendError::Transient`] (which is worth an immediate
    /// backoff-retry): the placement layer counts an unavailable child
    /// toward quorum loss and queues its shards for repair once the
    /// backend returns.
    Unavailable(String),
    /// Backend-specific permanent failure.
    Other(String),
}

impl BackendError {
    /// Whether retrying the failed operation may succeed.
    pub fn is_transient(&self) -> bool {
        matches!(self, BackendError::Transient(_))
    }
}

impl core::fmt::Display for BackendError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            BackendError::Denied => write!(f, "backend denied access"),
            BackendError::Transient(s) => write!(f, "transient backend failure: {s}"),
            BackendError::Unavailable(s) => write!(f, "backend unavailable: {s}"),
            BackendError::Other(s) => write!(f, "backend failure: {s}"),
        }
    }
}

impl std::error::Error for BackendError {}

/// A flat namespace of named opaque blobs: the storage half of the
/// §3.5 store-nym pipeline, abstracted so callers can't tell a USB
/// partition from a pseudonymous cloud account.
pub trait ObjectBackend {
    /// Writes (or overwrites) the object at `name`.
    fn put(&mut self, name: &str, data: Vec<u8>) -> Result<(), BackendError>;

    /// Writes a batch of objects in one operation. Semantically
    /// equivalent to [`ObjectBackend::put`] in order (later duplicates
    /// win), but backends with per-operation overhead — a credentialed
    /// cloud session authenticates once per call — amortize it across
    /// the whole batch. The store pipeline ships every blob of a
    /// multi-session fleet save through one of these. On error, a
    /// prefix of the batch may have landed (same contract as a caller
    /// looping `put` and stopping at the first failure).
    fn put_many(&mut self, objects: Vec<(String, Vec<u8>)>) -> Result<(), BackendError> {
        for (name, data) in objects {
            self.put(&name, data)?;
        }
        Ok(())
    }

    /// Applies a mixed batch of writes and deletions. The default is
    /// merely *sequenced* — puts land first (via
    /// [`ObjectBackend::put_many`]), then deletes, and a crash or error
    /// in between leaves the overlap observable. Backends with a real
    /// transaction boundary override this with something stronger: the
    /// journaled [`crate::disk::DiskStore`] commits the whole batch
    /// atomically, which is what lets chunk mark-and-sweep retire old
    /// objects in the same transaction that lands their replacements.
    fn apply_batch(
        &mut self,
        puts: Vec<(String, Vec<u8>)>,
        deletes: Vec<String>,
    ) -> Result<(), BackendError> {
        self.put_many(puts)?;
        for name in deletes {
            self.delete(&name)?;
        }
        Ok(())
    }

    /// Reads the object at `name`; `Ok(None)` when absent.
    fn get(&mut self, name: &str) -> Result<Option<&[u8]>, BackendError>;

    /// Deletes the object at `name`, reporting whether it existed.
    fn delete(&mut self, name: &str) -> Result<bool, BackendError>;

    /// Appends every object name to `out` (order unspecified).
    fn list(&mut self, out: &mut Vec<String>) -> Result<(), BackendError>;
}

impl<B: ObjectBackend + ?Sized> ObjectBackend for &mut B {
    fn put(&mut self, name: &str, data: Vec<u8>) -> Result<(), BackendError> {
        (**self).put(name, data)
    }

    fn put_many(&mut self, objects: Vec<(String, Vec<u8>)>) -> Result<(), BackendError> {
        (**self).put_many(objects)
    }

    fn apply_batch(
        &mut self,
        puts: Vec<(String, Vec<u8>)>,
        deletes: Vec<String>,
    ) -> Result<(), BackendError> {
        (**self).apply_batch(puts, deletes)
    }

    fn get(&mut self, name: &str) -> Result<Option<&[u8]>, BackendError> {
        (**self).get(name)
    }

    fn delete(&mut self, name: &str) -> Result<bool, BackendError> {
        (**self).delete(name)
    }

    fn list(&mut self, out: &mut Vec<String>) -> Result<(), BackendError> {
        (**self).list(out)
    }
}

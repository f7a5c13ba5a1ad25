//! Local-media nym storage.
//!
//! §3.5: quasi-persistent data can go "to another local partition or
//! USB drive" instead of the cloud. The trade-off (§3.5 "Security
//! Tradeoffs"): no ephemeral fetch nym is needed (the nym's own guards
//! are available immediately), but a confiscating adversary *finds the
//! encrypted blobs* — "the USB device now becomes evidence" (§2) — and
//! may coerce the password. [`LocalStore::confiscate`] returns exactly
//! what such an adversary obtains.

use std::collections::BTreeMap;

use crate::backend::{BackendError, ObjectBackend};

/// A local partition / USB drive holding sealed nyms.
#[derive(Debug, Clone, Default)]
pub struct LocalStore {
    objects: BTreeMap<String, Vec<u8>>,
}

impl LocalStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes a sealed blob.
    pub fn put(&mut self, name: &str, data: Vec<u8>) {
        self.objects.insert(name.to_string(), data);
    }

    /// Reads a sealed blob.
    pub fn get(&self, name: &str) -> Option<&[u8]> {
        self.objects.get(name).map(Vec::as_slice)
    }

    /// Removes a blob, returning whether it existed.
    pub fn delete(&mut self, name: &str) -> bool {
        self.objects.remove(name).is_some()
    }

    /// Object names present.
    pub fn list(&self) -> Vec<&str> {
        self.objects.keys().map(String::as_str).collect()
    }

    /// Total stored bytes.
    pub fn total_bytes(&self) -> usize {
        self.objects.values().map(Vec::len).sum()
    }

    /// What a confiscating adversary finds: every blob, by name. A
    /// non-empty result is *evidence of Nymix use* — the deniability
    /// gap cloud storage closes.
    pub fn confiscate(&self) -> Vec<(&str, &[u8])> {
        self.objects
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_slice()))
            .collect()
    }

    /// Whether confiscation finds nothing (deniable state).
    pub fn is_deniable(&self) -> bool {
        self.objects.is_empty()
    }
}

/// Local media is the simplest [`ObjectBackend`]: infallible, no
/// credentials, no access log an adversary could subpoena (the blobs
/// themselves are the evidence — see [`LocalStore::confiscate`]).
impl ObjectBackend for LocalStore {
    fn apply_batch(
        &mut self,
        puts: Vec<(String, Vec<u8>)>,
        deletes: Vec<String>,
    ) -> Result<(), BackendError> {
        self.objects.extend(puts);
        for name in &deletes {
            self.objects.remove(name);
        }
        Ok(())
    }

    fn get(&mut self, name: &str) -> Result<Option<&[u8]>, BackendError> {
        Ok(LocalStore::get(self, name))
    }

    fn list(&mut self, out: &mut Vec<String>) -> Result<(), BackendError> {
        out.extend(self.objects.keys().cloned());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crud() {
        let mut s = LocalStore::new();
        assert!(s.is_deniable());
        s.put("nym-alice", vec![1, 2, 3]);
        s.put("nym-bob", vec![4]);
        assert_eq!(s.get("nym-alice"), Some(&[1u8, 2, 3][..]));
        assert_eq!(s.list(), vec!["nym-alice", "nym-bob"]);
        assert_eq!(s.total_bytes(), 4);
        assert!(s.delete("nym-bob"));
        assert!(!s.delete("nym-bob"));
        assert_eq!(s.get("nym-bob"), None);
    }

    #[test]
    fn object_backend_contract() {
        let mut s = LocalStore::new();
        let b: &mut dyn ObjectBackend = &mut s;
        b.put("x", vec![1, 2]).unwrap();
        assert_eq!(b.get("x").unwrap(), Some(&[1u8, 2][..]));
        assert_eq!(b.get("ghost").unwrap(), None);
        let mut names = Vec::new();
        b.list(&mut names).unwrap();
        assert_eq!(names, vec!["x"]);
        // One batch: puts in order (the later duplicate wins), then
        // deletes; deleting an absent name is not an error.
        b.apply_batch(
            vec![("y".into(), vec![3]), ("y".into(), vec![4])],
            vec!["x".into(), "ghost".into()],
        )
        .unwrap();
        assert_eq!(b.get("x").unwrap(), None);
        assert_eq!(b.get("y").unwrap(), Some(&[4u8][..]));
    }

    #[test]
    fn confiscation_reveals_blob_presence() {
        let mut s = LocalStore::new();
        s.put("nym-alice", vec![0xEE; 32]);
        let found = s.confiscate();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].0, "nym-alice");
        assert!(!s.is_deniable());
    }
}

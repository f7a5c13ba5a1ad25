//! The in-memory reference backend.
//!
//! [`LocalStore`] is a plain map of named blobs: infallible, no
//! credentials, no I/O. Unit tests, property tests and benches use it
//! as the fake behind [`crate::cas`] and [`crate::PlacementStore`] and
//! as the baseline other backends are timed against. The Nym Manager's
//! local-media destination is the journaled [`crate::DiskStore`].

use std::collections::BTreeMap;

use crate::backend::{BackendError, ObjectBackend};

/// An in-memory map of named blobs.
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
}

/// The simplest [`ObjectBackend`]: infallible, no credentials, no
/// access log.
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
        s.put("nym-alice", vec![1, 2, 3]);
        s.put("nym-bob", vec![4]);
        assert_eq!(s.get("nym-alice"), Some(&[1u8, 2, 3][..]));
        assert_eq!(s.list(), vec!["nym-alice", "nym-bob"]);
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
}

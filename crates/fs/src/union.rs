//! The layered union view with copy-on-write semantics.
//!
//! Mirrors OverlayFS as the prototype uses it (§3.4): "The union file
//! system responds to file read accesses with the contents of that file
//! as it exists in the top most stack. The file system stores writes into
//! the top most read-write layer, shielding lower layers from write
//! access using copy-on-write."

use std::collections::BTreeSet;

use crate::layer::{Layer, Node};
use crate::path::Path;

/// Errors from union filesystem operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// Path does not exist in any visible layer.
    NotFound(String),
    /// Operation expected a file but found a directory (or vice versa).
    WrongKind(String),
    /// The union has no writable top layer.
    ReadOnly,
    /// A parent component is not a directory.
    BadParent(String),
    /// The write would exceed the writable layer's quota (the VM's
    /// fixed-size virtual disk, e.g. 128 MiB for an AnonVM; §5.2).
    NoSpace {
        /// Configured quota in bytes.
        quota: usize,
        /// Bytes the operation would have required.
        needed: usize,
    },
}

impl core::fmt::Display for FsError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FsError::NotFound(p) => write!(f, "not found: {p}"),
            FsError::WrongKind(p) => write!(f, "wrong node kind: {p}"),
            FsError::ReadOnly => write!(f, "filesystem is read-only"),
            FsError::BadParent(p) => write!(f, "parent is not a directory: {p}"),
            FsError::NoSpace { quota, needed } => {
                write!(f, "no space: quota {quota} bytes, needed {needed}")
            }
        }
    }
}

impl std::error::Error for FsError {}

/// A stack of layers presenting a single filesystem.
///
/// Layers are ordered bottom-up: index 0 is the base. At most the top
/// layer may be writable.
///
/// # Examples
///
/// ```
/// use nymix_fs::{Layer, LayerKind, Path, UnionFs};
///
/// let mut base = Layer::new(LayerKind::Base);
/// base.put_file(Path::new("/etc/motd"), b"welcome".to_vec());
/// let mut fs = UnionFs::new(vec![base, Layer::new(LayerKind::Writable)]).unwrap();
/// assert_eq!(fs.read(&Path::new("/etc/motd")).unwrap(), b"welcome");
/// fs.write(&Path::new("/etc/motd"), b"patched".to_vec()).unwrap();
/// assert_eq!(fs.read(&Path::new("/etc/motd")).unwrap(), b"patched");
/// // The base layer is untouched (copy-on-write).
/// assert_eq!(fs.layer(0).get(&Path::new("/etc/motd")).unwrap().size(), 7);
/// ```
#[derive(Debug, Clone)]
pub struct UnionFs {
    layers: Vec<Layer>,
    quota_bytes: Option<usize>,
}

impl UnionFs {
    /// Builds a union from bottom-up `layers`.
    ///
    /// Returns `None` if any non-top layer is writable, or the stack is
    /// empty.
    pub fn new(layers: Vec<Layer>) -> Option<Self> {
        if layers.is_empty() {
            return None;
        }
        let last = layers.len() - 1;
        for (i, layer) in layers.iter().enumerate() {
            if layer.is_writable() && i != last {
                return None;
            }
        }
        Some(Self {
            layers,
            quota_bytes: None,
        })
    }

    /// Caps the writable layer at `bytes` of file content — the VM's
    /// fixed-size virtual disk. `None` removes the cap.
    pub fn set_quota(&mut self, bytes: Option<usize>) {
        self.quota_bytes = bytes;
    }

    /// The configured quota, if any.
    // lint:allow(test-only-pub): nymix-vmm's vm.rs tests check each VM disk's configured cap with it
    pub fn quota(&self) -> Option<usize> {
        self.quota_bytes
    }

    fn check_quota(&self, path: &Path, new_len: usize) -> Result<(), FsError> {
        let Some(quota) = self.quota_bytes else {
            return Ok(());
        };
        let existing_in_upper = self.upper().and_then(|u| u.get(path)).map_or(0, Node::size);
        let needed = self.upper_bytes() - existing_in_upper + new_len;
        if needed > quota {
            Err(FsError::NoSpace { quota, needed })
        } else {
            Ok(())
        }
    }

    /// Immutable access to a layer (0 = base).
    pub fn layer(&self, index: usize) -> &Layer {
        &self.layers[index]
    }

    /// The writable top layer, if the stack has one.
    pub fn upper(&self) -> Option<&Layer> {
        self.layers.last().filter(|l| l.is_writable())
    }

    /// Detaches the writable top layer, leaving the union read-only.
    ///
    /// This is the nym save path: the upper layer is what gets archived
    /// to cloud storage (§4.2: "The writable image can either be tossed
    /// at the end of a session or stored in the cloud").
    pub fn take_upper(&mut self) -> Option<Layer> {
        if self.layers.last().is_some_and(Layer::is_writable) {
            self.layers.pop()
        } else {
            None
        }
    }

    /// Pushes a writable layer on top.
    ///
    /// Returns `false` (and drops nothing) if a writable layer is
    /// already present or `layer` is not writable.
    pub fn push_upper(&mut self, layer: Layer) -> bool {
        if !layer.is_writable() || self.upper().is_some() {
            return false;
        }
        self.layers.push(layer);
        true
    }

    /// Resolves the visible node at `path`, honouring whiteouts.
    pub fn lookup(&self, path: &Path) -> Option<&Node> {
        for layer in self.layers.iter().rev() {
            match layer.get(path) {
                Some(Node::Whiteout) => return None,
                Some(node) => return Some(node),
                None => continue,
            }
        }
        None
    }

    /// Whether `path` exists (and is not whited out).
    pub fn exists(&self, path: &Path) -> bool {
        self.lookup(path).is_some()
    }

    /// Reads a file's contents as a borrowed slice of the owning layer —
    /// the read path never copies the body. Callers that need ownership
    /// call `.to_vec()` explicitly.
    pub fn read(&self, path: &Path) -> Result<&[u8], FsError> {
        match self.lookup(path) {
            Some(Node::File(data)) => Ok(data.as_slice()),
            Some(_) => Err(FsError::WrongKind(path.to_string())),
            None => Err(FsError::NotFound(path.to_string())),
        }
    }

    /// Writes a file (copy-on-write into the top layer).
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NoSpace`] when a quota is set and the write
    /// would exceed it.
    pub fn write(&mut self, path: &Path, data: Vec<u8>) -> Result<(), FsError> {
        self.check_parent_dir(path)?;
        if self.lookup(path).is_some_and(|n| matches!(n, Node::Dir)) {
            return Err(FsError::WrongKind(path.to_string()));
        }
        self.check_quota(path, data.len())?;
        let top = self.writable_layer()?;
        top.put_file(path.clone(), data);
        Ok(())
    }

    /// Appends to a file, creating it if absent.
    pub fn append(&mut self, path: &Path, more: &[u8]) -> Result<(), FsError> {
        let mut data = match self.read(path) {
            Ok(d) => d.to_vec(),
            Err(FsError::NotFound(_)) => Vec::new(),
            Err(e) => return Err(e),
        };
        data.extend_from_slice(more);
        self.write(path, data)
    }

    /// Creates a directory.
    pub fn mkdir(&mut self, path: &Path) -> Result<(), FsError> {
        self.check_parent_dir(path)?;
        match self.lookup(path) {
            Some(Node::Dir) => Ok(()), // mkdir -p semantics.
            Some(_) => Err(FsError::WrongKind(path.to_string())),
            None => {
                let top = self.writable_layer()?;
                top.put_dir(path.clone());
                Ok(())
            }
        }
    }

    /// Removes a file. Leaves a whiteout if a lower layer also has it.
    pub fn unlink(&mut self, path: &Path) -> Result<(), FsError> {
        match self.lookup(path) {
            Some(Node::File(_)) => {}
            Some(_) => return Err(FsError::WrongKind(path.to_string())),
            None => return Err(FsError::NotFound(path.to_string())),
        }
        let exists_below = self.exists_below_top(path);
        let top = self.writable_layer()?;
        top.remove(path);
        if exists_below {
            top.put_whiteout(path.clone());
        }
        Ok(())
    }

    /// Lists the names of direct children of `dir`, merged across layers
    /// with whiteouts applied, sorted.
    pub fn read_dir(&self, dir: &Path) -> Result<Vec<String>, FsError> {
        match self.lookup(dir) {
            Some(Node::Dir) => {}
            Some(_) => return Err(FsError::WrongKind(dir.to_string())),
            None => return Err(FsError::NotFound(dir.to_string())),
        }
        let mut names: BTreeSet<String> = BTreeSet::new();
        let mut whited: BTreeSet<String> = BTreeSet::new();
        for layer in self.layers.iter().rev() {
            for (path, node) in layer.children_of(dir) {
                let name = path.file_name().expect("child has a name").to_string();
                if whited.contains(&name) || names.contains(&name) {
                    continue;
                }
                match node {
                    Node::Whiteout => {
                        whited.insert(name);
                    }
                    _ => {
                        names.insert(name);
                    }
                }
            }
        }
        Ok(names.into_iter().collect())
    }

    /// Recursively walks all visible files under `dir`.
    pub fn walk_files(&self, dir: &Path) -> Vec<Path> {
        let mut out = Vec::new();
        self.walk_files_into(dir, &mut out);
        out
    }

    /// Recursively walks all visible files under `dir`, appending sorted
    /// results to `out` (cleared first). The traversal stack doubles as
    /// the tail of `out`, so callers that keep `out` warm (cache
    /// eviction sweeps, snapshot walks) trigger no per-walk allocation
    /// beyond `read_dir`'s name merging.
    pub fn walk_files_into(&self, dir: &Path, out: &mut Vec<Path>) {
        out.clear();
        // `out[files..]` is the stack of directories still to visit;
        // `out[..files]` accumulates the files found so far.
        let mut files = 0usize;
        out.push(dir.clone());
        while out.len() > files {
            let cur = out.pop().expect("stack non-empty");
            let Ok(children) = self.read_dir(&cur) else {
                continue;
            };
            for name in children {
                let child = cur.join(&name);
                match self.lookup(&child) {
                    Some(Node::Dir) => out.push(child),
                    Some(Node::File(_)) => {
                        out.insert(files, child);
                        files += 1;
                    }
                    _ => {}
                }
            }
        }
        out.sort();
    }

    /// RAM consumed by the writable layer (the prototype stores all
    /// writes in RAM; §3.4).
    // lint:allow(test-only-pub): the vmm, workload and core tests read a VM disk's RAM cost with it
    pub fn upper_bytes(&self) -> usize {
        self.upper().map_or(0, Layer::content_bytes)
    }

    fn exists_below_top(&self, path: &Path) -> bool {
        for layer in self.layers[..self.layers.len().saturating_sub(1)]
            .iter()
            .rev()
        {
            match layer.get(path) {
                Some(Node::Whiteout) => return false,
                Some(_) => return true,
                None => continue,
            }
        }
        false
    }

    fn check_parent_dir(&self, path: &Path) -> Result<(), FsError> {
        let mut cur = path.parent();
        while let Some(dir) = cur {
            if dir.is_root() {
                break;
            }
            match self.lookup(&dir) {
                Some(Node::Dir) | None => {} // None: created implicitly.
                Some(_) => return Err(FsError::BadParent(dir.to_string())),
            }
            cur = dir.parent();
        }
        Ok(())
    }

    fn writable_layer(&mut self) -> Result<&mut Layer, FsError> {
        let last = self.layers.len() - 1;
        let layer = &mut self.layers[last];
        if layer.is_writable() {
            Ok(layer)
        } else {
            Err(FsError::ReadOnly)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::LayerKind;

    fn base_with(files: &[(&str, &[u8])]) -> Layer {
        let mut l = Layer::new(LayerKind::Base);
        for (p, d) in files {
            l.put_file(Path::new(p), d.to_vec());
        }
        l
    }

    fn two_layer(files: &[(&str, &[u8])]) -> UnionFs {
        UnionFs::new(vec![base_with(files), Layer::new(LayerKind::Writable)]).unwrap()
    }

    #[test]
    fn read_falls_through_to_base() {
        let fs = two_layer(&[("/etc/motd", b"hi")]);
        assert_eq!(fs.read(&Path::new("/etc/motd")).unwrap(), b"hi");
        assert!(matches!(
            fs.read(&Path::new("/nope")),
            Err(FsError::NotFound(_))
        ));
    }

    #[test]
    fn cow_write_shields_base() {
        let mut fs = two_layer(&[("/f", b"old")]);
        fs.write(&Path::new("/f"), b"new".to_vec()).unwrap();
        assert_eq!(fs.read(&Path::new("/f")).unwrap(), b"new");
        assert_eq!(
            fs.layer(0).get(&Path::new("/f")),
            Some(&Node::File(b"old".to_vec()))
        );
    }

    #[test]
    fn config_layer_masks_base() {
        let mut config = Layer::new(LayerKind::Config);
        config.put_file(Path::new("/etc/rc.local"), b"start-tor".to_vec());
        let fs = UnionFs::new(vec![
            base_with(&[("/etc/rc.local", b"default")]),
            config,
            Layer::new(LayerKind::Writable),
        ])
        .unwrap();
        assert_eq!(fs.read(&Path::new("/etc/rc.local")).unwrap(), b"start-tor");
    }

    #[test]
    fn unlink_lower_file_leaves_whiteout() {
        let mut fs = two_layer(&[("/doc", b"x")]);
        fs.unlink(&Path::new("/doc")).unwrap();
        assert!(!fs.exists(&Path::new("/doc")));
        assert_eq!(
            fs.upper().unwrap().get(&Path::new("/doc")),
            Some(&Node::Whiteout)
        );
        // Base still holds the data (read-only protection).
        assert!(fs.layer(0).get(&Path::new("/doc")).is_some());
    }

    #[test]
    fn unlink_upper_only_file_leaves_no_whiteout() {
        let mut fs = two_layer(&[]);
        fs.write(&Path::new("/tmp/x"), vec![1]).unwrap();
        fs.unlink(&Path::new("/tmp/x")).unwrap();
        assert_eq!(fs.upper().unwrap().get(&Path::new("/tmp/x")), None);
    }

    #[test]
    fn readdir_merges_and_masks() {
        let mut fs = two_layer(&[("/d/base.txt", b"1"), ("/d/both.txt", b"2")]);
        fs.write(&Path::new("/d/upper.txt"), vec![3]).unwrap();
        fs.write(&Path::new("/d/both.txt"), vec![4]).unwrap();
        fs.unlink(&Path::new("/d/base.txt")).unwrap();
        assert_eq!(
            fs.read_dir(&Path::new("/d")).unwrap(),
            vec!["both.txt".to_string(), "upper.txt".to_string()]
        );
    }

    #[test]
    fn whiteout_then_recreate() {
        let mut fs = two_layer(&[("/f", b"base")]);
        fs.unlink(&Path::new("/f")).unwrap();
        fs.write(&Path::new("/f"), b"fresh".to_vec()).unwrap();
        assert_eq!(fs.read(&Path::new("/f")).unwrap(), b"fresh");
    }

    #[test]
    fn read_only_union_rejects_writes() {
        let mut fs = UnionFs::new(vec![base_with(&[("/f", b"x")])]).unwrap();
        assert_eq!(fs.write(&Path::new("/g"), vec![1]), Err(FsError::ReadOnly));
    }

    #[test]
    fn writable_layer_only_on_top() {
        let layers = vec![Layer::new(LayerKind::Writable), Layer::new(LayerKind::Base)];
        assert!(UnionFs::new(layers).is_none());
        assert!(UnionFs::new(vec![]).is_none());
    }

    #[test]
    fn take_and_push_upper() {
        let mut fs = two_layer(&[("/f", b"base")]);
        fs.write(&Path::new("/session"), b"state".to_vec()).unwrap();
        let upper = fs.take_upper().unwrap();
        assert_eq!(upper.content_bytes(), 5);
        // Union is now read-only.
        assert_eq!(fs.write(&Path::new("/x"), vec![1]), Err(FsError::ReadOnly));
        assert!(fs.take_upper().is_none());
        // Restore a (possibly different) upper layer: the nym restore path.
        assert!(fs.push_upper(upper));
        assert_eq!(fs.read(&Path::new("/session")).unwrap(), b"state");
        assert!(!fs.push_upper(Layer::new(LayerKind::Writable)));
    }

    #[test]
    fn walk_files_recurses() {
        let mut fs = two_layer(&[("/a/1", b"x"), ("/a/b/2", b"y")]);
        fs.write(&Path::new("/a/b/c/3"), vec![1]).unwrap();
        let files: Vec<String> = fs
            .walk_files(&Path::root())
            .iter()
            .map(|p| p.to_string())
            .collect();
        assert_eq!(files, vec!["/a/1", "/a/b/2", "/a/b/c/3"]);
    }

    #[test]
    fn upper_bytes_tracks_ram_cost() {
        let mut fs = two_layer(&[("/f", b"0123456789")]);
        assert_eq!(fs.upper_bytes(), 0);
        // Reading costs nothing; COW costs RAM.
        let _ = fs.read(&Path::new("/f"));
        assert_eq!(fs.upper_bytes(), 0);
        fs.write(&Path::new("/f"), vec![0; 10]).unwrap();
        assert_eq!(fs.upper_bytes(), 10);
    }

    #[test]
    fn append_creates_and_extends() {
        let mut fs = two_layer(&[]);
        fs.append(&Path::new("/log"), b"a").unwrap();
        fs.append(&Path::new("/log"), b"b").unwrap();
        assert_eq!(fs.read(&Path::new("/log")).unwrap(), b"ab");
    }

    #[test]
    fn write_over_dir_rejected() {
        let mut fs = two_layer(&[]);
        fs.mkdir(&Path::new("/d")).unwrap();
        assert!(matches!(
            fs.write(&Path::new("/d"), vec![1]),
            Err(FsError::WrongKind(_))
        ));
    }

    #[test]
    fn bad_parent_rejected() {
        let mut fs = two_layer(&[("/file", b"x")]);
        assert!(matches!(
            fs.write(&Path::new("/file/child"), vec![1]),
            Err(FsError::BadParent(_))
        ));
    }

    #[test]
    fn quota_enforced_and_freed() {
        let mut fs = two_layer(&[]);
        fs.set_quota(Some(100));
        assert_eq!(fs.quota(), Some(100));
        fs.write(&Path::new("/a"), vec![0; 60]).unwrap();
        // Second write would exceed the 100-byte disk.
        assert!(matches!(
            fs.write(&Path::new("/b"), vec![0; 50]),
            Err(FsError::NoSpace {
                quota: 100,
                needed: 110
            })
        ));
        // Overwriting an existing file only counts the delta.
        fs.write(&Path::new("/a"), vec![0; 90]).unwrap();
        assert!(fs.write(&Path::new("/a"), vec![0; 101]).is_err());
        // Deleting frees space.
        fs.unlink(&Path::new("/a")).unwrap();
        fs.write(&Path::new("/b"), vec![0; 100]).unwrap();
    }

    #[test]
    fn quota_ignores_lower_layers() {
        // Only the writable layer counts: the base image is shared and
        // read-only, not part of the VM's disk budget.
        let mut fs = two_layer(&[("/big", &[0u8; 1000])]);
        fs.set_quota(Some(10));
        assert!(fs.read(&Path::new("/big")).is_ok());
        assert!(fs.write(&Path::new("/small"), vec![1; 10]).is_ok());
    }
}

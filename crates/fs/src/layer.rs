//! A single filesystem layer.
//!
//! Layers are stacked by [`crate::union::UnionFs`]. The Nymix prototype
//! gives every VM three layers (§4.2): the shared base image, a
//! role-specific configuration image, and a RAM-backed writable image.

use std::collections::BTreeMap;

use crate::path::Path;

/// What a layer is for — controls mutability and accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerKind {
    /// The shared read-only base image (the Nymix USB OS partition).
    Base,
    /// A read-only role configuration image (AnonVM / CommVM / SaniVM).
    Config,
    /// A RAM-backed writable layer (tmpfs); counted against host RAM.
    Writable,
}

/// A node in a layer's tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// A regular file with contents.
    File(Vec<u8>),
    /// A directory (children are implied by paths beneath it).
    Dir,
    /// A whiteout: masks any same-path node in lower layers.
    Whiteout,
}

impl Node {
    /// Bytes of file content (0 for dirs and whiteouts).
    pub fn size(&self) -> usize {
        match self {
            Node::File(data) => data.len(),
            _ => 0,
        }
    }
}

/// One node slot plus the layer generation at which it last changed.
#[derive(Debug, Clone)]
struct Slot {
    node: Node,
    gen: u64,
}

/// One filesystem layer: a map from normalized paths to nodes.
///
/// Every mutation bumps the layer's [`Layer::generation`] counter, and
/// each entry remembers the generation at which it last changed. The
/// Nym Manager's incremental store-nym path uses these to tell which
/// snapshot records are dirty since the last seal without serializing
/// or comparing any bytes.
///
/// # Examples
///
/// ```
/// use nymix_fs::{Layer, LayerKind, Path};
///
/// let mut l = Layer::new(LayerKind::Writable);
/// l.put_file(Path::new("/tmp/x"), b"data".to_vec());
/// assert_eq!(l.get(&Path::new("/tmp/x")).unwrap().size(), 4);
/// let sealed_at = l.generation();
/// l.put_file(Path::new("/tmp/y"), b"later".to_vec());
/// assert!(l.entry_generation(&Path::new("/tmp/y")) > Some(sealed_at));
/// assert!(l.entry_generation(&Path::new("/tmp/x")) <= Some(sealed_at));
/// ```
#[derive(Debug, Clone)]
pub struct Layer {
    kind: LayerKind,
    nodes: BTreeMap<Path, Slot>,
    /// Mutation counter; bumped once per mutating call.
    generation: u64,
    /// Tombstones: paths removed from this layer, by removal generation.
    /// Cleared when the path is re-inserted.
    removed: BTreeMap<Path, u64>,
}

/// Layers compare by kind and visible content; generation bookkeeping
/// (counters, tombstones) is not part of a layer's identity — a
/// restored layer equals the one that was snapshotted even though its
/// counters restarted.
impl PartialEq for Layer {
    fn eq(&self, other: &Self) -> bool {
        self.kind == other.kind
            && self.nodes.len() == other.nodes.len()
            && self
                .entries()
                .zip(other.entries())
                .all(|((pa, na), (pb, nb))| pa == pb && na == nb)
    }
}

impl Eq for Layer {}

impl Layer {
    /// Creates an empty layer with an implicit root directory.
    pub fn new(kind: LayerKind) -> Self {
        let mut nodes = BTreeMap::new();
        nodes.insert(
            Path::root(),
            Slot {
                node: Node::Dir,
                gen: 0,
            },
        );
        Self {
            kind,
            nodes,
            generation: 0,
            removed: BTreeMap::new(),
        }
    }

    /// Builds a layer in one pass from its non-root entries in
    /// strictly increasing path order, as [`Layer::entries`] yields
    /// them after the root.
    ///
    /// The result is the layer that replaying `put_file`, `put_dir`
    /// and `put_whiteout` over the entries in order would build,
    /// generations included: entry *i* (counting from 1), and every
    /// missing ancestor it creates as a [`Node::Dir`], get generation
    /// *i*, and the layer's generation is the entry count. In sorted
    /// order an entry's present ancestors are exactly those it shares
    /// with the entry before it, so no lookup is needed to find the
    /// missing ones, and the map is built in one bulk pass.
    ///
    /// Returns `None` for a root entry, or for any path not strictly
    /// greater than the one before it.
    ///
    /// # Examples
    ///
    /// ```
    /// use nymix_fs::{Layer, LayerKind, Node, Path};
    ///
    /// let l = Layer::from_sorted_entries(
    ///     LayerKind::Writable,
    ///     [(Path::new("/a/b/c"), Node::File(vec![1])), (Path::new("/a/d"), Node::Dir)],
    /// )
    /// .unwrap();
    /// assert_eq!(l.get(&Path::new("/a/b")), Some(&Node::Dir));
    /// assert_eq!(l.entry_generation(&Path::new("/a/b")), Some(1));
    /// assert_eq!(l.generation(), 2);
    /// let unsorted = [(Path::new("/b"), Node::Dir), (Path::new("/a"), Node::Dir)];
    /// assert!(Layer::from_sorted_entries(LayerKind::Writable, unsorted).is_none());
    /// ```
    pub fn from_sorted_entries(
        kind: LayerKind,
        entries: impl IntoIterator<Item = (Path, Node)>,
    ) -> Option<Layer> {
        let entries = entries.into_iter();
        let mut sorted = Vec::with_capacity(entries.size_hint().0 + 1);
        sorted.push((
            Path::root(),
            Slot {
                node: Node::Dir,
                gen: 0,
            },
        ));
        let mut gen = 0;
        for (path, node) in entries {
            gen += 1;
            // `sorted` ends with the previous entry (the root at first).
            let prev = &sorted[sorted.len() - 1].0;
            if path <= *prev {
                return None;
            }
            let shared = prev
                .components()
                .iter()
                .zip(path.components())
                .take_while(|(a, b)| a == b)
                .count();
            for depth in shared + 1..path.depth() {
                sorted.push((
                    path.prefix(depth),
                    Slot {
                        node: Node::Dir,
                        gen,
                    },
                ));
            }
            sorted.push((path, Slot { node, gen }));
        }
        Some(Self {
            kind,
            nodes: sorted.into_iter().collect(),
            generation: gen,
            removed: BTreeMap::new(),
        })
    }

    /// The layer's kind.
    pub fn kind(&self) -> LayerKind {
        self.kind
    }

    /// Whether the union may write into this layer.
    pub fn is_writable(&self) -> bool {
        self.kind == LayerKind::Writable
    }

    /// The layer's current generation: bumped on every mutating call.
    /// Two reads returning the same value guarantee no entry changed in
    /// between, so an unchanged generation lets a snapshot skip
    /// re-serializing this layer entirely.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The generation at which the entry at `path` last changed.
    // lint:allow(test-only-pub): store/tests/decoders.rs checks decoded layers against the reference build with it
    pub fn entry_generation(&self, path: &Path) -> Option<u64> {
        self.nodes.get(path).map(|s| s.gen)
    }

    /// Entries that changed after generation `gen`, in path order (the
    /// root among them when a [`Layer::secure_wipe`] came after `gen`).
    pub fn entries_since(&self, gen: u64) -> impl Iterator<Item = (&Path, &Node)> {
        self.nodes
            .iter()
            .filter(move |(_, s)| s.gen > gen)
            .map(|(p, s)| (p, &s.node))
    }

    /// Paths removed after generation `gen` (and not re-inserted since),
    /// in path order.
    pub fn removed_since(&self, gen: u64) -> impl Iterator<Item = &Path> {
        self.removed
            .iter()
            .filter(move |(_, g)| **g > gen)
            .map(|(p, _)| p)
    }

    /// Looks up a node.
    pub fn get(&self, path: &Path) -> Option<&Node> {
        self.nodes.get(path).map(|s| &s.node)
    }

    /// Inserts a file, creating parent directories within this layer.
    pub fn put_file(&mut self, path: Path, data: Vec<u8>) {
        self.insert(path, Node::File(data));
    }

    /// Inserts a directory, creating parents within this layer.
    pub fn put_dir(&mut self, path: Path) {
        self.insert(path, Node::Dir);
    }

    /// Inserts a whiteout, masking lower layers at `path`.
    pub fn put_whiteout(&mut self, path: Path) {
        self.insert(path, Node::Whiteout);
    }

    fn insert(&mut self, path: Path, node: Node) {
        self.generation += 1;
        let gen = self.generation;
        self.ensure_parents(&path, gen);
        self.removed.remove(&path);
        self.nodes.insert(path, Slot { node, gen });
    }

    /// Removes a node from this layer (not a whiteout — actually forgets
    /// the entry). Returns the removed node.
    pub fn remove(&mut self, path: &Path) -> Option<Node> {
        if path.is_root() {
            return None;
        }
        let slot = self.nodes.remove(path)?;
        self.generation += 1;
        self.removed.insert(path.clone(), self.generation);
        Some(slot.node)
    }

    /// Iterates all `(path, node)` entries in path order.
    pub fn entries(&self) -> impl Iterator<Item = (&Path, &Node)> {
        self.nodes.iter().map(|(p, s)| (p, &s.node))
    }

    /// Direct children of `dir` present in this layer.
    pub fn children_of<'a>(&'a self, dir: &'a Path) -> impl Iterator<Item = (&'a Path, &'a Node)> {
        let depth = dir.depth() + 1;
        self.nodes
            .iter()
            .filter(move |(p, _)| p.depth() == depth && p.starts_with(dir))
            .map(|(p, s)| (p, &s.node))
    }

    /// Total bytes of file content stored in this layer.
    ///
    /// For [`LayerKind::Writable`] layers this is the RAM the layer costs
    /// the host (the prototype's "writable image" lives in RAM; §4.2).
    pub fn content_bytes(&self) -> usize {
        self.nodes.values().map(|s| s.node.size()).sum()
    }

    /// Number of nodes (excluding the implicit root).
    pub fn node_count(&self) -> usize {
        self.nodes.len().saturating_sub(1)
    }

    /// Overwrites every file's bytes with zeros, then clears the tree.
    ///
    /// Models the secure-erase pass Nymix performs when a nym shuts down
    /// (§3.4: "securely erases the AnonVM's and CommVM's memory").
    pub fn secure_wipe(&mut self) {
        self.generation += 1;
        let gen = self.generation;
        for (path, slot) in std::mem::take(&mut self.nodes) {
            if let Node::File(mut data) = slot.node {
                data.fill(0);
            }
            if !path.is_root() {
                self.removed.insert(path, gen);
            }
        }
        self.nodes.insert(
            Path::root(),
            Slot {
                node: Node::Dir,
                gen,
            },
        );
    }

    fn ensure_parents(&mut self, path: &Path, gen: u64) {
        let mut cur = path.parent();
        while let Some(dir) = cur {
            if dir.is_root() {
                break;
            }
            // Never clobber an existing file/whiteout with a dir; union
            // semantics treat that as corruption we'd rather surface.
            self.removed.remove(&dir);
            self.nodes.entry(dir.clone()).or_insert(Slot {
                node: Node::Dir,
                gen,
            });
            cur = dir.parent();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_and_get() {
        let mut l = Layer::new(LayerKind::Writable);
        l.put_file(Path::new("/a/b/c.txt"), b"hello".to_vec());
        assert_eq!(
            l.get(&Path::new("/a/b/c.txt")),
            Some(&Node::File(b"hello".to_vec()))
        );
        // Parents auto-created.
        assert_eq!(l.get(&Path::new("/a")), Some(&Node::Dir));
        assert_eq!(l.get(&Path::new("/a/b")), Some(&Node::Dir));
        assert_eq!(l.node_count(), 3);
    }

    #[test]
    fn children_listing() {
        let mut l = Layer::new(LayerKind::Config);
        l.put_file(Path::new("/etc/rc.local"), vec![1]);
        l.put_file(Path::new("/etc/network/interfaces"), vec![2]);
        l.put_file(Path::new("/usr/bin/tor"), vec![3]);
        let etc = Path::new("/etc");
        let kids: Vec<String> = l.children_of(&etc).map(|(p, _)| p.to_string()).collect();
        assert_eq!(kids, vec!["/etc/network", "/etc/rc.local"]);
    }

    #[test]
    fn whiteout_and_remove() {
        let mut l = Layer::new(LayerKind::Writable);
        l.put_whiteout(Path::new("/etc/motd"));
        assert_eq!(l.get(&Path::new("/etc/motd")), Some(&Node::Whiteout));
        assert_eq!(l.remove(&Path::new("/etc/motd")), Some(Node::Whiteout));
        assert_eq!(l.get(&Path::new("/etc/motd")), None);
        // Root can't be removed.
        assert_eq!(l.remove(&Path::root()), None);
    }

    #[test]
    fn content_accounting() {
        let mut l = Layer::new(LayerKind::Writable);
        assert_eq!(l.content_bytes(), 0);
        l.put_file(Path::new("/x"), vec![0u8; 100]);
        l.put_file(Path::new("/y"), vec![0u8; 28]);
        l.put_dir(Path::new("/z"));
        assert_eq!(l.content_bytes(), 128);
    }

    #[test]
    fn secure_wipe_clears_everything() {
        let mut l = Layer::new(LayerKind::Writable);
        l.put_file(Path::new("/secret"), b"tyrannistan plans".to_vec());
        l.secure_wipe();
        assert_eq!(l.node_count(), 0);
        assert_eq!(l.content_bytes(), 0);
        assert_eq!(l.get(&Path::root()), Some(&Node::Dir));
    }

    #[test]
    fn generations_track_mutations() {
        let mut l = Layer::new(LayerKind::Writable);
        assert_eq!(l.generation(), 0);
        l.put_file(Path::new("/a/b"), vec![1]);
        let g1 = l.generation();
        assert!(g1 > 0);
        // Reads don't bump.
        let _ = l.get(&Path::new("/a/b"));
        let _ = l.entries().count();
        assert_eq!(l.generation(), g1);
        // Entry and its auto-created parent share the mutation's gen.
        assert_eq!(l.entry_generation(&Path::new("/a/b")), Some(g1));
        assert_eq!(l.entry_generation(&Path::new("/a")), Some(g1));
        // A later write leaves older entries untouched.
        l.put_file(Path::new("/c"), vec![2]);
        let g2 = l.generation();
        assert!(g2 > g1);
        assert_eq!(l.entry_generation(&Path::new("/c")), Some(g2));
        assert_eq!(l.entry_generation(&Path::new("/a/b")), Some(g1));
        let dirty: Vec<String> = l.entries_since(g1).map(|(p, _)| p.to_string()).collect();
        assert_eq!(dirty, vec!["/c"]);
        // Overwriting refreshes the entry's generation.
        l.put_file(Path::new("/a/b"), vec![3]);
        assert!(l.entry_generation(&Path::new("/a/b")).unwrap() > g2);
    }

    #[test]
    fn removals_leave_tombstones() {
        let mut l = Layer::new(LayerKind::Writable);
        l.put_file(Path::new("/x"), vec![1]);
        l.put_file(Path::new("/y"), vec![2]);
        let sealed = l.generation();
        l.remove(&Path::new("/x"));
        let gone: Vec<String> = l.removed_since(sealed).map(Path::to_string).collect();
        assert_eq!(gone, vec!["/x"]);
        // Nothing removed before the seal point.
        assert_eq!(l.removed_since(l.generation()).count(), 0);
        // Re-inserting clears the tombstone.
        l.put_file(Path::new("/x"), vec![3]);
        assert_eq!(l.removed_since(sealed).count(), 0);
    }

    #[test]
    fn wipe_tombstones_everything() {
        let mut l = Layer::new(LayerKind::Writable);
        l.put_file(Path::new("/a/b"), vec![1]);
        let sealed = l.generation();
        l.secure_wipe();
        let gone: Vec<String> = l.removed_since(sealed).map(Path::to_string).collect();
        assert_eq!(gone, vec!["/a", "/a/b"]);
    }

    #[test]
    fn equality_ignores_generation_bookkeeping() {
        let mut a = Layer::new(LayerKind::Writable);
        a.put_file(Path::new("/f"), vec![1]);
        a.put_file(Path::new("/g"), vec![2]);
        a.remove(&Path::new("/g"));
        // Same content reached by a different mutation history.
        let mut b = Layer::new(LayerKind::Writable);
        b.put_file(Path::new("/f"), vec![1]);
        assert_eq!(a, b);
        b.put_file(Path::new("/f"), vec![9]);
        assert_ne!(a, b);
        assert_ne!(Layer::new(LayerKind::Writable), Layer::new(LayerKind::Base));
    }

    #[test]
    fn overwrite_replaces_content() {
        let mut l = Layer::new(LayerKind::Writable);
        l.put_file(Path::new("/f"), vec![1; 10]);
        l.put_file(Path::new("/f"), vec![2; 3]);
        assert_eq!(l.content_bytes(), 3);
    }
}

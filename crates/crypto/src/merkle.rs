//! Binary Merkle hash tree over pre-hashed leaves.
//!
//! The store crate's delta commitments keep one tree warm across saves:
//! each archive record is a leaf, and a save recommits only the leaves
//! it changed.
//!
//! [`MerkleAccumulator`] is the one tree: a flat node array (leaves,
//! then each interior level bottom-up) whose interior levels — inputs
//! always exactly two 32-byte child hashes — batch four parents at a
//! time on the interleaved multi-buffer SHA-256 kernel ([`sha256_x4`]).
//! [`merkle_root_from_leaves`] folds the same tree from scratch and
//! serves as the tests' oracle.

use crate::sha256::{sha256_x4, Sha256, DIGEST_LEN};

/// A 32-byte node hash.
pub type Hash = [u8; DIGEST_LEN];

/// Domain-separation prefixes so a leaf can never be confused with an
/// interior node (second-preimage hardening).
const LEAF_TAG: u8 = 0x00;
const NODE_TAG: u8 = 0x01;

fn leaf_hash(block: &[u8]) -> Hash {
    let mut h = Sha256::new();
    h.update(&[LEAF_TAG]);
    h.update(block);
    h.finalize()
}

fn node_hash(left: &Hash, right: &Hash) -> Hash {
    let mut h = Sha256::new();
    h.update(&[NODE_TAG]);
    h.update(left);
    h.update(right);
    h.finalize()
}

/// Hashes one leaf supplied as scattered parts, without materializing
/// the concatenation. `leaf_hash_parts(&[a, b])` equals the leaf hash of
/// the contiguous block `a ‖ b`, so callers whose leaves are framed
/// records (length prefix + name + payload) can hash them with zero
/// copies.
pub fn leaf_hash_parts(parts: &[&[u8]]) -> Hash {
    let mut h = Sha256::new();
    h.update(&[LEAF_TAG]);
    for part in parts {
        h.update(part);
    }
    h.finalize()
}

/// Computes the root over an already-hashed leaf level, folding the
/// scratch slice in place level by level — four parent nodes per
/// [`sha256_x4`] pass, no per-level allocations. Commits to exactly the
/// same root as [`MerkleAccumulator`] over the same leaves (odd nodes
/// promote unchanged; the empty set commits to the stable empty-tree
/// root) — the independent from-scratch oracle its tests compare
/// against. The caller's buffer is consumed as working memory.
// lint:allow(test-only-pub): crypto/tests/prop.rs and nymix-store's delta tests pin their trees against it
pub fn merkle_root_from_leaves(leaves: &mut [Hash]) -> Hash {
    let Some(&first) = leaves.first() else {
        return leaf_hash(b"nymix:empty-merkle-tree");
    };
    if leaves.len() == 1 {
        return first;
    }
    let mut width = leaves.len();
    while width > 1 {
        let pairs = width / 2;
        let mut p = 0usize;
        let mut stage = [[0u8; 2 * DIGEST_LEN]; 4];
        while p + 4 <= pairs {
            for (l, buf) in stage.iter_mut().enumerate() {
                buf[..DIGEST_LEN].copy_from_slice(&leaves[2 * (p + l)]);
                buf[DIGEST_LEN..].copy_from_slice(&leaves[2 * (p + l) + 1]);
            }
            let parents = sha256_x4(&[NODE_TAG], [&stage[0], &stage[1], &stage[2], &stage[3]]);
            leaves[p..p + 4].copy_from_slice(&parents);
            p += 4;
        }
        while p < pairs {
            leaves[p] = node_hash(&leaves[2 * p], &leaves[2 * p + 1]);
            p += 1;
        }
        if width % 2 == 1 {
            // Promote the odd node unchanged.
            leaves[pairs] = leaves[width - 1];
        }
        width = width.div_ceil(2);
    }
    leaves[0]
}

/// An incrementally-maintained Merkle tree over pre-hashed leaves.
///
/// Where [`merkle_root_from_leaves`] recomputes the whole tree on
/// every call — O(n) hashing even when one leaf changed — the
/// accumulator keeps every interior node cached between calls, so
/// [`MerkleAccumulator::update_leaf`] recomputes only the changed
/// leaf's root path: O(log n) hashes per dirty leaf. That turns the
/// delta-snapshot commitment from O(archive) into O(dirty · log n),
/// and the restore-replay verify side reuses the same structure.
///
/// Commits to *exactly* the same root as [`merkle_root_from_leaves`]
/// over the same leaves (odd nodes promote unchanged — Bitcoin-style
/// duplication is avoided, which cannot introduce ambiguity because
/// the block count is part of the committed header; the empty set
/// commits to the stable empty-tree root) —
/// `incremental_matches_scratch` in this module and the crypto crate's
/// proptests pin the equivalence bit-for-bit.
///
/// Structural edits ([`MerkleAccumulator::push_leaf`],
/// [`MerkleAccumulator::truncate`]) change the tree shape, so they
/// mark the cached interior stale; the next [`MerkleAccumulator::root`]
/// call rebuilds it in one batched pass (reusing the node buffer — no
/// steady-state allocation). The warm path — `update_leaf` on an
/// unchanged leaf count followed by `root` — allocates nothing, which
/// the store crate's no-alloc guard pins.
///
/// # Examples
///
/// ```
/// use nymix_crypto::{leaf_hash_parts, merkle_root_from_leaves, MerkleAccumulator};
///
/// let mut leaves: Vec<_> = (0..4u8).map(|i| leaf_hash_parts(&[&[i; 16]])).collect();
/// let mut tree = MerkleAccumulator::new();
/// for leaf in &leaves {
///     tree.push_leaf(*leaf);
/// }
/// let before = tree.root();
/// leaves[2] = leaf_hash_parts(&[b"edited"]);
/// tree.update_leaf(2, leaves[2]);
/// assert_ne!(tree.root(), before);
/// assert_eq!(tree.root(), merkle_root_from_leaves(&mut leaves));
/// ```
#[derive(Debug, Clone, Default)]
pub struct MerkleAccumulator {
    /// Leaves first (`nodes[..leaf_count]`), then — when
    /// `interior_valid` — every interior level bottom-up, root last.
    nodes: Vec<Hash>,
    /// Start index of each materialized level within `nodes`.
    level_starts: Vec<usize>,
    leaf_count: usize,
    /// False after a structural edit: `nodes` holds only the leaf
    /// level and `level_starts` is stale until the next rebuild.
    interior_valid: bool,
}

impl MerkleAccumulator {
    /// An empty accumulator (commits to the empty-tree root).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of committed leaves.
    // lint:allow(test-only-pub): crypto/tests/prop.rs checks it against its model of the tree
    pub fn leaf_count(&self) -> usize {
        self.leaf_count
    }

    /// The cached hash of leaf `index`.
    pub fn leaf(&self, index: usize) -> Option<&Hash> {
        if index < self.leaf_count {
            self.nodes.get(index)
        } else {
            None
        }
    }

    /// Drops cached interior nodes after a structural edit, leaving
    /// only the leaf level. Buffer capacity is retained.
    fn invalidate_interior(&mut self) {
        if self.interior_valid {
            self.nodes.truncate(self.leaf_count);
            self.interior_valid = false;
        }
    }

    /// Removes every leaf. Buffer capacity is retained.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.level_starts.clear();
        self.leaf_count = 0;
        self.interior_valid = false;
    }

    /// Appends a leaf hash. Changes the tree shape, so the cached
    /// interior is invalidated and rebuilt lazily at the next
    /// [`MerkleAccumulator::root`].
    pub fn push_leaf(&mut self, leaf: Hash) {
        self.invalidate_interior();
        self.nodes.push(leaf);
        self.leaf_count += 1;
    }

    /// Shrinks the leaf level to `len` leaves (no-op when already at
    /// or below `len`). Like [`MerkleAccumulator::push_leaf`], a shape
    /// change: the interior rebuilds at the next root query.
    pub fn truncate(&mut self, len: usize) {
        if len < self.leaf_count {
            self.invalidate_interior();
            self.nodes.truncate(len);
            self.leaf_count = len;
        }
    }

    /// Replaces leaf `index` and recomputes only its root path.
    ///
    /// With a warm interior this is O(log n) hashing and allocation-
    /// free; after a structural edit it just stores the leaf (the
    /// whole interior is rebuilt at the next root query anyway).
    ///
    /// # Panics
    ///
    /// Panics if `index >= leaf_count` — the accumulator is a cache
    /// over state the caller owns, so an out-of-range update is a
    /// caller bug, not hostile input.
    pub fn update_leaf(&mut self, index: usize, leaf: Hash) {
        assert!(
            index < self.leaf_count,
            "update_leaf index {index} out of range ({} leaves)",
            self.leaf_count
        );
        if self.nodes[index] == leaf {
            return;
        }
        self.nodes[index] = leaf;
        if !self.interior_valid {
            return;
        }
        // Walk the root path: at each level rehash the touched pair
        // (or copy an odd promoted node) into the parent slot.
        let mut pos = index;
        let mut width = self.leaf_count;
        let mut level = 0usize;
        while width > 1 {
            let start = self.level_starts[level];
            let parent_start = self.level_starts[level + 1];
            let sibling = pos ^ 1;
            let parent = if sibling < width {
                let (l, r) = if pos.is_multiple_of(2) {
                    (pos, sibling)
                } else {
                    (sibling, pos)
                };
                node_hash(&self.nodes[start + l], &self.nodes[start + r])
            } else {
                // Odd node: promoted unchanged to the parent level.
                self.nodes[start + pos]
            };
            pos /= 2;
            self.nodes[parent_start + pos] = parent;
            width = width.div_ceil(2);
            level += 1;
        }
    }

    /// Rebuilds every interior level bottom-up in the flat node array,
    /// batching four parents per [`sha256_x4`] pass (pair inputs are
    /// 64 bytes of adjacent child hashes, staged four pairs at a time
    /// for the lockstep kernel), reusing this accumulator's buffers.
    fn rebuild_interior(&mut self) {
        self.nodes.truncate(self.leaf_count);
        self.level_starts.clear();
        self.level_starts.push(0);
        let mut start = 0usize;
        let mut width = self.leaf_count;
        while width > 1 {
            let next_start = self.nodes.len();
            let pairs = width / 2;
            let mut p = 0usize;
            let mut stage = [[0u8; 2 * DIGEST_LEN]; 4];
            while p + 4 <= pairs {
                for (l, buf) in stage.iter_mut().enumerate() {
                    let child = start + 2 * (p + l);
                    buf[..DIGEST_LEN].copy_from_slice(&self.nodes[child]);
                    buf[DIGEST_LEN..].copy_from_slice(&self.nodes[child + 1]);
                }
                self.nodes.extend_from_slice(&sha256_x4(
                    &[NODE_TAG],
                    [&stage[0], &stage[1], &stage[2], &stage[3]],
                ));
                p += 4;
            }
            while p < pairs {
                let child = start + 2 * p;
                let h = node_hash(&self.nodes[child], &self.nodes[child + 1]);
                self.nodes.push(h);
                p += 1;
            }
            if width % 2 == 1 {
                // Promote the odd node unchanged.
                let last = self.nodes[start + width - 1];
                self.nodes.push(last);
            }
            self.level_starts.push(next_start);
            start = next_start;
            width = width.div_ceil(2);
        }
        self.interior_valid = true;
    }

    /// The root commitment over the current leaves. Rebuilds the
    /// interior only if a structural edit invalidated it; with a warm
    /// interior this is a cached read.
    pub fn root(&mut self) -> Hash {
        if !self.interior_valid {
            self.rebuild_interior();
        }
        match self.nodes.last() {
            Some(root) => *root,
            None => leaf_hash(b"nymix:empty-merkle-tree"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocks(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("block-{i}").into_bytes()).collect()
    }

    /// A tree with one leaf per block, built through `push_leaf`.
    fn build(blocks: &[Vec<u8>]) -> MerkleAccumulator {
        let mut t = MerkleAccumulator::new();
        for b in blocks {
            t.push_leaf(leaf_hash(b));
        }
        t
    }

    /// Reference build: scalar hashing, per-level vectors, as the seed
    /// implemented it. The batched build must commit to the same root.
    fn reference_root(blocks: &[Vec<u8>]) -> Hash {
        let mut level: Vec<Hash> = blocks.iter().map(|b| leaf_hash(b)).collect();
        if level.is_empty() {
            return leaf_hash(b"nymix:empty-merkle-tree");
        }
        while level.len() > 1 {
            level = level
                .chunks(2)
                .map(|pair| {
                    if pair.len() == 2 {
                        node_hash(&pair[0], &pair[1])
                    } else {
                        pair[0]
                    }
                })
                .collect();
        }
        level[0]
    }

    #[test]
    fn batched_build_matches_scalar_reference() {
        // The interior rebuild batches four parents per x4 pass; every
        // tree size, over equal-length and ragged blocks, must agree
        // with the scalar per-level reference build.
        for n in 0usize..=33 {
            let uniform: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; 64]).collect();
            assert_eq!(
                build(&uniform).root(),
                reference_root(&uniform),
                "uniform n={n}"
            );

            let ragged: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; 1 + (i % 7)]).collect();
            assert_eq!(
                build(&ragged).root(),
                reference_root(&ragged),
                "ragged n={n}"
            );
        }
    }

    #[test]
    fn root_from_leaves_matches_full_build() {
        for n in 0usize..=33 {
            let data = blocks(n);
            let mut leaves: Vec<Hash> = data.iter().map(|b| leaf_hash(b)).collect();
            assert_eq!(
                merkle_root_from_leaves(&mut leaves),
                build(&data).root(),
                "n={n}"
            );
        }
    }

    #[test]
    fn incremental_matches_scratch() {
        // Every (size, dirty-index) pair: updating one leaf in a warm
        // accumulator must commit to the same root as a from-scratch
        // fold over the mutated leaf level.
        for n in 1usize..=33 {
            let mut acc = MerkleAccumulator::new();
            let mut leaves: Vec<Hash> = (0..n).map(|i| leaf_hash(&[i as u8; 9])).collect();
            for leaf in &leaves {
                acc.push_leaf(*leaf);
            }
            assert_eq!(acc.root(), merkle_root_from_leaves(&mut leaves.clone()));
            for dirty in 0..n {
                let new_leaf = leaf_hash(format!("dirty-{n}-{dirty}").as_bytes());
                leaves[dirty] = new_leaf;
                acc.update_leaf(dirty, new_leaf);
                assert_eq!(
                    acc.root(),
                    merkle_root_from_leaves(&mut leaves.clone()),
                    "n={n} dirty={dirty}"
                );
            }
        }
    }

    #[test]
    fn accumulator_structural_edits_match_scratch() {
        // push/truncate change the tree shape; the rebuilt interior
        // must still agree with a from-scratch fold.
        let mut acc = MerkleAccumulator::new();
        let mut leaves: Vec<Hash> = Vec::new();
        assert_eq!(acc.root(), merkle_root_from_leaves(&mut leaves.clone()));
        for i in 0..17u8 {
            let leaf = leaf_hash(&[i; 5]);
            acc.push_leaf(leaf);
            leaves.push(leaf);
            assert_eq!(
                acc.root(),
                merkle_root_from_leaves(&mut leaves.clone()),
                "grow {i}"
            );
        }
        for len in (0..17usize).rev() {
            acc.truncate(len);
            leaves.truncate(len);
            assert_eq!(
                acc.root(),
                merkle_root_from_leaves(&mut leaves.clone()),
                "shrink {len}"
            );
            assert_eq!(acc.leaf_count(), len);
        }
    }

    #[test]
    fn accumulator_mixed_ops_match_scratch() {
        // Interleave updates with shape changes so update paths run
        // against interiors that were rebuilt mid-stream.
        let mut acc = MerkleAccumulator::new();
        let mut leaves: Vec<Hash> = Vec::new();
        for step in 0..60u32 {
            match step % 4 {
                0 | 1 => {
                    let leaf = leaf_hash(&step.to_le_bytes());
                    acc.push_leaf(leaf);
                    leaves.push(leaf);
                }
                2 if !leaves.is_empty() => {
                    let i = (step as usize * 7) % leaves.len();
                    let leaf = leaf_hash(format!("upd-{step}").as_bytes());
                    // Alternate warm (root queried first) and cold updates.
                    if step % 8 == 2 {
                        acc.root();
                    }
                    acc.update_leaf(i, leaf);
                    leaves[i] = leaf;
                }
                3 if leaves.len() > 2 => {
                    let len = leaves.len() - 2;
                    acc.truncate(len);
                    leaves.truncate(len);
                }
                _ => {}
            }
            assert_eq!(
                acc.root(),
                merkle_root_from_leaves(&mut leaves.clone()),
                "step {step}"
            );
        }
    }

    #[test]
    fn leaf_hash_parts_matches_contiguous() {
        let whole = b"record-name\x00payload bytes";
        assert_eq!(
            leaf_hash_parts(&[b"record-name", b"\x00", b"payload bytes"]),
            leaf_hash(whole)
        );
        assert_eq!(leaf_hash_parts(&[]), leaf_hash(b""));
        // Moving a boundary must change the hash (framing matters to
        // callers, so parts are hashed exactly as concatenation).
        assert_ne!(
            leaf_hash_parts(&[b"ab", b"c"]),
            leaf_hash_parts(&[b"a", b"b!c"])
        );
    }

    #[test]
    fn leaf_cannot_impersonate_node() {
        // Hash of (left||right) as a *leaf* must not equal the parent node.
        let data = blocks(2);
        let mut tree = build(&data);
        let l = leaf_hash(&data[0]);
        let r = leaf_hash(&data[1]);
        let mut fake = Vec::new();
        fake.extend_from_slice(&l);
        fake.extend_from_slice(&r);
        assert_ne!(leaf_hash(&fake), tree.root());
    }

    #[test]
    fn empty_tree_has_stable_root() {
        let mut t1 = MerkleAccumulator::new();
        let mut t2 = build(&[]);
        assert_eq!(t1.root(), t2.root());
        assert_eq!(t1.root(), merkle_root_from_leaves(&mut []));
        assert_eq!(t1.leaf_count(), 0);
    }

    #[test]
    fn roots_differ_on_any_block_change() {
        let mut data = blocks(5);
        let root = build(&data).root();
        for i in 0..data.len() {
            data[i][0] ^= 1;
            assert_ne!(build(&data).root(), root, "block {i}");
            data[i][0] ^= 1;
        }
        assert_eq!(build(&data).root(), root);
    }
}

//! Disk block images and the Merkle-verified base image.
//!
//! §3.4: Nymix "must ensure that the host OS partition is always mounted
//! read-only and never modified for any reason" — any change, however
//! minute, would manifest in every subsequently created AnonVM and become
//! a tracking vector. The paper proposes (but had not implemented)
//! checking "all disk blocks loaded from the host OS partition into an
//! AnonVM or CommVM against a well-known Merkle tree as they are
//! accessed", shutting down safely on mismatch. [`VerifiedImage`]
//! implements that read path.

use std::collections::BTreeMap;

use nymix_crypto::MerkleAccumulator;

use crate::layer::{Layer, LayerKind};
use crate::path::Path;

/// Block size of simulated disk images (4 KiB, like the prototype's
/// qcow2-backed virtual disks).
pub const BLOCK_SIZE: usize = 4096;

/// A raw block device image.
///
/// # Examples
///
/// ```
/// use nymix_fs::{BlockImage, BLOCK_SIZE};
///
/// let mut img = BlockImage::new(4);
/// img.write_block(1, &[0xab; BLOCK_SIZE]).unwrap();
/// assert_eq!(img.read_block(1).unwrap()[0], 0xab);
/// ```
#[derive(Debug, Clone)]
pub struct BlockImage {
    blocks: Vec<Vec<u8>>,
}

impl BlockImage {
    /// Creates a zero-filled image of `block_count` blocks.
    pub fn new(block_count: usize) -> Self {
        Self {
            blocks: vec![vec![0u8; BLOCK_SIZE]; block_count],
        }
    }

    /// Number of blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Total size in bytes.
    pub fn byte_len(&self) -> usize {
        self.blocks.len() * BLOCK_SIZE
    }

    /// Reads block `index`.
    pub fn read_block(&self, index: usize) -> Option<&[u8]> {
        self.blocks.get(index).map(|b| b.as_slice())
    }

    /// Overwrites block `index`.
    pub fn write_block(&mut self, index: usize, data: &[u8; BLOCK_SIZE]) -> Option<()> {
        let block = self.blocks.get_mut(index)?;
        block.copy_from_slice(data);
        Some(())
    }

    /// Flips one byte in a block — used by tests and the red-team
    /// tamper-detection experiments.
    pub fn corrupt(&mut self, index: usize, offset: usize, xor: u8) -> Option<()> {
        let block = self.blocks.get_mut(index)?;
        let byte = block.get_mut(offset)?;
        *byte ^= xor;
        Some(())
    }

    /// Builds a Merkle tree over all blocks.
    pub fn merkle(&self) -> MerkleAccumulator {
        MerkleAccumulator::from_blocks(self.blocks.iter().map(|b| b.as_slice()))
    }
}

/// Error raised when a verified read detects tampering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TamperDetected {
    /// Index of the offending block.
    pub block: usize,
}

impl core::fmt::Display for TamperDetected {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "host OS partition block {} failed Merkle verification; shutting down",
            self.block
        )
    }
}

impl std::error::Error for TamperDetected {}

/// A block image whose reads are checked against a pinned Merkle root.
///
/// The root would ship inside the (signed) Nymix distribution; a block
/// modified by another OS while the USB stick was plugged in fails
/// verification on first access and the VM refuses to continue.
#[derive(Debug, Clone)]
pub struct VerifiedImage {
    image: BlockImage,
    root: [u8; 32],
    block_count: usize,
    proofs: Vec<Vec<([u8; 32], bool)>>,
    verified_reads: u64,
}

impl VerifiedImage {
    /// Pins `image` to its current content.
    pub fn seal(image: BlockImage) -> Self {
        let mut tree = image.merkle();
        let proofs = (0..image.block_count())
            .map(|i| tree.prove(i).expect("index in range"))
            .collect();
        Self {
            root: tree.root(),
            block_count: image.block_count(),
            image,
            proofs,
            verified_reads: 0,
        }
    }

    /// The pinned root hash (what the distribution would publish).
    pub fn root(&self) -> [u8; 32] {
        self.root
    }

    /// Number of committed blocks.
    pub fn block_count(&self) -> usize {
        self.block_count
    }

    /// Number of reads that have passed verification.
    pub fn verified_reads(&self) -> u64 {
        self.verified_reads
    }

    /// Reads block `index`, verifying it against the pinned root.
    ///
    /// # Errors
    ///
    /// Returns [`TamperDetected`] if the block no longer matches; per
    /// §3.4 the caller must shut the VM down rather than continue.
    pub fn read_block(&mut self, index: usize) -> Result<&[u8], TamperDetected> {
        let block = self
            .image
            .read_block(index)
            .ok_or(TamperDetected { block: index })?;
        let proof = &self.proofs[index];
        if MerkleAccumulator::verify(&self.root, index, block, proof, self.block_count) {
            self.verified_reads += 1;
            Ok(self.image.read_block(index).expect("checked above"))
        } else {
            Err(TamperDetected { block: index })
        }
    }

    /// Mutable access to the underlying image — only for tamper tests.
    pub fn raw_image_mut(&mut self) -> &mut BlockImage {
        &mut self.image
    }
}

/// The Nymix base OS image: a deterministic Ubuntu-14.04-like file tree
/// plus its serialized block representation.
///
/// The same image serves as the hypervisor root, every AnonVM, every
/// CommVM, and the SaniVM (§3.4: "Nymix uses the OS image installed on
/// the Nymix USB as the host OS ... as well as the basic VM image for
/// all AnonVMs and CommVMs"). Sharing one image is what makes KSM
/// effective (§4.2).
#[derive(Debug, Clone)]
pub struct BaseImage {
    files: BTreeMap<Path, Vec<u8>>,
}

impl Default for BaseImage {
    fn default() -> Self {
        Self::ubuntu_like()
    }
}

impl BaseImage {
    /// Builds the default deterministic base tree.
    ///
    /// Contents are synthetic but structured: system binaries, shared
    /// libraries, the Chromium browser, Tor/Dissent binaries, and config
    /// defaults. File bytes are deterministic functions of the path so
    /// every Nymix instance ships the identical image.
    pub fn ubuntu_like() -> Self {
        let mut files = BTreeMap::new();
        // Sizes are scaled ~1:20 from the real distribution so that the
        // in-memory image stays test-friendly; the VMM's page/KSM model
        // (which drives the memory figures) accounts VM RAM separately.
        let spec: &[(&str, usize)] = &[
            ("/bin/bash", 50_000),
            ("/bin/ls", 6_000),
            ("/bin/mount", 2_000),
            ("/sbin/init", 12_500),
            ("/sbin/iptables", 30_000),
            ("/lib/libc.so.6", 90_000),
            ("/lib/libssl.so", 21_500),
            ("/lib/libcrypto.so", 100_000),
            ("/usr/bin/chromium", 4_750_000),
            ("/usr/bin/tor", 130_000),
            ("/usr/bin/dissent", 210_000),
            ("/usr/bin/sweet", 45_000),
            ("/usr/bin/mat", 17_500),
            ("/usr/bin/qemu-system-x86_64", 550_000),
            ("/usr/lib/xorg/Xorg", 115_000),
            ("/usr/share/fonts/dejavu.ttf", 35_000),
            ("/etc/rc.local", 300),
            ("/etc/hostname", 6),
            ("/etc/hosts", 180),
            ("/etc/resolv.conf", 60),
            ("/etc/network/interfaces", 240),
            ("/etc/tor/torrc", 1_400),
            ("/etc/dissent/dissent.conf", 900),
            ("/etc/X11/xorg.conf", 2_000),
        ];
        for (path, size) in spec {
            files.insert(Path::new(path), Self::deterministic_bytes(path, *size));
        }
        Self { files }
    }

    /// A tiny base image for fast tests.
    pub fn minimal() -> Self {
        let mut files = BTreeMap::new();
        for (path, size) in [("/bin/sh", 4096usize), ("/etc/rc.local", 64)] {
            files.insert(Path::new(path), Self::deterministic_bytes(path, size));
        }
        Self { files }
    }

    fn deterministic_bytes(path: &str, size: usize) -> Vec<u8> {
        // Keyed keystream: cheap, deterministic, and incompressible —
        // a reasonable stand-in for binary content. Config files get
        // text-ish content instead.
        if size <= 4096 {
            let line = format!("# nymix base config: {path}\n");
            return line.as_bytes().iter().copied().cycle().take(size).collect();
        }
        let digest = nymix_crypto::sha256(path.as_bytes());
        let mut key = [0u8; 32];
        key.copy_from_slice(&digest);
        let nonce = [0u8; 12];
        let mut content = vec![0u8; size];
        nymix_crypto::ChaCha20::new(&key, &nonce, 0).xor_into(&mut content);
        content
    }

    /// Files in the image.
    pub fn files(&self) -> impl Iterator<Item = (&Path, &Vec<u8>)> {
        self.files.iter()
    }

    /// Total content bytes.
    pub fn total_bytes(&self) -> usize {
        self.files.values().map(Vec::len).sum()
    }

    /// Materializes the image as a read-only [`Layer`].
    pub fn to_layer(&self) -> Layer {
        let mut layer = Layer::new(LayerKind::Base);
        for (path, data) in &self.files {
            layer.put_file(path.clone(), data.clone());
        }
        layer
    }

    /// Serializes the tree into a block image (simple concatenated
    /// format: for each file, a length-prefixed path and contents),
    /// padded to whole blocks.
    pub fn to_block_image(&self) -> BlockImage {
        let mut bytes = Vec::new();
        for (path, data) in &self.files {
            let p = path.to_string();
            bytes.extend_from_slice(&(p.len() as u32).to_le_bytes());
            bytes.extend_from_slice(p.as_bytes());
            bytes.extend_from_slice(&(data.len() as u64).to_le_bytes());
            bytes.extend_from_slice(data);
        }
        let block_count = bytes.len().div_ceil(BLOCK_SIZE).max(1);
        let mut image = BlockImage::new(block_count);
        for (i, chunk) in bytes.chunks(BLOCK_SIZE).enumerate() {
            let mut block = [0u8; BLOCK_SIZE];
            block[..chunk.len()].copy_from_slice(chunk);
            image.write_block(i, &block).expect("index in range");
        }
        image
    }

    /// Convenience: sealed, verification-checked block image.
    pub fn to_verified_image(&self) -> VerifiedImage {
        VerifiedImage::seal(self.to_block_image())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_image_rw() {
        let mut img = BlockImage::new(3);
        assert_eq!(img.block_count(), 3);
        assert_eq!(img.byte_len(), 3 * BLOCK_SIZE);
        img.write_block(2, &[9u8; BLOCK_SIZE]).unwrap();
        assert_eq!(img.read_block(2).unwrap()[100], 9);
        assert!(img.read_block(3).is_none());
        assert!(img.write_block(3, &[0u8; BLOCK_SIZE]).is_none());
    }

    #[test]
    fn verified_reads_pass_when_untouched() {
        let base = BaseImage::minimal();
        let mut v = base.to_verified_image();
        for i in 0..v.image.block_count() {
            assert!(v.read_block(i).is_ok(), "block {i}");
        }
        assert_eq!(v.verified_reads(), v.image.block_count() as u64);
    }

    #[test]
    fn single_byte_corruption_detected() {
        let base = BaseImage::minimal();
        let mut v = base.to_verified_image();
        v.raw_image_mut().corrupt(0, 17, 0x01).unwrap();
        assert_eq!(v.read_block(0), Err(TamperDetected { block: 0 }));
        // Other blocks still verify.
        if v.raw_image_mut().block_count() > 1 {
            assert!(v.read_block(1).is_ok());
        }
    }

    #[test]
    fn base_image_is_deterministic() {
        let a = BaseImage::ubuntu_like();
        let b = BaseImage::ubuntu_like();
        assert_eq!(
            a.to_block_image().merkle().root(),
            b.to_block_image().merkle().root()
        );
    }

    #[test]
    fn base_image_has_expected_shape() {
        let img = BaseImage::ubuntu_like();
        let layer = img.to_layer();
        assert!(layer.get(&Path::new("/usr/bin/chromium")).is_some());
        assert!(layer.get(&Path::new("/usr/bin/tor")).is_some());
        assert!(layer.get(&Path::new("/etc/rc.local")).is_some());
        // Chromium dominates; total over 5 MB (scaled 1:20).
        assert!(img.total_bytes() > 5_000_000);
    }

    #[test]
    fn minimal_image_small() {
        assert!(BaseImage::minimal().total_bytes() < 10_000);
    }

    #[test]
    fn config_files_are_textual() {
        let img = BaseImage::ubuntu_like();
        let layer = img.to_layer();
        if let Some(crate::layer::Node::File(data)) = layer.get(&Path::new("/etc/hosts")) {
            assert!(data.starts_with(b"# nymix base config"));
        } else {
            panic!("missing /etc/hosts");
        }
    }
}

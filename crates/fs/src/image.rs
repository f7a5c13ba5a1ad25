//! The Nymix base OS image.
//!
//! §3.4: Nymix "must ensure that the host OS partition is always mounted
//! read-only and never modified for any reason" — any change, however
//! minute, would manifest in every subsequently created AnonVM and become
//! a tracking vector. The paper proposes (but had not implemented)
//! checking "all disk blocks loaded from the host OS partition into an
//! AnonVM or CommVM against a well-known Merkle tree as they are
//! accessed", shutting down safely on mismatch. That check is not
//! modeled: it would add host CPU to every VM creation and restore, and
//! no figure measures it. It comes back only with the `repro` row that
//! measures its cost.

use std::collections::BTreeMap;

use crate::layer::{Layer, LayerKind};
use crate::path::Path;

/// The Nymix base OS image: a deterministic Ubuntu-14.04-like file tree.
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

    /// Materializes the image as a read-only [`Layer`].
    pub fn to_layer(&self) -> Layer {
        let mut layer = Layer::new(LayerKind::Base);
        for (path, data) in &self.files {
            layer.put_file(path.clone(), data.clone());
        }
        layer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total_bytes(img: &BaseImage) -> usize {
        img.files().map(|(_, data)| data.len()).sum()
    }

    #[test]
    fn base_image_is_deterministic() {
        let a = BaseImage::ubuntu_like();
        let b = BaseImage::ubuntu_like();
        assert!(a.files().eq(b.files()));
    }

    #[test]
    fn base_image_has_expected_shape() {
        let img = BaseImage::ubuntu_like();
        let layer = img.to_layer();
        assert!(layer.get(&Path::new("/usr/bin/chromium")).is_some());
        assert!(layer.get(&Path::new("/usr/bin/tor")).is_some());
        assert!(layer.get(&Path::new("/etc/rc.local")).is_some());
        // Chromium dominates; total over 5 MB (scaled 1:20).
        assert!(total_bytes(&img) > 5_000_000);
    }

    #[test]
    fn minimal_image_small() {
        assert!(total_bytes(&BaseImage::minimal()) < 10_000);
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

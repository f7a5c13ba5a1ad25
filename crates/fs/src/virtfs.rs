//! VirtFS-style shared folders.
//!
//! The prototype uses KVM's VirtFS to pass host paths into guests
//! (§4.2): configuration file systems are attached to VMs as VirtFS
//! paths, and the sanitized-file-transfer pipeline moves files
//! SaniVM → hypervisor → AnonVM through chained shared folders (§4.3).
//!
//! A [`VirtfsShare`] maps a subtree of a source filesystem into a guest
//! mount point with an access mode. Shares are *copy-through*: the
//! transfer APIs copy file bytes between [`UnionFs`] instances, never
//! aliasing them — VMs must not share mutable state.

use crate::path::Path;
use crate::union::{FsError, UnionFs};

/// Access mode for a share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShareMode {
    /// Guest may only read through the share.
    ReadOnly,
    /// Guest may read and files may be pushed in.
    ReadWrite,
}

/// A mapping from a host-side subtree to a guest mount point.
#[derive(Debug, Clone)]
pub struct VirtfsShare {
    /// Subtree on the source (host) filesystem.
    pub host_root: Path,
    /// Mount point inside the guest.
    pub guest_root: Path,
    /// Access mode.
    pub mode: ShareMode,
}

impl VirtfsShare {
    /// Creates a share.
    pub fn new(host_root: Path, guest_root: Path, mode: ShareMode) -> Self {
        Self {
            host_root,
            guest_root,
            mode,
        }
    }

    /// Copies one file from `host` into `guest` through this share.
    ///
    /// `host_path` must lie under [`Self::host_root`]; the file lands at
    /// the corresponding path under [`Self::guest_root`].
    ///
    /// # Errors
    ///
    /// Fails if the path is outside the share, missing on the host, or
    /// the guest filesystem rejects the write.
    pub fn copy_in(
        &self,
        host: &UnionFs,
        guest: &mut UnionFs,
        host_path: &Path,
    ) -> Result<Path, FsError> {
        let guest_path = host_path
            .rebase(&self.host_root, &self.guest_root)
            .ok_or_else(|| FsError::NotFound(host_path.to_string()))?;
        let data = host.read(host_path)?.to_vec();
        if let Some(parent) = guest_path.parent() {
            guest.mkdir(&parent)?;
        }
        guest.write(&guest_path, data)?;
        Ok(guest_path)
    }

    /// Copies one file out of `guest` back to `host`.
    ///
    /// Only permitted for [`ShareMode::ReadWrite`] shares.
    pub fn copy_out(
        &self,
        guest: &UnionFs,
        host: &mut UnionFs,
        guest_path: &Path,
    ) -> Result<Path, FsError> {
        if self.mode == ShareMode::ReadOnly {
            return Err(FsError::ReadOnly);
        }
        let host_path = guest_path
            .rebase(&self.guest_root, &self.host_root)
            .ok_or_else(|| FsError::NotFound(guest_path.to_string()))?;
        let data = guest.read(guest_path)?.to_vec();
        if let Some(parent) = host_path.parent() {
            host.mkdir(&parent)?;
        }
        host.write(&host_path, data)?;
        Ok(host_path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Layer, LayerKind};

    fn fs_with(files: &[(&str, &[u8])]) -> UnionFs {
        let mut base = Layer::new(LayerKind::Base);
        for (p, d) in files {
            base.put_file(Path::new(p), d.to_vec());
        }
        UnionFs::new(vec![base, Layer::new(LayerKind::Writable)]).unwrap()
    }

    #[test]
    fn copy_in_rebases_path() {
        let host = fs_with(&[("/outbox/nym1/photo.jpg", b"jpegdata")]);
        let mut guest = fs_with(&[]);
        let share = VirtfsShare::new(
            Path::new("/outbox/nym1"),
            Path::new("/media/incoming"),
            ShareMode::ReadOnly,
        );
        let landed = share
            .copy_in(&host, &mut guest, &Path::new("/outbox/nym1/photo.jpg"))
            .unwrap();
        assert_eq!(landed.to_string(), "/media/incoming/photo.jpg");
        assert_eq!(guest.read(&landed).unwrap(), b"jpegdata");
    }

    #[test]
    fn copy_in_rejects_paths_outside_share() {
        let host = fs_with(&[("/etc/shadow", b"secret")]);
        let mut guest = fs_with(&[]);
        let share = VirtfsShare::new(
            Path::new("/outbox"),
            Path::new("/media"),
            ShareMode::ReadOnly,
        );
        assert!(share
            .copy_in(&host, &mut guest, &Path::new("/etc/shadow"))
            .is_err());
    }

    #[test]
    fn copy_out_requires_rw() {
        let guest = fs_with(&[("/media/out/f", b"x")]);
        let mut host = fs_with(&[]);
        let ro = VirtfsShare::new(
            Path::new("/drop"),
            Path::new("/media/out"),
            ShareMode::ReadOnly,
        );
        assert_eq!(
            ro.copy_out(&guest, &mut host, &Path::new("/media/out/f")),
            Err(FsError::ReadOnly)
        );
        let rw = VirtfsShare::new(
            Path::new("/drop"),
            Path::new("/media/out"),
            ShareMode::ReadWrite,
        );
        let landed = rw
            .copy_out(&guest, &mut host, &Path::new("/media/out/f"))
            .unwrap();
        assert_eq!(landed.to_string(), "/drop/f");
        assert_eq!(host.read(&landed).unwrap(), b"x");
    }

    #[test]
    fn copies_are_independent() {
        let host = fs_with(&[("/outbox/f", b"orig")]);
        let mut guest = fs_with(&[]);
        let share = VirtfsShare::new(Path::new("/outbox"), Path::new("/in"), ShareMode::ReadOnly);
        share
            .copy_in(&host, &mut guest, &Path::new("/outbox/f"))
            .unwrap();
        guest
            .write(&Path::new("/in/f"), b"mutated".to_vec())
            .unwrap();
        // Host copy unaffected: no aliasing between VMs.
        assert_eq!(host.read(&Path::new("/outbox/f")).unwrap(), b"orig");
    }
}

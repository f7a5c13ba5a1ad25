//! The SaniVM: the only path files may take into a nymbox.
//!
//! §3.6: "Nymix never gives a nymbox direct access to files on the
//! client machine's installed OS. Instead, Nymix delegates this
//! responsibility to a dedicated, non-networked sanitation VM... Nymix
//! creates a unique directory within the SaniVM for each nym. The
//! SaniVM detects when the user moves files into this directory and
//! launches the scrubbing workflow. Once scrubbing completes, the
//! SaniVM finally copies the file into a directory visible to the
//! appropriate nym's AnonVM."
//!
//! §4.3: the hop sequence is SaniVM → hypervisor shared folder →
//! AnonVM shared folder, both VirtFS.

use nymix_fs::{FsError, Layer, LayerKind, Path, ShareMode, UnionFs, VirtfsShare};
use nymix_sanitizer::{scrub, ParanoiaLevel, ScrubReport};
use nymix_vmm::Vm;

/// The SaniVM and its mounts.
pub struct SaniVm {
    /// The SaniVM's own filesystem (scratch space + per-nym outboxes).
    fs: UnionFs,
    /// Host filesystems mounted read-only into the SaniVM.
    host_mounts: Vec<(String, UnionFs)>,
}

/// Error from a sanitized transfer.
#[derive(Debug)]
pub enum SaniError {
    /// Filesystem failure.
    Fs(FsError),
    /// Unknown host mount.
    NoSuchMount(String),
    /// Scrubbing left high-severity risks and `force` was not set.
    StillRisky(ScrubReport),
}

impl core::fmt::Display for SaniError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SaniError::Fs(e) => write!(f, "filesystem: {e}"),
            SaniError::NoSuchMount(m) => write!(f, "no such mount: {m}"),
            SaniError::StillRisky(r) => {
                write!(f, "{} risk(s) remain after scrubbing", r.risks_after.len())
            }
        }
    }
}

impl std::error::Error for SaniError {}

impl From<FsError> for SaniError {
    fn from(e: FsError) -> Self {
        SaniError::Fs(e)
    }
}

impl Default for SaniVm {
    fn default() -> Self {
        Self::new()
    }
}

impl SaniVm {
    /// Boots an empty SaniVM.
    pub fn new() -> Self {
        let fs = UnionFs::new(vec![
            nymix_fs::BaseImage::minimal().to_layer(),
            Layer::new(LayerKind::Writable),
        ])
        .expect("valid stack");
        Self {
            fs,
            host_mounts: Vec::new(),
        }
    }

    /// Mounts a host filesystem read-only under `/mnt/<name>` ("Upon
    /// boot, Nymix searches the computer for file systems unrelated to
    /// Nymix and mounts them in the SaniVM", §3.6).
    pub fn mount_host_fs(&mut self, name: &str, fs: UnionFs) {
        self.host_mounts.push((name.to_string(), fs));
    }

    /// Lists files visible on a host mount.
    pub fn browse(&self, mount: &str) -> Result<Vec<Path>, SaniError> {
        let (_, fs) = self
            .host_mounts
            .iter()
            .find(|(n, _)| n == mount)
            .ok_or_else(|| SaniError::NoSuchMount(mount.to_string()))?;
        Ok(fs.walk_files(&Path::root()))
    }

    /// The per-nym inbox directory inside the SaniVM.
    fn nym_inbox(nym_name: &str) -> Path {
        Path::new(&format!("/outbox/{nym_name}"))
    }

    /// Transfers one host file to a nym's AnonVM through the scrubbing
    /// workflow. Returns the scrub report and the AnonVM-side path.
    ///
    /// When `force` is false, a file whose post-scrub risk list is
    /// non-empty is *refused* — the user must escalate the paranoia
    /// level or explicitly override.
    pub fn transfer_to_nym(
        &mut self,
        mount: &str,
        host_path: &Path,
        nym_name: &str,
        anon_vm: &mut Vm,
        level: ParanoiaLevel,
        force: bool,
    ) -> Result<(ScrubReport, Path), SaniError> {
        let (_, host_fs) = self
            .host_mounts
            .iter()
            .find(|(n, _)| n == mount)
            .ok_or_else(|| SaniError::NoSuchMount(mount.to_string()))?;

        // Step 1: user drops the file into the nym's inbox (copy into
        // the SaniVM's own fs — the host stays untouched).
        let data = host_fs.read(host_path)?.to_vec();
        let inbox = Self::nym_inbox(nym_name);
        let staged = inbox.join(host_path.file_name().unwrap_or("file"));
        self.fs.write(&staged, data.clone())?;

        // Step 2: the scrubbing workflow runs automatically.
        let report = scrub(&data, level);
        if !report.clean() && !force {
            // Remove the staged copy; nothing reaches the nym.
            let _ = self.fs.unlink(&staged);
            return Err(SaniError::StillRisky(report));
        }

        // Step 3: SaniVM → hypervisor → AnonVM via chained VirtFS
        // shares (§4.3). The scrubbed output is what crosses.
        self.fs.write(&staged, report.output.clone())?;
        let mut hypervisor_fs =
            UnionFs::new(vec![Layer::new(LayerKind::Writable)]).expect("valid stack");
        let sani_to_hyp =
            VirtfsShare::new(inbox.clone(), Path::new("/shared"), ShareMode::ReadWrite);
        // copy_out moves guest (SaniVM) files back to "host" (here the
        // hypervisor's staging fs).
        let hyp_share = VirtfsShare::new(Path::new("/shared"), inbox.clone(), ShareMode::ReadWrite);
        let hyp_path = hyp_share.copy_out(&self.fs, &mut hypervisor_fs, &staged)?;
        let hyp_to_anon = VirtfsShare::new(
            Path::new("/shared"),
            Path::new("/media/incoming"),
            ShareMode::ReadOnly,
        );
        let landed = hyp_to_anon.copy_in(&hypervisor_fs, anon_vm.disk_mut(), &hyp_path)?;
        let _ = sani_to_hyp;
        Ok((report, landed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nymix_sanitizer::{JpegImage, MediaFile, RiskKind};
    use nymix_vmm::{VmConfig, VmId};

    fn host_fs_with_photo() -> UnionFs {
        let mut base = Layer::new(LayerKind::Base);
        base.put_file(
            Path::new("/photos/protest.jpg"),
            MediaFile::Jpeg(JpegImage::protest_photo()).to_bytes(),
        );
        base.put_file(
            Path::new("/docs/memo.pdf"),
            MediaFile::Pdf(nymix_sanitizer::PdfDoc::memo()).to_bytes(),
        );
        UnionFs::new(vec![base]).expect("valid stack")
    }

    fn anon_vm() -> Vm {
        let mut vm = Vm::new(
            VmId(9),
            VmConfig::anonvm(),
            nymix_fs::BaseImage::minimal().to_layer(),
            Layer::new(LayerKind::Config),
        );
        vm.boot(0.05, 0.3);
        vm
    }

    #[test]
    fn browse_lists_host_files() {
        let mut sani = SaniVm::new();
        sani.mount_host_fs("installed-os", host_fs_with_photo());
        let files = sani.browse("installed-os").unwrap();
        assert_eq!(files.len(), 2);
        assert!(matches!(
            sani.browse("nope"),
            Err(SaniError::NoSuchMount(_))
        ));
    }

    #[test]
    fn risky_photo_refused_at_low_paranoia() {
        let mut sani = SaniVm::new();
        sani.mount_host_fs("os", host_fs_with_photo());
        let mut vm = anon_vm();
        let err = sani
            .transfer_to_nym(
                "os",
                &Path::new("/photos/protest.jpg"),
                "tweeter",
                &mut vm,
                ParanoiaLevel::Basic,
                false,
            )
            .unwrap_err();
        match err {
            SaniError::StillRisky(report) => {
                assert!(report
                    .risks_after
                    .iter()
                    .any(|r| r.kind == RiskKind::VisibleFaces));
            }
            other => panic!("unexpected: {other}"),
        }
        // Nothing reached the AnonVM.
        assert!(vm.disk().walk_files(&Path::new("/media")).is_empty());
    }

    #[test]
    fn paranoid_transfer_lands_clean_file() {
        let mut sani = SaniVm::new();
        sani.mount_host_fs("os", host_fs_with_photo());
        let mut vm = anon_vm();
        let (report, landed) = sani
            .transfer_to_nym(
                "os",
                &Path::new("/photos/protest.jpg"),
                "tweeter",
                &mut vm,
                ParanoiaLevel::Paranoid,
                false,
            )
            .unwrap();
        assert!(report.clean());
        assert_eq!(landed.to_string(), "/media/incoming/protest.jpg");
        let delivered = vm.disk().read(&landed).unwrap();
        // What landed is the scrubbed output, not the original.
        if let MediaFile::Jpeg(j) = MediaFile::parse(delivered) {
            assert!(j.exif.is_empty());
            assert!(j.faces.is_empty());
            assert!(j.watermark.is_none());
        } else {
            panic!("scrubbed photo should still parse as jpeg");
        }
    }

    #[test]
    fn force_overrides_refusal() {
        let mut sani = SaniVm::new();
        sani.mount_host_fs("os", host_fs_with_photo());
        let mut vm = anon_vm();
        let (report, landed) = sani
            .transfer_to_nym(
                "os",
                &Path::new("/photos/protest.jpg"),
                "tweeter",
                &mut vm,
                ParanoiaLevel::Basic,
                true,
            )
            .unwrap();
        assert!(!report.clean());
        assert!(vm.disk().exists(&landed));
    }

    #[test]
    fn host_files_never_modified() {
        let mut sani = SaniVm::new();
        let host = host_fs_with_photo();
        let before = host
            .read(&Path::new("/photos/protest.jpg"))
            .unwrap()
            .to_vec();
        sani.mount_host_fs("os", host);
        let mut vm = anon_vm();
        let _ = sani.transfer_to_nym(
            "os",
            &Path::new("/photos/protest.jpg"),
            "n",
            &mut vm,
            ParanoiaLevel::Paranoid,
            false,
        );
        let (_, host_after) = &sani.host_mounts[0];
        assert_eq!(
            host_after.read(&Path::new("/photos/protest.jpg")).unwrap(),
            before
        );
    }

    #[test]
    fn per_nym_inboxes_are_distinct() {
        assert_ne!(SaniVm::nym_inbox("a"), SaniVm::nym_inbox("b"));
    }

    #[test]
    fn document_transfer_rasterizes() {
        let mut sani = SaniVm::new();
        sani.mount_host_fs("os", host_fs_with_photo());
        let mut vm = anon_vm();
        let (report, landed) = sani
            .transfer_to_nym(
                "os",
                &Path::new("/docs/memo.pdf"),
                "leaker",
                &mut vm,
                ParanoiaLevel::Paranoid,
                false,
            )
            .unwrap();
        assert!(report.clean());
        let delivered = vm.disk().read(&landed).unwrap();
        assert!(matches!(MediaFile::parse(delivered), MediaFile::Jpeg(_)));
    }
}

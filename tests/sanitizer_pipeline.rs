//! Cross-crate sanitizer pipeline tests: host files through the SaniVM
//! into a nymbox, with the §3.6 risk workflow end to end.

use nymix::sanivm::SaniError;
use nymix::SaniVm;
use nymix_fs::{Layer, LayerKind, Path, UnionFs};
use nymix_sanitizer::{JpegImage, MediaFile, ParanoiaLevel, RiskKind};
use nymix_vmm::{Vm, VmConfig, VmId};

fn anon_vm() -> Vm {
    let mut vm = Vm::new(
        VmId(42),
        VmConfig::anonvm(),
        nymix_fs::BaseImage::minimal().to_layer(),
        Layer::new(LayerKind::Config),
    );
    vm.boot(0.05, 0.3);
    vm
}

fn host_fs(files: &[(&str, Vec<u8>)]) -> UnionFs {
    let mut base = Layer::new(LayerKind::Base);
    for (p, d) in files {
        base.put_file(Path::new(p), d.clone());
    }
    UnionFs::new(vec![base]).expect("valid stack")
}

#[test]
fn sanivm_refuses_formats_it_does_not_parse() {
    // The MAT-style scrubber parses only its own JPEG/PDF/DOC containers.
    // Anything else cannot be certified clean, so a transfer without
    // `force` must refuse it at every level rather than pass its bytes
    // (here a PNG `tEXt` location chunk, a zip member) through.
    let mut png = b"\x89PNG\r\n\x1a\n".to_vec();
    let text = b"Location\x0038.8977,-77.0365";
    png.extend_from_slice(&(text.len() as u32).to_be_bytes());
    png.extend_from_slice(b"tEXt");
    png.extend_from_slice(text);
    png.extend_from_slice(&[0; 4]); // CRC: never read
    let zip = b"PK\x03\x04\x14\x00\x00\x00\x08\x00screen.png".to_vec();
    let text_file = b"meet at the square at noon\n".to_vec();
    let cases = [
        ("screen.png", png),
        ("roll.zip", zip),
        ("notes.txt", text_file),
    ];

    for level in [ParanoiaLevel::Basic, ParanoiaLevel::Paranoid] {
        for (name, bytes) in &cases {
            let host_path = format!("/dcim/{name}");
            let mut sani = SaniVm::new();
            sani.mount_host_fs("cam", host_fs(&[(&host_path, bytes.clone())]));
            let mut vm = anon_vm();
            let result = sani.transfer_to_nym(
                "cam",
                &Path::new(&host_path),
                "poster",
                &mut vm,
                level,
                false,
            );
            match result {
                Err(SaniError::StillRisky(report)) => assert!(
                    report
                        .risks_after
                        .iter()
                        .any(|r| r.kind == RiskKind::UnknownFormat),
                    "{name} at {level:?}: {report:?}"
                ),
                other => panic!("{name} at {level:?} must be refused, got {other:?}"),
            }
            assert!(
                vm.disk().walk_files(&Path::new("/media")).is_empty(),
                "{name} at {level:?} reached the nymbox"
            );
        }
    }
}

#[test]
fn full_bob_pipeline_photo_to_nymbox() {
    // The §2 scenario end to end: camera file with GPS + serial +
    // faces, through the SaniVM at Paranoid, into the posting nym.
    let photo = MediaFile::Jpeg(JpegImage::protest_photo()).to_bytes();
    let mut sani = SaniVm::new();
    sani.mount_host_fs("camera", host_fs(&[("/dcim/img_0001.jpg", photo)]));
    let mut vm = anon_vm();
    let (report, landed) = sani
        .transfer_to_nym(
            "camera",
            &Path::new("/dcim/img_0001.jpg"),
            "tyr-press",
            &mut vm,
            ParanoiaLevel::Paranoid,
            false,
        )
        .expect("paranoid scrub certifies the photo");
    assert!(report.risks_before.len() >= 4, "the photo was a minefield");
    assert!(report.clean());
    let delivered = vm.disk().read(&landed).expect("file landed");
    match MediaFile::parse(delivered) {
        MediaFile::Jpeg(j) => {
            assert!(j.exif.is_empty(), "EXIF survived");
            assert!(j.faces.is_empty(), "faces survived");
            assert!(j.watermark.is_none(), "watermark survived");
            assert!(j.stego_payload.is_none());
        }
        other => panic!("unexpected delivery: {other:?}"),
    }
}

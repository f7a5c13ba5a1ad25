//! Booting the machine's installed OS as a nym (§3.7, Table 1).
//!
//! "Nymix can boot the machine's installed OS in a (non-anonymous)
//! nymbox... Nymix treats the machine's hard disk as read-only and
//! boots the installed OS into a copy-on-write virtual disk, so that no
//! changes the installed OS makes while running under Nymix ever
//! persist."
//!
//! Windows images installed on bare metal "trigger device driver
//! complaints" inside a VM; "a standard repair process typically
//! addresses this problem" (§3.7). The model makes that mechanism
//! explicit: the installed OS carries a device inventory bound to the
//! bare-metal hardware; the repair pass re-enumerates each device
//! against the homogenized QEMU profile, re-binding drivers (time) and
//! rewriting driver-store/registry state (copy-on-write bytes). Boot
//! replays the service list. Table 1's repair/boot/size rows fall out
//! of the per-OS inventories below.

use nymix_fs::{Layer, LayerKind, Path, UnionFs};
use nymix_sim::SimDuration;

/// Which installed OS the machine carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OsKind {
    /// Windows Vista.
    WindowsVista,
    /// Windows 7.
    Windows7,
    /// Windows 8.
    Windows8,
    /// A Linux distribution ("Linux usually boots without issue").
    Linux,
}

impl OsKind {
    /// The Table 1 row set.
    pub const TABLE1: [OsKind; 3] = [OsKind::WindowsVista, OsKind::Windows7, OsKind::Windows8];
}

/// A hardware device entry in the installed OS's inventory.
#[derive(Debug, Clone)]
struct Device {
    name: &'static str,
    /// Seconds to re-enumerate and re-bind the driver under QEMU.
    repair_secs: f64,
    /// Driver-store bytes rewritten during repair.
    repair_write_bytes: u64,
    /// Whether the QEMU profile exposes a matching device (unmatched
    /// devices are disabled, which is faster).
    present_in_vm: bool,
}

/// Per-OS parameters.
#[derive(Debug, Clone)]
struct OsSpec {
    devices: Vec<Device>,
    /// HAL/kernel reconfiguration during repair.
    hal_secs: f64,
    /// Registry/boot-configuration bytes rewritten during repair.
    registry_write_bytes: u64,
    /// Kernel + early-boot time.
    kernel_boot_secs: f64,
    /// Boot-time services and their start cost.
    service_count: u32,
    per_service_secs: f64,
}

fn dev(name: &'static str, repair_secs: f64, kb: u64, present: bool) -> Device {
    Device {
        name,
        repair_secs,
        repair_write_bytes: kb * 1024,
        present_in_vm: present,
    }
}

fn spec(kind: OsKind) -> OsSpec {
    // Device inventories: a bare-metal machine's chipset/GPU/NIC/audio/
    // storage stack, each needing re-binding under QEMU's homogenized
    // profile. Calibrated to reproduce Table 1.
    match kind {
        OsKind::WindowsVista => OsSpec {
            devices: vec![
                dev("chipset", 11.0, 320, true),
                dev("storage-ahci->ide", 18.0, 540, true),
                dev("gpu", 18.5, 900, true),
                dev("nic", 12.0, 410, true),
                dev("audio", 9.5, 380, true),
                dev("usb-hub", 8.7, 260, true),
                dev("acpi", 14.0, 350, true),
                dev("tpm", 6.0, 120, false),
                dev("card-reader", 5.0, 110, false),
                dev("webcam", 4.0, 150, false),
            ],
            hal_secs: 39.0,
            registry_write_bytes: 1_480 * 1024,
            kernel_boot_secs: 9.2,
            service_count: 38,
            per_service_secs: 0.75,
        },
        OsKind::Windows7 => OsSpec {
            devices: vec![
                dev("chipset", 10.0, 300, true),
                dev("storage-ahci->ide", 17.0, 500, true),
                dev("gpu", 17.5, 840, true),
                dev("nic", 11.5, 380, true),
                dev("audio", 9.0, 350, true),
                dev("usb-hub", 8.3, 240, true),
                dev("acpi", 13.5, 330, true),
                dev("tpm", 5.5, 110, false),
                dev("card-reader", 4.5, 100, false),
                dev("webcam", 3.5, 140, false),
            ],
            hal_secs: 39.8,
            registry_write_bytes: 1_320 * 1024,
            kernel_boot_secs: 8.0,
            service_count: 36,
            per_service_secs: 0.73,
        },
        OsKind::Windows8 => OsSpec {
            devices: vec![
                dev("chipset", 12.0, 420, true),
                dev("storage-ahci->ide", 19.0, 700, true),
                dev("gpu", 21.0, 2_400, true),
                dev("nic", 13.0, 520, true),
                dev("audio", 10.5, 480, true),
                dev("usb3-hub", 10.0, 380, true),
                dev("acpi", 15.0, 450, true),
                dev("uefi-esp", 12.5, 5_600, true),
                dev("tpm", 7.0, 160, false),
                dev("card-reader", 5.0, 120, false),
                dev("webcam", 4.0, 170, false),
                dev("touchscreen", 6.0, 200, false),
            ],
            hal_secs: 39.6,
            registry_write_bytes: 2_740 * 1024,
            kernel_boot_secs: 10.5,
            service_count: 52,
            per_service_secs: 0.927,
        },
        OsKind::Linux => OsSpec {
            devices: vec![], // Generic kernel drivers: no repair needed.
            hal_secs: 0.0,
            registry_write_bytes: 96 * 1024,
            kernel_boot_secs: 4.0,
            service_count: 18,
            per_service_secs: 0.45,
        },
    }
}

/// Outcome of the repair + boot sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairOutcome {
    /// Wall-clock of the repair pass (Table 1 "Repair (S)").
    pub repair_time: SimDuration,
    /// Wall-clock of the subsequent boot (Table 1 "Boot (S)").
    pub boot_time: SimDuration,
    /// Copy-on-write delta produced (Table 1 "Size (MB)").
    pub cow_bytes: u64,
    /// Devices that had to be re-bound.
    pub repaired_devices: Vec<&'static str>,
    /// Devices disabled (no VM counterpart).
    pub disabled_devices: Vec<&'static str>,
}

impl RepairOutcome {
    /// COW delta in (decimal) megabytes, as Table 1 reports.
    pub fn cow_mb(&self) -> f64 {
        self.cow_bytes as f64 / 1_000_000.0
    }
}

/// An installed OS bootable as a nym.
#[derive(Debug, Clone)]
pub struct InstalledOs {
    kind: OsKind,
    /// The physical disk: mounted strictly read-only under Nymix.
    disk: UnionFs,
    repaired: bool,
}

impl InstalledOs {
    /// Wraps the machine's installed OS.
    pub fn new(kind: OsKind) -> Self {
        let mut base = Layer::new(LayerKind::Base);
        let os_name = format!("{kind:?}");
        base.put_file(Path::new("/os/version"), os_name.into_bytes());
        base.put_file(
            Path::new("/os/registry/system.hive"),
            vec![0x52; spec(kind).registry_write_bytes as usize / 8],
        );
        base.put_file(
            Path::new("/users/owner/wifi-passwords.xml"),
            b"<wifi ssid=\"home\" psk=\"...\"/>".to_vec(),
        );
        let disk = UnionFs::new(vec![base, Layer::new(LayerKind::Writable)]).expect("valid stack");
        Self {
            kind,
            disk,
            repaired: kind == OsKind::Linux, // Linux needs no repair.
        }
    }

    /// The OS kind.
    pub fn kind(&self) -> OsKind {
        self.kind
    }

    /// The OS disk view (reads hit the read-only base; writes COW).
    pub fn disk(&self) -> &UnionFs {
        &self.disk
    }

    /// Mutable disk view (the running OS writes its COW layer).
    pub fn disk_mut(&mut self) -> &mut UnionFs {
        &mut self.disk
    }

    /// Runs the repair pass followed by a boot, writing all repair
    /// state into the copy-on-write layer.
    pub fn repair_and_boot(&mut self) -> RepairOutcome {
        let spec = spec(self.kind);
        let mut repair_secs = 0.0;
        let mut cow_bytes = 0u64;
        let mut repaired_devices = Vec::new();
        let mut disabled_devices = Vec::new();

        if !self.repaired {
            repair_secs += spec.hal_secs;
            cow_bytes += spec.registry_write_bytes;
            // Registry rewrite lands in the COW layer.
            self.disk
                .write(
                    &Path::new("/os/registry/system.hive.new"),
                    vec![0x53; (spec.registry_write_bytes / 8) as usize],
                )
                .expect("COW layer writable");
            for d in &spec.devices {
                if d.present_in_vm {
                    repair_secs += d.repair_secs;
                    cow_bytes += d.repair_write_bytes;
                    repaired_devices.push(d.name);
                    self.disk
                        .write(
                            &Path::new(&format!("/os/drivers/{}.rebind", d.name)),
                            vec![0x54; (d.repair_write_bytes / 16) as usize],
                        )
                        .expect("COW layer writable");
                } else {
                    // Disabling is quick and writes a tombstone entry.
                    repair_secs += d.repair_secs * 0.2;
                    cow_bytes += 4096;
                    disabled_devices.push(d.name);
                }
            }
            self.repaired = true;
        }

        let boot_secs =
            spec.kernel_boot_secs + f64::from(spec.service_count) * spec.per_service_secs;

        RepairOutcome {
            repair_time: SimDuration::from_secs_f64(repair_secs),
            boot_time: SimDuration::from_secs_f64(boot_secs),
            cow_bytes,
            repaired_devices,
            disabled_devices,
        }
    }

    /// Discards the COW layer (the default, deniable exit path).
    pub fn discard_session(&mut self) {
        if let Some(mut upper) = self.disk.take_upper() {
            upper.secure_wipe();
        }
        self.disk.push_upper(Layer::new(LayerKind::Writable));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(kind: OsKind) -> RepairOutcome {
        InstalledOs::new(kind).repair_and_boot()
    }

    #[test]
    fn table1_vista_row() {
        let o = run(OsKind::WindowsVista);
        assert!((o.repair_time.as_secs_f64() - 133.7).abs() < 1.0, "{o:?}");
        assert!((o.boot_time.as_secs_f64() - 37.7).abs() < 1.0);
        assert!((o.cow_mb() - 4.9).abs() < 0.5, "size {}", o.cow_mb());
    }

    #[test]
    fn table1_win7_row() {
        let o = run(OsKind::Windows7);
        assert!((o.repair_time.as_secs_f64() - 129.3).abs() < 1.0, "{o:?}");
        assert!((o.boot_time.as_secs_f64() - 34.3).abs() < 1.0);
        assert!((o.cow_mb() - 4.5).abs() < 0.5, "size {}", o.cow_mb());
    }

    #[test]
    fn table1_win8_row() {
        let o = run(OsKind::Windows8);
        assert!((o.repair_time.as_secs_f64() - 157.0).abs() < 1.5, "{o:?}");
        assert!((o.boot_time.as_secs_f64() - 58.7).abs() < 1.0);
        assert!((o.cow_mb() - 14.0).abs() < 1.0, "size {}", o.cow_mb());
    }

    #[test]
    fn linux_needs_no_repair() {
        let mut os = InstalledOs::new(OsKind::Linux);
        assert!(os.repaired);
        let o = os.repair_and_boot();
        assert_eq!(o.repair_time, SimDuration::ZERO);
        assert!(o.boot_time.as_secs_f64() < 15.0);
        assert!(o.repaired_devices.is_empty());
    }

    #[test]
    fn second_boot_skips_repair() {
        let mut os = InstalledOs::new(OsKind::Windows7);
        let first = os.repair_and_boot();
        assert!(first.repair_time > SimDuration::ZERO);
        let second = os.repair_and_boot();
        assert_eq!(second.repair_time, SimDuration::ZERO);
        assert_eq!(second.boot_time, first.boot_time);
        assert_eq!(second.cow_bytes, 0);
    }

    #[test]
    fn physical_disk_never_modified() {
        let mut os = InstalledOs::new(OsKind::Windows8);
        os.repair_and_boot();
        // The running OS writes files; all land in the COW layer.
        os.disk_mut()
            .write(&Path::new("/users/owner/new-file"), vec![1; 100])
            .unwrap();
        assert!(os
            .disk()
            .layer(0)
            .get(&Path::new("/users/owner/new-file"))
            .is_none());
        // Base registry hive untouched even though repair rewrote it.
        assert!(os
            .disk()
            .layer(0)
            .get(&Path::new("/os/registry/system.hive"))
            .is_some());
    }

    #[test]
    fn discard_session_restores_pristine_state() {
        let mut os = InstalledOs::new(OsKind::Windows7);
        os.repair_and_boot();
        assert!(os.disk().upper_bytes() > 0);
        os.discard_session();
        assert_eq!(os.disk().upper_bytes(), 0);
        // WiFi passwords still readable (the §3.7 convenience).
        assert!(os
            .disk()
            .read(&Path::new("/users/owner/wifi-passwords.xml"))
            .is_ok());
    }

    #[test]
    fn win8_writes_biggest_delta() {
        let vista = run(OsKind::WindowsVista).cow_bytes;
        let w7 = run(OsKind::Windows7).cow_bytes;
        let w8 = run(OsKind::Windows8).cow_bytes;
        assert!(w8 > vista);
        assert!(w8 > 2 * w7);
    }
}

//! The host hypervisor: admission, lifecycle, memory accounting.
//!
//! Models the evaluation host (§5.2): an i7 quad-core with 16 GiB of
//! RAM. "The host allocates disk and RAM from its own stash of RAM,
//! thus limiting the maximum number of nyms."
//!
//! ## Memory accounting model
//!
//! A VM's host cost has three parts:
//!
//! 1. **Touched guest RAM** — pages the guest has written since boot
//!    ("KVM obtains most of the requested memory for a VM at VM
//!    initialization", §5.2: booting touches ~88% of guest RAM).
//! 2. **RAM-backed disk** — the writable disk allocation (tmpfs),
//!    charged in full.
//! 3. **Per-VM VMM overhead** — QEMU process heap, device state.
//!
//! KSM savings are computed over touched (non-zero) pages only: frames
//! never faulted in cost nothing and are not scanned. The calibrated
//! post-boot shared fraction reproduces Figure 3's ">5% saving at
//! 8 nyms".

use std::collections::BTreeMap;

use nymix_fs::{Layer, LayerKind, Path};

use crate::ksm::{self, KsmStats};
use crate::memory::PAGE_SIZE;
use crate::vm::{Vm, VmConfig, VmId, VmRole, VmState};

/// Calibration constants for the host model.
pub mod calib {
    /// Host RAM (16 GiB, §5.2).
    pub const HOST_RAM_MIB: u32 = 16_384;

    /// Hypervisor + desktop resident set before any nym starts.
    pub const HOST_BASE_MIB: u32 = 600;

    /// Per-VM VMM (QEMU process) overhead.
    pub const QEMU_OVERHEAD_MIB: u32 = 25;

    /// Fraction of guest RAM holding shared base-image content after
    /// boot (identical bytes in every VM; what KSM reclaims).
    pub const BOOT_SHARED_FRACTION: f64 = 0.092;

    /// Fraction of guest RAM holding VM-private content after boot.
    pub const BOOT_PRIVATE_FRACTION: f64 = 0.795;
}

/// Errors from hypervisor operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HypervisorError {
    /// Admission would exceed host RAM.
    InsufficientMemory {
        /// MiB requested by the new VM.
        requested_mib: u32,
        /// MiB free before the request.
        free_mib: u32,
    },
    /// No VM with that id.
    NoSuchVm(VmId),
}

impl core::fmt::Display for HypervisorError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            HypervisorError::InsufficientMemory {
                requested_mib,
                free_mib,
            } => write!(
                f,
                "insufficient host memory: requested {requested_mib} MiB, free {free_mib} MiB"
            ),
            HypervisorError::NoSuchVm(id) => write!(f, "no such VM: {:?}", id),
        }
    }
}

impl std::error::Error for HypervisorError {}

/// The host hypervisor.
///
/// # Examples
///
/// ```
/// use nymix_vmm::{Hypervisor, VmConfig};
///
/// let mut hv = Hypervisor::paper_testbed();
/// let anon = hv.create_vm(VmConfig::anonvm()).unwrap();
/// let comm = hv.create_vm(VmConfig::commvm()).unwrap();
/// hv.boot(anon).unwrap();
/// hv.boot(comm).unwrap();
/// assert!(hv.used_memory_mib() > 600.0);
/// ```
#[derive(Debug, Clone)]
pub struct Hypervisor {
    host_ram_mib: u32,
    host_base_mib: u32,
    qemu_overhead_mib: u32,
    ksm_enabled: bool,
    base_layer: Layer,
    vms: BTreeMap<VmId, Vm>,
    next_id: u64,
}

impl Hypervisor {
    /// A host with explicit parameters and base layer.
    pub fn new(host_ram_mib: u32, base_layer: Layer) -> Self {
        Self {
            host_ram_mib,
            host_base_mib: calib::HOST_BASE_MIB,
            qemu_overhead_mib: calib::QEMU_OVERHEAD_MIB,
            ksm_enabled: true,
            base_layer,
            vms: BTreeMap::new(),
            next_id: 1,
        }
    }

    /// The paper's testbed with the full Ubuntu-like base image.
    pub fn paper_testbed() -> Self {
        Self::new(
            calib::HOST_RAM_MIB,
            nymix_fs::BaseImage::ubuntu_like().to_layer(),
        )
    }

    /// The paper's testbed with a minimal base image (fast tests).
    #[cfg(test)]
    fn paper_testbed_minimal() -> Self {
        Self::new(
            calib::HOST_RAM_MIB,
            nymix_fs::BaseImage::minimal().to_layer(),
        )
    }

    /// Enables or disables KSM (the ablation knob).
    pub fn set_ksm(&mut self, enabled: bool) {
        self.ksm_enabled = enabled;
    }

    /// Builds the role-specific configuration layer (§3.4: network
    /// configuration files, `/etc/rc.local`, window manager startup).
    fn role_config_layer(role: VmRole) -> Layer {
        let mut layer = Layer::new(LayerKind::Config);
        let (rc, net) = match role {
            VmRole::Anon => (
                "start-xorg\nstart-chromium --proxy=socks5://10.0.2.2:9050\n",
                "iface eth0 inet static\naddress 10.0.2.15\ngateway 10.0.2.2\n",
            ),
            VmRole::Comm => (
                "start-anonymizer\niptables-restore /etc/nymix/redirect.rules\n",
                "iface eth0 inet static\naddress 10.0.2.2\niface eth1 inet dhcp\n",
            ),
            VmRole::Sani => (
                "start-xorg\nstart-scrubber --no-network\n",
                "# no network interfaces: SaniVM is air-gapped\n",
            ),
            VmRole::InstalledOs => (
                "# installed OS boots its own init\n",
                "iface eth0 inet dhcp\n",
            ),
        };
        layer.put_file(Path::new("/etc/rc.local"), rc.as_bytes().to_vec());
        layer.put_file(
            Path::new("/etc/network/interfaces"),
            net.as_bytes().to_vec(),
        );
        layer.put_file(
            Path::new("/etc/nymix/role"),
            format!("{role:?}").into_bytes(),
        );
        layer
    }

    /// Creates (but does not boot) a VM, enforcing memory admission.
    pub fn create_vm(&mut self, config: VmConfig) -> Result<VmId, HypervisorError> {
        let requested = config.host_ram_cost_mib() + self.qemu_overhead_mib;
        let free = self.free_memory_mib();
        if f64::from(requested) > free {
            return Err(HypervisorError::InsufficientMemory {
                requested_mib: requested,
                free_mib: free.max(0.0) as u32,
            });
        }
        let id = VmId(self.next_id);
        self.next_id += 1;
        let role_layer = Self::role_config_layer(config.role);
        let vm = Vm::new(id, config, self.base_layer.clone(), role_layer);
        self.vms.insert(id, vm);
        Ok(id)
    }

    /// Boots a created VM with the calibrated post-boot memory mix.
    pub fn boot(&mut self, id: VmId) -> Result<(), HypervisorError> {
        let vm = self.vms.get_mut(&id).ok_or(HypervisorError::NoSuchVm(id))?;
        vm.boot(calib::BOOT_SHARED_FRACTION, calib::BOOT_PRIVATE_FRACTION);
        Ok(())
    }

    /// Access to a VM.
    pub fn vm(&self, id: VmId) -> Result<&Vm, HypervisorError> {
        self.vms.get(&id).ok_or(HypervisorError::NoSuchVm(id))
    }

    /// Mutable access to a VM.
    pub fn vm_mut(&mut self, id: VmId) -> Result<&mut Vm, HypervisorError> {
        self.vms.get_mut(&id).ok_or(HypervisorError::NoSuchVm(id))
    }

    /// Destroys a VM: shutdown (secure wipe) and removal. "Nymix wipes
    /// any traces that the pseudonym ever existed" (§3.4).
    pub fn destroy_vm(&mut self, id: VmId) -> Result<(), HypervisorError> {
        let mut vm = self.vms.remove(&id).ok_or(HypervisorError::NoSuchVm(id))?;
        vm.shutdown();
        debug_assert!(vm.memory().is_wiped());
        Ok(())
    }

    /// Number of resident VMs.
    pub fn vm_count(&self) -> usize {
        self.vms.len()
    }

    /// KSM statistics over all live VMs' touched pages.
    pub fn ksm_stats(&self) -> KsmStats {
        // Only non-zero pages are madvised/scanned; see module docs.
        let filtered: Vec<Vec<u64>> = self
            .vms
            .values()
            .filter(|vm| vm.state() != VmState::ShutDown)
            .map(|vm| {
                vm.memory()
                    .page_ids()
                    .iter()
                    .copied()
                    .filter(|&id| id != 0)
                    .collect()
            })
            .collect();
        ksm::scan(filtered.iter().map(|v| v.as_slice()))
    }

    /// Gross committed memory in MiB (before KSM), host base included.
    pub fn committed_memory_mib(&self) -> f64 {
        let mut total = f64::from(self.host_base_mib);
        for vm in self.vms.values() {
            if vm.state() == VmState::ShutDown {
                continue;
            }
            let (zero, shared, unique) = vm.memory().census();
            let _ = zero; // Untouched pages are never faulted in.
            let touched_bytes = (shared + unique) * PAGE_SIZE;
            total += touched_bytes as f64 / (1024.0 * 1024.0);
            total += f64::from(vm.config().disk_mib);
            total += f64::from(self.qemu_overhead_mib);
        }
        total
    }

    /// Used host memory in MiB after KSM merging (if enabled).
    pub fn used_memory_mib(&self) -> f64 {
        let committed = self.committed_memory_mib();
        if self.ksm_enabled {
            committed - self.ksm_stats().saved_bytes() as f64 / (1024.0 * 1024.0)
        } else {
            committed
        }
    }

    /// Free host memory in MiB under the admission model (gross
    /// allocations, not KSM-adjusted — KSM savings are best-effort and
    /// must not be promised to new VMs).
    fn free_memory_mib(&self) -> f64 {
        let mut reserved = f64::from(self.host_base_mib);
        for vm in self.vms.values() {
            if vm.state() == VmState::ShutDown {
                continue;
            }
            reserved += f64::from(vm.config().host_ram_cost_mib() + self.qemu_overhead_mib);
        }
        f64::from(self.host_ram_mib) - reserved
    }

    /// The Figure 3 dashed line: estimated gross RAM for `n` nymboxes
    /// (656 MiB per nymbox: 384+128 MiB guest RAM plus 128+16 MiB of
    /// RAM-backed disk).
    pub fn expected_memory_mib(n: usize) -> f64 {
        let per_nym =
            VmConfig::anonvm().host_ram_cost_mib() + VmConfig::commvm().host_ram_cost_mib();
        f64::from(calib::HOST_BASE_MIB) + n as f64 * f64::from(per_nym)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hv() -> Hypervisor {
        Hypervisor::paper_testbed_minimal()
    }

    fn launch_nymbox(hv: &mut Hypervisor) -> (VmId, VmId) {
        let anon = hv.create_vm(VmConfig::anonvm()).unwrap();
        let comm = hv.create_vm(VmConfig::commvm()).unwrap();
        hv.boot(anon).unwrap();
        hv.boot(comm).unwrap();
        (anon, comm)
    }

    #[test]
    fn creation_and_boot() {
        let mut hv = hv();
        let (anon, comm) = launch_nymbox(&mut hv);
        assert_eq!(hv.vm_count(), 2);
        assert_eq!(hv.vm(anon).unwrap().state(), VmState::Running);
        assert_eq!(hv.vm(comm).unwrap().state(), VmState::Running);
    }

    #[test]
    fn admission_control_limits_nyms() {
        let mut hv = hv();
        let mut count = 0;
        loop {
            match hv.create_vm(VmConfig::anonvm()) {
                Ok(id) => {
                    hv.boot(id).unwrap();
                    count += 1;
                }
                Err(HypervisorError::InsufficientMemory { .. }) => break,
                Err(e) => panic!("unexpected error: {e}"),
            }
            assert!(count < 100, "admission control never triggered");
        }
        // 16384 - 600 base = 15784; each AnonVM costs 512+25=537.
        assert_eq!(count, 29);
    }

    #[test]
    fn destroy_frees_memory() {
        let mut hv = hv();
        let before = hv.free_memory_mib();
        let (anon, comm) = launch_nymbox(&mut hv);
        assert!(hv.free_memory_mib() < before);
        hv.destroy_vm(anon).unwrap();
        hv.destroy_vm(comm).unwrap();
        assert_eq!(hv.free_memory_mib(), before);
        assert!(matches!(
            hv.destroy_vm(anon),
            Err(HypervisorError::NoSuchVm(_))
        ));
    }

    #[test]
    fn ksm_savings_grow_with_nymboxes() {
        let mut hv = hv();
        let mut saved = Vec::new();
        for _ in 0..4 {
            launch_nymbox(&mut hv);
            saved.push(hv.ksm_stats().saved_bytes());
        }
        // Even one nymbox merges something: its AnonVM and CommVM share
        // base-image pages with each other.
        assert!(saved[0] > 0);
        for w in saved.windows(2) {
            assert!(w[1] > w[0], "savings should grow: {saved:?}");
        }
    }

    #[test]
    fn ksm_toggle_changes_used_memory() {
        let mut hv = hv();
        for _ in 0..3 {
            launch_nymbox(&mut hv);
        }
        let with = hv.used_memory_mib();
        hv.set_ksm(false);
        let without = hv.used_memory_mib();
        assert!(without > with);
        assert_eq!(without, hv.committed_memory_mib());
    }

    #[test]
    fn used_memory_tracks_paper_scale() {
        // Eight nymboxes: used memory lands in the Figure 3 band
        // (~5.2 GiB gross, >5% KSM saving).
        let mut hv = hv();
        for _ in 0..8 {
            launch_nymbox(&mut hv);
        }
        let committed = hv.committed_memory_mib();
        let used = hv.used_memory_mib();
        let expected = Hypervisor::expected_memory_mib(8);
        assert!((5000.0..6000.0).contains(&expected), "expected {expected}");
        assert!(committed < expected * 1.02, "committed {committed}");
        assert!(committed > expected * 0.85, "committed {committed}");
        let saving = (committed - used) / committed;
        assert!(saving > 0.05, "KSM saving {saving}");
        assert!(saving < 0.12, "KSM saving {saving}");
    }

    #[test]
    fn shutdown_vms_cost_nothing() {
        let mut hv = hv();
        let (anon, comm) = launch_nymbox(&mut hv);
        let used_live = hv.used_memory_mib();
        hv.vm_mut(anon).unwrap().shutdown();
        hv.vm_mut(comm).unwrap().shutdown();
        assert!(hv.used_memory_mib() < used_live);
        assert_eq!(hv.used_memory_mib(), f64::from(calib::HOST_BASE_MIB));
    }

    #[test]
    fn role_config_layers_differ() {
        let anon = Hypervisor::role_config_layer(VmRole::Anon);
        let comm = Hypervisor::role_config_layer(VmRole::Comm);
        let a = anon.get(&Path::new("/etc/rc.local")).unwrap();
        let c = comm.get(&Path::new("/etc/rc.local")).unwrap();
        assert_ne!(a, c);
        let sani = Hypervisor::role_config_layer(VmRole::Sani);
        if let nymix_fs::Node::File(data) = sani.get(&Path::new("/etc/network/interfaces")).unwrap()
        {
            assert!(String::from_utf8_lossy(data).contains("air-gapped"));
        } else {
            panic!("missing interfaces file");
        }
    }
}

//! A virtual machine: configuration, state machine, disks, memory.

use nymix_fs::{Layer, LayerKind, UnionFs};

use crate::fingerprint::Fingerprint;
use crate::memory::{PageClass, VmMemory, PAGE_SIZE};

/// Identifies a VM within a hypervisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VmId(pub u64);

/// The role a VM plays in the Nymix architecture (Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VmRole {
    /// Untrusted browsing environment of a nym.
    Anon,
    /// Anonymizer host of a nym.
    Comm,
    /// Non-networked sanitization VM.
    Sani,
    /// The machine's installed OS booted read-only as a nym (§3.7).
    InstalledOs,
}

/// Lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmState {
    /// Configured but not started.
    Created,
    /// Executing.
    Running,
    /// Paused (e.g. during a nym save; §3.5 workflow).
    Paused,
    /// Shut down; memory securely wiped.
    ShutDown,
}

/// Static configuration of a VM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VmConfig {
    /// Role (selects the configuration filesystem layer).
    pub role: VmRole,
    /// Guest RAM in MiB.
    pub ram_mib: u32,
    /// Writable disk size in MiB (RAM-backed tmpfs; counts against
    /// host RAM, §5.2).
    pub disk_mib: u32,
}

impl VmConfig {
    /// The standard AnonVM of the evaluation: 384 MiB RAM, 128 MiB disk
    /// (§5.2; the CPU benchmark variant uses 1 GiB RAM).
    pub fn anonvm() -> Self {
        Self {
            role: VmRole::Anon,
            ram_mib: 384,
            disk_mib: 128,
        }
    }

    /// The standard CommVM: 128 MiB RAM, 16 MiB disk (§5.2).
    pub fn commvm() -> Self {
        Self {
            role: VmRole::Comm,
            ram_mib: 128,
            disk_mib: 16,
        }
    }

    /// The SaniVM (sized like an AnonVM; it runs scrubbing tools).
    pub fn sanivm() -> Self {
        Self {
            role: VmRole::Sani,
            ram_mib: 384,
            disk_mib: 128,
        }
    }

    /// Gross host RAM cost of this VM: guest RAM plus RAM-backed disk
    /// ("The host allocates disk and RAM from its own stash of RAM",
    /// §5.2).
    pub fn host_ram_cost_mib(&self) -> u32 {
        self.ram_mib + self.disk_mib
    }
}

/// A virtual machine instance.
#[derive(Debug, Clone)]
pub struct Vm {
    id: VmId,
    config: VmConfig,
    state: VmState,
    memory: VmMemory,
    disk: UnionFs,
    fingerprint: Fingerprint,
}

impl Vm {
    /// Builds a VM over the given base and role-configuration layers.
    pub fn new(id: VmId, config: VmConfig, base: Layer, role_config: Layer) -> Self {
        let fingerprint = match config.role {
            VmRole::Anon | VmRole::Sani => Fingerprint::anonvm(config.ram_mib, config.disk_mib),
            VmRole::Comm => Fingerprint::commvm(config.ram_mib, config.disk_mib),
            VmRole::InstalledOs => Fingerprint::bare_metal(0),
        };
        let memory = VmMemory::allocate(id.0, config.ram_mib as usize * 1024 * 1024);
        let mut disk = UnionFs::new(vec![base, role_config, Layer::new(LayerKind::Writable)])
            .expect("base+config+writable is a valid stack");
        // The writable image is a fixed-size virtual disk (§5.2: "we
        // allocated 16 MB disk space ... to each CommVM and 128 MB disk
        // space to each AnonVM").
        disk.set_quota(Some(config.disk_mib as usize * 1024 * 1024));
        Self {
            id,
            config,
            state: VmState::Created,
            memory,
            disk,
            fingerprint,
        }
    }

    /// The VM's id.
    pub fn id(&self) -> VmId {
        self.id
    }

    /// Static configuration.
    pub fn config(&self) -> &VmConfig {
        &self.config
    }

    /// Current lifecycle state.
    pub fn state(&self) -> VmState {
        self.state
    }

    /// The guest-visible hardware surface.
    pub fn fingerprint(&self) -> &Fingerprint {
        &self.fingerprint
    }

    /// The layered disk.
    pub fn disk(&self) -> &UnionFs {
        &self.disk
    }

    /// Mutable access to the layered disk.
    pub fn disk_mut(&mut self) -> &mut UnionFs {
        &mut self.disk
    }

    /// The page memory.
    pub fn memory(&self) -> &VmMemory {
        &self.memory
    }

    /// Mutable page memory (workload simulation dirties pages).
    pub fn memory_mut(&mut self) -> &mut VmMemory {
        &mut self.memory
    }

    /// Boots the VM: transitions to Running and populates memory with
    /// the post-boot resident mix — a slice of shared base-image pages
    /// (OS text/read-only data identical in every VM), a dirtied private
    /// working set, and the rest untouched.
    ///
    /// # Panics
    ///
    /// Panics unless the VM is freshly created.
    pub fn boot(&mut self, shared_fraction: f64, private_fraction: f64) {
        assert_eq!(self.state, VmState::Created, "boot from Created only");
        let pages = self.memory.page_count();
        let shared = (pages as f64 * shared_fraction) as usize;
        let private = (pages as f64 * private_fraction) as usize;
        self.memory.fill(0, shared, PageClass::Shared(0));
        self.memory.fill(shared, private, PageClass::Unique(0));
        self.state = VmState::Running;
    }

    /// Pauses a running VM (nym save path).
    ///
    /// # Panics
    ///
    /// Panics unless running.
    pub fn pause(&mut self) {
        assert_eq!(self.state, VmState::Running, "pause requires Running");
        self.state = VmState::Paused;
    }

    /// Resumes a paused VM.
    ///
    /// # Panics
    ///
    /// Panics unless paused.
    pub fn resume(&mut self) {
        assert_eq!(self.state, VmState::Paused, "resume requires Paused");
        self.state = VmState::Running;
    }

    /// Shuts the VM down, securely wiping guest memory and the writable
    /// disk layer (§3.4 amnesia).
    pub fn shutdown(&mut self) {
        self.memory.secure_wipe();
        if let Some(mut upper) = self.disk.take_upper() {
            upper.secure_wipe();
        }
        self.state = VmState::ShutDown;
    }

    /// Dirties `mib` MiB of guest memory (browsing, benchmarks).
    pub fn dirty_memory_mib(&mut self, mib: usize) -> usize {
        self.memory.dirty_zero_pages(mib * 1024 * 1024 / PAGE_SIZE)
    }

    /// Detaches the writable disk layer (for archiving); the VM should
    /// be paused first.
    pub fn take_disk_upper(&mut self) -> Option<Layer> {
        self.disk.take_upper()
    }

    /// Attaches a restored writable disk layer.
    pub fn push_disk_upper(&mut self, layer: Layer) -> bool {
        self.disk.push_upper(layer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nymix_fs::Path;

    fn minimal_vm(id: u64, config: VmConfig) -> Vm {
        let base = nymix_fs::BaseImage::minimal().to_layer();
        let mut role = Layer::new(LayerKind::Config);
        role.put_file(Path::new("/etc/rc.local"), b"role".to_vec());
        Vm::new(VmId(id), config, base, role)
    }

    #[test]
    fn lifecycle_happy_path() {
        let mut vm = minimal_vm(1, VmConfig::anonvm());
        assert_eq!(vm.state(), VmState::Created);
        vm.boot(0.05, 0.55);
        assert_eq!(vm.state(), VmState::Running);
        vm.pause();
        assert_eq!(vm.state(), VmState::Paused);
        vm.resume();
        vm.shutdown();
        assert_eq!(vm.state(), VmState::ShutDown);
        assert!(vm.memory().is_wiped());
    }

    #[test]
    #[should_panic(expected = "boot from Created")]
    fn double_boot_rejected() {
        let mut vm = minimal_vm(1, VmConfig::anonvm());
        vm.boot(0.1, 0.1);
        vm.boot(0.1, 0.1);
    }

    #[test]
    #[should_panic(expected = "pause requires Running")]
    fn pause_before_boot_rejected() {
        let mut vm = minimal_vm(1, VmConfig::anonvm());
        vm.pause();
    }

    #[test]
    fn boot_populates_memory_mix() {
        let mut vm = minimal_vm(1, VmConfig::commvm());
        vm.boot(0.10, 0.50);
        let (zero, shared, unique) = vm.memory().census();
        let total = vm.memory().page_count();
        assert!((shared as f64 / total as f64 - 0.10).abs() < 0.01);
        assert!((unique as f64 / total as f64 - 0.50).abs() < 0.01);
        assert!(zero > 0);
    }

    #[test]
    fn configs_match_paper() {
        assert_eq!(VmConfig::anonvm().host_ram_cost_mib(), 512);
        assert_eq!(VmConfig::commvm().host_ram_cost_mib(), 144);
        // One nymbox gross cost: 656 MiB — the Figure 3 dashed line.
        assert_eq!(
            VmConfig::anonvm().host_ram_cost_mib() + VmConfig::commvm().host_ram_cost_mib(),
            656
        );
    }

    #[test]
    fn shutdown_wipes_disk_upper() {
        let mut vm = minimal_vm(2, VmConfig::anonvm());
        vm.boot(0.05, 0.5);
        vm.disk_mut()
            .write(&Path::new("/home/user/cookies"), vec![1; 100])
            .unwrap();
        assert_eq!(vm.disk().upper_bytes(), 100);
        vm.shutdown();
        // Upper layer detached and wiped; union now read-only.
        assert!(vm.disk().upper().is_none());
    }

    #[test]
    fn identical_anonvms_have_identical_fingerprints() {
        let a = minimal_vm(1, VmConfig::anonvm());
        let b = minimal_vm(2, VmConfig::anonvm());
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn dirty_memory_converts_pages() {
        let mut vm = minimal_vm(3, VmConfig::anonvm());
        vm.boot(0.05, 0.30);
        let before = vm.memory().census().2;
        let converted = vm.dirty_memory_mib(10);
        assert_eq!(converted, 10 * 1024 * 1024 / PAGE_SIZE);
        assert_eq!(vm.memory().census().2, before + converted);
    }

    #[test]
    fn disk_quota_matches_config() {
        let vm = minimal_vm(5, VmConfig::commvm());
        assert_eq!(vm.disk().quota(), Some(16 * 1024 * 1024));
        let mut vm = minimal_vm(6, VmConfig::anonvm());
        vm.boot(0.05, 0.3);
        // A write beyond 128 MiB must fail with NoSpace.
        let err = vm
            .disk_mut()
            .write(&Path::new("/huge"), vec![0u8; 129 * 1024 * 1024])
            .unwrap_err();
        assert!(matches!(err, nymix_fs::FsError::NoSpace { .. }));
    }

    #[test]
    fn disk_upper_roundtrip() {
        let mut vm = minimal_vm(4, VmConfig::anonvm());
        vm.boot(0.05, 0.3);
        vm.disk_mut()
            .write(&Path::new("/home/user/bookmarks"), b"tor blog".to_vec())
            .unwrap();
        vm.pause();
        let upper = vm.take_disk_upper().unwrap();
        assert!(vm.push_disk_upper(upper));
        assert_eq!(
            vm.disk().read(&Path::new("/home/user/bookmarks")).unwrap(),
            b"tor blog"
        );
    }
}

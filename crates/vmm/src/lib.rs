//! The Nymix virtual machine monitor (simulated QEMU/KVM).
//!
//! The prototype runs two QEMU/KVM VMs per nymbox plus a SaniVM, all
//! booted from one shared base image, with kernel samepage merging (KSM)
//! reclaiming duplicate pages (§4.2). No hypervisor is available to a
//! Rust library, so this crate is a faithful *resource-model* VMM: it
//! implements the management operations Nymix needs (create, pause,
//! resume, snapshot, destroy, secure-wipe) over an explicit 4 KiB page
//! memory model, a KSM scanner, a host CPU cost rule, and the homogenized
//! device/fingerprint surface of §4.2 ("Each independent set of AnonVMs
//! and CommVMs have the same Ethernet and IP addresses... resolution
//! consistently set to 1024x768... a single CPU listed ... as a QEMU
//! Virtual CPU").
//!
//! Modules:
//!
//! * [`memory`] — page-granular VM memory with content classes.
//! * [`ksm`] — the samepage-merging scanner and its statistics.
//! * [`vm`] — a virtual machine: config, state machine, disks, memory.
//! * [`cpu`] — the host CPU model (cores, virtualization overhead).
//! * [`fingerprint`] — the guest-visible hardware surface.
//! * [`hypervisor`] — the host: admission, accounting, lifecycle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cpu;
pub mod fingerprint;
pub mod hypervisor;
pub mod ksm;
pub mod memory;
pub mod vm;

pub use cpu::CpuHost;
pub use fingerprint::Fingerprint;
pub use hypervisor::{Hypervisor, HypervisorError};
pub use ksm::KsmStats;
pub use memory::{PageClass, VmMemory, PAGE_SIZE};
pub use vm::{Vm, VmConfig, VmId, VmRole, VmState};

//! Quasi-persistent nym storage.
//!
//! §3.5: "When not in use, an encrypted copy of the data is migrated to
//! another storage device — either to another local partition or USB
//! drive, or to the cloud... the nym manager pauses the nym's AnonVM
//! and CommVM, syncs their file systems, compresses and encrypts their
//! temporary file system disk images, resumes the VMs, and uploads the
//! contents through the nym's CommVM."
//!
//! This crate implements that pipeline's storage half:
//!
//! * [`lzss`] — the compressor ("compresses ... their disk images"),
//!   with a lazy-matching encoder whose fixed-size match-finder arena
//!   ([`lzss::Compressor`]) persists across seals.
//! * [`archive`] — the container: writable-layer serialization plus
//!   named records (Tor guard state, metadata);
//!   [`NymArchive::write_into`] serializes straight into a reusable
//!   buffer.
//! * [`sealed`] — password-based authenticated encryption of storage
//!   objects (PBKDF2 → ChaCha20-Poly1305). A [`SealKey`] derives the
//!   KDF once per chain epoch; one [`seal_into`] seals a full archive,
//!   a delta or a chunk ([`Sealable`]), and one [`unseal_into`] opens
//!   any of them, each in a single pass over one [`SealScratch`] arena
//!   with zero hot-path allocations.
//! * [`delta`] — incremental snapshots: a [`DeltaArchive`] carries only
//!   dirty records plus a commitment to the full record set, one
//!   SHA-256 over its records ([`records_root`]); replay verifies the
//!   root and fails closed on tampering.
//! * [`chunker`] — content-defined chunking (gear-hash rolling window,
//!   2/8/64 KiB min/avg/max): deterministic, edit-local boundaries so a
//!   sub-record write dirties O(1) chunks.
//! * [`cas`] — the content-addressed chunk store: domain-separated
//!   SHA-256 chunk IDs, `"NYMC"` per-record manifests, a chunk index
//!   (the set of chunks the live manifests reference) with
//!   mark-and-sweep GC, and per-chunk sealing bound to the chunk's
//!   identity. Large records ship as manifests + only the chunks that
//!   changed.
//! * [`chain`] — the snapshot-chain format over any backend: object
//!   names and epochs, listing a label, planning and sealing a save
//!   (full or delta, with its puts and sweeps), and fetching and
//!   verifying a chain for restore.
//! * [`backend`] — the pluggable [`ObjectBackend`] every store
//!   implements, so snapshot chains and chunk objects move unchanged
//!   between local media and cloud accounts.
//! * [`disk`] — the crash-consistent disk-backed store: one append-only
//!   log of checksummed batch frames, each both a commit record and
//!   the home of the objects it puts, under two `NYMJ` superblock
//!   slots, over a simulated block device with deterministic fault
//!   injection. The only backend whose contents survive power loss.
//! * [`cloud`] — simulated cloud providers with pseudonymous accounts;
//!   records what the provider *observes* (in a bounded
//!   [`cloud::AccessLog`] ring) so tests can verify the deniability
//!   story ("the cloud provider learns nothing about the account
//!   owner").
//! * [`local`] — the in-memory reference backend: the fake and the
//!   baseline for tests and benches. Local media is the [`disk`] store.
//! * [`placement`] — multi-provider placement: [`PlacementStore`]
//!   stripes every object across N child backends as k-of-n
//!   Reed–Solomon shards in hash-verified `"NYMP"` headers. Reads
//!   reconstruct from any k verified shards (byzantine children
//!   excluded by hash, never decoded), writes degrade to a quorum with
//!   a repair queue, and [`placement::PlacementStore::repair`]
//!   re-achieves full redundancy.
//!
//! # Durability model
//!
//! The backends differ in what survives which failure:
//!
//! * [`LocalStore`] is an in-memory reference — it survives nothing
//!   and models nothing beyond the [`ObjectBackend`] contract.
//! * [`CloudProvider`] is an in-memory model — it survives nothing; it
//!   exists to model *observability* (what the provider sees), not
//!   durability.
//! * [`disk::DiskStore`] survives power loss at any instant: every
//!   batch is written once, as one checksummed frame appended to the
//!   log, and commits when a superblock naming the new log length is
//!   fsynced after it. Recovery writes nothing: it rolls the one
//!   in-flight frame forward or discards it, and corruption inside the
//!   committed region fails closed rather than yielding a partial
//!   store. Its `apply_batch`,
//!   the one write every backend implements, is **atomic per batch**
//!   on disk — after a crash, exactly the pre-batch or post-batch
//!   state is observable (other backends promise only that a prefix
//!   of a failed batch may have landed). See the
//!   [`disk`] module docs for the commit protocol and [`disk::log`]
//!   for the on-disk format.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod archive;
pub mod backend;
pub mod cas;
pub mod chain;
pub mod chunker;
pub mod cloud;
pub mod delta;
pub mod disk;
pub mod local;
pub mod lzss;
pub mod placement;
pub mod sealed;

pub use archive::NymArchive;
pub use backend::{BackendError, ObjectBackend};
pub use cas::{
    build_manifest, chunk_object_name, seal_new_chunks_into, CasError, ChunkId, ChunkIndex,
    ChunkManifest, ManifestScratch, PrevChunks, CHUNK_RECORD_THRESHOLD,
};
pub use chunker::{chunks, AVG_CHUNK, MAX_CHUNK, MIN_CHUNK};
pub use cloud::{AccessLog, CloudError, CloudProvider, CloudSession};
pub use delta::{records_root, DeltaArchive, DeltaError, DELTA_CHAIN_LIMIT};
pub use disk::{CrashMode, DiskError, DiskStore, FaultPlan, SimDisk};
pub use local::LocalStore;
pub use placement::{PlacementStore, RepairReport};
pub use sealed::{
    seal_into, unseal_into, SealKey, SealScratch, Sealable, SealedError,
    INCOMPRESSIBLE_BITS_PER_BYTE,
};

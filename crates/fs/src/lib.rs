//! Layered (union) file systems for Nymix.
//!
//! Nymix boots every VM from the *same* read-only base image (the OS
//! installed on the USB stick) and differentiates roles at runtime by
//! stacking file systems (§3.4, §4.2):
//!
//! ```text
//!   writable tmpfs layer   (RAM-backed; discarded on nym shutdown)
//!   configuration layer    (masks /etc/rc.local, network config, ...)
//!   base image             (read-only, shared)
//! ```
//!
//! Reads return the topmost version of a file; writes copy-on-write into
//! the top layer; deletions of lower-layer files leave *whiteouts*. This
//! is the OverlayFS model the prototype uses.
//!
//! Modules:
//!
//! * [`path`] — normalized absolute paths.
//! * [`layer`] — a single filesystem layer (tree of files/dirs/whiteouts).
//! * [`union`] — the layered union view with COW semantics.
//! * [`image`] — the Nymix base-image builder.
//! * [`virtfs`] — VirtFS-style host-path pass-through shares (§4.2/§4.3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod image;
pub mod layer;
pub mod path;
pub mod union;
pub mod virtfs;

pub use image::BaseImage;
pub use layer::{Layer, LayerKind, Node};
pub use path::Path;
pub use union::{FsError, UnionFs};
pub use virtfs::{ShareMode, VirtfsShare};

//! Kernel samepage merging.
//!
//! §4.2: "Nymix enables KSM ... a memory-saving de-duplication feature
//! that scans pages and merges when applicable. Because all Nymix VMs
//! and the hypervisor use the same disk image and hence applications,
//! Nymix can save a bit of RAM through the use of KSM" — over 5% at
//! eight nyms (§5.2, Figure 3).
//!
//! The scanner takes every resident page id on the host and computes the
//! merge outcome exactly: pages with equal content collapse to one
//! physical frame.

use crate::memory::PAGE_SIZE;

/// Result of a KSM scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KsmStats {
    /// Logical pages scanned (every mapped page of every VM).
    pub pages_scanned: usize,
    /// Distinct physical frames after merging.
    pub pages_physical: usize,
    /// Frames that back two or more logical pages (Linux's
    /// `pages_shared`).
    pub pages_shared: usize,
    /// Logical pages that are backed by a shared frame but are not the
    /// "primary" copy (Linux's `pages_sharing`) — each one is a page of
    /// RAM saved.
    pub pages_sharing: usize,
}

impl KsmStats {
    /// Bytes of host RAM reclaimed by merging.
    pub fn saved_bytes(&self) -> usize {
        self.pages_sharing * PAGE_SIZE
    }

    /// Bytes of host RAM actually backing the scanned pages.
    pub fn resident_bytes(&self) -> usize {
        self.pages_physical * PAGE_SIZE
    }
}

/// Scans all page-id slices and computes the merge outcome. Equal ids
/// are counted as runs of one sorted flat copy of the ids, so a census
/// of the whole host costs 8 bytes per page rather than a hash-table
/// entry per page; an 8-nym fleet's census is a million pages.
///
/// # Examples
///
/// ```
/// use nymix_vmm::ksm::scan;
///
/// // Three logical pages, two with identical content.
/// let stats = scan([&[7u64, 7, 9][..]].into_iter());
/// assert_eq!(stats.pages_scanned, 3);
/// assert_eq!(stats.pages_physical, 2);
/// assert_eq!(stats.pages_sharing, 1);
/// ```
pub fn scan<'a, I>(page_sets: I) -> KsmStats
where
    I: Iterator<Item = &'a [u64]>,
{
    let mut ids: Vec<u64> = page_sets.flatten().copied().collect();
    ids.sort_unstable();
    let mut stats = KsmStats {
        pages_scanned: ids.len(),
        ..KsmStats::default()
    };
    for run in ids.chunk_by(|a, b| a == b) {
        stats.pages_physical += 1;
        if run.len() >= 2 {
            stats.pages_shared += 1;
            stats.pages_sharing += run.len() - 1;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::{PageClass, VmMemory};

    #[test]
    fn empty_scan() {
        let stats = scan(core::iter::empty());
        assert_eq!(stats, KsmStats::default());
        assert_eq!(stats.saved_bytes(), 0);
    }

    #[test]
    fn identical_vms_merge_almost_entirely() {
        let mut a = VmMemory::allocate(1, PAGE_SIZE * 100);
        let mut b = VmMemory::allocate(2, PAGE_SIZE * 100);
        a.fill(0, 100, PageClass::Shared(0));
        b.fill(0, 100, PageClass::Shared(0));
        let stats = scan([a.page_ids(), b.page_ids()].into_iter());
        assert_eq!(stats.pages_scanned, 200);
        assert_eq!(stats.pages_physical, 100);
        assert_eq!(stats.pages_sharing, 100);
        assert_eq!(stats.saved_bytes(), 100 * PAGE_SIZE);
    }

    #[test]
    fn unique_vms_do_not_merge() {
        let mut a = VmMemory::allocate(1, PAGE_SIZE * 50);
        let mut b = VmMemory::allocate(2, PAGE_SIZE * 50);
        a.fill(0, 50, PageClass::Unique(0));
        b.fill(0, 50, PageClass::Unique(0));
        let stats = scan([a.page_ids(), b.page_ids()].into_iter());
        assert_eq!(stats.pages_physical, 100);
        assert_eq!(stats.pages_sharing, 0);
    }

    #[test]
    fn zero_pages_collapse_to_one_frame() {
        let a = VmMemory::allocate(1, PAGE_SIZE * 10);
        let b = VmMemory::allocate(2, PAGE_SIZE * 10);
        let stats = scan([a.page_ids(), b.page_ids()].into_iter());
        assert_eq!(stats.pages_physical, 1);
        assert_eq!(stats.pages_shared, 1);
        assert_eq!(stats.pages_sharing, 19);
    }

    #[test]
    fn savings_grow_with_vm_count() {
        // The Figure 3 mechanism: each added VM shares its base pages
        // with all predecessors.
        let mut saved = Vec::new();
        let mut vms: Vec<VmMemory> = Vec::new();
        for n in 1..=8u64 {
            let mut m = VmMemory::allocate(n, PAGE_SIZE * 64);
            m.fill(0, 16, PageClass::Shared(0)); // common base
            m.fill(16, 48, PageClass::Unique(0)); // private
            vms.push(m);
            let stats = scan(vms.iter().map(|v| v.page_ids()));
            saved.push(stats.saved_bytes());
        }
        // Strictly increasing after the first VM.
        for w in saved.windows(2) {
            assert!(w[1] > w[0], "saved bytes should grow: {saved:?}");
        }
    }
}

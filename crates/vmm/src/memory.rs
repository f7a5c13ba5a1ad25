//! Page-granular VM memory with content classes.
//!
//! Real KSM hashes page *contents*; the model keys pages by a 64-bit
//! content identifier instead. Identifiers are constructed so that
//! mergeable pages collide exactly when real pages would:
//!
//! * [`PageClass::Zero`] pages — untouched guest RAM — all share one id.
//! * [`PageClass::Shared`] pages carry an index into the common base
//!   image; the same index in another VM is the same content (every VM
//!   boots the identical image, §3.4).
//! * [`PageClass::Unique`] pages mix the VM's id into the identifier, so
//!   they never merge (browser heaps, page caches of private data).
//!
//! KVM "obtains most of the requested memory for a VM at VM
//! initialization and not during run time" (§5.2), so a VM's page vector
//! is fully populated at construction; what changes during a session is
//! the class mix.

/// Bytes per page.
pub const PAGE_SIZE: usize = 4096;

/// Content class of a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageClass {
    /// Untouched (zero-filled) guest memory.
    Zero,
    /// Content from the shared base image, by page index.
    Shared(u32),
    /// VM-private content, by sequence number.
    Unique(u32),
}

/// The memory of one VM, as a vector of page content ids.
#[derive(Debug, Clone)]
pub struct VmMemory {
    vm_tag: u64,
    pages: Vec<u64>,
    next_unique: u32,
}

const ZERO_ID: u64 = 0;
const SHARED_BASE: u64 = 1 << 40;
const UNIQUE_BASE: u64 = 1 << 41;

impl VmMemory {
    /// Allocates `bytes` of memory for VM `vm_tag`, all zero pages.
    pub fn allocate(vm_tag: u64, bytes: usize) -> Self {
        let count = bytes.div_ceil(PAGE_SIZE);
        Self {
            vm_tag,
            pages: vec![ZERO_ID; count],
            next_unique: 0,
        }
    }

    /// Number of pages.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Raw content ids (for the KSM scanner).
    pub fn page_ids(&self) -> &[u64] {
        &self.pages
    }

    /// Sets page `index` to the given class.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    // lint:allow(test-only-pub): vmm/tests/prop.rs plants page contents for the KSM properties with it
    pub fn set_page(&mut self, index: usize, class: PageClass) {
        self.pages[index] = self.encode(class);
    }

    /// Fills `count` pages starting at `start` with `class` content;
    /// [`PageClass::Unique`]'s sequence number is advanced per page so
    /// each page is distinct. Returns the number of pages written.
    pub fn fill(&mut self, start: usize, count: usize, class: PageClass) -> usize {
        let end = (start + count).min(self.pages.len());
        for i in start..end {
            let c = match class {
                PageClass::Shared(base) => PageClass::Shared(base + (i - start) as u32),
                PageClass::Unique(_) => {
                    let n = self.next_unique;
                    self.next_unique += 1;
                    PageClass::Unique(n)
                }
                PageClass::Zero => PageClass::Zero,
            };
            self.pages[i] = self.encode(c);
        }
        end.saturating_sub(start)
    }

    /// Converts `count` zero pages (scanning from the back) into fresh
    /// unique pages — the effect of a workload dirtying memory. Returns
    /// how many pages were actually converted.
    pub fn dirty_zero_pages(&mut self, count: usize) -> usize {
        let mut converted = 0;
        for i in (0..self.pages.len()).rev() {
            if converted == count {
                break;
            }
            if self.pages[i] == ZERO_ID {
                let n = self.next_unique;
                self.next_unique += 1;
                self.pages[i] = self.encode(PageClass::Unique(n));
                converted += 1;
            }
        }
        converted
    }

    /// Converts up to `count` shared pages into fresh unique pages —
    /// a running workload overwriting previously-pristine OS pages
    /// (reduces what KSM can merge). Returns pages converted.
    pub fn dirty_shared_pages(&mut self, count: usize) -> usize {
        let mut converted = 0;
        for i in 0..self.pages.len() {
            if converted == count {
                break;
            }
            let id = self.pages[i];
            if id & SHARED_BASE != 0 && id & UNIQUE_BASE == 0 {
                let n = self.next_unique;
                self.next_unique += 1;
                self.pages[i] = self.encode(PageClass::Unique(n));
                converted += 1;
            }
        }
        converted
    }

    /// Counts pages by class.
    pub fn census(&self) -> (usize, usize, usize) {
        let mut zero = 0;
        let mut shared = 0;
        let mut unique = 0;
        for &id in &self.pages {
            if id == ZERO_ID {
                zero += 1;
            } else if id & SHARED_BASE != 0 && id & UNIQUE_BASE == 0 {
                shared += 1;
            } else {
                unique += 1;
            }
        }
        (zero, shared, unique)
    }

    /// Overwrites all pages with zeros — the secure erase Nymix performs
    /// when a nym shuts down (§3.4).
    pub fn secure_wipe(&mut self) {
        self.pages.fill(ZERO_ID);
    }

    /// Whether every page is zero (post-wipe check).
    pub fn is_wiped(&self) -> bool {
        self.pages.iter().all(|&p| p == ZERO_ID)
    }

    fn encode(&self, class: PageClass) -> u64 {
        match class {
            PageClass::Zero => ZERO_ID,
            PageClass::Shared(i) => SHARED_BASE | i as u64,
            PageClass::Unique(n) => UNIQUE_BASE | (self.vm_tag << 42) | n as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_rounds_up() {
        let m = VmMemory::allocate(1, PAGE_SIZE * 3 + 1);
        assert_eq!(m.page_count(), 4);
    }

    #[test]
    fn shared_pages_collide_across_vms() {
        let mut a = VmMemory::allocate(1, PAGE_SIZE * 4);
        let mut b = VmMemory::allocate(2, PAGE_SIZE * 4);
        a.fill(0, 4, PageClass::Shared(100));
        b.fill(0, 4, PageClass::Shared(100));
        assert_eq!(a.page_ids(), b.page_ids());
    }

    #[test]
    fn unique_pages_never_collide() {
        let mut a = VmMemory::allocate(1, PAGE_SIZE * 4);
        let mut b = VmMemory::allocate(2, PAGE_SIZE * 4);
        a.fill(0, 4, PageClass::Unique(0));
        b.fill(0, 4, PageClass::Unique(0));
        for (x, y) in a.page_ids().iter().zip(b.page_ids()) {
            assert_ne!(x, y);
        }
        // And unique pages within one VM are distinct from each other.
        let ids: std::collections::HashSet<u64> = a.page_ids().iter().copied().collect();
        assert_eq!(ids.len(), 4);
    }

    #[test]
    fn dirtying_converts_zero_pages() {
        let mut m = VmMemory::allocate(7, PAGE_SIZE * 10);
        m.fill(0, 3, PageClass::Shared(0));
        let converted = m.dirty_zero_pages(5);
        assert_eq!(converted, 5);
        let (zero, shared, unique) = m.census();
        assert_eq!((zero, shared, unique), (2, 3, 5));
        // Running out of zero pages saturates.
        assert_eq!(m.dirty_zero_pages(100), 2);
    }

    #[test]
    fn wipe_zeroes_all() {
        let mut m = VmMemory::allocate(3, PAGE_SIZE * 8);
        m.fill(0, 8, PageClass::Unique(0));
        assert!(!m.is_wiped());
        m.secure_wipe();
        assert!(m.is_wiped());
        assert_eq!(m.census(), (8, 0, 0));
    }

    #[test]
    fn fill_clamps_to_range() {
        let mut m = VmMemory::allocate(1, PAGE_SIZE * 4);
        assert_eq!(m.fill(2, 100, PageClass::Shared(0)), 2);
    }
}

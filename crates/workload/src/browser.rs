//! A Chromium-like browser session over an AnonVM.
//!
//! Visits write *real bytes* into the VM's writable layer — cache
//! objects with a per-site compressibility mix, a cookie jar, stored
//! credentials — so the quasi-persistence pipeline (archive → LZSS →
//! AEAD → cloud) measures honest sizes for Figure 6. The Chromium cache
//! cap is the 83 MB default the paper cites (§5.3); eviction is
//! oldest-first.
//!
//! The browser also models the attacks Nymix's amnesia defeats:
//! [`BrowserSession::inject_stain`] plants an evercookie-style stain
//! (\[38\], §3.3), which tests then show does not survive an ephemeral
//! nym but does survive a persistent one.

use nymix_fs::Path;
use nymix_sim::Rng;
use nymix_vmm::Vm;

use crate::sites::Site;

/// Chromium's default cache cap: 83 MB (§5.3).
pub const CACHE_CAP_BYTES: u64 = 83 * 1_000_000;

/// Where the profile lives in the AnonVM.
const PROFILE_DIR: &str = "/home/user/.config/chromium";
const CACHE_DIR: &str = "/home/user/.cache/chromium";

/// A browsing session bound to one AnonVM.
///
/// `scale` divides all written byte counts (and multiplies reported
/// sizes back) so debug-mode tests stay fast while the bench harness
/// can run near 1:1; compression ratios are scale-invariant because
/// content is generated with the same mix at any scale.
#[derive(Debug)]
pub struct BrowserSession<'a> {
    vm: &'a mut Vm,
    rng: Rng,
    scale: u64,
    cache_seq: u64,
    cache_bytes: u64, // unscaled (logical) bytes currently cached
    visits: u32,
    /// Reused by the cache-eviction sweep so repeated walks over the
    /// cache tree don't reallocate the path list.
    walk_scratch: Vec<Path>,
}

/// Suspended browser-session state: everything needed to resume the
/// same session later (or in a restored nym). Serializable so it can
/// ride inside a nym archive.
#[derive(Debug, Clone, PartialEq)]
pub struct BrowserState {
    rng_state: [u64; 4],
    scale: u64,
    cache_seq: u64,
    cache_bytes: u64,
    visits: u32,
}

impl BrowserState {
    /// A fresh (never-browsed) state.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is zero.
    pub fn fresh(rng: Rng, scale: u64) -> Self {
        assert!(scale > 0, "scale must be positive");
        Self {
            rng_state: rng.state(),
            scale,
            cache_seq: 0,
            cache_bytes: 0,
            visits: 0,
        }
    }

    /// Serializes the state (60 bytes).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(60);
        for w in self.rng_state {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out.extend_from_slice(&self.scale.to_le_bytes());
        out.extend_from_slice(&self.cache_seq.to_le_bytes());
        out.extend_from_slice(&self.cache_bytes.to_le_bytes());
        out.extend_from_slice(&self.visits.to_le_bytes());
        out
    }

    /// Parses a serialized state.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != 60 {
            return None;
        }
        let w = |i: usize| u64::from_le_bytes(bytes[i..i + 8].try_into().expect("8 bytes"));
        Some(Self {
            rng_state: [w(0), w(8), w(16), w(24)],
            scale: w(32),
            cache_seq: w(40),
            cache_bytes: w(48),
            visits: u32::from_le_bytes(bytes[56..60].try_into().expect("4 bytes")),
        })
    }
}

impl<'a> BrowserSession<'a> {
    /// Opens a session on `vm`.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is zero.
    pub fn new(vm: &'a mut Vm, rng: Rng, scale: u64) -> Self {
        assert!(scale > 0, "scale must be positive");
        Self {
            vm,
            rng,
            scale,
            cache_seq: 0,
            cache_bytes: 0,
            visits: 0,
            walk_scratch: Vec::new(),
        }
    }

    /// Resumes a suspended session on `vm`.
    pub fn resume(vm: &'a mut Vm, state: BrowserState) -> Self {
        Self {
            vm,
            rng: Rng::from_state(state.rng_state),
            scale: state.scale,
            cache_seq: state.cache_seq,
            cache_bytes: state.cache_bytes,
            visits: state.visits,
            walk_scratch: Vec::new(),
        }
    }

    /// Suspends the session, releasing the VM borrow.
    pub fn suspend(self) -> BrowserState {
        BrowserState {
            rng_state: self.rng.state(),
            scale: self.scale,
            cache_seq: self.cache_seq,
            cache_bytes: self.cache_bytes,
            visits: self.visits,
        }
    }

    /// Visits `site`: fetches the page, grows the cache, stores
    /// cookies (and credentials on login sites), dirties guest memory.
    /// Returns the logical bytes fetched over the network.
    pub fn visit(&mut self, site: Site) -> u64 {
        let profile = site.profile();
        let first = !self.has_profile_for(profile.domain);
        let cache_add = if first {
            profile.first_visit_cache
        } else {
            profile.revisit_cache_growth
        };
        self.write_cache_objects(site, cache_add, profile.compressible_fraction);
        self.write_cookies(profile.domain, profile.cookie_bytes);
        if profile.login {
            self.store_credentials(profile.domain);
        }
        self.vm.dirty_memory_mib(profile.memory_dirty_mib);
        self.visits += 1;
        profile.page_weight + cache_add
    }

    /// Plants an evercookie-style stain: redundant identifiers in
    /// cache, cookies, and local storage (§3.3, \[38\]).
    pub fn inject_stain(&mut self, marker: &str) {
        for place in [
            format!("{CACHE_DIR}/stain-{marker}"),
            format!("{PROFILE_DIR}/Local Storage/stain-{marker}"),
            format!("{PROFILE_DIR}/cookies-stain-{marker}"),
        ] {
            self.vm
                .disk_mut()
                .write(&Path::new(&place), marker.as_bytes().to_vec())
                .expect("writable browser profile");
        }
    }

    /// Whether any stain marker survives in this VM's visible disk.
    pub fn has_stain(&self, marker: &str) -> bool {
        self.vm
            .disk()
            .walk_files(&Path::new("/home/user"))
            .iter()
            .any(|p| p.to_string().contains(&format!("stain-{marker}")))
    }

    fn has_profile_for(&self, domain: &str) -> bool {
        self.vm
            .disk()
            .exists(&Path::new(&format!("{PROFILE_DIR}/site-{domain}")))
    }

    fn write_cookies(&mut self, domain: &str, bytes: u64) {
        let scaled = (bytes / self.scale).max(16) as usize;
        let mut jar = format!("# cookies for {domain}\n").into_bytes();
        while jar.len() < scaled {
            jar.extend_from_slice(
                format!(
                    "session={:016x}; tracking={:016x};\n",
                    self.rng.next_u64(),
                    self.rng.next_u64()
                )
                .as_bytes(),
            );
        }
        self.vm
            .disk_mut()
            .write(&Path::new(&format!("{PROFILE_DIR}/cookies/{domain}")), jar)
            .expect("writable profile");
        self.vm
            .disk_mut()
            .write(
                &Path::new(&format!("{PROFILE_DIR}/site-{domain}")),
                b"seen".to_vec(),
            )
            .expect("writable profile");
    }

    fn store_credentials(&mut self, domain: &str) {
        let cred = format!("user=nym-user;pass=correct-horse-{domain}");
        self.vm
            .disk_mut()
            .write(
                &Path::new(&format!("{PROFILE_DIR}/logins/{domain}")),
                cred.into_bytes(),
            )
            .expect("writable profile");
    }

    /// Writes `logical_bytes` of cache content as ~64 KiB objects with
    /// the given compressible fraction, then enforces the cache cap.
    fn write_cache_objects(&mut self, site: Site, logical_bytes: u64, compressible: f64) {
        let scaled_total = (logical_bytes / self.scale).max(64);
        let object_size = (65_536 / self.scale).max(64) as usize;
        let mut written = 0usize;
        while (written as u64) < scaled_total {
            let take = object_size.min(scaled_total as usize - written);
            let body = self.cache_object_body(take, compressible);
            let name = format!("{CACHE_DIR}/{:?}/obj-{:08}", site, self.cache_seq);
            self.cache_seq += 1;
            self.vm
                .disk_mut()
                .write(&Path::new(&name), body)
                .expect("writable cache");
            written += take;
        }
        self.cache_bytes += logical_bytes;
        self.enforce_cap();
    }

    /// Content mix: a compressible HTML-ish template or incompressible
    /// keystream, chosen per object.
    fn cache_object_body(&mut self, len: usize, compressible: f64) -> Vec<u8> {
        if self.rng.chance(compressible) {
            let template = b"<div class=\"post\"><span>timeline entry</span></div>\n";
            let mut out = Vec::with_capacity(len);
            while out.len() < len {
                let take = template.len().min(len - out.len());
                out.extend_from_slice(&template[..take]);
            }
            out
        } else {
            let mut out = vec![0u8; len];
            self.rng.fill_bytes(&mut out);
            out
        }
    }

    /// Evicts oldest cache objects above the (scaled) cap.
    fn enforce_cap(&mut self) {
        if self.cache_bytes <= CACHE_CAP_BYTES {
            return;
        }
        // walk_files_into sorts, and obj-%08d sorts oldest-first within
        // a site dir; the path list reuses the session scratch buffer.
        let mut files = std::mem::take(&mut self.walk_scratch);
        self.vm
            .disk()
            .walk_files_into(&Path::new(CACHE_DIR), &mut files);
        for path in &files {
            if self.cache_bytes <= CACHE_CAP_BYTES {
                break;
            }
            if let Ok(data) = self.vm.disk().read(path) {
                let logical = data.len() as u64 * self.scale;
                if self.vm.disk_mut().unlink(path).is_ok() {
                    self.cache_bytes = self.cache_bytes.saturating_sub(logical);
                }
            }
        }
        self.walk_scratch = files;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nymix_fs::Layer;
    use nymix_vmm::{VmConfig, VmId};

    fn vm() -> Vm {
        Vm::new(
            VmId(1),
            VmConfig::anonvm(),
            nymix_fs::BaseImage::minimal().to_layer(),
            Layer::new(nymix_fs::LayerKind::Config),
        )
    }

    /// Whether credentials for `domain` are stored ("configure the
    /// browser to remember login information", §5.3).
    fn has_credentials(vm: &Vm, domain: &str) -> bool {
        vm.disk()
            .exists(&Path::new(&format!("{PROFILE_DIR}/logins/{domain}")))
    }

    #[test]
    fn visit_writes_cache_and_cookies() {
        let mut vm = vm();
        vm.boot(0.05, 0.3);
        let mut b = BrowserSession::new(&mut vm, Rng::seed_from(1), 64);
        let fetched = b.visit(Site::Twitter);
        assert!(fetched > 0);
        assert_eq!(b.visits, 1);
        assert!(b.cache_bytes >= Site::Twitter.profile().first_visit_cache);
        assert!(has_credentials(&vm, "twitter.com"));
        assert!(vm.disk().upper_bytes() > 0);
    }

    #[test]
    fn revisits_grow_less_than_first_visit() {
        let mut vm = vm();
        vm.boot(0.05, 0.3);
        let mut b = BrowserSession::new(&mut vm, Rng::seed_from(2), 64);
        let first = b.visit(Site::Gmail);
        let after_first = b.cache_bytes;
        let second = b.visit(Site::Gmail);
        let growth = b.cache_bytes - after_first;
        assert!(second < first);
        assert_eq!(growth, Site::Gmail.profile().revisit_cache_growth);
    }

    #[test]
    fn cache_cap_enforced() {
        let mut vm = vm();
        vm.boot(0.05, 0.3);
        let mut b = BrowserSession::new(&mut vm, Rng::seed_from(3), 256);
        // Youtube adds 8 MB/revisit; 30 visits exceed 83 MB logical.
        for _ in 0..30 {
            b.visit(Site::Youtube);
        }
        assert!(
            b.cache_bytes <= CACHE_CAP_BYTES,
            "cache {} over cap",
            b.cache_bytes
        );
    }

    #[test]
    fn stain_visible_until_wipe() {
        let mut vm = vm();
        vm.boot(0.05, 0.3);
        {
            let mut b = BrowserSession::new(&mut vm, Rng::seed_from(4), 64);
            b.visit(Site::Bbc);
            b.inject_stain("gchq-mullenize");
            assert!(b.has_stain("gchq-mullenize"));
        }
        // Ephemeral nym shutdown: stain gone with the writable layer.
        vm.shutdown();
        assert!(vm.disk().upper().is_none());
    }

    #[test]
    fn no_login_no_credentials() {
        let mut vm = vm();
        vm.boot(0.05, 0.3);
        let mut b = BrowserSession::new(&mut vm, Rng::seed_from(5), 64);
        b.visit(Site::TorBlog);
        assert!(!has_credentials(&vm, "blog.torproject.org"));
    }

    #[test]
    fn memory_dirtied_by_visit() {
        let mut vm = vm();
        vm.boot(0.05, 0.3);
        let before = vm.memory().census().2;
        let mut b = BrowserSession::new(&mut vm, Rng::seed_from(6), 64);
        b.visit(Site::Facebook);
        let after = vm.memory().census().2;
        assert!(after > before, "browsing must dirty guest pages");
    }

    #[test]
    fn compressible_sites_compress_better() {
        // Tor Blog's cache (75% text) should compress much better than
        // Youtube's (15% text) — this drives Figure 6's per-site gaps.
        let measure = |site: Site, seed: u64| -> f64 {
            let mut vm = vm();
            vm.boot(0.05, 0.3);
            let mut b = BrowserSession::new(&mut vm, Rng::seed_from(seed), 64);
            b.visit(site);
            let mut blob = Vec::new();
            for p in vm.disk().walk_files(&Path::new(CACHE_DIR)) {
                blob.extend(vm.disk().read(&p).unwrap());
            }
            nymix_store::lzss::ratio(&blob)
        };
        let torblog = measure(Site::TorBlog, 7);
        let youtube = measure(Site::Youtube, 7);
        assert!(torblog < youtube, "torblog {torblog} youtube {youtube}");
    }
}

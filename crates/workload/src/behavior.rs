//! Typical user behaviours on a page.
//!
//! §5.2: "Where applicable, we signed into Web sites and simulated some
//! typical user behaviors, such as reading the latest news." Behaviours
//! matter to the resource model because they differ in how much
//! CPU/network they burn beyond the page load.

use nymix_sim::SimDuration;

use crate::sites::Site;

/// A scripted user action inside a loaded page.
#[derive(Debug, Clone, PartialEq)]
pub enum Behavior {
    /// Scroll through the latest items (network: incremental fetches).
    ReadLatestNews,
    /// Compose and submit a post of `len` characters (uploads a small
    /// body).
    Post(usize),
    /// Upload an attachment of `bytes` (e.g. Bob's scrubbed photo).
    Upload(u64),
    /// Download an attachment of `bytes`.
    Download(u64),
}

/// Resource cost of one behaviour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BehaviorCost {
    /// Bytes fetched.
    pub down_bytes: u64,
    /// Bytes sent.
    pub up_bytes: u64,
    /// Interactive CPU time.
    pub cpu: SimDuration,
}

impl Behavior {
    /// The behaviour's resource cost on `site`.
    pub fn cost(&self, site: Site) -> BehaviorCost {
        let profile = site.profile();
        match self {
            Behavior::ReadLatestNews => BehaviorCost {
                down_bytes: profile.revisit_cache_growth / 2,
                up_bytes: 4_096,
                cpu: SimDuration::from_millis(2_500),
            },
            Behavior::Post(len) => BehaviorCost {
                down_bytes: 16_384,
                up_bytes: *len as u64 + 2_048,
                cpu: SimDuration::from_millis(800),
            },
            Behavior::Upload(bytes) => BehaviorCost {
                down_bytes: 8_192,
                up_bytes: *bytes + 4_096,
                cpu: SimDuration::from_millis(400),
            },
            Behavior::Download(bytes) => BehaviorCost {
                down_bytes: *bytes,
                up_bytes: 2_048,
                cpu: SimDuration::from_millis(300),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn costs_scale_with_site_and_kind() {
        let read_fb = Behavior::ReadLatestNews.cost(Site::Facebook);
        let read_tb = Behavior::ReadLatestNews.cost(Site::TorBlog);
        assert!(read_fb.down_bytes > read_tb.down_bytes);
        let up = Behavior::Upload(1_000_000).cost(Site::Twitter);
        assert!(up.up_bytes > up.down_bytes);
        let down = Behavior::Download(1_000_000).cost(Site::Twitter);
        assert!(down.down_bytes > down.up_bytes);
    }
}

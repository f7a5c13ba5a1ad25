//! Intersection-attack tracking and Buddies-style anonymity metrics.
//!
//! §7: "An adversary performs an intersection attack by tracking the
//! online set of participants and discovering a set of linkable, yet
//! anonymous messages. The adversary constructs an intersection of
//! users that were online at the same time as those linkable messages.
//! With sufficiently many ... messages, the adversary will be able to
//! discover the owner... To enhance Nymix's ability to resist
//! intersection attacks, we plan to integrate Buddies, \[which\] offers
//! users anonymity metrics and safe guards a user from falling below a
//! desirable anonymity threshold."
//!
//! [`IntersectionAdversary`] is the attacker's ledger; [`BuddiesPolicy`]
//! is the defence: it refuses to post when the user's *possinymity set*
//! (candidate owners of the pseudonym) would shrink below a floor.

use std::collections::BTreeSet;

/// A user in the anonymity system (e.g. a Tor client on a network the
/// adversary can observe).
pub type UserId = u32;

/// The adversary's view: per linkable message, who was online.
#[derive(Debug, Clone, Default)]
pub struct IntersectionAdversary {
    /// The candidate set so far (None = no observation yet).
    candidates: Option<BTreeSet<UserId>>,
}

impl IntersectionAdversary {
    /// A fresh adversary with no observations.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that a linkable pseudonym message appeared while
    /// `online` users were connected.
    pub fn observe_message(&mut self, online: &BTreeSet<UserId>) {
        self.candidates = Some(match self.candidates.take() {
            None => online.clone(),
            Some(prev) => prev.intersection(online).copied().collect(),
        });
    }

    /// The current candidate (possinymity) set size; `usize::MAX`
    /// before any observation.
    pub fn candidate_count(&self) -> usize {
        self.candidates.as_ref().map_or(usize::MAX, BTreeSet::len)
    }
}

/// The Buddies defence: track the would-be candidate set and refuse
/// messages that would shrink it below the floor.
#[derive(Debug, Clone)]
pub struct BuddiesPolicy {
    floor: usize,
    shadow: IntersectionAdversary,
    posted: u32,
    suppressed: u32,
}

impl BuddiesPolicy {
    /// A policy refusing to let the candidate set drop below `floor`.
    pub fn new(floor: usize) -> Self {
        Self {
            floor,
            shadow: IntersectionAdversary::new(),
            posted: 0,
            suppressed: 0,
        }
    }

    /// The user asks to post while `online` users are connected.
    /// Returns whether the post is allowed; allowed posts update the
    /// shadow adversary.
    pub fn try_post(&mut self, online: &BTreeSet<UserId>) -> bool {
        // What would the adversary's set become?
        let mut hypothetical = self.shadow.clone();
        hypothetical.observe_message(online);
        if hypothetical.candidate_count() < self.floor {
            self.suppressed += 1;
            return false;
        }
        self.shadow = hypothetical;
        self.posted += 1;
        true
    }

    /// Messages posted / suppressed.
    pub fn counters(&self) -> (u32, u32) {
        (self.posted, self.suppressed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn online(ids: &[UserId]) -> BTreeSet<UserId> {
        ids.iter().copied().collect()
    }

    #[test]
    fn repeated_observations_shrink_the_set() {
        let mut adv = IntersectionAdversary::new();
        adv.observe_message(&online(&[1, 2, 3, 4, 5]));
        assert_eq!(adv.candidate_count(), 5);
        adv.observe_message(&online(&[1, 2, 3]));
        assert_eq!(adv.candidate_count(), 3);
        adv.observe_message(&online(&[2, 3, 9]));
        assert_eq!(adv.candidate_count(), 2);
        adv.observe_message(&online(&[3, 7]));
        assert_eq!(adv.candidates, Some(online(&[3])));
    }

    #[test]
    fn amnesiac_guard_churn_speeds_up_the_attack() {
        // §3.5's argument, demonstrated: with guard churn, each session
        // exposes an independent online sample; with a pinned guard the
        // adversary (observing that guard) sees the same stable
        // population every time and learns little.
        let sessions: Vec<BTreeSet<UserId>> = vec![
            online(&[3, 10, 11, 12]),
            online(&[3, 20, 21, 22]),
            online(&[3, 30, 31, 32]),
        ];
        let mut churny = IntersectionAdversary::new();
        for s in &sessions {
            churny.observe_message(s);
        }
        assert_eq!(churny.candidates, Some(online(&[3])));

        let stable_population = online(&[3, 10, 11, 12]);
        let mut pinned = IntersectionAdversary::new();
        for _ in 0..3 {
            pinned.observe_message(&stable_population);
        }
        assert_eq!(pinned.candidate_count(), 4);
    }

    #[test]
    fn buddies_floor_suppresses_risky_posts() {
        let mut policy = BuddiesPolicy::new(3);
        assert!(policy.try_post(&online(&[1, 2, 3, 4, 5])));
        assert_eq!(policy.shadow.candidate_count(), 5);
        // This post would shrink the set to 2 (< 3): refused.
        assert!(!policy.try_post(&online(&[1, 2, 8])));
        assert_eq!(policy.shadow.candidate_count(), 5, "refusal leaks nothing");
        // A compatible window is fine.
        assert!(policy.try_post(&online(&[1, 2, 3, 4])));
        assert_eq!(policy.shadow.candidate_count(), 4);
        assert_eq!(policy.counters(), (2, 1));
    }

    #[test]
    fn empty_online_set_always_refused_above_floor_one() {
        let mut policy = BuddiesPolicy::new(2);
        assert!(!policy.try_post(&BTreeSet::new()));
    }
}

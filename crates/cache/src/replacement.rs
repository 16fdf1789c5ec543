//! Per-set replacement state machines.
//!
//! Each cache set owns one [`ReplState`]; the cache notifies it on every
//! hit/fill (`touch`) and asks it for a victim way when a fill finds no
//! free way. Pseudo-random replacement — the paper's choice for its
//! set-associative L2 caches — uses a cache-global 16-bit LFSR threaded in
//! by the caller so replacement decisions stay deterministic.

use crate::config::ReplacementKind;

/// Maximum 2-bit re-reference prediction value: "re-referenced in the
/// distant future" — the value SRRIP evicts at.
pub(crate) const SRRIP_MAX_RRPV: u8 = 3;
/// RRPV given to a freshly filled line: "long" (distant − 1), so a new
/// line survives one round of ageing but loses to never-touched ways.
pub(crate) const SRRIP_LONG_RRPV: u8 = 2;

/// A 16-bit maximal-length Fibonacci LFSR (taps 16, 15, 13, 4) used for
/// pseudo-random way selection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lfsr16 {
    state: u16,
}

impl Lfsr16 {
    /// Creates the LFSR; a zero seed is mapped to 1 (the all-zero state is
    /// absorbing).
    pub fn new(seed: u16) -> Self {
        Lfsr16 { state: if seed == 0 { 1 } else { seed } }
    }

    /// Advances one step and returns the new state.
    // Named after the hardware operation; the LFSR is not an Iterator
    // (it never ends and yielding Option<u16> would be noise).
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn next(&mut self) -> u16 {
        let s = self.state;
        let bit = (s ^ (s >> 1) ^ (s >> 3) ^ (s >> 12)) & 1;
        self.state = (s >> 1) | (bit << 15);
        self.state
    }
}

impl Default for Lfsr16 {
    fn default() -> Self {
        Lfsr16::new(0xACE1)
    }
}

/// Replacement bookkeeping for one set.
#[derive(Debug, Clone)]
pub enum ReplState {
    /// LRU / FIFO: per-way 32-bit stamps plus a set-local counter.
    /// For LRU the stamp is updated on every touch; for FIFO only on fill.
    Stamped {
        /// Per-way stamp; smallest is the victim.
        stamps: Box<[u32]>,
        /// Next stamp to hand out.
        clock: u32,
        /// Whether touches refresh the stamp (LRU) or not (FIFO).
        refresh_on_touch: bool,
    },
    /// Pseudo-random: no per-set state; the victim comes from the LFSR.
    Random,
    /// Tree-PLRU over a power-of-two number of ways.
    Tree {
        /// Internal-node bits of the PLRU tree (bit set = "go right next").
        bits: u64,
        /// Number of ways (power of two).
        ways: u32,
    },
    /// SRRIP-HP: one 2-bit re-reference prediction value per way.
    Srrip {
        /// Per-way RRPV (0 = near-immediate, `SRRIP_MAX_RRPV` = distant).
        rrpv: Box<[u8]>,
    },
}

impl ReplState {
    /// Creates state for a set of `ways` ways under `kind`.
    pub fn new(kind: ReplacementKind, ways: u32) -> Self {
        match kind {
            ReplacementKind::Lru => ReplState::Stamped {
                stamps: vec![0; ways as usize].into_boxed_slice(),
                clock: 0,
                refresh_on_touch: true,
            },
            ReplacementKind::Fifo => ReplState::Stamped {
                stamps: vec![0; ways as usize].into_boxed_slice(),
                clock: 0,
                refresh_on_touch: false,
            },
            ReplacementKind::PseudoRandom => ReplState::Random,
            ReplacementKind::TreePlru => {
                debug_assert!(ways.is_power_of_two() && ways <= 64);
                ReplState::Tree { bits: 0, ways }
            }
            ReplacementKind::Srrip => ReplState::Srrip {
                // Empty ways start "distant"; fills overwrite this, and a
                // victim is only ever chosen from a full set, so the
                // initial value is never observable.
                rrpv: vec![SRRIP_MAX_RRPV; ways as usize].into_boxed_slice(),
            },
        }
    }

    /// Notifies the state that `way` was referenced (hit).
    #[inline]
    pub fn touch(&mut self, way: u32) {
        match self {
            ReplState::Stamped { stamps, clock, refresh_on_touch } => {
                if *refresh_on_touch {
                    *clock += 1;
                    stamps[way as usize] = *clock;
                }
            }
            ReplState::Random => {}
            ReplState::Tree { bits, ways } => {
                Self::tree_point_away(bits, *ways, way);
            }
            ReplState::Srrip { rrpv } => rrpv[way as usize] = 0,
        }
    }

    /// Notifies the state that `way` was just filled.
    #[inline]
    pub fn filled(&mut self, way: u32) {
        match self {
            ReplState::Stamped { stamps, clock, .. } => {
                *clock += 1;
                stamps[way as usize] = *clock;
            }
            ReplState::Random => {}
            ReplState::Tree { bits, ways } => {
                Self::tree_point_away(bits, *ways, way);
            }
            ReplState::Srrip { rrpv } => rrpv[way as usize] = SRRIP_LONG_RRPV,
        }
    }

    /// Chooses a victim way among `ways` ways. `lfsr` supplies entropy for
    /// pseudo-random replacement. Mutable because SRRIP ages every way's
    /// RRPV until one reaches the eviction value.
    #[inline]
    pub fn victim(&mut self, ways: u32, lfsr: &mut Lfsr16) -> u32 {
        match self {
            ReplState::Stamped { stamps, .. } => {
                let mut best = 0u32;
                let mut best_stamp = u32::MAX;
                for (i, &s) in stamps.iter().enumerate().take(ways as usize) {
                    if s < best_stamp {
                        best_stamp = s;
                        best = i as u32;
                    }
                }
                best
            }
            ReplState::Random => {
                // Power-of-two way counts let us mask instead of mod.
                let r = lfsr.next() as u32;
                if ways.is_power_of_two() {
                    r & (ways - 1)
                } else {
                    r % ways
                }
            }
            ReplState::Tree { bits, ways: w } => {
                debug_assert_eq!(*w, ways);
                let mut node = 1u32; // heap-indexed tree, root at 1
                let levels = ways.trailing_zeros();
                for _ in 0..levels {
                    let right = (*bits >> node) & 1 == 1;
                    node = node * 2 + right as u32;
                }
                node - ways
            }
            ReplState::Srrip { rrpv } => loop {
                // Lowest-indexed way already at the maximum RRPV wins;
                // otherwise age the whole set and rescan.
                if let Some(i) = rrpv.iter().take(ways as usize).position(|&r| r == SRRIP_MAX_RRPV)
                {
                    return i as u32;
                }
                for r in rrpv.iter_mut().take(ways as usize) {
                    *r += 1;
                }
            },
        }
    }

    /// Flips the PLRU path bits so the tree points *away* from `way`.
    #[inline]
    fn tree_point_away(bits: &mut u64, ways: u32, way: u32) {
        let levels = ways.trailing_zeros();
        let mut node = 1u32;
        for level in (0..levels).rev() {
            let go_right = (way >> level) & 1 == 1;
            // Point the bit at the opposite child of the one we took.
            if go_right {
                *bits &= !(1 << node);
            } else {
                *bits |= 1 << node;
            }
            node = node * 2 + go_right as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lfsr_cycles_without_sticking() {
        let mut l = Lfsr16::new(1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..65535 {
            assert!(seen.insert(l.next()), "LFSR state repeated early");
        }
        // Maximal-length: all 2^16-1 non-zero states visited.
        assert_eq!(seen.len(), 65535);
    }

    #[test]
    fn lfsr_zero_seed_is_fixed() {
        let mut l = Lfsr16::new(0);
        assert_ne!(l.next(), 0);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut s = ReplState::new(ReplacementKind::Lru, 4);
        let mut lfsr = Lfsr16::default();
        for w in 0..4 {
            s.filled(w);
        }
        s.touch(0); // order now 1,2,3,0 by age
        assert_eq!(s.victim(4, &mut lfsr), 1);
        s.touch(1);
        assert_eq!(s.victim(4, &mut lfsr), 2);
    }

    #[test]
    fn fifo_ignores_touches() {
        let mut s = ReplState::new(ReplacementKind::Fifo, 4);
        let mut lfsr = Lfsr16::default();
        for w in 0..4 {
            s.filled(w);
        }
        s.touch(0);
        s.touch(0);
        assert_eq!(s.victim(4, &mut lfsr), 0, "FIFO must evict oldest fill despite touches");
    }

    #[test]
    fn random_covers_all_ways() {
        let mut s = ReplState::new(ReplacementKind::PseudoRandom, 4);
        let mut lfsr = Lfsr16::default();
        let mut hit = [false; 4];
        for _ in 0..200 {
            hit[s.victim(4, &mut lfsr) as usize] = true;
        }
        assert!(hit.iter().all(|&h| h));
    }

    #[test]
    fn plru_never_evicts_most_recent() {
        let mut s = ReplState::new(ReplacementKind::TreePlru, 8);
        let mut lfsr = Lfsr16::default();
        for w in 0..8 {
            s.filled(w);
            assert_ne!(s.victim(8, &mut lfsr), w, "PLRU picked the way just filled");
        }
        for w in [3u32, 5, 0, 7, 2] {
            s.touch(w);
            assert_ne!(s.victim(8, &mut lfsr), w, "PLRU picked the way just touched");
        }
    }

    #[test]
    fn plru_two_way_alternates() {
        let mut s = ReplState::new(ReplacementKind::TreePlru, 2);
        let mut lfsr = Lfsr16::default();
        s.touch(0);
        assert_eq!(s.victim(2, &mut lfsr), 1);
        s.touch(1);
        assert_eq!(s.victim(2, &mut lfsr), 0);
    }

    #[test]
    fn srrip_fill_predicts_long_and_hit_promotes() {
        let mut s = ReplState::new(ReplacementKind::Srrip, 4);
        let mut lfsr = Lfsr16::default();
        for w in 0..4 {
            s.filled(w); // every way at RRPV 2 ("long")
        }
        s.touch(2); // way 2 promoted to RRPV 0
                    // No way is at RRPV 3: one ageing round lifts ways 0,1,3 to 3 and
                    // the lowest index wins.
        assert_eq!(s.victim(4, &mut lfsr), 0);
        // The promoted way needs three ageing rounds before it's evictable:
        // after the round above it sits at 1, the others at 3.
        s.filled(0);
        assert_eq!(s.victim(4, &mut lfsr), 1, "way 1 already aged to the maximum");
    }

    #[test]
    fn srrip_victim_is_lowest_index_at_max_rrpv() {
        let mut s = ReplState::new(ReplacementKind::Srrip, 4);
        let mut lfsr = Lfsr16::default();
        for w in 0..4 {
            s.filled(w);
        }
        s.touch(0);
        s.touch(1); // RRPVs now [0, 0, 2, 2]
        assert_eq!(s.victim(4, &mut lfsr), 2, "ties at the maximum break to the lowest index");
    }

    #[test]
    fn srrip_never_evicts_just_touched_way_in_small_sets() {
        let mut s = ReplState::new(ReplacementKind::Srrip, 2);
        let mut lfsr = Lfsr16::default();
        s.filled(0);
        s.filled(1);
        s.touch(1);
        assert_eq!(s.victim(2, &mut lfsr), 0, "the untouched way must age out first");
    }

    #[test]
    fn lru_full_cycle_is_fifo_when_untouch() {
        // Without touches, LRU degenerates to fill order.
        let mut s = ReplState::new(ReplacementKind::Lru, 4);
        let mut lfsr = Lfsr16::default();
        for w in [2u32, 0, 3, 1] {
            s.filled(w);
        }
        assert_eq!(s.victim(4, &mut lfsr), 2);
    }
}

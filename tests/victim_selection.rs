//! Victim-selection layer tests (DESIGN.md §3).
//!
//! Two levels:
//!
//! 1. **Per pick**: [`StealPolicy::choose_victim`] is a pure function
//!    of `(me, rng, topology, fail_streak)`, so a seeded xorshift closure
//!    makes the policies' selection behaviour exactly checkable —
//!    [`HierarchicalVictim`] stays on the thief's node below the
//!    escalation threshold and goes machine-wide (flagged `escalated`)
//!    above it; [`LocalityFirst`] concentrates picks on the nearest ring.
//! 2. **Scripted thieves**: replaying a fixed sequence of fail streaks for
//!    every worker of a modelled 2-node topology, the hierarchical policy
//!    lands a strictly larger share of same-node picks than the uniform
//!    baseline. A real steal race would make this share depend on timing.

use xkaapi::core::{HierarchicalVictim, LocalityFirst, StealPolicy, Topology, UniformVictim};

/// Seeded xorshift64* closure: the same seed replays the same choices.
fn seeded_rng(mut x: u64) -> impl FnMut() -> u64 {
    move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    }
}

#[test]
fn hierarchical_prefers_same_node_then_escalates() {
    let topo = Topology::two_level(8, 4); // nodes {0..3} and {4..7}
    let pol = HierarchicalVictim {
        escalate_after: 4,
        max_batch: 8,
    };
    let me = 1usize;

    // Below the escalation threshold: every pick is a same-node sibling,
    // never me, never flagged as escalated.
    let mut rng = seeded_rng(0xDEAD_BEEF);
    for fail_streak in 0..4 {
        for _ in 0..200 {
            let c = pol.choose_victim(me, &mut rng, &topo, fail_streak);
            assert_ne!(c.victim, me);
            assert!(
                topo.same_node(me, c.victim),
                "streak {fail_streak}: picked remote victim {} before escalation",
                c.victim
            );
            assert!(!c.escalated);
        }
    }

    // At the threshold: machine-wide picks, remote victims reachable and
    // flagged as escalations.
    let mut rng = seeded_rng(0xDEAD_BEEF);
    let mut saw_remote = false;
    for _ in 0..200 {
        let c = pol.choose_victim(me, &mut rng, &topo, 4);
        assert_ne!(c.victim, me);
        assert!(c.escalated, "post-threshold picks must be escalations");
        saw_remote |= !topo.same_node(me, c.victim);
    }
    assert!(saw_remote, "escalated picks must reach the remote node");

    // Same seed, same choices: the selection is deterministic in the rng.
    let replay = |seed| {
        let mut rng = seeded_rng(seed);
        (0..50)
            .map(|_| pol.choose_victim(me, &mut rng, &topo, 2).victim)
            .collect::<Vec<_>>()
    };
    assert_eq!(replay(7), replay(7));
}

#[test]
fn hierarchical_alone_on_node_goes_machine_wide_unflagged() {
    // Worker 6 is alone on node 2: no local victim exists, so machine-wide
    // picks are not counted as escalations (nothing was skipped).
    let topo = Topology::two_level(7, 3);
    let pol = HierarchicalVictim::default();
    let mut rng = seeded_rng(99);
    for _ in 0..100 {
        let c = pol.choose_victim(6, &mut rng, &topo, 0);
        assert_ne!(c.victim, 6);
        assert!(!c.escalated);
    }
}

#[test]
fn locality_first_concentrates_on_nearest_ring() {
    let topo = Topology::two_level(8, 4);
    let pol = LocalityFirst::default();
    let mut rng = seeded_rng(0x5EED);
    let (mut local, mut remote) = (0u32, 0u32);
    for _ in 0..1000 {
        let c = pol.choose_victim(0, &mut rng, &topo, 0);
        assert_ne!(c.victim, 0);
        if topo.same_node(0, c.victim) {
            assert!(!c.escalated);
            local += 1;
        } else {
            assert!(c.escalated, "remote pick must be flagged");
            remote += 1;
        }
    }
    // ~3/4 of picks stay in the nearest ring (geometric ring walk); a
    // uniform picker would land ~3/7 locally. Split the difference.
    assert!(
        local > remote * 2,
        "locality-first must concentrate near: {local} local vs {remote} remote"
    );

    // On a flat topology it degrades to uniform and never escalates.
    let flat = Topology::flat(4);
    for _ in 0..100 {
        let c = pol.choose_victim(0, &mut rng, &flat, 0);
        assert_ne!(c.victim, 0);
        assert!(!c.escalated);
    }
}

#[test]
fn uniform_covers_all_victims_without_escalating() {
    let topo = Topology::two_level(8, 4);
    let mut rng = seeded_rng(3);
    let mut seen = [false; 8];
    for _ in 0..500 {
        let c = UniformVictim.choose_victim(2, &mut rng, &topo, 10);
        assert_ne!(c.victim, 2);
        assert!(!c.escalated);
        seen[c.victim] = true;
    }
    let covered = seen.iter().filter(|&&s| s).count();
    assert_eq!(covered, 7, "uniform must reach every other worker");
}

/// Scripted thief behaviour: each entry is one acquisition episode, the
/// number of failed probes before the hit that resets the fail streak.
/// Mixes short runs (below `HierarchicalVictim`'s escalation threshold of
/// 4) with dry-node runs that escalate machine-wide.
const FAIL_RUNS: [u32; 12] = [0, 1, 0, 2, 6, 0, 1, 3, 9, 0, 4, 1];

/// Replay [`FAIL_RUNS`] for every thief of `topo` — one victim pick per
/// probe, at the streak the thief has when it makes it — with a seeded rng,
/// and count the `(same-node, remote)` picks.
fn scripted_picks(pol: &dyn StealPolicy, topo: &Topology, seed: u64) -> (u32, u32) {
    let mut rng = seeded_rng(seed);
    let (mut local, mut remote) = (0u32, 0u32);
    for _ in 0..20 {
        for me in 0..topo.workers() {
            for &run in &FAIL_RUNS {
                for streak in 0..=run {
                    let c = pol.choose_victim(me, &mut rng, topo, streak);
                    assert_ne!(c.victim, me);
                    if topo.same_node(me, c.victim) {
                        local += 1;
                    } else {
                        remote += 1;
                    }
                }
            }
        }
    }
    (local, remote)
}

#[test]
fn hierarchical_lands_more_same_node_steals_than_uniform() {
    let topo = Topology::two_level(8, 4); // nodes {0..3} and {4..7}
    let (ul, ur) = scripted_picks(&UniformVictim, &topo, 0x5EED_CAFE);
    let (hl, hr) = scripted_picks(&HierarchicalVictim::default(), &topo, 0x5EED_CAFE);
    let ratio = |l: u32, r: u32| l as f64 / (l + r) as f64;
    assert!(
        ratio(hl, hr) > ratio(ul, ur),
        "hierarchical same-node share must beat uniform: {:.3} (={hl}/{hr}) vs {:.3} (={ul}/{ur})",
        ratio(hl, hr),
        ratio(ul, ur)
    );
    // The hierarchical policy overwhelmingly stays on-node; uniform can't
    // (only 3 of 7 victims are local).
    assert!(
        hl > hr,
        "hierarchical must pick mostly same-node victims: {hl} local vs {hr} remote"
    );
}

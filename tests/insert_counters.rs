//! The insertion counters agree across the three rule-list kinds: for an
//! insert into a route-map, an ACL and a prefix list,
//! `disambiguator.comparisons` is the kept candidates plus the
//! top/bottom comparison, and `disambiguator.candidates_pruned` is the
//! overlaps minus the kept candidates.
//!
//! Each case has four rules that all overlap the new rule. The first two
//! can fire on it; the third is shadowed and the fourth is reached only
//! by inputs the new rule never matches, so the prune drops both.
//!
//! One test function: the metrics registry is process-global.

use clarify::core::{
    insert_acl_with_oracle, insert_prefix_entry_with_oracle, Choice, Disambiguator, FnOracle,
    PlacementStrategy, ScriptedOracle,
};
use clarify::netconfig::Config;
use clarify::obs::Registry;

const ROUTE_MAP: &str = "\
ip prefix-list WIDE permit 10.0.0.0/8 le 32
ip prefix-list A permit 10.1.0.0/16 le 32
ip prefix-list B permit 10.2.0.0/16 le 32
route-map RM permit 10
 match ip address prefix-list A
 set metric 5
route-map RM deny 20
 match ip address prefix-list WIDE
route-map RM permit 30
 match ip address prefix-list B
route-map RM permit 40
";
const SNIPPET: &str = "\
ip prefix-list NEWPL permit 10.0.0.0/8 le 24
route-map NEW permit 10
 match ip address prefix-list NEWPL
 set metric 99
";
const ACL: &str = "\
ip access-list extended A
 permit tcp 10.1.0.0/16 any
 deny tcp 10.0.0.0/8 any
 permit tcp 10.2.0.0/16 any
 permit ip any any
ip access-list extended NEW
 permit tcp 10.0.0.0/8 any eq 80
";
const PREFIX_LIST: &str = "\
ip prefix-list P seq 5 permit 10.1.0.0/16 le 24
ip prefix-list P seq 10 deny 10.0.0.0/8 le 24
ip prefix-list P seq 15 permit 10.2.0.0/16 le 24
ip prefix-list P seq 20 permit 0.0.0.0/0 le 32
ip prefix-list NEW seq 5 permit 10.0.0.0/8 le 20
";

const OVERLAPS: u64 = 4;
const KEPT: u64 = 2;

/// Counter deltas of one insert: (overlaps, pruned, comparisons).
fn deltas(insert: impl FnOnce() -> (usize, usize, usize)) -> [u64; 3] {
    let names = [
        "disambiguator.overlap_candidates",
        "disambiguator.candidates_pruned",
        "disambiguator.comparisons",
    ];
    let before = clarify::obs::global().snapshot();
    let (overlaps, pruned, comparisons) = insert();
    let after = clarify::obs::global().snapshot();
    let delta = names.map(|n| after.counter(n) - before.counter(n));
    assert_eq!(
        delta,
        [overlaps as u64, pruned as u64, comparisons as u64],
        "the registry and the insertion result disagree"
    );
    delta
}

#[test]
fn comparisons_are_kept_candidates_plus_top_bottom_for_every_kind() {
    clarify::obs::install(Registry::new());
    let base = Config::parse(ROUTE_MAP).unwrap();
    let snippet = Config::parse(SNIPPET).unwrap();
    let acls = Config::parse(ACL).unwrap();
    let entry = acls.acl("NEW").unwrap().entries[0].clone();
    let lists = Config::parse(PREFIX_LIST).unwrap();
    let prefix_entry = lists.prefix_lists["NEW"].entries[0].clone();

    let mut got = Vec::new();
    for strategy in [
        PlacementStrategy::BinarySearch,
        PlacementStrategy::TopBottomOnly,
    ] {
        let top_bottom = u64::from(strategy == PlacementStrategy::TopBottomOnly);
        let expected = [OVERLAPS, OVERLAPS - KEPT, KEPT + top_bottom];
        got.push((
            "route-map",
            strategy,
            expected,
            deltas(|| {
                let r = Disambiguator::new(strategy)
                    .insert(
                        &base,
                        "RM",
                        &snippet,
                        "NEW",
                        &mut ScriptedOracle::new([Choice::First; 4]),
                    )
                    .unwrap();
                (r.overlap_candidates, r.pruned_candidates, r.comparisons)
            }),
        ));
        got.push((
            "access-list",
            strategy,
            expected,
            deltas(|| {
                let mut oracle = FnOracle(|_: &clarify::core::AclQuestion| Choice::First);
                let r = insert_acl_with_oracle(&acls, "A", &entry, strategy, &mut oracle).unwrap();
                (r.overlap_candidates, r.pruned_candidates, r.comparisons)
            }),
        ));
        got.push((
            "prefix-list",
            strategy,
            expected,
            deltas(|| {
                let mut oracle = FnOracle(|_: &clarify::core::PrefixQuestion| Choice::First);
                let r = insert_prefix_entry_with_oracle(
                    &lists,
                    "P",
                    &prefix_entry,
                    strategy,
                    &mut oracle,
                )
                .unwrap();
                (r.overlap_candidates, r.pruned_candidates, r.comparisons)
            }),
        ));
    }
    clarify::obs::install(Registry::disabled());
    for (kind, strategy, expected, delta) in got {
        assert_eq!(
            delta, expected,
            "{kind} {strategy:?}: [overlaps, pruned, comparisons]"
        );
    }
}

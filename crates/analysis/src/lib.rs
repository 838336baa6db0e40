//! Symbolic (BDD-based) analyses of route-maps and ACLs.
//!
//! This crate stands in for the Batfish analyses the paper relies on:
//!
//! * [`RouteSpace::search_route_policies`] — find a route a policy handles
//!   with a given action, optionally constrained (Batfish
//!   `searchRoutePolicies`);
//! * [`compare_route_policies`] — find concrete routes on which two
//!   policies behave differently, with both outcomes (Batfish
//!   `compareRoutePolicies`); this is what powers the disambiguator's
//!   differential examples;
//! * [`PacketSpace::search_filters`] — the packet/ACL analogue (Batfish
//!   `searchFilters`);
//! * [`acl_overlaps`] / [`route_map_overlaps`] — the overlap census of §3
//!   (the paper's own Batfish extension).
//!
//! Routes are encoded over BDD variables: 32 prefix bits, 6 prefix-length
//! bits, 16-bit local-preference / metric / tag fields, one variable per
//! **community atomic predicate**, and a binary-encoded **AS-path atomic
//! predicate** index. Atomic predicates are computed by
//! `clarify-automata` from the exact set of regexes appearing in the
//! configurations under analysis, so every Boolean combination of the
//! config's lists is represented exactly and every witness decodes to a
//! concrete [`BgpRoute`](clarify_nettypes::BgpRoute).

#![warn(missing_docs)]

mod error;
mod filter_compare;
mod incr;
mod network_space;
mod overlap;
mod packet_space;
mod route_compare;
mod route_space;
mod rule_list;
mod spec;

pub use error::AnalysisError;
pub use filter_compare::{
    compare_filters, compare_prefix_lists, filters_equivalent, prefix_lists_equivalent, FilterDiff,
    PrefixListDiff, PrefixSpace,
};
pub use incr::{atom_env_hash, FireSetCache, FireSets};
pub use network_space::NetworkSpace;
pub use overlap::{
    acl_overlaps, acl_overlaps_symbolic, route_map_chain_overlaps, route_map_overlaps,
    ChainOverlapPair, OverlapPair, OverlapReport,
};
pub use packet_space::PacketSpace;
pub use route_compare::{compare_route_policies, policies_equivalent, RouteDiff};
pub use route_space::RouteSpace;
pub use rule_list::{Acls, PrefixLists, RouteMaps, RuleList, StanzaSnippet};
pub use spec::{verify_stanza_against_spec, SpecVerdict, StanzaSpec};

#[cfg(test)]
mod tests;

//! One ordered first-match rule list, three kinds.
//!
//! Route-maps, ACLs and prefix lists are all ordered lists of rules where
//! the first matching rule decides. The §4 insertion search and the
//! linter's L001–L003 checks are stated for any such list; they only need
//! the operations of [`RuleList`]. Each kind is a marker type implementing
//! it — [`RouteMaps`], [`Acls`], [`PrefixLists`] — over its own symbolic
//! space, so the algorithms above are written once.

use std::collections::BTreeMap;
use std::fmt::{Debug, Display};

use clarify_bdd::{Manager, Ref};
use clarify_netconfig::{
    insert_acl_entry, insert_prefix_list_entry, insert_route_map_stanza, Acl, AclEntry, Action,
    Config, ConfigError, InsertReport, PrefixList, PrefixListEntry, RouteMap, RouteMapStanza,
    RuleId,
};
use clarify_nettypes::{BgpRoute, Packet, Prefix};

use crate::{
    acl_overlaps, compare_filters, compare_prefix_lists, compare_route_policies,
    route_map_overlaps, AnalysisError, FilterDiff, FireSetCache, PacketSpace, PrefixListDiff,
    PrefixSpace, RouteDiff, RouteSpace,
};

/// What the rule-list algorithms need from one kind of ordered
/// first-match list. Every function is associated (no `self`): the
/// implementing types are markers naming the kind.
pub trait RuleList {
    /// The symbolic space the kind's rules are encoded in.
    type Space;
    /// One list of this kind.
    type List: Clone + Send + Sync;
    /// The rule the disambiguator inserts.
    type Rule: Clone + Debug + Send + Sync;
    /// A concrete input: a route, a packet or a prefix.
    type Witness: Display;
    /// One differential input between two lists, with both outcomes.
    type Diff;
    /// What [`splice`](Self::splice) reports beyond the new configuration.
    type Report: Clone + Debug;

    /// The kind's keyword in errors and rule identities.
    const KIND: &'static str;
    /// One rule, as diagnostics and prompts name it ("stanza", "entry").
    const RULE: &'static str;
    /// One input ("route", "packet", "prefix").
    const INPUT: &'static str;
    /// Inputs, plural.
    const INPUTS: &'static str;
    /// The whole list ("policy", "filter", "list").
    const WHOLE: &'static str;
    /// The L004 message for a rule that matches nothing.
    const EMPTY_MATCH: &'static str;

    /// The lists of this kind in `cfg`, by name.
    fn lists(cfg: &Config) -> &BTreeMap<String, Self::List>;
    /// Adds an empty list named `name` to `cfg` unless it has one.
    fn ensure_list(cfg: &mut Config, name: &str);
    /// Number of rules in `list`.
    fn len(list: &Self::List) -> usize;
    /// Action of rule `i`.
    fn action(list: &Self::List, i: usize) -> Action;
    /// Rule `i` as diagnostics name it: "stanza 10", "rule 3", "seq 5".
    fn label(list: &Self::List, i: usize) -> String;
    /// Source identity of rule `i` of the list `name`.
    fn rule_id(name: &str, list: &Self::List, i: usize) -> RuleId;

    /// A space covering `base` and, when given, the rule to insert.
    fn new_space(base: &Config, rule: Option<&Self::Rule>) -> Result<Self::Space, AnalysisError>;
    /// The space's BDD manager.
    fn manager(space: &mut Self::Space) -> &mut Manager;
    /// The space's validity constraint.
    fn valid(space: &Self::Space) -> Ref;
    /// Raw per-rule match sets.
    fn match_sets(
        space: &mut Self::Space,
        cfg: &Config,
        list: &Self::List,
    ) -> Result<Vec<Ref>, AnalysisError>;
    /// First-match firing regions per rule, through `cache` when given
    /// (keyed by the list's identity and the caller's content hash).
    fn fire_sets(
        space: &mut Self::Space,
        cfg: &Config,
        list: &Self::List,
        cache: Option<(&mut FireSetCache, u64)>,
    ) -> Result<Vec<Ref>, AnalysisError>;
    /// Decodes a concrete input from a region (`None` when empty).
    fn witness(
        space: &mut Self::Space,
        region: Ref,
    ) -> Result<Option<Self::Witness>, AnalysisError>;
    /// Index of the rule of `list` (named `name` in `cfg`) that decides
    /// `input`, if any.
    fn first_match(
        cfg: &Config,
        name: &str,
        list: &Self::List,
        input: &Self::Witness,
    ) -> Result<Option<usize>, AnalysisError>;
    /// Rule pairs `(i, j)`, `i < j`, that overlap with differing actions
    /// and neither containing the other (the §3.2 non-trivial measure).
    /// `match_sets` are the list's raw match sets.
    fn conflicting_overlaps(
        space: &mut Self::Space,
        cfg: &Config,
        list: &Self::List,
        match_sets: &[Ref],
    ) -> Result<Vec<(usize, usize)>, AnalysisError>;
    /// Whether deleting rule `i` leaves the list behaviourally equivalent.
    fn deletion_is_equivalent(
        space: &mut Self::Space,
        cfg: &Config,
        name: &str,
        list: &Self::List,
        i: usize,
    ) -> Result<bool, AnalysisError>;

    /// Rejects a rule that cannot be inserted at all.
    fn check_rule(_rule: &Self::Rule) -> Result<(), ConfigError> {
        Ok(())
    }
    /// The rule's match set (not yet restricted to valid inputs).
    fn encode_rule(space: &mut Self::Space, rule: &Self::Rule) -> Result<Ref, AnalysisError>;
    /// `base` with `rule` inserted at `position` of the list `name`.
    fn splice(
        base: &Config,
        name: &str,
        rule: &Self::Rule,
        position: usize,
    ) -> Result<(Config, Self::Report), ConfigError>;
    /// The first input on which the lists `name` of `a` and `b` differ.
    fn first_diff(
        space: &mut Self::Space,
        a: &Config,
        b: &Config,
        name: &str,
    ) -> Result<Option<Self::Diff>, AnalysisError>;
}

fn missing(kind: &'static str, name: &str) -> ConfigError {
    ConfigError::NotFound {
        kind,
        name: name.to_string(),
    }
}

/// The route-map kind, over the [`RouteSpace`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouteMaps;

/// The route-map rule to insert: a snippet configuration holding one
/// route-map of exactly one stanza, plus the lists that stanza references.
#[derive(Clone, Debug)]
pub struct StanzaSnippet {
    /// The snippet configuration.
    pub config: Config,
    /// Name of the snippet's route-map.
    pub map: String,
}

impl StanzaSnippet {
    /// The snippet's single stanza.
    pub(crate) fn stanza(&self) -> Result<&RouteMapStanza, ConfigError> {
        let map = self
            .config
            .route_map(&self.map)
            .ok_or_else(|| missing("route-map", &self.map))?;
        match map.stanzas.as_slice() {
            [stanza] => Ok(stanza),
            _ => Err(ConfigError::InvalidEdit(format!(
                "snippet route-map '{}' must have exactly one stanza",
                self.map
            ))),
        }
    }
}

impl RuleList for RouteMaps {
    type Space = RouteSpace;
    type List = RouteMap;
    type Rule = StanzaSnippet;
    type Witness = BgpRoute;
    type Diff = RouteDiff;
    type Report = InsertReport;

    const KIND: &'static str = "route-map";
    const RULE: &'static str = "stanza";
    const INPUT: &'static str = "route";
    const INPUTS: &'static str = "routes";
    const WHOLE: &'static str = "policy";
    const EMPTY_MATCH: &'static str =
        "match condition is unsatisfiable; the stanza can never apply";

    fn lists(cfg: &Config) -> &BTreeMap<String, RouteMap> {
        &cfg.route_maps
    }
    fn ensure_list(cfg: &mut Config, name: &str) {
        if cfg.route_map(name).is_none() {
            cfg.route_maps
                .insert(name.to_string(), RouteMap::empty(name));
        }
    }
    fn len(list: &RouteMap) -> usize {
        list.stanzas.len()
    }
    fn action(list: &RouteMap, i: usize) -> Action {
        list.stanzas[i].action
    }
    fn label(list: &RouteMap, i: usize) -> String {
        format!("stanza {}", list.stanzas[i].seq)
    }
    fn rule_id(name: &str, list: &RouteMap, i: usize) -> RuleId {
        RuleId::route_map_stanza(name, list.stanzas[i].seq)
    }

    fn new_space(base: &Config, rule: Option<&StanzaSnippet>) -> Result<RouteSpace, AnalysisError> {
        match rule {
            Some(rule) => RouteSpace::new(&[base, &rule.config]),
            None => RouteSpace::new(&[base]),
        }
    }
    fn manager(space: &mut RouteSpace) -> &mut Manager {
        space.manager()
    }
    fn valid(space: &RouteSpace) -> Ref {
        space.valid()
    }
    fn match_sets(
        space: &mut RouteSpace,
        cfg: &Config,
        list: &RouteMap,
    ) -> Result<Vec<Ref>, AnalysisError> {
        space.match_sets(cfg, list)
    }
    fn fire_sets(
        space: &mut RouteSpace,
        cfg: &Config,
        list: &RouteMap,
        cache: Option<(&mut FireSetCache, u64)>,
    ) -> Result<Vec<Ref>, AnalysisError> {
        Ok(match cache {
            Some((cache, hash)) => space.fire_sets_cached(cache, cfg, list, hash)?.fires,
            None => space.fire_sets(cfg, list)?.0,
        })
    }
    fn witness(space: &mut RouteSpace, region: Ref) -> Result<Option<BgpRoute>, AnalysisError> {
        space.witness(region)
    }
    fn first_match(
        cfg: &Config,
        name: &str,
        list: &RouteMap,
        input: &BgpRoute,
    ) -> Result<Option<usize>, AnalysisError> {
        let verdict = cfg.eval_route_map(name, input)?;
        Ok(verdict
            .seq()
            .and_then(|seq| list.stanzas.iter().position(|s| s.seq == seq)))
    }
    fn conflicting_overlaps(
        space: &mut RouteSpace,
        cfg: &Config,
        list: &RouteMap,
        _match_sets: &[Ref],
    ) -> Result<Vec<(usize, usize)>, AnalysisError> {
        let report = route_map_overlaps(space, cfg, list)?;
        Ok(report
            .pairs
            .iter()
            .filter(|p| p.conflicting && !p.subset)
            .map(|p| (p.i, p.j))
            .collect())
    }
    fn deletion_is_equivalent(
        space: &mut RouteSpace,
        cfg: &Config,
        name: &str,
        _list: &RouteMap,
        i: usize,
    ) -> Result<bool, AnalysisError> {
        // Stanzas reference the config's lists, so the edit is made on a
        // copy of the whole configuration.
        let mut modified = cfg.clone();
        modified
            .route_maps
            .get_mut(name)
            .ok_or_else(|| missing("route-map", name))?
            .stanzas
            .remove(i);
        Ok(compare_route_policies(space, cfg, name, &modified, name, 1)?.is_empty())
    }

    fn check_rule(rule: &StanzaSnippet) -> Result<(), ConfigError> {
        rule.stanza().map(|_| ())
    }
    fn encode_rule(space: &mut RouteSpace, rule: &StanzaSnippet) -> Result<Ref, AnalysisError> {
        space.encode_stanza_match(&rule.config, rule.stanza()?)
    }
    fn splice(
        base: &Config,
        name: &str,
        rule: &StanzaSnippet,
        position: usize,
    ) -> Result<(Config, InsertReport), ConfigError> {
        insert_route_map_stanza(base, name, &rule.config, &rule.map, position)
    }
    fn first_diff(
        space: &mut RouteSpace,
        a: &Config,
        b: &Config,
        name: &str,
    ) -> Result<Option<RouteDiff>, AnalysisError> {
        Ok(compare_route_policies(space, a, name, b, name, 1)?
            .into_iter()
            .next())
    }
}

/// The ACL kind, over the [`PacketSpace`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Acls;

fn acl<'a>(cfg: &'a Config, name: &str) -> Result<&'a Acl, AnalysisError> {
    Ok(cfg.acl(name).ok_or_else(|| missing("access-list", name))?)
}

impl RuleList for Acls {
    type Space = PacketSpace;
    type List = Acl;
    type Rule = AclEntry;
    type Witness = Packet;
    type Diff = FilterDiff;
    type Report = ();

    const KIND: &'static str = "access-list";
    const RULE: &'static str = "entry";
    const INPUT: &'static str = "packet";
    const INPUTS: &'static str = "packets";
    const WHOLE: &'static str = "filter";
    const EMPTY_MATCH: &'static str = "match condition is unsatisfiable; the entry can never apply";

    fn lists(cfg: &Config) -> &BTreeMap<String, Acl> {
        &cfg.acls
    }
    fn ensure_list(cfg: &mut Config, name: &str) {
        if cfg.acl(name).is_none() {
            cfg.acls.insert(
                name.to_string(),
                Acl {
                    name: name.to_string(),
                    entries: Vec::new(),
                },
            );
        }
    }
    fn len(list: &Acl) -> usize {
        list.entries.len()
    }
    fn action(list: &Acl, i: usize) -> Action {
        list.entries[i].action
    }
    fn label(_list: &Acl, i: usize) -> String {
        format!("rule {i}")
    }
    fn rule_id(name: &str, _list: &Acl, i: usize) -> RuleId {
        RuleId::acl_entry(name, i)
    }

    fn new_space(_base: &Config, _rule: Option<&AclEntry>) -> Result<PacketSpace, AnalysisError> {
        Ok(PacketSpace::new())
    }
    fn manager(space: &mut PacketSpace) -> &mut Manager {
        space.manager()
    }
    fn valid(space: &PacketSpace) -> Ref {
        space.valid()
    }
    fn match_sets(
        space: &mut PacketSpace,
        _cfg: &Config,
        list: &Acl,
    ) -> Result<Vec<Ref>, AnalysisError> {
        Ok(space.match_sets(list))
    }
    fn fire_sets(
        space: &mut PacketSpace,
        _cfg: &Config,
        list: &Acl,
        cache: Option<(&mut FireSetCache, u64)>,
    ) -> Result<Vec<Ref>, AnalysisError> {
        Ok(match cache {
            Some((cache, hash)) => space.fire_sets_cached(cache, list, hash).fires,
            None => space.fire_sets(list).0,
        })
    }
    fn witness(space: &mut PacketSpace, region: Ref) -> Result<Option<Packet>, AnalysisError> {
        Ok(space.witness(region))
    }
    fn first_match(
        _cfg: &Config,
        _name: &str,
        list: &Acl,
        input: &Packet,
    ) -> Result<Option<usize>, AnalysisError> {
        Ok(list.entries.iter().position(|e| e.matches(input)))
    }
    fn conflicting_overlaps(
        _space: &mut PacketSpace,
        _cfg: &Config,
        list: &Acl,
        _match_sets: &[Ref],
    ) -> Result<Vec<(usize, usize)>, AnalysisError> {
        // The exact interval census decides ACL overlap.
        Ok(acl_overlaps(list)
            .pairs
            .iter()
            .filter(|p| p.conflicting && !p.subset)
            .map(|p| (p.i, p.j))
            .collect())
    }
    fn deletion_is_equivalent(
        space: &mut PacketSpace,
        _cfg: &Config,
        _name: &str,
        list: &Acl,
        i: usize,
    ) -> Result<bool, AnalysisError> {
        let mut modified = list.clone();
        modified.entries.remove(i);
        Ok(compare_filters(space, list, &modified, 1).is_empty())
    }

    fn encode_rule(space: &mut PacketSpace, rule: &AclEntry) -> Result<Ref, AnalysisError> {
        Ok(space.encode_entry(rule))
    }
    fn splice(
        base: &Config,
        name: &str,
        rule: &AclEntry,
        position: usize,
    ) -> Result<(Config, ()), ConfigError> {
        Ok((insert_acl_entry(base, name, rule.clone(), position)?, ()))
    }
    fn first_diff(
        space: &mut PacketSpace,
        a: &Config,
        b: &Config,
        name: &str,
    ) -> Result<Option<FilterDiff>, AnalysisError> {
        Ok(compare_filters(space, acl(a, name)?, acl(b, name)?, 1)
            .into_iter()
            .next())
    }
}

/// The prefix-list kind, over the [`PrefixSpace`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PrefixLists;

fn prefix_list<'a>(cfg: &'a Config, name: &str) -> Result<&'a PrefixList, AnalysisError> {
    Ok(cfg
        .prefix_lists
        .get(name)
        .ok_or_else(|| missing("prefix-list", name))?)
}

impl RuleList for PrefixLists {
    type Space = PrefixSpace;
    type List = PrefixList;
    type Rule = PrefixListEntry;
    type Witness = Prefix;
    type Diff = PrefixListDiff;
    type Report = ();

    const KIND: &'static str = "prefix-list";
    const RULE: &'static str = "entry";
    const INPUT: &'static str = "prefix";
    const INPUTS: &'static str = "prefixes";
    const WHOLE: &'static str = "list";
    const EMPTY_MATCH: &'static str = "matches no prefix; the entry can never apply";

    fn lists(cfg: &Config) -> &BTreeMap<String, PrefixList> {
        &cfg.prefix_lists
    }
    fn ensure_list(cfg: &mut Config, name: &str) {
        cfg.prefix_lists
            .entry(name.to_string())
            .or_insert_with(|| PrefixList {
                name: name.to_string(),
                entries: Vec::new(),
            });
    }
    fn len(list: &PrefixList) -> usize {
        list.entries.len()
    }
    fn action(list: &PrefixList, i: usize) -> Action {
        list.entries[i].action
    }
    fn label(list: &PrefixList, i: usize) -> String {
        format!("seq {}", list.entries[i].seq)
    }
    fn rule_id(name: &str, list: &PrefixList, i: usize) -> RuleId {
        RuleId::prefix_entry(name, list.entries[i].seq)
    }

    fn new_space(
        _base: &Config,
        _rule: Option<&PrefixListEntry>,
    ) -> Result<PrefixSpace, AnalysisError> {
        Ok(PrefixSpace::new())
    }
    fn manager(space: &mut PrefixSpace) -> &mut Manager {
        space.manager()
    }
    fn valid(space: &PrefixSpace) -> Ref {
        space.valid()
    }
    fn match_sets(
        space: &mut PrefixSpace,
        _cfg: &Config,
        list: &PrefixList,
    ) -> Result<Vec<Ref>, AnalysisError> {
        Ok(space.match_sets(list))
    }
    fn fire_sets(
        space: &mut PrefixSpace,
        _cfg: &Config,
        list: &PrefixList,
        cache: Option<(&mut FireSetCache, u64)>,
    ) -> Result<Vec<Ref>, AnalysisError> {
        Ok(match cache {
            Some((cache, hash)) => space.fire_sets_cached(cache, list, hash).fires,
            None => space.fire_sets(list).0,
        })
    }
    fn witness(space: &mut PrefixSpace, region: Ref) -> Result<Option<Prefix>, AnalysisError> {
        Ok(space.witness(region))
    }
    fn first_match(
        _cfg: &Config,
        _name: &str,
        list: &PrefixList,
        input: &Prefix,
    ) -> Result<Option<usize>, AnalysisError> {
        Ok(list.entries.iter().position(|e| e.range.matches(input)))
    }
    fn conflicting_overlaps(
        space: &mut PrefixSpace,
        _cfg: &Config,
        list: &PrefixList,
        match_sets: &[Ref],
    ) -> Result<Vec<(usize, usize)>, AnalysisError> {
        // Pairwise over the prefix space.
        let valid = space.valid();
        let mgr = space.manager();
        let mut pairs = Vec::new();
        for i in 0..list.entries.len() {
            for j in (i + 1)..list.entries.len() {
                if list.entries[i].action == list.entries[j].action {
                    continue;
                }
                let vi = mgr.and(match_sets[i], valid);
                let vj = mgr.and(match_sets[j], valid);
                if mgr.and(vi, vj) == Ref::FALSE {
                    continue;
                }
                if !(mgr.implies_true(vi, vj) || mgr.implies_true(vj, vi)) {
                    pairs.push((i, j));
                }
            }
        }
        Ok(pairs)
    }
    fn deletion_is_equivalent(
        space: &mut PrefixSpace,
        _cfg: &Config,
        _name: &str,
        list: &PrefixList,
        i: usize,
    ) -> Result<bool, AnalysisError> {
        let mut modified = list.clone();
        modified.entries.remove(i);
        Ok(compare_prefix_lists(space, list, &modified, 1)?.is_empty())
    }

    fn encode_rule(space: &mut PrefixSpace, rule: &PrefixListEntry) -> Result<Ref, AnalysisError> {
        Ok(space.encode_range(&rule.range))
    }
    fn splice(
        base: &Config,
        name: &str,
        rule: &PrefixListEntry,
        position: usize,
    ) -> Result<(Config, ()), ConfigError> {
        Ok((
            insert_prefix_list_entry(base, name, rule.clone(), position)?,
            (),
        ))
    }
    fn first_diff(
        space: &mut PrefixSpace,
        a: &Config,
        b: &Config,
        name: &str,
    ) -> Result<Option<PrefixListDiff>, AnalysisError> {
        Ok(
            compare_prefix_lists(space, prefix_list(a, name)?, prefix_list(b, name)?, 1)?
                .into_iter()
                .next(),
        )
    }
}

//! The lint passes: symbolic checks over route-maps, ACLs, and prefix
//! lists, plus a pure AST reference walk.

use std::collections::BTreeSet;

use clarify_analysis::{Acls, AnalysisError, PrefixLists, RouteMaps, RuleList};
use clarify_bdd::Ref;
use clarify_netconfig::{Action, Config, ObjectKind, RuleId, SourceMap};

use crate::cache::LintCache;
use crate::diagnostic::{Diagnostic, LintCode, LintReport};
use crate::incremental::{dirty_sets, DirtySets, IncrStats};

/// `permit`/`deny` as a present-tense verb for diagnostic messages.
fn verb(a: Action) -> &'static str {
    match a {
        Action::Permit => "permits",
        Action::Deny => "denies",
    }
}

/// Runs every lint pass over one configuration.
///
/// Pass the [`SourceMap`] from [`Config::parse_with_spans`] to get source
/// lines on the diagnostics; `None` works too (identities alone still
/// pinpoint every rule).
///
/// Route-maps whose stanzas carry dangling list references get the
/// [`LintCode::DanglingReference`] error and are skipped by the symbolic
/// passes (their match conditions cannot be encoded).
pub fn lint_config(cfg: &Config, spans: Option<&SourceMap>) -> Result<LintReport, AnalysisError> {
    let _span = clarify_obs::span!("lint_config");
    Ok(lint_run(cfg, spans, None)?.0)
}

/// The one lint driver behind [`lint_config`],
/// [`lint_config_incremental`](crate::lint_config_incremental) and
/// [`IncrementalLinter`](crate::IncrementalLinter).
///
/// With `prev = None` every object is dirty (a full lint); otherwise the
/// dirty sets of the edit against `prev` are recomputed and every clean
/// object splices its cached diagnostics. Either way: the reference pass,
/// the symbolic pass per kind (fanned out by [`lint_lists`]), the splice
/// in canonical order, source lines re-applied from `spans`, the sort,
/// and the counters — `incr.*` only on incremental runs.
pub(crate) fn lint_run(
    cfg: &Config,
    spans: Option<&SourceMap>,
    prev: Option<&LintCache>,
) -> Result<(LintReport, IncrStats), AnalysisError> {
    let dirty = match prev {
        Some(prev) => dirty_sets(cfg, prev),
        None => DirtySets::all(cfg),
    };
    let mut report = LintReport::default();
    let broken_maps = {
        let _pass = clarify_obs::span!("lint_references");
        lint_references(cfg, &mut report.diagnostics)
    };
    let fresh_maps = {
        let _pass = clarify_obs::span!("lint_route_maps");
        lint_lists::<RouteMaps>(cfg, &broken_maps, &dirty.route_maps)?
    };
    let fresh_acls = {
        let _pass = clarify_obs::span!("lint_acls");
        lint_lists::<Acls>(cfg, &BTreeSet::new(), &dirty.acls)?
    };
    let fresh_lists = {
        let _pass = clarify_obs::span!("lint_prefix_lists");
        lint_lists::<PrefixLists>(cfg, &BTreeSet::new(), &dirty.prefix_lists)?
    };
    let out = &mut report.diagnostics;
    splice(
        cfg.route_maps.keys(),
        ObjectKind::RouteMap,
        &dirty.route_maps,
        fresh_maps,
        prev,
        out,
    );
    splice(
        cfg.acls.keys(),
        ObjectKind::Acl,
        &dirty.acls,
        fresh_acls,
        prev,
        out,
    );
    splice(
        cfg.prefix_lists.keys(),
        ObjectKind::PrefixList,
        &dirty.prefix_lists,
        fresh_lists,
        prev,
        out,
    );

    if let Some(spans) = spans {
        for d in &mut report.diagnostics {
            d.line = spans.line(&d.rule);
        }
    }
    let report = report.finish();

    let total = cfg.route_maps.len() + cfg.acls.len() + cfg.prefix_lists.len();
    let dirty_count = dirty.route_maps.len() + dirty.acls.len() + dirty.prefix_lists.len();
    let stats = IncrStats {
        total_objects: total,
        dirty_objects: dirty_count,
        reused_objects: total - dirty_count,
    };
    let obs = clarify_obs::global();
    obs.counter("lint.configs_linted").incr();
    for d in &report.diagnostics {
        obs.counter(&format!("lint.findings.{}", d.code.code()))
            .incr();
    }
    if prev.is_some() {
        obs.counter("incr.objects_dirty")
            .add(stats.dirty_objects as u64);
        obs.counter("incr.objects_reused")
            .add(stats.reused_objects as u64);
    }
    Ok((report, stats))
}

/// Splices one kind's diagnostics: fresh blocks for dirty objects, cached
/// blocks (from `prev`) for clean ones, in the kind's canonical (name)
/// order — the same insertion order a full lint produces, which
/// [`LintReport`]'s stable sort relies on to break ties.
fn splice<'a>(
    names: impl Iterator<Item = &'a String>,
    kind: ObjectKind,
    dirty: &BTreeSet<String>,
    fresh: Vec<(String, Vec<Diagnostic>)>,
    prev: Option<&LintCache>,
    out: &mut Vec<Diagnostic>,
) {
    let mut fresh = fresh.into_iter().peekable();
    for name in names {
        if dirty.contains(name) {
            // Broken (dangling-reference) maps are dirty but skipped by
            // the symbolic pass, so they may have no fresh block.
            if fresh.peek().is_some_and(|(n, _)| n == name) {
                out.extend(fresh.next().expect("peeked").1);
            }
        } else if let Some(obj) = prev.and_then(|prev| prev.object(kind, name)) {
            out.extend(obj.diagnostics.iter().cloned());
        }
    }
}

/// The AST walk: dangling references (error) and unused lists (note).
/// Returns the names of route-maps that cannot be analysed symbolically.
pub(crate) fn lint_references(cfg: &Config, out: &mut Vec<Diagnostic>) -> BTreeSet<String> {
    let mut broken = BTreeSet::new();
    let mut used_prefix: BTreeSet<&str> = BTreeSet::new();
    let mut used_as_path: BTreeSet<&str> = BTreeSet::new();
    let mut used_community: BTreeSet<&str> = BTreeSet::new();
    for (map_name, map) in &cfg.route_maps {
        for stanza in &map.stanzas {
            let refs = stanza.referenced_lists();
            let rule = RuleId::route_map_stanza(map_name, stanza.seq);
            let mut dangling: Vec<(&'static str, &str)> = Vec::new();
            for n in &refs.prefix {
                used_prefix.insert(n);
                if !cfg.prefix_lists.contains_key(*n) {
                    dangling.push(("prefix-list", n));
                }
            }
            for n in &refs.as_path {
                used_as_path.insert(n);
                if !cfg.as_path_lists.contains_key(*n) {
                    dangling.push(("as-path access-list", n));
                }
            }
            for n in &refs.community {
                used_community.insert(n);
                if !cfg.community_lists.contains_key(*n) {
                    dangling.push(("community-list", n));
                }
            }
            for (kind, name) in dangling {
                broken.insert(map_name.clone());
                out.push(
                    Diagnostic::new(
                        LintCode::DanglingReference,
                        rule.clone(),
                        format!("references undefined {kind} '{name}'"),
                    )
                    .with_fix(format!(
                        "define {kind} {name} or drop the match clause naming it"
                    )),
                );
            }
        }
    }
    let unused = |kind: ObjectKind, name: &str| {
        Diagnostic::new(
            LintCode::UnusedList,
            RuleId::object(kind, name),
            "defined but never referenced by a route-map".to_string(),
        )
        .with_fix(format!(
            "delete {} {name} if it is no longer needed",
            kind.keyword()
        ))
    };
    for name in cfg.prefix_lists.keys() {
        if !used_prefix.contains(name.as_str()) {
            out.push(unused(ObjectKind::PrefixList, name));
        }
    }
    for name in cfg.as_path_lists.keys() {
        if !used_as_path.contains(name.as_str()) {
            out.push(unused(ObjectKind::AsPathList, name));
        }
    }
    for name in cfg.community_lists.keys() {
        if !used_community.contains(name.as_str()) {
            out.push(unused(ObjectKind::CommunityList, name));
        }
    }
    broken
}

/// The symbolic L001–L004 checks over every list of kind `K` in `cfg`.
///
/// Each list's checks are independent, so the lists fan out over
/// `clarify-par` with one worker-local space per worker. Diagnostics come
/// back in list iteration order (the `BTreeMap`'s sorted order), exactly
/// as a serial loop would emit them, and canonicity makes the
/// worker-local spaces answer identically to one shared space.
///
/// Only the lists named in `dirty` are linted, less those in `skip`
/// (route-maps with dangling references cannot be encoded). Returns one
/// `(name, diagnostics)` block per linted list, in iteration order.
fn lint_lists<K: RuleList>(
    cfg: &Config,
    skip: &BTreeSet<String>,
    dirty: &BTreeSet<String>,
) -> Result<Vec<(String, Vec<Diagnostic>)>, AnalysisError> {
    let lists: Vec<(&String, &K::List)> = K::lists(cfg)
        .iter()
        .filter(|(name, _)| dirty.contains(*name) && !skip.contains(*name))
        .collect();
    if lists.is_empty() {
        return Ok(Vec::new());
    }
    let per_list = clarify_par::par_map_init(
        &lists,
        || None::<K::Space>,
        |worker_space, _, &(name, list)| -> Result<Vec<Diagnostic>, AnalysisError> {
            let space = match worker_space {
                Some(s) => s,
                None => worker_space.insert(K::new_space(cfg, None)?),
            };
            let mut diags = Vec::new();
            lint_list::<K>(space, cfg, name, list, &mut diags)?;
            // Bound cache growth across a long object list: the memo
            // entries for this list's queries are dead weight for the next.
            K::manager(space).clear_op_caches();
            Ok(diags)
        },
    );
    lists
        .iter()
        .zip(per_list)
        .map(|(&(name, _), diags)| Ok((name.clone(), diags?)))
        .collect()
}

/// The per-object body of [`lint_lists`]: empty (L004), shadowed (L001),
/// redundant (L002) and conflicting-overlap (L003) checks for one list.
pub(crate) fn lint_list<K: RuleList>(
    space: &mut K::Space,
    cfg: &Config,
    name: &str,
    list: &K::List,
    out: &mut Vec<Diagnostic>,
) -> Result<(), AnalysisError> {
    let valid = K::valid(space);
    let match_sets = K::match_sets(space, cfg, list)?;
    let fires = K::fire_sets(space, cfg, list)?;
    // Empty and shadowed rules. A rule with an empty match also has an
    // empty firing region; report it once, as empty.
    let mut dead: BTreeSet<usize> = BTreeSet::new();
    for i in 0..K::len(list) {
        let rule = K::rule_id(name, list, i);
        let label = K::label(list, i);
        let vm = K::manager(space).and(match_sets[i], valid);
        if vm == Ref::FALSE {
            dead.insert(i);
            out.push(
                Diagnostic::new(LintCode::EmptyMatch, rule, K::EMPTY_MATCH)
                    .with_fix(format!("delete {label}")),
            );
            continue;
        }
        if fires[i] == Ref::FALSE {
            dead.insert(i);
            // Some input matches the rule; find who steals it.
            let mut d = Diagnostic::new(
                LintCode::ShadowedRule,
                rule,
                format!(
                    "every {} it matches is decided by an earlier {}; it can never fire",
                    K::INPUT,
                    K::RULE
                ),
            );
            if let Some(input) = K::witness(space, vm)? {
                if let Some(k) = K::first_match(cfg, name, list, &input)? {
                    d = d.with_related(K::rule_id(name, list, k)).with_fix(format!(
                        "delete {label} or move it above {}",
                        K::label(list, k)
                    ));
                }
                d = d.with_witness(input.to_string());
            }
            out.push(d);
        }
    }
    // Redundant rules: fire on some inputs, but deleting them changes
    // nothing observable (e.g. a deny falling through to the implicit
    // deny). Dead rules are trivially redundant — skip them.
    for i in 0..K::len(list) {
        if dead.contains(&i) {
            continue;
        }
        if K::deletion_is_equivalent(space, cfg, name, list, i)? {
            out.push(
                Diagnostic::new(
                    LintCode::RedundantRule,
                    K::rule_id(name, list, i),
                    format!(
                        "deleting it leaves the {} behaviourally equivalent",
                        K::WHOLE
                    ),
                )
                .with_fix(format!("delete {}", K::label(list, i))),
            );
        }
    }
    // Conflicting overlaps (§3.2 non-trivial measure): differing actions,
    // neither match set contains the other.
    for (i, j) in K::conflicting_overlaps(space, cfg, list, &match_sets)? {
        let joint = K::manager(space).and(match_sets[i], match_sets[j]);
        let mut d = Diagnostic::new(
            LintCode::ConflictingOverlap,
            K::rule_id(name, list, j),
            format!(
                "{} {} that {} ({}) also matches",
                verb(K::action(list, j)),
                K::INPUTS,
                K::label(list, i),
                verb(K::action(list, i))
            ),
        )
        .with_related(K::rule_id(name, list, i));
        if let Some(input) = K::witness(space, joint)? {
            d = d.with_witness(input.to_string());
        }
        out.push(d);
    }
    Ok(())
}

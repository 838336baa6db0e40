//! Diff-driven incremental re-lint.
//!
//! The correctness oracle is byte-identity: the incremental report must
//! render byte-for-byte equal to a cold [`lint_config`] of the same
//! configuration. That is achievable because every symbolic check is
//! *per-object* — a route-map's diagnostics depend only on its own
//! stanzas, the lists those stanzas reference, and the atom environment
//! (the config-wide regex pattern set that fixes atom witnesses and the
//! route space's variable layout); ACLs and prefix lists depend only on
//! themselves — and because ROBDD canonicity makes every recomputation,
//! on any space with the same atom environment, decode the same
//! witnesses.
//!
//! The dirty set of an edit is therefore: objects whose content hash
//! changed or appeared, route-maps any of whose referenced lists' hashes
//! changed, and — if the atom environment itself changed — every
//! route-map. Everything else splices its cached diagnostics verbatim,
//! with source lines re-applied from the new [`SourceMap`] (an edit
//! shifts every line below it, so cached lines would be wrong even for
//! untouched objects). The reference pass (L005/L006) is a cheap AST
//! walk re-run in full every time.

use std::collections::BTreeSet;

use clarify_analysis::{
    atom_env_hash, Acls, AnalysisError, FireSetCache, PacketSpace, PrefixLists, PrefixSpace,
    RouteMaps, RouteSpace, RuleList,
};
use clarify_netconfig::{fnv1a64_combine, Config, ObjectHashes, ObjectKind, RouteMap, SourceMap};

use crate::cache::LintCache;
use crate::diagnostic::{Diagnostic, LintReport};
use crate::linter::{lint_list, lint_lists, lint_references};

/// What an incremental run did, for `--stats` and the O(edit) assertions
/// of the differential suite.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IncrStats {
    /// Objects the symbolic passes cover (route-maps + ACLs + prefix
    /// lists).
    pub total_objects: usize,
    /// Objects recomputed this run.
    pub dirty_objects: usize,
    /// Objects whose cached diagnostics were spliced.
    pub reused_objects: usize,
}

/// The per-kind dirty sets of one edit.
#[derive(Clone, Debug, Default)]
struct DirtySets {
    route_maps: BTreeSet<String>,
    acls: BTreeSet<String>,
    prefix_lists: BTreeSet<String>,
}

/// Computes which objects of `cfg` need symbolic recomputation relative
/// to `prev`. `atom_env` is the new configuration's atom-environment
/// hash.
fn dirty_sets(cfg: &Config, prev: &LintCache, atom_env: u64) -> DirtySets {
    let hashes = cfg.object_hashes();
    let atoms_changed = atom_env != prev.atom_env;
    let changed = |kind: ObjectKind, name: &str| -> bool {
        prev.object(kind, name).map(|o| o.hash) != hashes.get(kind, name)
    };
    let mut dirty = DirtySets::default();
    for (name, map) in &cfg.route_maps {
        let mut is_dirty = atoms_changed || changed(ObjectKind::RouteMap, name);
        if !is_dirty {
            // A referenced list that changed, appeared, or vanished
            // changes this map's behaviour without touching its text.
            // (A *dangling* reference hashes to None on both sides and
            // stays clean — the map is skipped by the symbolic pass
            // either way.)
            'stanzas: for stanza in &map.stanzas {
                let refs = stanza.referenced_lists();
                for n in refs.prefix {
                    if changed(ObjectKind::PrefixList, n) {
                        is_dirty = true;
                        break 'stanzas;
                    }
                }
                for n in refs.as_path {
                    if changed(ObjectKind::AsPathList, n) {
                        is_dirty = true;
                        break 'stanzas;
                    }
                }
                for n in refs.community {
                    if changed(ObjectKind::CommunityList, n) {
                        is_dirty = true;
                        break 'stanzas;
                    }
                }
            }
        }
        if is_dirty {
            dirty.route_maps.insert(name.clone());
        }
    }
    for name in cfg.acls.keys() {
        if changed(ObjectKind::Acl, name) {
            dirty.acls.insert(name.clone());
        }
    }
    for name in cfg.prefix_lists.keys() {
        if changed(ObjectKind::PrefixList, name) {
            dirty.prefix_lists.insert(name.clone());
        }
    }
    dirty
}

/// Fire-set cache key for a route-map: its own content hash folded with
/// the hash of every list its stanzas reference, in stanza order (a
/// dangling reference folds a fixed sentinel). A map dirtied by an edit
/// to a referenced list keeps its own content hash, so keying the
/// [`FireSetCache`] by that alone would hit the stale fire-sets built
/// against the old list.
fn route_map_fire_key(map: &RouteMap, hashes: &ObjectHashes, own: u64) -> u64 {
    const DANGLING: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h = own;
    for stanza in &map.stanzas {
        let refs = stanza.referenced_lists();
        for n in refs.prefix {
            h = fnv1a64_combine(h, hashes.get(ObjectKind::PrefixList, n).unwrap_or(DANGLING));
        }
        for n in refs.as_path {
            h = fnv1a64_combine(h, hashes.get(ObjectKind::AsPathList, n).unwrap_or(DANGLING));
        }
        for n in refs.community {
            h = fnv1a64_combine(
                h,
                hashes.get(ObjectKind::CommunityList, n).unwrap_or(DANGLING),
            );
        }
    }
    h
}

/// Splices one kind's diagnostics: fresh blocks for dirty objects, cached
/// blocks for clean ones, in the kind's canonical (name) order — the same
/// insertion order the full lint produces, which [`LintReport`]'s stable
/// sort relies on to break ties.
fn splice<'a>(
    names: impl Iterator<Item = &'a String>,
    kind: ObjectKind,
    dirty: &BTreeSet<String>,
    fresh: Vec<(String, Vec<Diagnostic>)>,
    prev: &LintCache,
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
        } else if let Some(obj) = prev.object(kind, name) {
            out.extend(obj.diagnostics.iter().cloned());
        }
    }
}

/// Lints `cfg` incrementally against the previous run `prev`: recomputes
/// only dirty objects (in parallel, exactly as [`lint_config`] fans out)
/// and splices cached diagnostics for clean ones. The returned report is
/// byte-identical to `lint_config(cfg, spans)`.
///
/// [`lint_config`]: crate::lint_config
pub fn lint_config_incremental(
    cfg: &Config,
    spans: Option<&SourceMap>,
    prev: &LintCache,
) -> Result<(LintReport, IncrStats), AnalysisError> {
    let _span = clarify_obs::span!("lint_incremental");
    let atom_env = atom_env_hash(&[cfg]);
    let dirty = dirty_sets(cfg, prev, atom_env);

    let mut report = LintReport::default();
    let broken_maps = {
        let _pass = clarify_obs::span!("lint_references");
        lint_references(cfg, &mut report.diagnostics)
    };
    // Recompute the dirty subset with the same parallel fan-out as the
    // full pass (broken maps drop out inside, exactly as they do there).
    let fresh_maps = {
        let _pass = clarify_obs::span!("lint_route_maps");
        lint_lists::<RouteMaps>(cfg, &broken_maps, Some(&dirty.route_maps))?
    };
    let fresh_acls = {
        let _pass = clarify_obs::span!("lint_acls");
        lint_lists::<Acls>(cfg, &BTreeSet::new(), Some(&dirty.acls))?
    };
    let fresh_lists = {
        let _pass = clarify_obs::span!("lint_prefix_lists");
        lint_lists::<PrefixLists>(cfg, &BTreeSet::new(), Some(&dirty.prefix_lists))?
    };

    splice(
        cfg.route_maps.keys(),
        ObjectKind::RouteMap,
        &dirty.route_maps,
        fresh_maps,
        prev,
        &mut report.diagnostics,
    );
    splice(
        cfg.acls.keys(),
        ObjectKind::Acl,
        &dirty.acls,
        fresh_acls,
        prev,
        &mut report.diagnostics,
    );
    splice(
        cfg.prefix_lists.keys(),
        ObjectKind::PrefixList,
        &dirty.prefix_lists,
        fresh_lists,
        prev,
        &mut report.diagnostics,
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
    obs.counter("incr.objects_dirty")
        .add(stats.dirty_objects as u64);
    obs.counter("incr.objects_reused")
        .add(stats.reused_objects as u64);
    Ok((report, stats))
}

/// A stateful re-lint session: retains the BDD spaces and keyed fire-set
/// caches across edits, so interactive loops pay neither the space
/// rebuild nor (on reverted edits) the fire-set build.
///
/// The [`RouteSpace`] survives as long as the atom environment does —
/// its variable layout is a function of the config's regex pattern set —
/// and the packet/prefix spaces are config-independent and survive
/// forever. Cached fire-set `Ref`s stay valid because the managers never
/// free nodes; between re-lints only the *operation* caches are dropped
/// (the [`clear_op_caches`](clarify_bdd::Manager::clear_op_caches) seam),
/// bounding memo growth without invalidating anything keyed here.
pub struct IncrementalLinter {
    cfg: Config,
    cache: LintCache,
    route_space: Option<RouteSpace>,
    packet_space: Option<PacketSpace>,
    prefix_space: Option<PrefixSpace>,
    route_fires: FireSetCache,
    packet_fires: FireSetCache,
    prefix_fires: FireSetCache,
}

impl IncrementalLinter {
    /// Lints `cfg` in full and opens the session.
    pub fn new(
        cfg: Config,
        spans: Option<&SourceMap>,
    ) -> Result<(IncrementalLinter, LintReport), AnalysisError> {
        let report = crate::linter::lint_config(&cfg, spans)?;
        let cache = LintCache::from_report(&cfg, &report);
        Ok((
            IncrementalLinter {
                cfg,
                cache,
                route_space: None,
                packet_space: None,
                prefix_space: None,
                route_fires: FireSetCache::new(),
                packet_fires: FireSetCache::new(),
                prefix_fires: FireSetCache::new(),
            },
            report,
        ))
    }

    /// The cache describing the session's current configuration (what
    /// `--save-cache` writes).
    pub fn cache(&self) -> &LintCache {
        &self.cache
    }

    /// The session's current configuration.
    pub fn config(&self) -> &Config {
        &self.cfg
    }

    /// Re-lints after an edit: `cfg` replaces the session configuration,
    /// dirty objects are recomputed serially on the retained spaces
    /// (through the keyed fire-set caches), and clean objects splice
    /// their cached diagnostics. Byte-identical to a cold full lint.
    pub fn relint(
        &mut self,
        cfg: Config,
        spans: Option<&SourceMap>,
    ) -> Result<(LintReport, IncrStats), AnalysisError> {
        let _span = clarify_obs::span!("lint_incremental");
        let atom_env = atom_env_hash(&[&cfg]);
        if atom_env != self.cache.atom_env {
            // New pattern set → new variable layout: cached route Refs
            // would point into the wrong manager.
            self.route_space = None;
            self.route_fires.clear();
        }
        let dirty = dirty_sets(&cfg, &self.cache, atom_env);
        let hashes = cfg.object_hashes();

        let mut report = LintReport::default();
        let broken_maps = {
            let _pass = clarify_obs::span!("lint_references");
            lint_references(&cfg, &mut report.diagnostics)
        };

        let fresh_maps = relint_lists::<RouteMaps>(
            &mut self.route_space,
            &mut self.route_fires,
            &cfg,
            &dirty.route_maps,
            &broken_maps,
            |name, map| {
                let own = hashes
                    .get(ObjectKind::RouteMap, name)
                    .expect("map is in cfg");
                route_map_fire_key(map, &hashes, own)
            },
        )?;
        let fresh_acls = relint_lists::<Acls>(
            &mut self.packet_space,
            &mut self.packet_fires,
            &cfg,
            &dirty.acls,
            &BTreeSet::new(),
            |name, _| hashes.get(ObjectKind::Acl, name).expect("acl is in cfg"),
        )?;
        let fresh_lists = relint_lists::<PrefixLists>(
            &mut self.prefix_space,
            &mut self.prefix_fires,
            &cfg,
            &dirty.prefix_lists,
            &BTreeSet::new(),
            |name, _| {
                hashes
                    .get(ObjectKind::PrefixList, name)
                    .expect("list is in cfg")
            },
        )?;

        splice(
            cfg.route_maps.keys(),
            ObjectKind::RouteMap,
            &dirty.route_maps,
            fresh_maps,
            &self.cache,
            &mut report.diagnostics,
        );
        splice(
            cfg.acls.keys(),
            ObjectKind::Acl,
            &dirty.acls,
            fresh_acls,
            &self.cache,
            &mut report.diagnostics,
        );
        splice(
            cfg.prefix_lists.keys(),
            ObjectKind::PrefixList,
            &dirty.prefix_lists,
            fresh_lists,
            &self.cache,
            &mut report.diagnostics,
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
        obs.counter("incr.objects_dirty")
            .add(stats.dirty_objects as u64);
        obs.counter("incr.objects_reused")
            .add(stats.reused_objects as u64);

        self.cache = LintCache::from_report(&cfg, &report);
        self.cfg = cfg;
        Ok((report, stats))
    }
}

/// Re-lints the `dirty` lists of kind `K` (less those in `skip`) serially
/// on the session's retained space, through the kind's keyed fire-set
/// cache; `fire_key` gives each list's cache key.
fn relint_lists<K: RuleList>(
    space: &mut Option<K::Space>,
    fires: &mut FireSetCache,
    cfg: &Config,
    dirty: &BTreeSet<String>,
    skip: &BTreeSet<String>,
    fire_key: impl Fn(&str, &K::List) -> u64,
) -> Result<Vec<(String, Vec<Diagnostic>)>, AnalysisError> {
    let mut fresh = Vec::new();
    for name in dirty.iter().filter(|name| !skip.contains(*name)) {
        let space = match space {
            Some(s) => s,
            None => space.insert(K::new_space(cfg, None)?),
        };
        let list = &K::lists(cfg)[name];
        let mut diags = Vec::new();
        lint_list::<K>(
            space,
            cfg,
            name,
            list,
            Some((&mut *fires, fire_key(name, list))),
            &mut diags,
        )?;
        K::manager(space).clear_op_caches();
        fresh.push((name.clone(), diags));
    }
    Ok(fresh)
}

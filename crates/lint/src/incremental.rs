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
//!
//! The run itself is [`lint_config`]'s driver; this module supplies only
//! the dirty sets and the entry points that carry a previous run.
//!
//! [`lint_config`]: crate::lint_config

use std::collections::BTreeSet;

use clarify_analysis::{atom_env_hash, AnalysisError};
use clarify_netconfig::{Config, ObjectKind, SourceMap};

use crate::cache::LintCache;
use crate::diagnostic::LintReport;
use crate::linter::lint_run;

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

/// The per-kind sets of objects a lint run recomputes.
#[derive(Clone, Debug, Default)]
pub(crate) struct DirtySets {
    pub(crate) route_maps: BTreeSet<String>,
    pub(crate) acls: BTreeSet<String>,
    pub(crate) prefix_lists: BTreeSet<String>,
}

impl DirtySets {
    /// Every object of `cfg`: a full lint.
    pub(crate) fn all(cfg: &Config) -> DirtySets {
        DirtySets {
            route_maps: cfg.route_maps.keys().cloned().collect(),
            acls: cfg.acls.keys().cloned().collect(),
            prefix_lists: cfg.prefix_lists.keys().cloned().collect(),
        }
    }
}

/// Computes which objects of `cfg` need symbolic recomputation relative
/// to `prev`.
pub(crate) fn dirty_sets(cfg: &Config, prev: &LintCache) -> DirtySets {
    let hashes = cfg.object_hashes();
    let atoms_changed = atom_env_hash(&[cfg]) != prev.atom_env;
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
    lint_run(cfg, spans, Some(prev))
}

/// A re-lint session over a sequence of edits. It holds only the previous
/// run's [`LintCache`]: each [`relint`](IncrementalLinter::relint) is
/// [`lint_config_incremental`] against it, and its report becomes the
/// next run's cache.
///
/// No BDD space or fire-set outlives a run: on measured edit traffic
/// (grow-only edits, no reverts) a retained fire-set is never hit again,
/// because every edit changes the content hash it would be keyed by, so
/// warm symbolic state would only pin memory.
pub struct IncrementalLinter {
    cache: LintCache,
}

impl IncrementalLinter {
    /// Lints `cfg` in full and opens the session.
    pub fn new(
        cfg: Config,
        spans: Option<&SourceMap>,
    ) -> Result<(IncrementalLinter, LintReport), AnalysisError> {
        let report = crate::linter::lint_config(&cfg, spans)?;
        let cache = LintCache::from_report(&cfg, &report);
        Ok((IncrementalLinter { cache }, report))
    }

    /// Re-lints after an edit: `cfg` is the edited configuration, dirty
    /// objects are recomputed and clean objects splice their cached
    /// diagnostics. Byte-identical to a cold full lint.
    pub fn relint(
        &mut self,
        cfg: Config,
        spans: Option<&SourceMap>,
    ) -> Result<(LintReport, IncrStats), AnalysisError> {
        let (report, stats) = lint_config_incremental(&cfg, spans, &self.cache)?;
        self.cache = LintCache::from_report(&cfg, &report);
        Ok((report, stats))
    }
}

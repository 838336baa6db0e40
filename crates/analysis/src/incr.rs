//! Keys for incremental re-analysis, and the fire-set memo.
//!
//! The interactive loop of the paper (edit intent → re-verify → re-ask)
//! re-runs the symbolic analyses after every small edit. Incremental
//! re-lint decides what to recompute from per-object content hashes plus
//! [`atom_env_hash`], the one config-wide input a route-map's findings
//! depend on; no symbolic state outlives a lint run.
//!
//! [`FireSetCache`] memoises fire-sets within one
//! [`NetworkSpace`](crate::NetworkSpace). Refs stored there point into
//! that space's BDD manager, which garbage-collects unrooted nodes at the
//! [`Manager::clear_op_caches`](clarify_bdd::Manager::clear_op_caches)
//! seam — so every cached entry pins its refs with [`clarify_bdd::Root`]
//! handles at insertion time, and they survive collection and reordering
//! alike.

use std::collections::HashMap;

use clarify_bdd::{Manager, Ref, Root};
use clarify_netconfig::{fnv1a64_combine, Config, ObjectKind, RouteMap, RuleId};

use crate::error::AnalysisError;
use crate::route_space::RouteSpace;

/// Hash of the **atom environment** a [`RouteSpace`] would build for the
/// given configurations: the deduplicated community and AS-path regex
/// pattern lists, in the exact first-seen order [`RouteSpace::new`]
/// collects them. Two configurations with equal atom-env hashes produce
/// route spaces with identical variable layouts and atom witnesses, so
/// route-map findings (including decoded witnesses) carry over verbatim;
/// when the hash changes, every route-map analysis is dirty, because atom
/// witnesses — and with them, rendered diagnostics — may shift even for
/// untouched maps.
pub fn atom_env_hash(configs: &[&Config]) -> u64 {
    let mut comm_seen: HashMap<&str, ()> = HashMap::new();
    let mut path_seen: HashMap<&str, ()> = HashMap::new();
    let mut h = clarify_netconfig::fnv1a64(b"atom-env/v1");
    for cfg in configs {
        for cl in cfg.community_lists.values() {
            for e in &cl.entries {
                let pat = e.regex.pattern();
                if let std::collections::hash_map::Entry::Vacant(v) = comm_seen.entry(pat) {
                    v.insert(());
                    h = fnv1a64_combine(h, clarify_netconfig::fnv1a64(pat.as_bytes()));
                }
            }
        }
    }
    h = fnv1a64_combine(h, 0xa5a5_a5a5_a5a5_a5a5); // comm/path separator
    for cfg in configs {
        for al in cfg.as_path_lists.values() {
            for e in &al.entries {
                let pat = e.regex.pattern();
                if let std::collections::hash_map::Entry::Vacant(v) = path_seen.entry(pat) {
                    v.insert(());
                    h = fnv1a64_combine(h, clarify_netconfig::fnv1a64(pat.as_bytes()));
                }
            }
        }
    }
    h
}

/// First-match firing regions of one object: one set per rule, plus the
/// fall-through remainder (the implicit trailing deny).
#[derive(Clone, Debug)]
pub struct FireSets {
    /// Firing region per stanza/entry, in order.
    pub fires: Vec<Ref>,
    /// Assignments reaching the end without matching.
    pub remainder: Ref,
}

/// One cached generation: the fire-sets plus the [`Root`] handles pinning
/// every ref in them against garbage collection.
#[derive(Debug)]
struct CachedSets {
    sets: FireSets,
    roots: Vec<Root>,
}

/// A fire-set cache keyed by `(object identity, hash)`: the per-run memo
/// of a [`NetworkSpace`](crate::NetworkSpace), which asks for the same
/// map's fire-sets once per topology edge it crosses.
///
/// Entries are never evicted; each roots its refs in the owning space's
/// manager, so the cache lives and dies with that space.
#[derive(Debug, Default)]
pub(crate) struct FireSetCache {
    entries: HashMap<(RuleId, u64), CachedSets>,
}

impl FireSetCache {
    /// An empty cache.
    pub(crate) fn new() -> FireSetCache {
        FireSetCache::default()
    }

    /// Looks up the fire-sets of `id` at `hash`, recording
    /// `incr.cache_hits` / `incr.cache_misses`.
    fn get(&self, id: &RuleId, hash: u64) -> Option<&FireSets> {
        let hit = self.entries.get(&(id.clone(), hash));
        if hit.is_some() {
            clarify_obs::global().counter("incr.cache_hits").incr();
        } else {
            clarify_obs::global().counter("incr.cache_misses").incr();
        }
        hit.map(|c| &c.sets)
    }

    /// Stores the fire-sets of `id` at `hash`, protecting every ref in
    /// `mgr` — which must be the manager of the space that built `sets` —
    /// so the entry survives collection and reordering.
    fn insert(&mut self, mgr: &mut Manager, id: RuleId, hash: u64, sets: FireSets) {
        let roots = sets
            .fires
            .iter()
            .chain(std::iter::once(&sets.remainder))
            .map(|&r| mgr.protect(r))
            .collect();
        if let Some(old) = self.entries.insert((id, hash), CachedSets { sets, roots }) {
            for root in old.roots {
                mgr.unprotect(root);
            }
        }
    }
}

impl RouteSpace {
    /// [`RouteSpace::fire_sets`] through a [`FireSetCache`], keyed by the
    /// map's object identity and the caller's `hash`.
    pub(crate) fn fire_sets_cached(
        &mut self,
        cache: &mut FireSetCache,
        cfg: &Config,
        map: &RouteMap,
        hash: u64,
    ) -> Result<FireSets, AnalysisError> {
        let id = RuleId::object(ObjectKind::RouteMap, &map.name);
        if let Some(sets) = cache.get(&id, hash) {
            return Ok(sets.clone());
        }
        let (fires, remainder) = self.fire_sets(cfg, map)?;
        let sets = FireSets { fires, remainder };
        cache.insert(self.manager(), id, hash, sets.clone());
        Ok(sets)
    }
}

//! Lint-based pruning of insertion candidates for the disambiguator.
//!
//! The §4 disambiguator enumerates every existing rule whose match set
//! intersects the new rule's (`s*`) as a candidate pivot, then decides for
//! each whether inserting above vs below it changes behaviour — an
//! expensive full policy comparison per candidate. This module supplies a
//! cheap sound pre-filter built on the same firing-region analysis the
//! shadowed-rule lint uses:
//!
//! Inserting the new rule immediately above rule *i* differs from
//! inserting it immediately below only on inputs that both reach rule *i*
//! (are unmatched by rules before it) and match both rule *i* and the new
//! rule. That region is exactly `s* ∧ fire_i`, where `fire_i` is rule
//! *i*'s first-match firing region. When it is ⊥ the two placements are
//! provably equivalent — the new rule would be shadowed at that boundary —
//! so the pivot can never be decisive and is pruned without running the
//! comparison. Pruning therefore cannot change which configuration the
//! disambiguator produces; it only removes provably-redundant work.

use clarify_analysis::{AnalysisError, RuleList};
use clarify_bdd::Ref;
use clarify_netconfig::Config;

/// Which candidates survived the prune.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PruneOutcome {
    /// Candidates that may still be decisive, in input order.
    pub kept: Vec<usize>,
    /// Candidates proven non-decisive (the new rule is shadowed there).
    pub pruned: Vec<usize>,
}

/// Prunes insertion candidates (rule indices into `list`, a list of kind
/// `K` in `cfg`) against the new rule's valid match set `s_star`. Keeps
/// candidate `i` iff `s_star ∧ fire_i ≠ ⊥`.
pub fn prune_insertion_candidates<K: RuleList>(
    space: &mut K::Space,
    cfg: &Config,
    list: &K::List,
    s_star: Ref,
    candidates: &[usize],
) -> Result<PruneOutcome, AnalysisError> {
    let fires = K::fire_sets(space, cfg, list)?;
    let mgr = K::manager(space);
    let mut out = PruneOutcome::default();
    for &i in candidates {
        if mgr.and(s_star, fires[i]) != Ref::FALSE {
            out.kept.push(i);
        } else {
            out.pruned.push(i);
        }
    }
    Ok(out)
}

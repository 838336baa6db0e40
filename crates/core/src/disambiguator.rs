//! The disambiguator: find where a verified rule belongs by asking the
//! user behavioural questions backed by concrete differential examples.
//!
//! One implementation serves every ordered rule list — route-maps, ACLs
//! and prefix lists — through [`clarify_analysis::RuleList`]; the kind
//! only decides the space, the comparison and the question type.

use clarify_analysis::{Acls, PacketSpace, PrefixLists, RouteMaps, RouteSpace, StanzaSnippet};
use clarify_bdd::Ref;
use clarify_lint::prune_insertion_candidates;
use clarify_netconfig::{AclEntry, Config, ConfigError, PrefixListEntry};

use crate::error::ClarifyError;
use crate::oracle::{Choice, UserOracle};
use crate::question::{AclQuestion, DisambiguationQuestion, Placeable, PrefixQuestion};

/// How insertion points are explored.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PlacementStrategy {
    /// The §4 algorithm: binary search over the overlapping rules,
    /// asking `O(log n)` questions.
    #[default]
    BinarySearch,
    /// The paper prototype's restriction: only the top and the bottom of
    /// the policy are considered (Figure 2 (a) and (b)); at most one
    /// question is asked.
    TopBottomOnly,
    /// Ablation baseline: walk the overlapping rules top-down, asking
    /// one question per overlap (`O(n)` questions).
    LinearScan,
}

/// What the disambiguator did for one insertion.
#[derive(Clone, Debug)]
pub struct InsertionResult<K: Placeable = RouteMaps> {
    /// The final configuration with the rule inserted.
    pub config: Config,
    /// Zero-based position of the new rule.
    pub position: usize,
    /// The mechanical edit report (renames and renumbering for
    /// route-maps; nothing for the other kinds).
    pub report: K::Report,
    /// Number of questions the user answered.
    pub questions: usize,
    /// Number of existing rules whose match set overlaps the new rule's.
    pub overlap_candidates: usize,
    /// Overlap candidates discarded by the lint prune (the new rule is
    /// shadowed at those boundaries, so they are provably non-decisive).
    pub pruned_candidates: usize,
    /// Number of expensive above/below placement comparisons performed.
    pub comparisons: usize,
    /// The full question/answer transcript.
    pub transcript: Vec<(K::Question, Choice)>,
}

/// What the route-map disambiguator did.
pub type DisambiguationResult = InsertionResult<RouteMaps>;
/// What the ACL disambiguator did.
pub type AclDisambiguationResult = InsertionResult<Acls>;
/// What the prefix-list disambiguator did.
pub type PrefixDisambiguationResult = InsertionResult<PrefixLists>;

/// The disambiguator itself. Stateless apart from its strategy.
#[derive(Clone, Copy, Debug, Default)]
pub struct Disambiguator {
    /// Exploration strategy.
    pub strategy: PlacementStrategy,
}

impl Disambiguator {
    /// Creates a disambiguator with the given strategy.
    pub fn new(strategy: PlacementStrategy) -> Disambiguator {
        Disambiguator { strategy }
    }

    /// Inserts the single stanza of `snippet`'s `snippet_map` into `base`'s
    /// route-map `map`, interacting with `oracle` to pin down the intent.
    pub fn insert(
        &self,
        base: &Config,
        map: &str,
        snippet: &Config,
        snippet_map: &str,
        oracle: &mut dyn UserOracle,
    ) -> Result<DisambiguationResult, ClarifyError> {
        let rule = StanzaSnippet {
            config: snippet.clone(),
            map: snippet_map.to_string(),
        };
        self.place::<RouteMaps>(base, map, rule, oracle)
    }

    /// Builds a route-map [`InsertionPlan`] in a caller-owned
    /// [`RouteSpace`]; see [`plan`](Self::plan).
    ///
    /// The space must have been built over an atom environment covering
    /// both `base` and `snippet` (e.g. `RouteSpace::new(&[base,
    /// snippet])`, or any config set with an equal
    /// [`atom_env_hash`](clarify_analysis::atom_env_hash)).
    pub fn plan_in_space(
        &self,
        space: &mut RouteSpace,
        base: &Config,
        map: &str,
        snippet: &Config,
        snippet_map: &str,
    ) -> Result<InsertionPlan, ClarifyError> {
        let rule = StanzaSnippet {
            config: snippet.clone(),
            map: snippet_map.to_string(),
        };
        self.plan::<RouteMaps>(space, base, map, rule)
    }

    /// Inserts `rule` into the list `name` of kind `K` in `base`,
    /// interacting with `oracle` to pin down its position.
    pub fn place<K: Placeable>(
        &self,
        base: &Config,
        name: &str,
        rule: K::Rule,
        oracle: &mut dyn UserOracle<K::Question>,
    ) -> Result<InsertionResult<K>, ClarifyError> {
        let _insert_span = clarify_obs::span!("disambiguator_insert");
        let mut space = K::new_space(base, Some(&rule))?;
        self.plan::<K>(&mut space, base, name, rule)?.drive(oracle)
    }

    /// Builds an [`InsertionPlan`] in a caller-owned space: the expensive
    /// symbolic work (overlap set, lint prune, per-pivot placement
    /// comparisons) runs here, once; the returned plan answers every
    /// subsequent [`InsertionPlan::step`] with pure in-memory replay.
    /// Long-lived services keep one warm space per session and pass it in
    /// — ROBDD canonicity makes the reuse invisible: a fresh space built
    /// from the same configurations yields byte-identical questions (same
    /// witnesses, same order).
    pub fn plan<K: Placeable>(
        &self,
        space: &mut K::Space,
        base: &Config,
        name: &str,
        rule: K::Rule,
    ) -> Result<InsertionPlan<K>, ClarifyError> {
        plan_with::<K>(space, base, name, rule, self.strategy, true)
    }
}

/// Inserts `entry` into `base`'s ACL `acl_name`, interacting with the
/// oracle to pin down its position (same §4 binary search as route-maps).
pub fn insert_acl_with_oracle(
    base: &Config,
    acl_name: &str,
    entry: &AclEntry,
    strategy: PlacementStrategy,
    oracle: &mut dyn UserOracle<AclQuestion>,
) -> Result<AclDisambiguationResult, ClarifyError> {
    Disambiguator::new(strategy).place::<Acls>(base, acl_name, entry.clone(), oracle)
}

/// Builds an ACL insertion plan in a caller-owned [`PacketSpace`]. The
/// packet atom universe is fixed, so any `PacketSpace` is
/// layout-compatible.
pub fn plan_acl_in_space(
    space: &mut PacketSpace,
    base: &Config,
    acl_name: &str,
    entry: &AclEntry,
    strategy: PlacementStrategy,
) -> Result<AclInsertionPlan, ClarifyError> {
    Disambiguator::new(strategy).plan::<Acls>(space, base, acl_name, entry.clone())
}

/// Inserts `entry` into `base`'s prefix list `list_name` — the paper's §7
/// future work ("inserting entries into other data structures that can
/// have conflicts like prefix lists"), with the same §4 search.
pub fn insert_prefix_entry_with_oracle(
    base: &Config,
    list_name: &str,
    entry: &PrefixListEntry,
    strategy: PlacementStrategy,
    oracle: &mut dyn UserOracle<PrefixQuestion>,
) -> Result<PrefixDisambiguationResult, ClarifyError> {
    Disambiguator::new(strategy).place::<PrefixLists>(base, list_name, entry.clone(), oracle)
}

/// The planner behind [`Disambiguator::plan`]. `prune = false` skips the
/// lint prune, so every overlap is compared: the unpruned reference the
/// prune is tested against.
pub(crate) fn plan_with<K: Placeable>(
    space: &mut K::Space,
    base: &Config,
    name: &str,
    rule: K::Rule,
    strategy: PlacementStrategy,
    prune: bool,
) -> Result<InsertionPlan<K>, ClarifyError> {
    let list = K::lists(base)
        .get(name)
        .ok_or_else(|| ConfigError::NotFound {
            kind: K::KIND,
            name: name.to_string(),
        })?;
    K::check_rule(&rule)?;

    let valid = K::valid(space);
    let s_star = {
        let raw = K::encode_rule(space, &rule)?;
        K::manager(space).and(raw, valid)
    };

    // The §4 candidate set: existing rules whose match set intersects the
    // new rule's, in original order.
    let match_sets = K::match_sets(space, base, list)?;
    let mut overlaps: Vec<usize> = Vec::new();
    for (i, &m) in match_sets.iter().enumerate() {
        if K::manager(space).and(m, s_star) != Ref::FALSE {
            overlaps.push(i);
        }
    }
    let n = overlaps.len();

    // Lint-based pre-filter: a pivot where the new rule never reaches the
    // pivot's firing region (`s* ∧ fire_i = ⊥`) cannot be decisive —
    // above/below placements there are provably equivalent — so skip its
    // placement comparison outright.
    let candidates = if prune {
        prune_insertion_candidates::<K>(space, base, list, s_star, &overlaps)?.kept
    } else {
        overlaps
    };
    let pruned_candidates = n - candidates.len();

    // Keep only *decisive* pivots: candidates where inserting the new
    // rule immediately above vs immediately below actually changes
    // behaviour. An equivalence at a pivot (e.g. a deny rule crossing a
    // deny rule) means that boundary vanishes — the two adjacent slots
    // merge — and treating it as an answer would discard half the search
    // space that may hold the intent. Each decisive pivot carries its
    // precomputed differential question.
    //
    // The scan is the hot loop — one full comparison per candidate — and
    // each comparison is independent. With one thread it runs directly
    // on the caller's space, whose unique table already holds every
    // encoding the comparisons rebuild; with more it fans out over
    // `clarify-par` with one worker-local space per worker. ROBDD
    // canonicity makes the choice invisible: a fresh space built from the
    // same configs yields the same witnesses as the shared serial space,
    // and results come back in input order.
    let question_at =
        |space: &mut K::Space, pivot: usize| -> Result<Option<K::Question>, ClarifyError> {
            let (above, _) = K::splice(base, name, &rule, pivot)?;
            let (below, _) = K::splice(base, name, &rule, pivot + 1)?;
            let diff = K::first_diff(space, &above, &below, name)?;
            Ok(diff.map(|d| K::question(list, pivot, d)))
        };
    let scan: Vec<Result<Option<K::Question>, ClarifyError>> = {
        let _scan_span = clarify_obs::span!("pivot_scan");
        if clarify_par::current_threads() == 1 {
            candidates
                .iter()
                .map(|&pivot| question_at(&mut *space, pivot))
                .collect()
        } else {
            clarify_par::par_map_init(
                &candidates,
                || None::<K::Space>,
                |worker_space, _, &pivot| {
                    let space = match worker_space {
                        Some(s) => s,
                        None => worker_space.insert(K::new_space(base, Some(&rule))?),
                    };
                    question_at(space, pivot)
                },
            )
        }
    };
    let mut pivots: Vec<(usize, K::Question)> = Vec::new();
    for (&pivot, q) in candidates.iter().zip(scan) {
        if let Some(q) = q? {
            pivots.push((pivot, q));
        }
    }
    // The overlap/prune round is done with the shared space's op caches;
    // drop them (unique table preserved) before the placement round so
    // long sessions don't accrete dead cache entries.
    K::manager(space).clear_op_caches();
    let mut comparisons = candidates.len();
    let base_len = K::len(list);

    // TopBottomOnly's single question is the differential between the two
    // extreme placements; precompute it here so the plan's replay needs
    // no symbolic work. When every boundary is non-decisive the strategy
    // never compares — as with the other strategies, everything is
    // equivalent and the plan appends.
    let top_bottom = if strategy == PlacementStrategy::TopBottomOnly && !pivots.is_empty() {
        let (top, _) = K::splice(base, name, &rule, 0)?;
        let (bottom, _) = K::splice(base, name, &rule, base_len)?;
        comparisons += 1;
        K::first_diff(space, &top, &bottom, name)?.map(|d| K::question(list, 0, d))
    } else {
        None
    };

    Ok(InsertionPlan {
        base: base.clone(),
        name: name.to_string(),
        rule,
        base_len,
        strategy,
        pivots,
        top_bottom,
        overlap_candidates: n,
        pruned_candidates,
        comparisons,
    })
}

/// A fully-precomputed insertion search: the decisive pivots with their
/// differential questions, plus everything needed to materialise the final
/// configuration. Produced by [`Disambiguator::plan`]; consumed either by
/// [`drive`](InsertionPlan::drive) against a [`UserOracle`] (the one-shot
/// path) or turn-by-turn via [`step`](InsertionPlan::step) /
/// [`finish`](InsertionPlan::finish) (the session-daemon path). Replay is
/// pure in-memory work — no symbolic recompute per answer — and both paths
/// walk the identical pivot table, so they produce byte-identical question
/// sequences.
#[derive(Clone, Debug)]
pub struct InsertionPlan<K: Placeable = RouteMaps> {
    base: Config,
    name: String,
    rule: K::Rule,
    /// Rule count of the base list: the append slot when no boundary is
    /// decisive.
    base_len: usize,
    strategy: PlacementStrategy,
    /// Decisive pivots in original rule order, each with its precomputed
    /// differential question.
    pivots: Vec<(usize, K::Question)>,
    /// TopBottomOnly's single question (`None` unless that strategy is
    /// active, at least one pivot is decisive, and the two extreme
    /// placements actually differ).
    top_bottom: Option<K::Question>,
    overlap_candidates: usize,
    pruned_candidates: usize,
    comparisons: usize,
}

/// An ACL insertion plan.
pub type AclInsertionPlan = InsertionPlan<Acls>;
/// What an [`AclInsertionPlan`] needs next.
pub type AclPlanStep<'a> = PlanStep<'a, AclQuestion>;

/// What an [`InsertionPlan`] needs next, given an answer prefix.
#[derive(Clone, Debug)]
pub enum PlanStep<'a, Q = DisambiguationQuestion> {
    /// The search needs one more answer, to this question (`number` is
    /// 1-based, for display).
    Ask {
        /// 1-based ordinal of the question within the session.
        number: usize,
        /// The differential question to put to the user.
        question: &'a Q,
    },
    /// The answers fully determine the insertion point.
    Done {
        /// Zero-based position of the new rule.
        position: usize,
    },
}

/// Internal replay outcome: either the next unanswered question (with how
/// many answers were consumed reaching it) or the final position plus the
/// reconstructed transcript.
enum Replay<'a, Q> {
    Need(&'a Q, usize),
    Done {
        position: usize,
        transcript: Vec<(Q, Choice)>,
    },
}

impl<K: Placeable> InsertionPlan<K> {
    /// Maps a slot index in the decisive-pivot order to a rule position.
    fn slot_to_position(&self, slot: usize) -> usize {
        match self.pivots.get(slot) {
            Some(&(pivot, _)) => pivot,
            None => self.pivots.last().map_or(self.base_len, |&(p, _)| p + 1),
        }
    }

    /// Replays the placement search against an answer prefix. Pure and
    /// deterministic: the same prefix always reaches the same point, so a
    /// session can re-derive its current question from stored answers
    /// alone.
    fn replay<'a>(&'a self, answers: &[Choice]) -> Replay<'a, K::Question> {
        /// The answer to `q`, if the prefix holds one; records `q` as asked.
        fn take<'a, Q>(answers: &[Choice], asked: &mut Vec<&'a Q>, q: &'a Q) -> Option<Choice> {
            let c = answers.get(asked.len()).copied()?;
            asked.push(q);
            Some(c)
        }

        let mut asked: Vec<&K::Question> = Vec::new();
        let m = self.pivots.len();
        // No decisive boundary anywhere: all positions are equivalent (or
        // there was no overlap at all); append — for every strategy.
        let position = if m == 0 {
            self.base_len
        } else {
            match self.strategy {
                PlacementStrategy::BinarySearch => {
                    let (mut lo, mut hi) = (0usize, m);
                    while lo < hi {
                        let mid = (lo + hi) / 2;
                        let q = &self.pivots[mid].1;
                        match take(answers, &mut asked, q) {
                            Some(Choice::First) => hi = mid,
                            Some(Choice::Second) => lo = mid + 1,
                            None => return Replay::Need(q, asked.len()),
                        }
                    }
                    self.slot_to_position(lo)
                }
                PlacementStrategy::LinearScan => {
                    let mut slot = m;
                    for (k, (_, q)) in self.pivots.iter().enumerate() {
                        match take(answers, &mut asked, q) {
                            Some(Choice::First) => {
                                slot = k;
                                break;
                            }
                            Some(Choice::Second) => {}
                            None => return Replay::Need(q, asked.len()),
                        }
                    }
                    self.slot_to_position(slot)
                }
                PlacementStrategy::TopBottomOnly => match &self.top_bottom {
                    // Extreme placements equivalent; bottom by convention.
                    None => self.base_len,
                    Some(q) => match take(answers, &mut asked, q) {
                        Some(Choice::First) => 0,
                        Some(Choice::Second) => self.base_len,
                        None => return Replay::Need(q, asked.len()),
                    },
                },
            }
        };
        let transcript = asked
            .into_iter()
            .zip(answers.iter().copied())
            .map(|(q, c)| (q.clone(), c))
            .collect();
        Replay::Done {
            position,
            transcript,
        }
    }

    /// Given the answers so far, returns either the next question to ask
    /// or the determined insertion position. Surplus answers beyond what
    /// the search consumes are ignored.
    pub fn step(&self, answers: &[Choice]) -> PlanStep<'_, K::Question> {
        match self.replay(answers) {
            Replay::Need(question, used) => PlanStep::Ask {
                number: used + 1,
                question,
            },
            Replay::Done { position, .. } => PlanStep::Done { position },
        }
    }

    /// Materialises the final configuration from a complete answer
    /// sequence, recording the insertion metrics exactly once. Returns
    /// [`ClarifyError::OracleExhausted`] if the answers don't reach a
    /// determined position (callers should [`step`](Self::step) first).
    pub fn finish(&self, answers: &[Choice]) -> Result<InsertionResult<K>, ClarifyError> {
        let Replay::Done {
            position,
            transcript,
        } = self.replay(answers)
        else {
            return Err(ClarifyError::OracleExhausted);
        };
        let (config, report) = K::splice(&self.base, &self.name, &self.rule, position)?;
        record_insert_metrics(
            self.overlap_candidates,
            self.pruned_candidates,
            transcript.len(),
            self.comparisons,
        );
        Ok(InsertionResult {
            config,
            position,
            report,
            questions: transcript.len(),
            overlap_candidates: self.overlap_candidates,
            pruned_candidates: self.pruned_candidates,
            comparisons: self.comparisons,
            transcript,
        })
    }

    /// Runs the plan to completion against an oracle: the classic
    /// synchronous loop, byte-identical to turn-by-turn replay.
    pub fn drive(
        self,
        oracle: &mut dyn UserOracle<K::Question>,
    ) -> Result<InsertionResult<K>, ClarifyError> {
        let mut answers: Vec<Choice> = Vec::new();
        while let Replay::Need(q, _) = self.replay(&answers) {
            let _round_span = clarify_obs::span!("disambiguation_round");
            let q = q.clone();
            answers.push(oracle.choose(&q)?);
        }
        self.finish(&answers)
    }
}

/// Checks that the final configuration implements the intended policy
/// everywhere; returns [`ClarifyError::NoValidInsertion`] with a witness
/// route otherwise. The evaluation harness runs this after every insertion
/// to confirm the disambiguator converged on the user's intent.
pub fn verify_against_intent(
    final_cfg: &Config,
    map: &str,
    intended: &Config,
    intended_map: &str,
) -> Result<(), ClarifyError> {
    let mut space = RouteSpace::new(&[final_cfg, intended])?;
    let diffs = clarify_analysis::compare_route_policies(
        &mut space,
        final_cfg,
        map,
        intended,
        intended_map,
        1,
    )?;
    match diffs.into_iter().next() {
        None => Ok(()),
        Some(d) => Err(ClarifyError::NoValidInsertion {
            witness: Box::new(d.route),
        }),
    }
}

/// Checks the final ACL equals the intended one on every packet.
pub fn verify_acl_against_intent(
    final_cfg: &Config,
    acl_name: &str,
    intended: &clarify_netconfig::Acl,
) -> Result<(), ClarifyError> {
    let acl = final_cfg.acl(acl_name).ok_or(ConfigError::NotFound {
        kind: "access-list",
        name: acl_name.to_string(),
    })?;
    let mut space = PacketSpace::new();
    let diffs = clarify_analysis::compare_filters(&mut space, acl, intended, 1);
    match diffs.into_iter().next() {
        None => Ok(()),
        Some(d) => Err(ClarifyError::NoValidAclInsertion { witness: d.packet }),
    }
}

/// Records one insertion's aggregate metrics into the global registry, so
/// every insertion — whatever the kind — lands in the same counters, and
/// zero-valued counters (e.g. no candidates pruned) are still registered
/// and show up in trace output.
fn record_insert_metrics(
    overlap_candidates: usize,
    pruned_candidates: usize,
    questions: usize,
    comparisons: usize,
) {
    let obs = clarify_obs::global();
    obs.counter("disambiguator.insertions").incr();
    obs.counter("disambiguator.overlap_candidates")
        .add(overlap_candidates as u64);
    obs.counter("disambiguator.candidates_pruned")
        .add(pruned_candidates as u64);
    obs.counter("disambiguator.questions_asked")
        .add(questions as u64);
    obs.counter("disambiguator.comparisons")
        .add(comparisons as u64);
}

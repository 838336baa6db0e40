//! Differential suite for the incremental re-lint engine.
//!
//! Property: starting from a workload-generated configuration, apply a
//! random sequence of structural edits (insert / delete / mutate stanzas
//! and entries, add / remove whole objects, grow the regex pattern set).
//! After **every** step, three independently produced reports must render
//! byte-for-byte identical JSON:
//!
//! 1. a cold full `lint_config` of the edited configuration (the oracle);
//! 2. the [`IncrementalLinter`] session carried across the whole edit
//!    sequence (it holds the previous run's [`LintCache`] in memory);
//! 3. the one-shot `lint_config_incremental` chained through the
//!    serialized [`LintCache`] JSON — round-tripping the cache through its
//!    on-disk format at every step, exactly as `--incremental` does.
//!
//! Byte-identity is a sound oracle because ROBDD canonicity makes every
//! recomputation decode the same witnesses regardless of manager history;
//! any divergence is a real invalidation bug (a stale fire-set, a missed
//! dependency, a splice-order mistake), not noise.
//!
//! Failures shrink: the harness greedily truncates and zeroes the choice
//! stream, which shortens the edit sequence and simplifies each edit, and
//! reports a `CLARIFY_PROP_SEED` that replays the shrunk case.
//!
//! Everything runs in ONE test function because the thread-count override
//! is process-global: the sequence is checked serially (threads = 1) and
//! then with an 8-worker pool, since both incremental paths fan the dirty
//! subset out through `clarify-par` exactly like the full lint.

use std::sync::atomic::{AtomicUsize, Ordering};

use clarify::lint::{lint_config, IncrementalLinter, LintCache};
use clarify::netconfig::Config;
use clarify::workload::{clean_acl, clean_route_map_config, cross_acl, nested_route_map_config};
use clarify_testkit::edits::{add_acl, apply_random_edit};
use clarify_testkit::{Rng, Runner, Source};

/// Edits applied per generated base configuration.
const STEPS_PER_CASE: usize = 10;
/// Cases in the serial (threads = 1) pass.
const SERIAL_CASES: u32 = 14;
/// Cases in the parallel (threads = 8) pass.
const PARALLEL_CASES: u32 = 8;

/// Merges `extra`'s objects into `cfg` (names are disjoint by
/// construction).
fn merge(cfg: &mut Config, extra: Config) {
    cfg.route_maps.extend(extra.route_maps);
    cfg.acls.extend(extra.acls);
    cfg.prefix_lists.extend(extra.prefix_lists);
    cfg.as_path_lists.extend(extra.as_path_lists);
    cfg.community_lists.extend(extra.community_lists);
}

/// A base configuration drawn from the §3 workload families: one nested
/// (overlapping) route-map, one clean route-map, two ACLs, and a
/// list-matching route-map so the atom environment is non-trivial from
/// the start.
fn base_config(g: &mut Source) -> Config {
    let n = g.gen_range(3usize..6);
    let mut cfg = nested_route_map_config("RM_NEST", n, (n - 1) / 2);
    let clean_n = g.gen_range(2usize..5);
    merge(&mut cfg, clean_route_map_config(g, "RM_CLEAN", clean_n));
    let acl_n = g.gen_range(2usize..6);
    let acl = clean_acl(g, "ACL_CLEAN", acl_n);
    cfg.acls.insert(acl.name.clone(), acl);
    let cross_p = g.gen_range(2usize..4);
    let acl = cross_acl(g, "ACL_CROSS", cross_p, 2);
    cfg.acls.insert(acl.name.clone(), acl);
    merge(
        &mut cfg,
        Config::parse(
            "ip as-path access-list PATHS permit ^65000_\n\
             ip as-path access-list PATHS deny _200_\n\
             ip community-list expanded COMMS permit _65000:1_\n\
             route-map RM_LISTS permit 10\n match as-path PATHS\n\
             route-map RM_LISTS deny 20\n match community COMMS\n",
        )
        .expect("list config parses"),
    );
    cfg
}

/// One property case: a base config plus `STEPS_PER_CASE` random edits,
/// checking all three lint paths agree after every edit. Returns the
/// number of edit steps executed (for the suite-size floor below).
fn run_edit_sequence(g: &mut Source) -> usize {
    let mut cfg = base_config(g);
    // Seed one generated ACL so `add_acl`'s "replace" arm is reachable.
    add_acl(g, &mut cfg);

    let (mut session, first) = IncrementalLinter::new(cfg.clone(), None).expect("initial lint");
    // The chained one-shot path starts from the same report, but carries
    // state only through the serialized cache JSON.
    let mut chained = LintCache::from_report(&cfg, &first).to_json();

    let mut log: Vec<String> = Vec::new();
    for step in 0..STEPS_PER_CASE {
        let env_before = clarify::analysis::atom_env_hash(&[&cfg]);
        let mut next = cfg.clone();
        let desc = apply_random_edit(g, &mut next);
        log.push(desc.clone());
        clarify_testkit::record_input(format!("edit sequence:\n    {}", log.join("\n    ")));

        let full = lint_config(&next, None).expect("full lint");
        let oracle = full.render_json("cfg");

        let (incr, stats) = session.relint(next.clone(), None).expect("session relint");
        assert_eq!(
            incr.render_json("cfg"),
            oracle,
            "step {step} ({desc}): session relint diverged from full lint"
        );

        let prev = LintCache::from_json(&chained).expect("chained cache round-trips");
        let (one_shot, one_stats) =
            clarify::lint::lint_config_incremental(&next, None, &prev).expect("one-shot");
        assert_eq!(
            one_shot.render_json("cfg"),
            oracle,
            "step {step} ({desc}): one-shot incremental diverged from full lint"
        );
        assert_eq!(
            stats, one_stats,
            "step {step} ({desc}): session and one-shot dirty sets disagree"
        );

        // O(edit) invalidation: an ACL-entry edit touches exactly one
        // object — nothing else may be recomputed. (A generated edit can
        // be a no-op — e.g. retargeting ports to the value they already
        // had — and then nothing at all may be recomputed.)
        if desc.contains("of acl ") {
            assert_eq!(
                stats.dirty_objects,
                usize::from(next != cfg),
                "step {step} ({desc}): ACL entry edit must dirty exactly the edited object"
            );
        }
        // A brand-new regex pattern changes the atom environment: every
        // route-map must be recomputed (the route space was rebuilt).
        if clarify::analysis::atom_env_hash(&[&next]) != env_before {
            assert!(
                stats.dirty_objects >= next.route_maps.len(),
                "step {step} ({desc}): atom-env change must dirty every route-map"
            );
        }

        chained = LintCache::from_report(&next, &one_shot).to_json();
        cfg = next;
    }
    STEPS_PER_CASE
}

#[test]
fn incremental_relint_is_byte_identical_to_full_relint() {
    static STEPS: AtomicUsize = AtomicUsize::new(0);

    // Serial pass: threads = 1 takes the inline path in `par_map_init`.
    clarify::par::set_threads(1);
    Runner::new("incremental_diff::serial")
        .cases(SERIAL_CASES)
        .run(|g| {
            STEPS.fetch_add(run_edit_sequence(g), Ordering::Relaxed);
        });

    // Parallel pass: the dirty subset fans out across 8 workers, each
    // with its own freshly built space — output must not move.
    clarify::par::set_threads(8);
    Runner::new("incremental_diff::parallel")
        .cases(PARALLEL_CASES)
        .run(|g| {
            STEPS.fetch_add(run_edit_sequence(g), Ordering::Relaxed);
        });

    clarify::par::set_threads(0);

    // The ISSUE's suite-size floor: at least 200 random edit steps across
    // seeds (unless a pinned seed replays a single case).
    if std::env::var("CLARIFY_PROP_SEED").is_err() && std::env::var("CLARIFY_PROP_CASES").is_err() {
        assert!(
            STEPS.load(Ordering::Relaxed) >= 200,
            "differential suite shrank below 200 edit steps"
        );
    }
}

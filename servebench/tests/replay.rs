//! The benchmark's own tests: seeded scripts are fixed work, the mirror
//! pass cannot drift from the session code, and the checker catches
//! wrong answers. Run with
//! `cargo test --release --manifest-path servebench/Cargo.toml`.

use std::collections::BTreeMap;

use clarify_servebench::check::check;
use clarify_servebench::client::{Op, RunData};
use clarify_servebench::gen::{self, Action, Script};
use clarify_servebench::run::in_process;
use clarify_servebench::trace::mirror_mismatches;

/// The first `sessions` sessions of a script's timed phase (all of it for
/// a single-session workload), so debug builds stay quick.
fn shortened(mut script: Script, actions: usize) -> Script {
    script.timed.truncate(actions);
    script
}

/// Exact counts a run yields: per insert, questions and LLM calls; per
/// lint, findings and diagnostics.
fn counts(data: &RunData) -> Vec<(u64, u64)> {
    let mut out: Vec<(u64, u64)> = data
        .inserts
        .iter()
        .map(|r| (r.questions, r.llm_calls))
        .collect();
    out.extend(data.lints.iter().map(|l| (l.findings, l.diagnostics)));
    out
}

#[test]
fn one_seed_one_script() {
    for w in gen::WORKLOADS {
        let a = gen::script(w, 7, 2).expect("script");
        // Another workload and another seed in between: no hidden state.
        let _ = gen::script("census-mix", 8, 2).expect("script");
        let b = gen::script(w, 7, 2).expect("script");
        assert_eq!(a, b, "{w}: seed 7 gave two scripts");
        let c = gen::script(w, 9, 2).expect("script");
        assert_ne!(a.timed, c.timed, "{w}: seeds 7 and 9 gave one script");
        assert_eq!(
            a.timed_inserts(),
            c.timed_inserts(),
            "{w}: seeds change the amount of work"
        );
    }
}

#[test]
fn slots_are_stratified_by_quarter() {
    let script = gen::script("large-list", 3, 20).expect("script");
    let mut quarters = [0usize; 4];
    for a in &script.timed {
        if let Action::Insert(i) = a {
            if i.class == "rm-128" {
                quarters[i.slot * 4 / (gen::LARGE_RM + 1)] += 1;
            }
        }
    }
    let (lo, hi) = (
        quarters.iter().min().unwrap(),
        quarters.iter().max().unwrap(),
    );
    assert!(hi - lo <= 1, "route-map slots per quarter: {quarters:?}");
}

#[test]
fn same_counts_at_two_host_speeds() {
    let script = shortened(gen::script("census-mix", 11, 1).expect("script"), 60);
    let (fast, _) = in_process(&script, 11, 0).expect("run");
    // A second run while two threads burn the CPU: slower turns, same work.
    let stop = std::sync::atomic::AtomicBool::new(false);
    let slow = std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                let mut x = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
                }
            });
        }
        let r = in_process(&script, 11, 0).expect("run").0;
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        r
    });
    assert!(!counts(&fast).is_empty());
    assert_eq!(counts(&fast), counts(&slow));
    let lines = |d: &RunData| d.log.iter().map(|t| t.line.clone()).collect::<Vec<_>>();
    assert_eq!(
        lines(&fast),
        lines(&slow),
        "the turn list depends on host speed"
    );
}

#[test]
fn mirror_frames_match_the_handler() {
    for (w, actions) in [("census-mix", 40), ("large-list", 4), ("edit-relint", 12)] {
        let script = shortened(gen::script(w, 5, 1).expect("script"), actions);
        let (data, report) = in_process(&script, 5, 0).expect("run");
        assert!(
            report.bad_inserts.is_empty() && report.bad_lints.is_empty(),
            "{w}: {report:?}"
        );
        let lines: Vec<(String, Op)> = data.log.iter().map(|t| (t.line.clone(), t.op)).collect();
        assert!(
            lines.iter().any(|(_, op)| *op == Op::Answer),
            "{w}: no questions were asked"
        );
        assert_eq!(
            mirror_mismatches(&lines),
            0,
            "{w}: mirror frames differ from handle_line"
        );
    }
}

#[test]
fn self_test_flags_planted_errors() {
    let script = shortened(gen::script("census-mix", 13, 1).expect("script"), 80);
    let (data, report) = in_process(&script, 13, 2).expect("run");
    assert!(data.planted > 0, "nothing was planted");
    assert_eq!(report.planted_flagged, data.planted, "{report:?}");
    let (clean, clean_report) = in_process(&script, 13, 0).expect("run");
    assert_eq!(clean.planted, 0);
    assert!(clean_report.bad_inserts.is_empty() && clean_report.bad_lints.is_empty());
}

#[test]
fn checker_flags_a_tampered_lint_frame_and_network_commit() {
    // The warm-up block holds an E1 network session and checked lints.
    let script = shortened(gen::script("census-mix", 17, 1).expect("script"), 10);
    let (mut data, report) = in_process(&script, 17, 0).expect("run");
    assert!(
        report.bad_inserts.is_empty() && report.bad_lints.is_empty(),
        "{report:?}"
    );
    // A lint frame reporting one finding more than the one-shot lint.
    let lint = data
        .lints
        .iter()
        .position(|l| l.config.is_some())
        .expect("a checked lint");
    data.lints[lint].findings += 1;
    // A network commit that also turns the router's import from DC1 into
    // denies. The insert's own list is untouched, so only the netsim
    // replay can tell.
    let net = data
        .inserts
        .iter()
        .position(|r| r.spec.router.is_some())
        .expect("a network insert");
    let committed = data.inserts[net].committed.as_mut().expect("a commit");
    for stanza in &mut committed
        .route_maps
        .get_mut("FROM_DC")
        .expect("FROM_DC")
        .stanzas
    {
        stanza.action = clarify_netconfig::Action::Deny;
    }
    let report = check(&data, 17);
    let flagged = |v: &[(usize, String)]| v.iter().map(|(i, _)| *i).collect::<Vec<_>>();
    assert_eq!(flagged(&report.bad_lints), vec![lint], "{report:?}");
    assert_eq!(flagged(&report.bad_inserts), vec![net], "{report:?}");
    assert!(report.bad_inserts[0].1.contains("netsim"), "{report:?}");
}

#[test]
fn census_mix_follows_the_population_shares() {
    // The warm-up is one block of 20 sessions, one insert each.
    let script = gen::script("census-mix", 19, 1).expect("script");
    let mut per_class: BTreeMap<&str, usize> = BTreeMap::new();
    for a in &script.warmup {
        if let Action::Insert(i) = a {
            *per_class.entry(i.class).or_default() += 1;
        }
    }
    assert_eq!(per_class.values().sum::<usize>(), 20, "{per_class:?}");
    // Every class of both populations, the >20-overlap tail included.
    assert_eq!(per_class.len(), 14, "{per_class:?}");
    // The spare sessions follow the pool sizes: clean campus ACLs are
    // over half of all objects.
    assert_eq!(per_class["campus-acl-clean"], 4, "{per_class:?}");
    assert_eq!(per_class["campus-acl-cross-light"], 2, "{per_class:?}");
    assert_eq!(per_class["campus-acl-tail-light"], 2, "{per_class:?}");
    assert_eq!(per_class["e1-network"], 1, "{per_class:?}");
    assert_eq!(gen::census_counts(&[1, 1, 8], 13), vec![2, 2, 9]);
}

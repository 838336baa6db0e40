//! Serial vs parallel byte-identity (ISSUE satellite d).
//!
//! The parallel engine (`clarify-par`) must be invisible in every output:
//! a run with one worker and a run with eight workers have to produce the
//! same bytes, because each worker answers symbolic queries in its own
//! freshly built space and ROBDD canonicity makes those answers depend
//! only on the inputs and the fixed variable order — never on manager
//! history or interleaving.
//!
//! Everything is pinned in ONE test function: the thread-count override is
//! process-global (`clarify::par::set_threads`), so splitting the serial
//! and parallel runs across `#[test]`s would race under the default
//! multi-threaded test harness.

use clarify::lint::lint_config;
use clarify::netconfig::Config;
use clarify_bench::worked_example_report;

const E1_CFG: &str = include_str!("../testdata/isp_out.cfg");
const E1_REPORT: &str = include_str!("../testdata/e1_worked_example.txt");
const E1_LINT_REPORT: &str = include_str!("../testdata/e1_lint_report.txt");

fn lint_report_text() -> String {
    let (cfg, spans) = Config::parse_with_spans(E1_CFG).expect("E1 parses");
    lint_config(&cfg, Some(&spans))
        .expect("lint")
        .render_human("testdata/isp_out.cfg")
}

#[test]
fn one_thread_and_eight_threads_are_byte_identical() {
    // Record throughout: metrics must be purely observational, so the
    // byte-identity contract has to hold with a live registry installed,
    // not just with the disabled default. (This is the only test in its
    // test binary that installs the global registry with the engine
    // running; it owns the process-global set_threads override too.)
    clarify::obs::install(clarify::obs::Registry::new());

    // Serial reference (threads = 1 takes the inline code path in
    // `par_map_init_with_threads` — no pool is spawned at all).
    clarify::par::set_threads(1);
    let worked_serial = worked_example_report();
    let lint_serial = lint_report_text();

    // Parallel run. Eight workers on any host; chunked distribution means
    // the interleaving genuinely differs from the serial order.
    clarify::par::set_threads(8);
    let worked_parallel = worked_example_report();
    let lint_parallel = lint_report_text();

    // Back to the default (env var / available_parallelism) for any other
    // code that runs in this process, and back to the no-op registry.
    clarify::par::set_threads(0);
    let snapshot = clarify::obs::global().snapshot();
    clarify::obs::install(clarify::obs::Registry::disabled());

    // The registry actually saw both runs (2 inline, at least 1 pooled
    // map), so the assertions below exercise recording, not a no-op.
    assert!(snapshot.counter("par.inline_runs") > 0);
    assert!(snapshot.counter("par.pool_runs") > 0);
    assert!(snapshot.counter("bdd.ite_calls") > 0);

    assert_eq!(
        worked_serial, worked_parallel,
        "E1 worked example must not depend on the worker count"
    );
    assert_eq!(
        lint_serial, lint_parallel,
        "lint report must not depend on the worker count"
    );

    // And both match the checked-in goldens, so "identical" can't be
    // satisfied by two equally wrong runs.
    assert_eq!(worked_serial, E1_REPORT);
    assert_eq!(lint_serial, E1_LINT_REPORT);
}

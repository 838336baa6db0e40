//! Goldens for the three ordered-rule-list kinds: route-maps, ACLs and
//! prefix lists.
//!
//! * `testdata/rule_lists_transcripts.txt` pins the §4 dialogue: for
//!   seeded lists of each kind, every placement strategy and every
//!   intended slot, each question's text and pivot label, the answers, the
//!   final position and the printed configuration.
//! * `testdata/rule_lists_lint_report.txt` pins the L001–L003 wording
//!   (messages, related rules, fixes, witnesses) on
//!   `testdata/rule_lists.cfg`, which trips all three on each kind.
//!
//! Both are checked at one and at eight worker threads in ONE test
//! function, because the thread-count override is process-global.
//! Refresh (only for an intended change):
//! `cargo run --release --bin clarify -- lint testdata/rule_lists.cfg >
//! testdata/rule_lists_lint_report.txt`; the transcript file is the
//! output of [`transcripts`].

use std::fmt::Write as _;

use clarify::core::{
    insert_acl_with_oracle, insert_prefix_entry_with_oracle, AclIntentOracle, Choice,
    Disambiguator, IntentOracle, PlacementStrategy, PrefixIntentOracle,
};
use clarify::netconfig::{insert_acl_entry, insert_prefix_list_entry, insert_route_map_stanza};
use clarify::netconfig::{AclEntry, Config, PrefixListEntry};
use clarify_rng::{Rng, StdRng};

const LINT_CFG: &str = include_str!("../testdata/rule_lists.cfg");
const LINT_REPORT: &str = include_str!("../testdata/rule_lists_lint_report.txt");
const TRANSCRIPTS: &str = include_str!("../testdata/rule_lists_transcripts.txt");

const STRATEGIES: [PlacementStrategy; 3] = [
    PlacementStrategy::BinarySearch,
    PlacementStrategy::LinearScan,
    PlacementStrategy::TopBottomOnly,
];
const SEEDS: [u64; 3] = [7, 23, 41];
const RULES: usize = 6;

fn action(rng: &mut StdRng) -> &'static str {
    if rng.gen_bool(0.5) {
        "permit"
    } else {
        "deny"
    }
}

fn answer(c: Choice) -> &'static str {
    match c {
        Choice::First => "1",
        Choice::Second => "2",
    }
}

/// A route-map `RM` of [`RULES`] stanzas over prefixes inside 10.0.0.0/8
/// and tags, plus a one-stanza snippet `NEW` overlapping part of it.
fn route_map_case(seed: u64) -> (Config, Config) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut text = String::new();
    for i in 0..RULES {
        let second: u8 = rng.gen_range(0..4);
        let len: u8 = rng.gen_range(if second == 0 { 8 } else { 16 }..=16);
        let le: u8 = rng.gen_range(len..=24);
        text.push_str(&format!(
            "ip prefix-list PL{i} seq 5 permit 10.{second}.0.0/{len} le {le}\n"
        ));
    }
    for i in 0..RULES {
        text.push_str(&format!(
            "route-map RM {} {}\n",
            action(&mut rng),
            (i + 1) * 10
        ));
        if rng.gen_bool(0.75) {
            text.push_str(&format!(" match ip address prefix-list PL{i}\n"));
        } else {
            text.push_str(&format!(" match tag {}\n", rng.gen_range(0u32..3)));
        }
        if rng.gen_bool(0.5) {
            text.push_str(&format!(" set metric {}\n", 100 + i));
        }
    }
    let base = Config::parse(&text).expect("generated route-map parses");
    let snippet = Config::parse(&format!(
        "ip prefix-list NEWPL permit 10.0.0.0/8 le {}\nroute-map NEW permit 10\n match ip address prefix-list NEWPL\n set metric 99\n",
        rng.gen_range(12u8..=24),
    ))
    .expect("snippet parses");
    (base, snippet)
}

fn acl_line(rng: &mut StdRng) -> String {
    let proto = ["tcp", "udp"][rng.gen_range(0..2usize)];
    let src = ["10.0.0.0/8", "10.1.0.0/16", "10.2.0.0/16", "10.1.2.0/24"][rng.gen_range(0..4usize)];
    let lo: u16 = rng.gen_range(70..90);
    let hi = lo + rng.gen_range(0u16..30);
    format!(" {} {proto} {src} any range {lo} {hi}\n", action(rng))
}

/// An ACL `A` of [`RULES`] entries plus one new entry.
fn acl_case(seed: u64) -> (Config, AclEntry) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut text = "ip access-list extended A\n".to_string();
    for _ in 0..RULES {
        text.push_str(&acl_line(&mut rng));
    }
    let base = Config::parse(&text).expect("generated ACL parses");
    let new = format!("ip access-list extended NEW\n{}", acl_line(&mut rng));
    let new = Config::parse(&new).expect("new entry parses");
    let entry = new.acl("NEW").expect("NEW").entries[0].clone();
    (base, entry)
}

fn prefix_line(rng: &mut StdRng, name: &str, seq: usize) -> String {
    let second: u8 = rng.gen_range(0..3);
    let len: u8 = rng.gen_range(if second == 0 { 8 } else { 16 }..=16);
    let le: u8 = rng.gen_range(len..=24);
    format!(
        "ip prefix-list {name} seq {seq} {} 10.{second}.0.0/{len} le {le}\n",
        action(rng)
    )
}

/// A prefix list `P` of [`RULES`] entries plus one new entry.
fn prefix_case(seed: u64) -> (Config, PrefixListEntry) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut text = String::new();
    for i in 0..RULES {
        text.push_str(&prefix_line(&mut rng, "P", (i + 1) * 5));
    }
    let base = Config::parse(&text).expect("generated prefix list parses");
    let new = Config::parse(&prefix_line(&mut rng, "NEW", 5)).expect("new entry parses");
    let entry = new.prefix_lists["NEW"].entries[0].clone();
    (base, entry)
}

/// Runs every case and renders the dialogue transcript.
fn transcripts() -> String {
    let mut out = String::new();
    for seed in SEEDS {
        let (base, snippet) = route_map_case(seed);
        writeln!(out, "#### route-map seed {seed}\n{base}").unwrap();
        for strategy in STRATEGIES {
            for slot in 0..=RULES {
                writeln!(
                    out,
                    "== route-map seed {seed} {strategy:?} intended slot {slot}"
                )
                .unwrap();
                let (intended, _) =
                    insert_route_map_stanza(&base, "RM", &snippet, "NEW", slot).unwrap();
                let mut oracle = IntentOracle::new(&intended, "RM");
                match Disambiguator::new(strategy).insert(&base, "RM", &snippet, "NEW", &mut oracle)
                {
                    Ok(r) => {
                        for (q, c) in &r.transcript {
                            writeln!(out, "-- pivot {}\n{q}\nanswer {}", q.pivot_seq, answer(*c))
                                .unwrap();
                        }
                        writeln!(out, "position {}\n{}", r.position, r.config).unwrap();
                    }
                    Err(e) => writeln!(out, "error: {e}").unwrap(),
                }
            }
        }

        let (base, entry) = acl_case(seed);
        writeln!(
            out,
            "#### access-list seed {seed}\n{base}new entry: {entry}"
        )
        .unwrap();
        for strategy in STRATEGIES {
            for slot in 0..=RULES {
                writeln!(
                    out,
                    "== access-list seed {seed} {strategy:?} intended slot {slot}"
                )
                .unwrap();
                let intended = insert_acl_entry(&base, "A", entry.clone(), slot).unwrap();
                let mut oracle = AclIntentOracle {
                    intended: intended.acl("A").unwrap(),
                };
                match insert_acl_with_oracle(&base, "A", &entry, strategy, &mut oracle) {
                    Ok(r) => {
                        for (q, c) in &r.transcript {
                            writeln!(
                                out,
                                "-- pivot {}\n{q}\nanswer {}",
                                q.pivot_index,
                                answer(*c)
                            )
                            .unwrap();
                        }
                        writeln!(out, "position {}\n{}", r.position, r.config).unwrap();
                    }
                    Err(e) => writeln!(out, "error: {e}").unwrap(),
                }
            }
        }

        let (base, entry) = prefix_case(seed);
        writeln!(out, "#### prefix-list seed {seed}\n{base}").unwrap();
        for strategy in STRATEGIES {
            for slot in 0..=RULES {
                writeln!(
                    out,
                    "== prefix-list seed {seed} {strategy:?} intended slot {slot}"
                )
                .unwrap();
                let intended = insert_prefix_list_entry(&base, "P", entry.clone(), slot).unwrap();
                let mut oracle = PrefixIntentOracle {
                    intended: &intended.prefix_lists["P"],
                };
                match insert_prefix_entry_with_oracle(&base, "P", &entry, strategy, &mut oracle) {
                    Ok(r) => {
                        for (q, c) in &r.transcript {
                            writeln!(
                                out,
                                "-- pivot {}\n{q}\nanswer {}",
                                q.pivot_index,
                                answer(*c)
                            )
                            .unwrap();
                        }
                        writeln!(out, "position {}\n{}", r.position, r.config).unwrap();
                    }
                    Err(e) => writeln!(out, "error: {e}").unwrap(),
                }
            }
        }
    }
    out
}

fn lint_report() -> String {
    let (cfg, spans) = Config::parse_with_spans(LINT_CFG).expect("rule_lists.cfg parses");
    clarify::lint::lint_config(&cfg, Some(&spans))
        .expect("lint")
        .render_human("testdata/rule_lists.cfg")
}

fn first_difference(actual: &str, expected: &str) -> String {
    for (i, (a, b)) in actual.lines().zip(expected.lines()).enumerate() {
        if a != b {
            return format!("line {}:\n  actual:   {a:?}\n  expected: {b:?}", i + 1);
        }
    }
    format!(
        "lengths differ: {} vs {} lines",
        actual.lines().count(),
        expected.lines().count()
    )
}

#[test]
fn rule_list_goldens_hold_at_one_and_eight_threads() {
    for threads in [1, 8] {
        clarify::par::set_threads(threads);
        let transcripts = transcripts();
        let lint = lint_report();
        clarify::par::set_threads(0);
        assert!(
            transcripts == TRANSCRIPTS,
            "placement transcripts drifted at {threads} thread(s), {}",
            first_difference(&transcripts, TRANSCRIPTS)
        );
        assert!(
            lint == LINT_REPORT,
            "rule-list lint report drifted at {threads} thread(s), {}",
            first_difference(&lint, LINT_REPORT)
        );
    }
}

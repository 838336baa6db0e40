//! Unit tests: deadline wheel, manual clock, protocol parsing, and
//! socket-free eviction through [`Shared`].

use std::sync::Arc;

use crate::clock::{Clock, ManualClock};
use crate::proto::{parse_request, Request};
use crate::server::{ServerConfig, Shared};
use crate::wheel::DeadlineWheel;

#[test]
fn wheel_reports_only_genuinely_idle_sessions() {
    let mut wheel = DeadlineWheel::new();
    wheel.schedule(100, 1);
    wheel.schedule(100, 2);

    // At t=50 nothing is due.
    assert!(wheel.expired(50, 100, |_| Some(0)).is_empty());

    // At t=100: session 1 untouched since t=0 → idle. Session 2 was
    // touched at t=80 → re-queued at 180, not evicted.
    let last = |id: u64| Some(if id == 1 { 0 } else { 80 });
    assert_eq!(wheel.expired(100, 100, last), vec![1]);
    assert_eq!(wheel.len(), 1);

    // Session 2's re-queued entry fires at its true deadline.
    assert!(wheel.expired(179, 100, last).is_empty());
    assert_eq!(wheel.expired(180, 100, last), vec![2]);
}

#[test]
fn wheel_drops_entries_for_closed_sessions() {
    let mut wheel = DeadlineWheel::new();
    wheel.schedule(10, 7);
    assert!(wheel.expired(20, 10, |_| None).is_empty());
    assert!(wheel.is_empty());
}

#[test]
fn wheel_dedupes_stale_duplicates_of_one_session() {
    let mut wheel = DeadlineWheel::new();
    // Three turns on the same session left three entries behind.
    wheel.schedule(10, 1);
    wheel.schedule(20, 1);
    wheel.schedule(30, 1);
    assert_eq!(wheel.expired(100, 50, |_| Some(0)), vec![1]);
}

#[test]
fn manual_clock_only_moves_when_advanced() {
    let clock = ManualClock::new(5);
    assert_eq!(clock.now_ms(), 5);
    clock.advance(10);
    assert_eq!(clock.now_ms(), 15);
}

#[test]
fn parse_request_covers_every_op() {
    assert!(matches!(
        parse_request(r#"{"op":"ping"}"#),
        Ok(Request::Ping)
    ));
    assert!(matches!(
        parse_request(r#"{"op":"shutdown"}"#),
        Ok(Request::Shutdown)
    ));
    assert!(matches!(
        parse_request(r#"{"op":"open","config":"route-map X permit 10\n"}"#),
        Ok(Request::OpenConfig { .. })
    ));
    match parse_request(
        r#"{"op":"open","topology":"t","configs":{"a.cfg":"x"},
           "invariants":[{"kind":"reachable","router":"r1","prefix":"10.0.0.0/8"}]}"#,
    ) {
        Ok(Request::OpenNetwork {
            configs,
            invariants,
            ..
        }) => {
            assert_eq!(configs.len(), 1);
            assert_eq!(invariants.len(), 1);
        }
        other => panic!("unexpected: {:?}", other.err().map(|e| e.frame())),
    }
    assert!(matches!(
        parse_request(r#"{"op":"ask","session":3,"target":"M","intent":"set metric"}"#),
        Ok(Request::Ask {
            session: 3,
            router: None,
            ..
        })
    ));
    assert!(matches!(
        parse_request(r#"{"op":"ask","session":3,"router":"r1","target":"M","intent":"i"}"#),
        Ok(Request::Ask {
            router: Some(_),
            ..
        })
    ));
    assert!(matches!(
        parse_request(r#"{"op":"answer","session":3,"choice":2}"#),
        Ok(Request::Answer { .. })
    ));
    assert!(matches!(
        parse_request(r#"{"op":"lint","session":3}"#),
        Ok(Request::Lint { session: 3 })
    ));
    assert!(matches!(
        parse_request(r#"{"op":"close","session":3}"#),
        Ok(Request::Close { session: 3 })
    ));
}

#[test]
fn parse_request_maps_failures_to_stable_codes() {
    assert_eq!(parse_request("not json").unwrap_err().code, "bad-json");
    assert_eq!(parse_request("{}").unwrap_err().code, "bad-request");
    assert_eq!(
        parse_request(r#"{"op":"frobnicate"}"#).unwrap_err().code,
        "unknown-op"
    );
    assert_eq!(
        parse_request(r#"{"op":"answer","session":1,"choice":3}"#)
            .unwrap_err()
            .code,
        "bad-request"
    );
    assert_eq!(
        parse_request(r#"{"op":"ask","session":1}"#)
            .unwrap_err()
            .code,
        "bad-request"
    );
    // Error frames are themselves valid JSON.
    let frame = parse_request("x").unwrap_err().frame();
    clarify_obs::json::parse(&frame).expect("error frame parses");
}

fn shared_with_manual_clock(idle_ms: u64) -> (Arc<ManualClock>, Shared) {
    let clock = Arc::new(ManualClock::new(0));
    let cfg = ServerConfig {
        idle_timeout_ms: idle_ms,
        ..ServerConfig::default()
    };
    let shared = Shared::new(cfg, clock.clone());
    (clock, shared)
}

const BASE_CFG: &str = "route-map DEMO permit 10\n match ip address prefix-list P1\n set metric 5\n!\nip prefix-list P1 seq 5 permit 10.0.0.0/8\n";

fn open(shared: &Shared) -> u64 {
    let line = format!(
        "{{\"op\":\"open\",\"config\":{}}}",
        clarify_obs::json::escape(BASE_CFG)
    );
    let (frame, close) = shared.handle_line(&line);
    assert!(!close);
    frame_u64(&frame, "session")
}

#[test]
fn idle_sessions_are_evicted_and_active_ones_survive() {
    let (clock, shared) = shared_with_manual_clock(1_000);
    let idle = open(&shared);
    let active = open(&shared);
    assert_eq!(shared.session_count(), 2);

    // Touch `active` at t=600 via a turn (lint is the cheapest).
    clock.advance(600);
    let (frame, _) = shared.handle_line(&format!("{{\"op\":\"lint\",\"session\":{active}}}"));
    assert!(frame.contains("\"ok\":true"), "lint failed: {frame}");

    // t=1100: `idle` (last touch t=0) is past the 1000ms timeout;
    // `active` (last touch t=600) is not.
    clock.advance(500);
    shared.evict_expired();
    assert_eq!(shared.session_count(), 1);
    let (frame, _) = shared.handle_line(&format!("{{\"op\":\"lint\",\"session\":{idle}}}"));
    assert!(
        frame.contains("unknown-session"),
        "expected eviction: {frame}"
    );
    let (frame, _) = shared.handle_line(&format!("{{\"op\":\"lint\",\"session\":{active}}}"));
    assert!(frame.contains("\"ok\":true"), "survivor broken: {frame}");

    // The survivor, left alone long enough, goes too.
    clock.advance(2_000);
    shared.evict_expired();
    assert_eq!(shared.session_count(), 0);
}

#[test]
fn session_cap_returns_busy_and_close_frees_a_slot() {
    let clock = Arc::new(ManualClock::new(0));
    let cfg = ServerConfig {
        max_sessions: 2,
        ..ServerConfig::default()
    };
    let shared = Shared::new(cfg, clock);
    let first = open(&shared);
    let _second = open(&shared);
    let line = format!(
        "{{\"op\":\"open\",\"config\":{}}}",
        clarify_obs::json::escape(BASE_CFG)
    );
    let (frame, _) = shared.handle_line(&line);
    assert!(frame.contains("\"busy\""), "expected busy: {frame}");
    let (frame, _) = shared.handle_line(&format!("{{\"op\":\"close\",\"session\":{first}}}"));
    assert!(frame.contains("\"ok\":true"), "close failed: {frame}");
    open(&shared); // fits again
}

const E1_INTENT: &str = "Write a route-map stanza that permits routes containing the prefix \
100.0.0.0/16 with mask length less than or equal to 23 and tagged with the community 300:3. \
Their MED value should be set to 55.";

/// Daemon sessions route turns through the same middleware stack as the
/// one-shot CLI: a recording stack captures the exchanges, a replay stack
/// over that transcript reproduces the turn frame byte-identically, and
/// an exhausted transcript aborts the turn with `backend-error` before
/// anything commits — the session survives and replays cleanly after.
#[test]
fn replayed_sessions_reproduce_recorded_turns_and_exhaustion_aborts() {
    use clarify_llm::{BackendStack, Transcript};
    use std::sync::Mutex;

    // Live pass, with a recording layer in the daemon's stack.
    let sink = Arc::new(Mutex::new(Transcript::default()));
    let cfg = ServerConfig {
        backend: BackendStack::semantic().with_record(sink.clone()),
        ..ServerConfig::default()
    };
    let shared = Shared::new(cfg, Arc::new(ManualClock::new(0)));
    let id = open(&shared);
    let ask = format!(
        "{{\"op\":\"ask\",\"session\":{id},\"target\":\"DEMO\",\"intent\":{}}}",
        clarify_obs::json::escape(E1_INTENT)
    );
    let (live_frame, _) = shared.handle_line(&ask);
    assert!(
        live_frame.contains("\"ok\":true"),
        "live ask failed: {live_frame}"
    );
    let recorded = sink.lock().unwrap().clone();
    assert!(
        recorded.entries.len() >= 3,
        "expected classify/synthesize/extract exchanges, got {}",
        recorded.entries.len()
    );

    // Replay pass: offline stack, byte-identical turn frame.
    let cfg = ServerConfig {
        backend: BackendStack::semantic().with_replay(Arc::new(recorded.clone())),
        ..ServerConfig::default()
    };
    let shared = Shared::new(cfg, Arc::new(ManualClock::new(0)));
    let replay_id = open(&shared);
    assert_eq!(
        replay_id, id,
        "fresh daemons allocate ids deterministically"
    );
    let (replay_frame, _) = shared.handle_line(&ask);
    assert_eq!(replay_frame, live_frame, "replay diverged from recording");

    // Truncated transcript: the turn aborts before any commit and the
    // session stays open.
    let mut truncated = recorded;
    truncated.entries.truncate(1);
    let cfg = ServerConfig {
        backend: BackendStack::semantic().with_replay(Arc::new(truncated)),
        ..ServerConfig::default()
    };
    let shared = Shared::new(cfg, Arc::new(ManualClock::new(0)));
    let id = open(&shared);
    let ask = format!(
        "{{\"op\":\"ask\",\"session\":{id},\"target\":\"DEMO\",\"intent\":{}}}",
        clarify_obs::json::escape(E1_INTENT)
    );
    let (frame, _) = shared.handle_line(&ask);
    assert!(
        frame.contains("backend-error") && frame.contains("transcript exhausted"),
        "expected replay-exhaustion abort: {frame}"
    );
    let (frame, _) = shared.handle_line(&format!("{{\"op\":\"lint\",\"session\":{id}}}"));
    assert!(frame.contains("\"ok\":true"), "session died: {frame}");
}

#[test]
fn turn_state_machine_rejects_out_of_order_ops() {
    let (_clock, shared) = shared_with_manual_clock(10_000);
    let id = open(&shared);
    // answer with no pending question
    let (frame, _) = shared.handle_line(&format!(
        "{{\"op\":\"answer\",\"session\":{id},\"choice\":1}}"
    ));
    assert!(frame.contains("no-turn"), "expected no-turn: {frame}");
    // unknown session
    let (frame, _) = shared.handle_line("{\"op\":\"answer\",\"session\":999,\"choice\":1}");
    assert!(frame.contains("unknown-session"), "{frame}");
    // network-only field on a config session
    let (frame, _) = shared.handle_line(&format!(
        "{{\"op\":\"ask\",\"session\":{id},\"router\":\"r1\",\"target\":\"D\",\"intent\":\"x\"}}"
    ));
    assert!(frame.contains("bad-request"), "{frame}");
}

/// A config session's route-map and prefix list plus an ACL the edit
/// never touches, with a shadowed entry so the report has findings.
const RELINT_CFG: &str = "route-map DEMO permit 10\n match ip address prefix-list P1\n set metric 5\n!\nip prefix-list P1 seq 5 permit 10.0.0.0/8\nip access-list extended EDGE\n permit tcp 10.0.0.0/8 any eq 80\n deny tcp 10.1.0.0/16 any eq 80\n permit udp any any eq 53\n";

fn frame_u64(frame: &str, key: &str) -> u64 {
    let doc = clarify_obs::json::parse(frame).expect("frame parses");
    let members = doc.as_object("frame").unwrap();
    members
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| v.as_u64(key).ok())
        .unwrap_or_else(|| panic!("no {key} in {frame}"))
}

fn frame_str(frame: &str, key: &str) -> String {
    let doc = clarify_obs::json::parse(frame).expect("frame parses");
    let members = doc.as_object("frame").unwrap();
    members
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| v.as_str(key).ok())
        .unwrap_or_else(|| panic!("no {key} in {frame}"))
        .to_string()
}

/// The daemon's post-commit `lint` frame is a re-lint against the first
/// lint: its counts equal a cold lint of the committed config, and its
/// dirty/reused split equals the one-shot incremental driver's against
/// the first lint's cache.
#[test]
fn post_commit_lint_frame_matches_cold_lint_and_incremental_stats() {
    use clarify_lint::{lint_config, lint_config_incremental, LintCache};
    use clarify_netconfig::Config;

    let (_clock, shared) = shared_with_manual_clock(60_000);
    let (frame, _) = shared.handle_line(&format!(
        "{{\"op\":\"open\",\"config\":{}}}",
        clarify_obs::json::escape(RELINT_CFG)
    ));
    let id = frame_u64(&frame, "session");
    let lint = format!("{{\"op\":\"lint\",\"session\":{id}}}");

    let (first, _) = shared.handle_line(&lint);
    assert!(first.contains("\"ok\":true"), "first lint failed: {first}");
    let base = Config::parse(RELINT_CFG).unwrap();
    let base_report = lint_config(&base, None).unwrap();
    assert_eq!(
        frame_u64(&first, "diagnostics"),
        base_report.diagnostics.len() as u64
    );

    let (mut frame, _) = shared.handle_line(&format!(
        "{{\"op\":\"ask\",\"session\":{id},\"target\":\"DEMO\",\"intent\":{}}}",
        clarify_obs::json::escape(E1_INTENT)
    ));
    while frame.contains("\"done\":false") {
        frame = shared
            .handle_line(&format!(
                "{{\"op\":\"answer\",\"session\":{id},\"choice\":1}}"
            ))
            .0;
    }
    assert_eq!(frame_str(&frame, "result"), "inserted", "{frame}");
    let committed = Config::parse(&frame_str(&frame, "config")).unwrap();

    let (second, _) = shared.handle_line(&lint);
    let cold = lint_config(&committed, None).unwrap();
    assert_eq!(
        frame_u64(&second, "findings"),
        cold.findings().count() as u64
    );
    assert_eq!(
        frame_u64(&second, "diagnostics"),
        cold.diagnostics.len() as u64
    );
    let prev = LintCache::from_report(&base, &base_report);
    let (_, stats) = lint_config_incremental(&committed, None, &prev).unwrap();
    assert_eq!(frame_u64(&second, "dirty"), stats.dirty_objects as u64);
    assert_eq!(frame_u64(&second, "reused"), stats.reused_objects as u64);
    assert!(stats.reused_objects >= 1, "the ACL is untouched: {second}");
}

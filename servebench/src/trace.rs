//! The traced run: an in-process replay of the exact turns the untraced
//! run sent to its last daemon, in three passes.
//!
//! 1. **Handler pass.** Every request line goes through
//!    [`clarify_serve::Shared::handle_line`]; its time per turn, subtracted
//!    from the untraced round trip, is the transport cost.
//! 2. **Mirror pass.** The same turns are replayed by calling each layer's
//!    public function in the order the session code calls it. Each call
//!    gets a span (layer, name, start, end, parent, turn), kept in memory
//!    and reduced at the end. Every frame the mirror builds is compared
//!    byte for byte with the handler's, so the mirror cannot drift from
//!    the session code.
//! 3. **Counting pass.** The mirror runs again with an enabled
//!    `clarify-obs` registry; only counts are read from it, at turn
//!    boundaries.
//!
//! The handler and mirror passes run in lockstep, turn by turn, so that a
//! change in host speed reaches both alike. Two shorter mirror passes,
//! also in lockstep, replay the first quarter of the timed asks at one
//! thread and at `nproc` threads for `par.scan_speedup`. The passes cover
//! the warm-up and the first third of the timed phase.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use clarify_analysis::{atom_env_hash, PacketSpace, RouteSpace};
use clarify_automata::{AtomSpace, Regex};
use clarify_core::{
    plan_acl_in_space, AclInsertionPlan, AclPlanStep, Choice, ClarifyError, DisambiguationQuestion,
    Disambiguator, InsertionPlan, NetworkSession, NetworkUpdateOutcome, PlanStep, UserOracle,
};
use clarify_lint::{IncrementalLinter, LintReport};
use clarify_llm::{BackendStack, DynBackend, Pipeline, PipelineOutcome};
use clarify_netconfig::{Acl, Config, RouteMap};
use clarify_netsim::TopologySpec;
use clarify_obs::Registry;
use clarify_serve::proto::string_array;
use clarify_serve::{parse_request, Frame, Request, ServerConfig, Shared, SystemClock};

use crate::check;
use crate::client::{Op, TurnLog};
use crate::run::Untraced;
use crate::stats::{mean, median, Metric};

/// The synthesis retry threshold the daemon uses.
const MAX_ATTEMPTS: usize = 3;

/// The regex universes `RouteSpace::new` builds its atom spaces over,
/// copied from `crates/analysis/src/route_space.rs` (they are private).
const COMMUNITY_UNIVERSE: &str = "^[0-9][0-9]?[0-9]?[0-9]?[0-9]?:[0-9][0-9]?[0-9]?[0-9]?[0-9]?$";
const AS_PATH_UNIVERSE: &str =
    "^([0-9][0-9]?[0-9]?[0-9]?[0-9]?( [0-9][0-9]?[0-9]?[0-9]?[0-9]?)*)?$";

/// The layers self time is reported for, named after the crates. Work a
/// layer does inside another layer's public call is charged to the
/// caller: `par` fan-out and most `bdd` work run inside `core` plans and
/// `lint` passes. `netsim` is reported as `netsim.topology_load_ms`.
pub const LAYERS: [&str; 8] = [
    "serve",
    "llm",
    "netconfig",
    "automata",
    "analysis",
    "core",
    "bdd",
    "lint",
];

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer (crate) the call belongs to.
    pub layer: &'static str,
    /// What was called.
    pub name: &'static str,
    /// Start, ns since the pass began.
    pub start_ns: u64,
    /// End, ns since the pass began.
    pub end_ns: u64,
    /// Enclosing span.
    pub parent: Option<usize>,
    /// Index of the turn in the log.
    pub turn: usize,
    /// A side measurement the session code does not make (excluded from
    /// coverage and self time of its parent).
    pub probe: bool,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    turn: usize,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            turn: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, layer: &'static str, name: &'static str) -> usize {
        self.begin_with(layer, name, false)
    }

    fn begin_with(&mut self, layer: &'static str, name: &'static str, probe: bool) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            layer,
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.open.last().copied(),
            turn: self.turn,
            probe,
        });
        self.open.push(id);
        id
    }

    fn end(&mut self, id: usize) {
        let now = self.now();
        self.spans[id].end_ns = now;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close in order");
    }
}

// ---------------------------------------------------------------------
// Counting
// ---------------------------------------------------------------------

/// Counter deltas per turn, from the counting pass.
#[derive(Default)]
struct Counts {
    /// `(turn, counter deltas)` for every turn.
    per_turn: Vec<(usize, BTreeMap<String, u64>)>,
    /// Highest `bdd.unique_nodes` seen at a turn boundary or after a plan.
    peak_live_nodes: i64,
}

struct Counting {
    registry: Arc<Registry>,
    before: BTreeMap<String, u64>,
    counts: Counts,
}

impl Counting {
    fn sample_nodes(&mut self) {
        let live = self.registry.snapshot().gauge("bdd.unique_nodes");
        self.counts.peak_live_nodes = self.counts.peak_live_nodes.max(live);
    }
}

// ---------------------------------------------------------------------
// The mirror
// ---------------------------------------------------------------------

enum Pending {
    RouteMap {
        plan: Box<InsertionPlan>,
        answers: Vec<Choice>,
        llm_calls: usize,
    },
    Acl {
        plan: Box<AclInsertionPlan>,
        answers: Vec<Choice>,
        llm_calls: usize,
    },
}

struct ConfigMirror {
    config: Config,
    pipeline: Pipeline<DynBackend>,
    disambiguator: Disambiguator,
    route_space: Option<(u64, RouteSpace)>,
    packet_space: PacketSpace,
    linter: Option<IncrementalLinter>,
    pending: Option<Pending>,
}

struct NetPending {
    router: String,
    map: String,
    intent: String,
    answers: Vec<Choice>,
}

struct NetMirror {
    session: NetworkSession<DynBackend>,
    pending: Option<NetPending>,
}

enum SessionMirror {
    Config(Box<ConfigMirror>),
    Network(Box<NetMirror>),
}

/// Replays stored answers, then captures the next question (the serve
/// crate's network-session oracle).
struct ReplayOracle {
    answers: VecDeque<Choice>,
    consumed: usize,
    captured: Option<DisambiguationQuestion>,
}

impl UserOracle for ReplayOracle {
    fn choose(&mut self, question: &DisambiguationQuestion) -> Result<Choice, ClarifyError> {
        match self.answers.pop_front() {
            Some(c) => {
                self.consumed += 1;
                Ok(c)
            }
            None => {
                self.captured = Some(question.clone());
                Err(ClarifyError::OracleExhausted)
            }
        }
    }
}

fn question_frame(session: u64, number: usize, pivot: u64, text: &str) -> String {
    let q = Frame::ok(true)
        .u64("number", number as u64)
        .u64("pivot", pivot)
        .str("text", text)
        .finish();
    Frame::ok(true)
        .bool("done", false)
        .u64("session", session)
        .raw("question", q.replacen("\"ok\":true,", "", 1).as_str())
        .finish()
}

/// Per-ask bookkeeping the reduction needs.
#[derive(Default, Clone)]
struct TurnFacts {
    route_space_reused: Option<bool>,
    dfa_states: usize,
    commit_frame_bytes: Option<usize>,
    dirty: Option<(usize, usize)>,
    lint: Option<LintReport>,
}

struct Mirror {
    stack: BackendStack,
    sessions: HashMap<u64, SessionMirror>,
    next_id: u64,
    tracer: Tracer,
    counting: Option<Counting>,
    facts: BTreeMap<usize, TurnFacts>,
}

type TurnResult = Result<String, String>;

impl Mirror {
    fn new(counting: Option<Counting>) -> Mirror {
        Mirror {
            stack: BackendStack::semantic(),
            sessions: HashMap::new(),
            next_id: 1,
            tracer: Tracer::new(),
            counting,
            facts: BTreeMap::new(),
        }
    }

    fn fact(&mut self) -> &mut TurnFacts {
        self.facts.entry(self.tracer.turn).or_default()
    }

    /// Replays one request line, returning the frame it produces.
    fn turn(&mut self, turn: usize, line: &str, op: Op) -> TurnResult {
        self.tracer.turn = turn;
        if let Some(c) = &mut self.counting {
            c.before = c.registry.snapshot().counters;
        }
        let name = match op {
            Op::Ping => "ping",
            Op::Open => "open",
            Op::Ask => "ask",
            Op::Answer => "answer",
            Op::Lint | Op::Relint => "lint",
            Op::Close => "close",
        };
        let id = self.tracer.begin("serve", name);
        let frame = self.dispatch(line);
        self.tracer.end(id);
        if let Some(c) = &mut self.counting {
            let after = c.registry.snapshot().counters;
            let delta = after
                .iter()
                .map(|(k, v)| (k.clone(), v - c.before.get(k).copied().unwrap_or(0)))
                .filter(|(_, v)| *v > 0)
                .collect();
            c.counts.per_turn.push((turn, delta));
            c.sample_nodes();
        }
        frame
    }

    fn dispatch(&mut self, line: &str) -> TurnResult {
        let request = parse_request(line).map_err(|e| e.frame())?;
        match request {
            Request::Ping => Ok(Frame::ok(true).bool("pong", true).finish()),
            Request::Shutdown => Err("shutdown is not replayed".to_string()),
            Request::OpenConfig { config } => {
                let s = self.tracer.begin("netconfig", "parse");
                let config = Config::parse(&config).map_err(|e| e.to_string())?;
                self.tracer.end(s);
                let s = self.tracer.begin("llm", "pipeline_new");
                let pipeline = Pipeline::new(self.stack.build(), MAX_ATTEMPTS);
                self.tracer.end(s);
                let s = self.tracer.begin("analysis", "packet_space_build");
                let packet_space = PacketSpace::new();
                self.tracer.end(s);
                let id = self.insert(SessionMirror::Config(Box::new(ConfigMirror {
                    config,
                    pipeline,
                    disambiguator: Disambiguator::default(),
                    route_space: None,
                    packet_space,
                    linter: None,
                    pending: None,
                })));
                Ok(Frame::ok(true).u64("session", id).finish())
            }
            Request::OpenNetwork {
                topology,
                configs,
                invariants,
            } => {
                let s = self.tracer.begin("netsim", "topology_load");
                let spec = TopologySpec::parse(&topology).map_err(|e| e.to_string())?;
                let loaded = spec
                    .instantiate(&mut |path: &str| {
                        configs
                            .iter()
                            .find(|(p, _)| p == path)
                            .map(|(_, t)| t.clone())
                            .ok_or_else(|| format!("no config supplied for '{path}'"))
                    })
                    .map_err(|e| e.to_string())?;
                self.tracer.end(s);
                let s = self.tracer.begin("core", "network_session_new");
                let session = NetworkSession::new(
                    loaded.network,
                    self.stack.build(),
                    MAX_ATTEMPTS,
                    Disambiguator::default(),
                    invariants,
                )
                .map_err(|e| e.to_string())?;
                self.tracer.end(s);
                let id = self.insert(SessionMirror::Network(Box::new(NetMirror {
                    session,
                    pending: None,
                })));
                Ok(Frame::ok(true).u64("session", id).finish())
            }
            Request::Close { session } => {
                self.sessions.remove(&session).ok_or("unknown session")?;
                Ok(Frame::ok(true).u64("closed", session).finish())
            }
            Request::Ask {
                session,
                target,
                router,
                intent,
            } => {
                let mut s = self.sessions.remove(&session).ok_or("unknown session")?;
                let r = match (&mut s, router) {
                    (SessionMirror::Config(c), None) => {
                        self.config_ask(c, session, &target, &intent)
                    }
                    (SessionMirror::Network(n), Some(router)) => {
                        n.pending = Some(NetPending {
                            router,
                            map: target,
                            intent,
                            answers: Vec::new(),
                        });
                        self.net_progress(n, session)
                    }
                    _ => Err("ask does not fit the session".to_string()),
                };
                self.sessions.insert(session, s);
                r
            }
            Request::Answer { session, choice } => {
                let mut s = self.sessions.remove(&session).ok_or("unknown session")?;
                let r = match &mut s {
                    SessionMirror::Config(c) => {
                        match &mut c.pending {
                            Some(Pending::RouteMap { answers, .. })
                            | Some(Pending::Acl { answers, .. }) => answers.push(choice),
                            None => return Err("no pending turn".to_string()),
                        }
                        self.config_progress(c, session)
                    }
                    SessionMirror::Network(n) => {
                        n.pending
                            .as_mut()
                            .ok_or("no pending turn")?
                            .answers
                            .push(choice);
                        self.net_progress(n, session)
                    }
                };
                self.sessions.insert(session, s);
                r
            }
            Request::Lint { session } => {
                let mut s = self.sessions.remove(&session).ok_or("unknown session")?;
                let r = match &mut s {
                    SessionMirror::Config(c) => self.config_lint(c, session),
                    SessionMirror::Network(_) => Err("lint on a network session".to_string()),
                };
                self.sessions.insert(session, s);
                r
            }
        }
    }

    fn insert(&mut self, s: SessionMirror) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.sessions.insert(id, s);
        id
    }

    /// Times a rebuild of the DFAs `RouteSpace::new` builds for `configs`:
    /// the two universes (constants copied from the analysis crate) and the
    /// atom spaces over the configs' patterns. The program exposes no
    /// timer or counter for its own DFA builds, so this side rebuild stands
    /// in for them; it does not see a change to how `RouteSpace::new`
    /// builds or caches them.
    fn dfa_probe(&mut self, configs: &[&Config]) {
        let s = self.tracer.begin_with("automata", "dfa_build", true);
        let mut comm: Vec<Regex> = Vec::new();
        let mut path: Vec<Regex> = Vec::new();
        for cfg in configs {
            for cl in cfg.community_lists.values() {
                for e in &cl.entries {
                    if !comm.iter().any(|r| r.pattern() == e.regex.pattern()) {
                        comm.push(e.regex.clone());
                    }
                }
            }
            for al in cfg.as_path_lists.values() {
                for e in &al.entries {
                    if !path.iter().any(|r| r.pattern() == e.regex.pattern()) {
                        path.push(e.regex.clone());
                    }
                }
            }
        }
        let mut states = 0;
        for (universe, patterns) in [(COMMUNITY_UNIVERSE, &comm), (AS_PATH_UNIVERSE, &path)] {
            let u = Regex::parse(universe)
                .expect("universe regex is valid")
                .to_dfa();
            states += u.num_states();
            if let Some(atoms) = AtomSpace::build(&u, patterns) {
                states += (0..atoms.len())
                    .map(|i| atoms.atom(i).num_states())
                    .sum::<usize>();
            }
        }
        self.tracer.end(s);
        self.fact().dfa_states += states;
    }

    fn config_ask(
        &mut self,
        c: &mut ConfigMirror,
        session: u64,
        target: &str,
        intent: &str,
    ) -> TurnResult {
        if c.pending.is_some() {
            return Err("turn in flight".to_string());
        }
        let s = self.tracer.begin("llm", "synthesize");
        let outcome = c.pipeline.synthesize(intent).map_err(|e| e.to_string())?;
        self.tracer.end(s);
        match outcome {
            PipelineOutcome::RouteMap {
                snippet,
                map_name,
                llm_calls,
                ..
            } => {
                let s = self.tracer.begin("netconfig", "clone");
                let mut working = c.config.clone();
                self.tracer.end(s);
                if working.route_map(target).is_none() {
                    working
                        .route_maps
                        .insert(target.to_string(), RouteMap::empty(target));
                }
                let s = self.tracer.begin("analysis", "atom_env_hash");
                let hash = atom_env_hash(&[&working, &snippet]);
                self.tracer.end(s);
                let mut space = match c.route_space.take() {
                    Some((h, space)) if h == hash => {
                        self.fact().route_space_reused = Some(true);
                        space
                    }
                    _ => {
                        self.fact().route_space_reused = Some(false);
                        self.dfa_probe(&[&working, &snippet]);
                        let s = self.tracer.begin("analysis", "route_space_build");
                        let space =
                            RouteSpace::new(&[&working, &snippet]).map_err(|e| e.to_string())?;
                        self.tracer.end(s);
                        space
                    }
                };
                let s = self.tracer.begin("core", "plan");
                let plan = c
                    .disambiguator
                    .plan_in_space(&mut space, &working, target, &snippet, &map_name)
                    .map_err(|e| e.to_string())?;
                self.tracer.end(s);
                if let Some(k) = &mut self.counting {
                    k.sample_nodes();
                }
                let s = self.tracer.begin("bdd", "clear_op_caches");
                space.manager().clear_op_caches();
                self.tracer.end(s);
                c.route_space = Some((hash, space));
                c.pending = Some(Pending::RouteMap {
                    plan: Box::new(plan),
                    answers: Vec::new(),
                    llm_calls,
                });
                self.config_progress(c, session)
            }
            PipelineOutcome::Acl {
                entry, llm_calls, ..
            } => {
                let s = self.tracer.begin("netconfig", "clone");
                let mut working = c.config.clone();
                self.tracer.end(s);
                if working.acl(target).is_none() {
                    working.acls.insert(
                        target.to_string(),
                        Acl {
                            name: target.to_string(),
                            entries: Vec::new(),
                        },
                    );
                }
                let s = self.tracer.begin("core", "plan");
                let plan = plan_acl_in_space(
                    &mut c.packet_space,
                    &working,
                    target,
                    &entry,
                    c.disambiguator.strategy,
                )
                .map_err(|e| e.to_string())?;
                self.tracer.end(s);
                if let Some(k) = &mut self.counting {
                    k.sample_nodes();
                }
                let s = self.tracer.begin("bdd", "clear_op_caches");
                c.packet_space.manager().clear_op_caches();
                self.tracer.end(s);
                c.pending = Some(Pending::Acl {
                    plan: Box::new(plan),
                    answers: Vec::new(),
                    llm_calls,
                });
                self.config_progress(c, session)
            }
            PipelineOutcome::Punt { llm_calls, reason } => Ok(Frame::ok(true)
                .bool("done", true)
                .u64("session", session)
                .str("result", "punted")
                .str("reason", &reason)
                .u64("llm_calls", llm_calls as u64)
                .finish()),
        }
    }

    fn commit_frame(
        &mut self,
        session: u64,
        position: usize,
        questions: usize,
        llm_calls: usize,
        config: &Config,
    ) -> String {
        let s = self.tracer.begin("netconfig", "print");
        let text = config.to_string();
        self.tracer.end(s);
        let frame = Frame::ok(true)
            .bool("done", true)
            .u64("session", session)
            .str("result", "inserted")
            .u64("position", position as u64)
            .u64("questions", questions as u64)
            .u64("llm_calls", llm_calls as u64)
            .str("config", &text)
            .finish();
        self.fact().commit_frame_bytes = Some(frame.len() + 1);
        frame
    }

    fn config_progress(&mut self, c: &mut ConfigMirror, session: u64) -> TurnResult {
        let pending = c.pending.take().ok_or("no pending turn")?;
        match pending {
            Pending::RouteMap {
                plan,
                answers,
                llm_calls,
            } => {
                let s = self.tracer.begin("core", "step");
                let step = plan.step(&answers);
                self.tracer.end(s);
                match step {
                    PlanStep::Ask { number, question } => {
                        let frame = question_frame(
                            session,
                            number,
                            question.pivot_seq as u64,
                            &question.to_string(),
                        );
                        c.pending = Some(Pending::RouteMap {
                            plan,
                            answers,
                            llm_calls,
                        });
                        Ok(frame)
                    }
                    PlanStep::Done { .. } => {
                        let s = self.tracer.begin("core", "finish");
                        let result = plan.finish(&answers).map_err(|e| e.to_string())?;
                        self.tracer.end(s);
                        let s = self.tracer.begin("netconfig", "clone");
                        c.config = result.config.clone();
                        self.tracer.end(s);
                        c.route_space = None;
                        Ok(self.commit_frame(
                            session,
                            result.position,
                            result.questions,
                            llm_calls,
                            &result.config,
                        ))
                    }
                }
            }
            Pending::Acl {
                plan,
                answers,
                llm_calls,
            } => {
                let s = self.tracer.begin("core", "step");
                let step = plan.step(&answers);
                self.tracer.end(s);
                match step {
                    AclPlanStep::Ask { number, question } => {
                        let frame = question_frame(
                            session,
                            number,
                            question.pivot_index as u64,
                            &question.to_string(),
                        );
                        c.pending = Some(Pending::Acl {
                            plan,
                            answers,
                            llm_calls,
                        });
                        Ok(frame)
                    }
                    AclPlanStep::Done { .. } => {
                        let s = self.tracer.begin("core", "finish");
                        let result = plan.finish(&answers).map_err(|e| e.to_string())?;
                        self.tracer.end(s);
                        let s = self.tracer.begin("netconfig", "clone");
                        c.config = result.config.clone();
                        self.tracer.end(s);
                        c.route_space = None;
                        Ok(self.commit_frame(
                            session,
                            result.position,
                            result.questions,
                            llm_calls,
                            &result.config,
                        ))
                    }
                }
            }
        }
    }

    fn config_lint(&mut self, c: &mut ConfigMirror, session: u64) -> TurnResult {
        let s = self.tracer.begin("netconfig", "clone");
        let config = c.config.clone();
        self.tracer.end(s);
        let (report, dirty, reused) = match c.linter.take() {
            None => {
                let s = self.tracer.begin("lint", "full");
                let (linter, report) =
                    IncrementalLinter::new(config, None).map_err(|e| e.to_string())?;
                self.tracer.end(s);
                let total = report.diagnostics.len();
                c.linter = Some(linter);
                (report, total, 0)
            }
            Some(mut linter) => {
                let s = self.tracer.begin("lint", "relint");
                let (report, stats) = linter.relint(config, None).map_err(|e| e.to_string())?;
                self.tracer.end(s);
                c.linter = Some(linter);
                self.fact().dirty = Some((stats.dirty_objects, stats.reused_objects));
                (report, stats.dirty_objects, stats.reused_objects)
            }
        };
        if let Some(k) = &mut self.counting {
            k.sample_nodes();
        }
        let frame = Frame::ok(true)
            .u64("session", session)
            .u64("findings", report.findings().count() as u64)
            .u64("diagnostics", report.diagnostics.len() as u64)
            .u64("dirty", dirty as u64)
            .u64("reused", reused as u64)
            .finish();
        self.fact().lint = Some(report);
        Ok(frame)
    }

    fn net_progress(&mut self, n: &mut NetMirror, session: u64) -> TurnResult {
        let p = n.pending.take().ok_or("no pending turn")?;
        let mut oracle = ReplayOracle {
            answers: p.answers.iter().copied().collect(),
            consumed: 0,
            captured: None,
        };
        let s = self.tracer.begin("core", "network_turn");
        let outcome = n
            .session
            .add_stanza_on(&p.router, &p.map, &p.intent, &mut oracle);
        self.tracer.end(s);
        match outcome {
            Err(ClarifyError::OracleExhausted) => {
                let q = oracle.captured.take().ok_or("no captured question")?;
                let frame = question_frame(
                    session,
                    oracle.consumed + 1,
                    q.pivot_seq as u64,
                    &q.to_string(),
                );
                n.pending = Some(p);
                Ok(frame)
            }
            Err(e) => Err(e.to_string()),
            Ok(NetworkUpdateOutcome::Committed {
                questions,
                llm_calls,
            }) => {
                let s = self.tracer.begin("netconfig", "print");
                let config = n
                    .session
                    .network()
                    .router(&p.router)
                    .map(|r| r.config.to_string())
                    .unwrap_or_default();
                self.tracer.end(s);
                let frame = Frame::ok(true)
                    .bool("done", true)
                    .u64("session", session)
                    .str("result", "committed")
                    .u64("questions", questions as u64)
                    .u64("llm_calls", llm_calls as u64)
                    .str("config", &config)
                    .finish();
                self.fact().commit_frame_bytes = Some(frame.len() + 1);
                Ok(frame)
            }
            Ok(NetworkUpdateOutcome::RolledBack {
                violated,
                questions,
                llm_calls,
            }) => Ok(Frame::ok(true)
                .bool("done", true)
                .u64("session", session)
                .str("result", "rolled-back")
                .raw("violated", &string_array(&violated))
                .u64("questions", questions as u64)
                .u64("llm_calls", llm_calls as u64)
                .finish()),
            Ok(NetworkUpdateOutcome::Punted { reason, llm_calls }) => Ok(Frame::ok(true)
                .bool("done", true)
                .u64("session", session)
                .str("result", "punted")
                .str("reason", &reason)
                .u64("llm_calls", llm_calls as u64)
                .finish()),
        }
    }
}

// ---------------------------------------------------------------------
// Passes
// ---------------------------------------------------------------------

/// The handler and mirror passes, run in lockstep.
struct Lockstep {
    /// Per-turn `handle_line` time, ns.
    handler_ns: Vec<u64>,
    /// The handler's frames.
    frames: Vec<String>,
    /// Handler frames that differ from the daemon's.
    handler_mismatch: usize,
    /// The mirror after the last turn.
    mirror: Mirror,
    /// Per-turn mirror time, ns.
    mirror_ns: Vec<u64>,
    /// Mirror frames that differ from the handler's.
    mirror_mismatch: usize,
}

/// Handler and mirror passes in lockstep: every turn goes through
/// `handle_line` and through the mirror back to back, the order
/// alternating by turn, so that a change in host speed during the replay
/// reaches both passes alike and the ratios between them
/// (`trace.overhead_ratio`, `trace.glue_share`) stay clear of it.
fn lockstep_pass(log: &[TurnLog]) -> Lockstep {
    let shared = Shared::new(ServerConfig::default(), Arc::new(SystemClock::new()));
    let mut out = Lockstep {
        handler_ns: Vec::with_capacity(log.len()),
        frames: Vec::with_capacity(log.len()),
        handler_mismatch: 0,
        mirror: Mirror::new(None),
        mirror_ns: Vec::with_capacity(log.len()),
        mirror_mismatch: 0,
    };
    for (i, t) in log.iter().enumerate() {
        let handler = || {
            let start = Instant::now();
            let (frame, _) = shared.handle_line(&t.line);
            (frame, start.elapsed().as_nanos() as u64)
        };
        let mirror_turn = |m: &mut Mirror| {
            let start = Instant::now();
            let frame = m.turn(i, &t.line, t.op);
            (frame, start.elapsed().as_nanos() as u64)
        };
        let ((frame, handler_ns), (mirrored, mirror_ns)) = if i % 2 == 0 {
            let h = handler();
            (h, mirror_turn(&mut out.mirror))
        } else {
            let m = mirror_turn(&mut out.mirror);
            (handler(), m)
        };
        out.handler_mismatch += usize::from(frame != t.frame);
        out.mirror_mismatch += usize::from(mirrored.as_ref() != Ok(&frame));
        out.handler_ns.push(handler_ns);
        out.mirror_ns.push(mirror_ns);
        out.frames.push(frame);
    }
    out
}

/// The first `limit` turns through two mirrors in lockstep, one at one
/// thread and one at `threads`, the order alternating by turn, for
/// `par.scan_speedup`.
fn scan_pair(log: &[TurnLog], limit: usize, threads: usize) -> (Mirror, Mirror) {
    let mut single = Mirror::new(None);
    let mut multi = Mirror::new(None);
    for (i, t) in log.iter().enumerate().take(limit) {
        for one in [i % 2 == 0, i % 2 != 0] {
            clarify_par::set_threads(if one { 1 } else { threads });
            let m = if one { &mut single } else { &mut multi };
            let _ = m.turn(i, &t.line, t.op);
        }
    }
    clarify_par::set_threads(threads);
    (single, multi)
}

/// Mirror pass over the first `limit` turns. Returns the mirror (spans,
/// facts, counts), the wall time of each turn and frame mismatches
/// against `frames`.
fn mirror_pass(
    log: &[TurnLog],
    frames: &[String],
    limit: usize,
    counting: Option<Counting>,
) -> (Mirror, Vec<u64>, usize) {
    let mut mirror = Mirror::new(counting);
    let mut times = Vec::with_capacity(limit);
    let mut mismatches = 0;
    for (i, t) in log.iter().enumerate().take(limit) {
        let start = Instant::now();
        let frame = mirror.turn(i, &t.line, t.op);
        times.push(start.elapsed().as_nanos() as u64);
        match frame {
            Ok(f) if f == frames[i] => {}
            _ => mismatches += 1,
        }
    }
    (mirror, times, mismatches)
}

/// Replays the request lines with the handler and the mirror, and checks
/// that the mirror's frames are the handler's, byte for byte. Returns the
/// number of mismatching frames (used by the benchmark's tests).
pub fn mirror_mismatches(lines: &[(String, Op)]) -> usize {
    let log: Vec<TurnLog> = lines
        .iter()
        .map(|(line, op)| TurnLog {
            line: line.clone(),
            frame: String::new(),
            rtt_ns: 0,
            op: *op,
            timed: true,
            insert: None,
        })
        .collect();
    lockstep_pass(&log).mirror_mismatch
}

/// One E1 network session (open, one update with its answers, close),
/// for the netsim and network-turn metrics of workloads without network
/// sessions.
fn e1_probe() -> (Vec<u64>, Vec<u64>) {
    let mut topo = Vec::new();
    let mut turns = Vec::new();
    for _ in 0..5 {
        let mut m = Mirror::new(None);
        let _ = m.turn(0, &crate::client::open_network_line(), Op::Open);
        let intent = "Write a route-map stanza that denies routes originating from AS 666.";
        let ask = format!(
            "{{\"op\":\"ask\",\"session\":1,\"router\":\"R1\",\"target\":\"ISP_IN\",\"intent\":\"{intent}\"}}"
        );
        let mut frame = m.turn(1, &ask, Op::Ask).unwrap_or_default();
        let mut k = 2;
        while frame.contains("\"done\":false") {
            frame = m
                .turn(k, r#"{"op":"answer","session":1,"choice":1}"#, Op::Answer)
                .unwrap_or_default();
            k += 1;
        }
        for s in &m.tracer.spans {
            match (s.layer, s.name) {
                ("netsim", "topology_load") => topo.push(s.ns()),
                ("core", "network_turn") => turns.push(s.ns()),
                _ => {}
            }
        }
    }
    (topo, turns)
}

// ---------------------------------------------------------------------
// Reduction
// ---------------------------------------------------------------------

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn spans_named<'a>(
    spans: &'a [Span],
    timed: &'a [bool],
    layer: &'a str,
    name: &'a str,
) -> impl Iterator<Item = &'a Span> {
    spans
        .iter()
        .filter(move |s| timed[s.turn] && s.layer == layer && s.name == name)
}

fn median_ms(spans: &[Span], timed: &[bool], layer: &str, name: &str) -> Option<f64> {
    let v: Vec<f64> = spans_named(spans, timed, layer, name)
        .map(|s| ms(s.ns()))
        .collect();
    (!v.is_empty()).then(|| median(&v))
}

/// Self time per layer over the timed turns, in ms per timed turn, and
/// the share of handler time the turn spans' children do not cover.
fn self_times(spans: &[Span], timed: &[bool]) -> (BTreeMap<&'static str, f64>, u64) {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let (Some(p), false) = (s.parent, s.probe) {
            child_ns[p] += s.ns();
        }
    }
    let mut per_layer: BTreeMap<&'static str, f64> = LAYERS.iter().map(|l| (*l, 0.0)).collect();
    let mut covered = 0u64;
    for (i, s) in spans.iter().enumerate() {
        if !timed[s.turn] {
            continue;
        }
        let own = if s.probe {
            s.ns()
        } else {
            s.ns().saturating_sub(child_ns[i])
        };
        *per_layer.entry(s.layer).or_default() += ms(own);
        if s.parent.is_some_and(|p| spans[p].parent.is_none()) && !s.probe {
            covered += s.ns();
        }
    }
    (per_layer, covered)
}

fn counter_sum(counts: &Counts, timed: &[bool], ops: &[Op], log: &[TurnLog], name: &str) -> u64 {
    counts
        .per_turn
        .iter()
        .filter(|(t, _)| timed[*t] && ops.contains(&log[*t].op))
        .map(|(_, d)| d.get(name).copied().unwrap_or(0))
        .sum()
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Runs the traced replay of `run` and reduces it to the per-layer
/// metrics. The flag is false when a mirror or handler frame differs from
/// the daemon's.
pub fn traced(
    run: &Untraced,
    threads: usize,
    ref_start_ms: f64,
) -> Result<(Vec<Metric>, bool), String> {
    // The passes replay the warm-up and the first third of the timed
    // phase, which keeps a traced run within about three times an
    // untraced one.
    let all_timed = run.attempted() as f64;
    let timed_turns: Vec<usize> = (0..run.data.log.len())
        .filter(|&i| run.data.log[i].timed)
        .collect();
    let end = timed_turns.get(timed_turns.len() / 3).map_or(0, |&i| i + 1);
    let log = &run.data.log[..end];
    let timed: Vec<bool> = log.iter().map(|t| t.timed).collect();
    clarify_par::set_threads(threads);

    // 1, 2. Handler and mirror passes.
    let Lockstep {
        handler_ns,
        frames,
        handler_mismatch,
        mirror,
        mirror_ns,
        mirror_mismatch,
    } = lockstep_pass(log);
    // 3. Counting pass.
    let registry = clarify_obs::install(Registry::new());
    let counting = Counting {
        registry: registry.clone(),
        before: BTreeMap::new(),
        counts: Counts::default(),
    };
    let (counted, _, count_mismatch) = mirror_pass(log, &frames, log.len(), Some(counting));
    clarify_obs::install(Registry::disabled());
    let counts = counted
        .counting
        .expect("counting pass keeps its counts")
        .counts;
    // 4. Scan passes over the first quarter of the timed asks, at one
    // thread and at `threads`, in lockstep.
    let timed_asks: Vec<usize> = (0..log.len())
        .filter(|&i| timed[i] && log[i].op == Op::Ask)
        .collect();
    let quarter = timed_asks.len().div_ceil(4).max(1);
    let limit = timed_asks.get(quarter - 1).map(|&i| i + 1).unwrap_or(0);
    let (single, multi) = scan_pair(log, limit, threads);

    let spans = &mirror.tracer.spans;
    // Full diagnostic sets of the mirror's linter, which produced the
    // daemon's lint frames byte for byte, against the checker's one-shot
    // lints of the same configurations.
    let mut lint_sets = 0;
    let mut lint_set_mismatch = 0;
    for l in run.data.lints.iter().filter(|l| l.turn < log.len()) {
        let (Some(config), Some(want)) = (
            &l.config,
            l.config
                .as_ref()
                .and_then(|c| run.report.one_shot.get(&c.content_hash())),
        ) else {
            continue;
        };
        lint_sets += 1;
        let got = mirror.facts.get(&l.turn).and_then(|f| f.lint.as_ref());
        if got.map(check::diagnostic_keys).as_ref() != Some(want) {
            lint_set_mismatch += 1;
            eprintln!(
                "trace: turn {}: incremental diagnostics differ from the one-shot lint of a {}-rule config",
                l.turn,
                crate::client::rules(config)
            );
        }
    }
    let ok = handler_mismatch == 0
        && mirror_mismatch == 0
        && count_mismatch == 0
        && lint_set_mismatch == 0;
    eprintln!(
        "trace: {} turns replayed; frame mismatches: handler {handler_mismatch}, mirror {mirror_mismatch}, counting {count_mismatch}; diagnostic sets differing from one-shot lint: {lint_set_mismatch} of {lint_sets}; {} spans",
        log.len(),
        spans.len()
    );

    let timed_idx = |op: Op| -> Vec<usize> {
        (0..log.len())
            .filter(|&i| timed[i] && log[i].op == op)
            .collect()
    };
    let handler_median = |op: Op| -> f64 {
        let v: Vec<f64> = timed_idx(op).iter().map(|&i| ms(handler_ns[i])).collect();
        median(&v)
    };
    let n_asks = timed_idx(Op::Ask).len() as f64;
    let n_lints = (timed_idx(Op::Lint).len() + timed_idx(Op::Relint).len()) as f64;
    let n_turns = timed.iter().filter(|t| **t).count() as f64;

    // serve
    let transport: Vec<f64> = timed_idx(Op::Answer)
        .iter()
        .map(|&i| ms(log[i].rtt_ns.saturating_sub(handler_ns[i])))
        .collect();
    let commit_kb: Vec<f64> = mirror
        .facts
        .iter()
        .filter(|(t, _)| timed[**t])
        .filter_map(|(_, f)| f.commit_frame_bytes)
        .map(|b| b as f64 / 1024.0)
        .collect();

    // analysis facts
    let reuse: Vec<bool> = mirror
        .facts
        .iter()
        .filter(|(t, _)| timed[**t])
        .filter_map(|(_, f)| f.route_space_reused)
        .collect();
    let dfa_states: Vec<f64> = mirror
        .facts
        .iter()
        .filter(|(t, f)| timed[**t] && f.route_space_reused == Some(false))
        .map(|(_, f)| f.dfa_states as f64)
        .collect();
    let dirty: Vec<(usize, usize)> = mirror
        .facts
        .iter()
        .filter(|(t, _)| timed[**t])
        .filter_map(|(_, f)| f.dirty)
        .collect();

    // core
    let plan_total: f64 = spans_named(spans, &timed, "core", "plan")
        .map(|s| ms(s.ns()))
        .sum();
    // Plan spans over the ask turns of the same (mirror) pass, so that a
    // change in host speed between passes does not move the share.
    let ask_mirror_total: f64 = timed_idx(Op::Ask).iter().map(|&i| ms(mirror_ns[i])).sum();
    let step_us: Vec<f64> = spans_named(spans, &timed, "core", "step")
        .map(|s| s.ns() as f64 / 1e3)
        .collect();
    let plan_ns = |m: &Mirror| -> BTreeMap<usize, u64> {
        m.tracer
            .spans
            .iter()
            .filter(|s| s.layer == "core" && s.name == "plan" && timed[s.turn])
            .map(|s| (s.turn, s.ns()))
            .collect()
    };
    let single_plan = plan_ns(&single);
    let (mut one, mut many) = (0.0, 0.0);
    for (turn, ns) in plan_ns(&multi) {
        if let Some(ns1) = single_plan.get(&turn) {
            one += ms(*ns1);
            many += ms(ns);
        }
    }

    // netsim / network turns: from the workload, else from the E1 probe.
    let mut topo: Vec<f64> = spans_named(spans, &timed, "netsim", "topology_load")
        .map(|s| ms(s.ns()))
        .collect();
    let mut net_turns: Vec<f64> = spans_named(spans, &timed, "core", "network_turn")
        .map(|s| ms(s.ns()))
        .collect();
    if topo.is_empty() || net_turns.is_empty() {
        let (t, n) = e1_probe();
        if topo.is_empty() {
            topo = t.into_iter().map(ms).collect();
        }
        if net_turns.is_empty() {
            net_turns = n.into_iter().map(ms).collect();
        }
    }

    let cs = |ops: &[Op], name: &str| counter_sum(&counts, &timed, ops, log, name) as f64;
    let ask_ops = [Op::Ask, Op::Answer];
    let lint_ops = [Op::Lint, Op::Relint];
    let all_ops = [
        Op::Ping,
        Op::Open,
        Op::Ask,
        Op::Answer,
        Op::Lint,
        Op::Relint,
        Op::Close,
    ];
    let insertions = cs(&all_ops, "disambiguator.insertions");

    let (self_ms, covered_ns) = self_times(spans, &timed);
    let handler_timed_total: u64 = (0..log.len())
        .filter(|&i| timed[i])
        .map(|i| handler_ns[i])
        .sum();
    let mirror_timed_total: u64 = (0..log.len())
        .filter(|&i| timed[i])
        .map(|i| mirror_ns[i])
        .sum();

    let or0 = |v: Option<f64>| v.unwrap_or(0.0);
    let mut m = vec![
        Metric::new("serve.handler_ms.open", handler_median(Op::Open), "ms"),
        Metric::new("serve.handler_ms.ask", handler_median(Op::Ask), "ms"),
        Metric::new("serve.handler_ms.answer", handler_median(Op::Answer), "ms"),
        Metric::new("serve.handler_ms.lint", handler_median(Op::Lint), "ms"),
        Metric::new("serve.transport_ms.answer", median(&transport), "ms"),
        Metric::new("serve.commit_frame_kb", mean(&commit_kb), "KB"),
        Metric::new(
            "llm.synthesize_ms",
            or0(median_ms(spans, &timed, "llm", "synthesize")),
            "ms",
        ),
        Metric::new(
            "llm.calls_per_ask",
            ratio(cs(&ask_ops, "pipeline.llm_calls"), n_asks),
            "count",
        ),
        Metric::new(
            "llm.retries_per_ask",
            ratio(cs(&ask_ops, "pipeline.retries"), n_asks),
            "count",
        ),
        Metric::new(
            "llm.punts_per_ask",
            ratio(cs(&ask_ops, "pipeline.punts"), n_asks),
            "count",
        ),
        Metric::new(
            "netconfig.parse_ms",
            or0(median_ms(spans, &timed, "netconfig", "parse")),
            "ms",
        ),
        Metric::new(
            "netconfig.clone_ms",
            or0(median_ms(spans, &timed, "netconfig", "clone")),
            "ms",
        ),
        Metric::new(
            "netconfig.print_ms",
            or0(median_ms(spans, &timed, "netconfig", "print")),
            "ms",
        ),
        Metric::new(
            "automata.dfa_build_ms",
            or0(median_ms(spans, &timed, "automata", "dfa_build")),
            "ms",
        ),
        Metric::new("automata.dfa_states", mean(&dfa_states), "count"),
        Metric::new(
            "analysis.route_space_build_ms",
            or0(median_ms(spans, &timed, "analysis", "route_space_build")),
            "ms",
        ),
        Metric::new(
            "analysis.packet_space_build_ms",
            or0(median_ms(spans, &timed, "analysis", "packet_space_build")),
            "ms",
        ),
        Metric::new(
            "analysis.route_space_reuse_ratio",
            ratio(
                reuse.iter().filter(|r| **r).count() as f64,
                reuse.len() as f64,
            ),
            "ratio",
        ),
        Metric::new(
            "analysis.fire_cache_hit_ratio",
            ratio(
                cs(&lint_ops, "incr.cache_hits"),
                cs(&lint_ops, "incr.cache_hits") + cs(&lint_ops, "incr.cache_misses"),
            ),
            "ratio",
        ),
        Metric::new(
            "core.plan_ms",
            or0(median_ms(spans, &timed, "core", "plan")),
            "ms",
        ),
        Metric::new(
            "core.plan_share_of_ask",
            ratio(plan_total, ask_mirror_total),
            "ratio",
        ),
        Metric::new("core.step_us", median(&step_us), "us"),
        Metric::new(
            "core.finish_ms",
            or0(median_ms(spans, &timed, "core", "finish")),
            "ms",
        ),
        Metric::new(
            "core.candidates_per_insert",
            ratio(cs(&all_ops, "disambiguator.overlap_candidates"), insertions),
            "count",
        ),
        Metric::new(
            "core.pruned_per_insert",
            ratio(cs(&all_ops, "disambiguator.candidates_pruned"), insertions),
            "count",
        ),
        Metric::new(
            "core.comparisons_per_insert",
            ratio(cs(&all_ops, "disambiguator.comparisons"), insertions),
            "count",
        ),
        Metric::new(
            "core.questions_per_insert",
            ratio(cs(&all_ops, "disambiguator.questions_asked"), insertions),
            "count",
        ),
        Metric::new("core.network_turn_ms", median(&net_turns), "ms"),
    ];
    for (suffix, ops, n) in [
        ("ask", &ask_ops[..], n_asks),
        ("lint", &lint_ops[..], n_lints),
    ] {
        let hits = cs(ops, "bdd.ite_cache_hits");
        let misses = cs(ops, "bdd.ite_cache_misses");
        m.push(Metric::new(
            format!("bdd.ite_calls_per_{suffix}"),
            ratio(cs(ops, "bdd.ite_calls"), n),
            "count",
        ));
        m.push(Metric::new(
            format!("bdd.cache_hit_ratio_{suffix}"),
            ratio(hits, hits + misses),
            "ratio",
        ));
        m.push(Metric::new(
            format!("bdd.computed_evictions_per_{suffix}"),
            ratio(cs(ops, "bdd.computed_evictions"), n),
            "count",
        ));
        m.push(Metric::new(
            format!("bdd.unique_probes_per_{suffix}"),
            ratio(cs(ops, "bdd.unique_probes"), n),
            "count",
        ));
    }
    let relint_dirty: usize = dirty.iter().map(|d| d.0).sum();
    let relint_reused: usize = dirty.iter().map(|d| d.1).sum();
    m.extend([
        Metric::new(
            "bdd.peak_live_nodes",
            counts.peak_live_nodes as f64,
            "count",
        ),
        Metric::new("bdd.gc_runs", cs(&all_ops, "bdd.gc.runs"), "count"),
        Metric::new(
            "bdd.gc_freed_nodes",
            cs(&all_ops, "bdd.gc.freed_nodes"),
            "count",
        ),
        Metric::new(
            "bdd.reorder_swaps",
            cs(&all_ops, "bdd.reorder.swaps"),
            "count",
        ),
        Metric::new(
            "lint.full_ms",
            or0(median_ms(spans, &timed, "lint", "full")),
            "ms",
        ),
        Metric::new(
            "lint.relint_ms",
            or0(median_ms(spans, &timed, "lint", "relint")),
            "ms",
        ),
        Metric::new(
            "lint.dirty_objects",
            ratio(relint_dirty as f64, dirty.len() as f64),
            "count",
        ),
        Metric::new(
            "lint.reuse_ratio",
            ratio(relint_reused as f64, (relint_dirty + relint_reused) as f64),
            "ratio",
        ),
        Metric::new(
            "par.pool_runs_per_ask",
            ratio(cs(&ask_ops, "par.pool_runs"), n_asks),
            "count",
        ),
        Metric::new(
            "par.inline_runs_per_ask",
            ratio(cs(&ask_ops, "par.inline_runs"), n_asks),
            "count",
        ),
        Metric::new("par.scan_speedup", ratio(one, many), "ratio"),
        Metric::new("netsim.topology_load_ms", median(&topo), "ms"),
        Metric::new("proc.cpu_ms_per_turn", ratio(run.cpu_ms, all_timed), "ms"),
        Metric::new(
            "trace.overhead_ratio",
            ratio(mirror_timed_total as f64, handler_timed_total as f64),
            "ratio",
        ),
        Metric::new(
            "trace.glue_share",
            1.0 - ratio(covered_ns as f64, handler_timed_total as f64),
            "ratio",
        ),
    ]);
    for layer in LAYERS {
        m.push(Metric::new(
            format!("self_ms_per_turn.{layer}"),
            ratio(self_ms.get(layer).copied().unwrap_or(0.0), n_turns),
            "ms",
        ));
    }
    m.push(Metric::new("host.ref_ms", ref_start_ms, "ms"));
    Ok((m, ok))
}

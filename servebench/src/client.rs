//! The closed-loop client: one daemon process, one loopback NDJSON
//! connection, one request in flight. Every question is answered at once
//! from the intended configuration.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use clarify_core::Choice;
use clarify_llm::{AclIntent, RouteMapIntent};
use clarify_netconfig::{insert_acl_entry, insert_route_map_stanza, Config, RouteMapMatch};
use clarify_obs::json::{self, Value};
use clarify_serve::{ServerConfig, Shared, SystemClock};

use crate::gen::{self, Action, Insert, Kind};
use crate::oracle::{self, Witness};

/// A running `clarify serve` daemon.
pub struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Starts `clarify --threads <threads> serve --addr 127.0.0.1:0` and
    /// waits for its `listening on` line.
    pub fn spawn(bin: &Path, threads: usize) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args([
                "--threads",
                &threads.to_string(),
                "serve",
                "--addr",
                "127.0.0.1:0",
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = match read {
            Ok(n) if n > 0 => line
                .trim()
                .strip_prefix("listening on ")
                .map(str::to_string),
            _ => None,
        };
        match addr {
            Some(addr) => Ok(Daemon { child, addr }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("daemon did not report its address (got {line:?})"))
            }
        }
    }

    /// Opens the client connection.
    pub fn connect(&self) -> Result<Conn, String> {
        let stream = TcpStream::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { stream, reader })
    }

    fn proc_file(&self, name: &str) -> Option<String> {
        std::fs::read_to_string(format!("/proc/{}/{name}", self.child.id())).ok()
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = self.proc_file("status")?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()?;
        Some(kb / 1024.0)
    }

    /// User + system CPU time consumed so far, in milliseconds (Linux
    /// reports it in ticks of 10 ms).
    pub fn cpu_ms(&self) -> Option<f64> {
        let stat = self.proc_file("stat")?;
        let rest = &stat[stat.rfind(')')? + 2..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let utime: f64 = fields.get(11)?.parse().ok()?;
        let stime: f64 = fields.get(12)?.parse().ok()?;
        Some((utime + stime) * 10.0)
    }

    /// Sends `shutdown` and waits for the process to exit.
    pub fn shutdown(mut self, conn: Conn) -> Result<(), String> {
        let mut conn = conn;
        let _ = conn.turn(r#"{"op":"shutdown"}"#);
        drop(conn);
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return Ok(()),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("daemon did not exit after shutdown".to_string());
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One NDJSON connection.
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

/// A request/response channel to a daemon.
pub trait Transport {
    /// One round trip; returns the response line and its wall time in ns.
    fn turn(&mut self, line: &str) -> Result<(String, u64), String>;
}

/// The daemon's request handler in this process, for tests and replays.
pub struct Local(pub Shared);

impl Local {
    /// A handler with the daemon's default configuration.
    pub fn new() -> Local {
        Local(Shared::new(
            ServerConfig::default(),
            Arc::new(SystemClock::new()),
        ))
    }
}

impl Default for Local {
    fn default() -> Local {
        Local::new()
    }
}

impl Transport for Local {
    fn turn(&mut self, line: &str) -> Result<(String, u64), String> {
        let start = Instant::now();
        let (frame, _) = self.0.handle_line(line);
        Ok((frame, start.elapsed().as_nanos() as u64))
    }
}

impl Transport for Conn {
    fn turn(&mut self, line: &str) -> Result<(String, u64), String> {
        let mut out = String::with_capacity(line.len() + 1);
        out.push_str(line);
        out.push('\n');
        let start = Instant::now();
        self.stream
            .write_all(out.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut resp = String::new();
        self.reader
            .read_line(&mut resp)
            .map_err(|e| format!("receive: {e}"))?;
        let ns = start.elapsed().as_nanos() as u64;
        if resp.is_empty() {
            return Err("daemon closed the connection".to_string());
        }
        resp.truncate(resp.trim_end().len());
        Ok((resp, ns))
    }
}

/// What a request did, for per-operation statistics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `ping`.
    Ping,
    /// `open`.
    Open,
    /// `ask`.
    Ask,
    /// `answer`.
    Answer,
    /// First lint of a session (a full lint).
    Lint,
    /// A later lint of the same session (incremental).
    Relint,
    /// `close`.
    Close,
}

/// One request sent to the daemon, in order.
#[derive(Clone, Debug)]
pub struct TurnLog {
    /// The request line.
    pub line: String,
    /// The response frame.
    pub frame: String,
    /// Client-side round trip.
    pub rtt_ns: u64,
    /// Request kind.
    pub op: Op,
    /// Whether the turn belongs to the timed phase.
    pub timed: bool,
    /// Index of the insert (in [`RunData::inserts`]) the turn belongs to.
    pub insert: Option<usize>,
}

/// One insertion as the client saw it, for the checker.
#[derive(Clone, Debug)]
pub struct InsertRecord {
    /// What was asked.
    pub spec: Insert,
    /// The intended list after the insert (with the lists it references;
    /// the whole router config for network sessions).
    pub intended: Config,
    /// The same slice of the configuration the daemon committed.
    pub committed: Option<Config>,
    /// Every question's witness.
    pub witnesses: Vec<Witness>,
    /// Whether an answer was deliberately wrong (`--self-test`).
    pub planted: bool,
    /// Questions answered.
    pub questions: u64,
    /// LLM calls the daemon reported.
    pub llm_calls: u64,
    /// A problem the client saw while driving the turn.
    pub error: Option<String>,
    /// Part of the timed phase.
    pub timed: bool,
}

/// Configurations with more rules than this are large: the checker's
/// one-shot lint of one costs as much as the daemon's full lint (a
/// quarter to half a second).
pub const LARGE_CONFIG_RULES: usize = 150;
/// Of the lints of large configurations, the checker re-lints the first
/// and then every `max(LINT_CHECK_STRIDE, rules / 64)`-th.
pub const LINT_CHECK_STRIDE: usize = 4;

/// Rules (ACL entries, route-map stanzas, list entries) in `cfg`.
pub fn rules(cfg: &Config) -> usize {
    cfg.acls.values().map(|a| a.entries.len()).sum::<usize>()
        + cfg
            .route_maps
            .values()
            .map(|m| m.stanzas.len())
            .sum::<usize>()
        + cfg
            .prefix_lists
            .values()
            .map(|l| l.entries.len())
            .sum::<usize>()
        + cfg
            .as_path_lists
            .values()
            .map(|l| l.entries.len())
            .sum::<usize>()
        + cfg
            .community_lists
            .values()
            .map(|l| l.entries.len())
            .sum::<usize>()
}

/// The list `target` of `cfg` with every list its rules reference.
pub fn slice(cfg: &Config, kind: Kind, target: &str) -> Config {
    let mut out = Config::new();
    match kind {
        Kind::Acl => {
            if let Some(acl) = cfg.acls.get(target) {
                out.acls.insert(target.to_string(), acl.clone());
            }
        }
        Kind::RouteMap => {
            let Some(map) = cfg.route_maps.get(target) else {
                return out;
            };
            for m in map.stanzas.iter().flat_map(|s| &s.matches) {
                match m {
                    RouteMapMatch::PrefixList(names) => {
                        for n in names {
                            if let Some(l) = cfg.prefix_lists.get(n) {
                                out.prefix_lists.insert(n.clone(), l.clone());
                            }
                        }
                    }
                    RouteMapMatch::AsPath(names) => {
                        for n in names {
                            if let Some(l) = cfg.as_path_lists.get(n) {
                                out.as_path_lists.insert(n.clone(), l.clone());
                            }
                        }
                    }
                    RouteMapMatch::Community(names) => {
                        for n in names {
                            if let Some(l) = cfg.community_lists.get(n) {
                                out.community_lists.insert(n.clone(), l.clone());
                            }
                        }
                    }
                    _ => {}
                }
            }
            out.route_maps.insert(target.to_string(), map.clone());
        }
    }
    out
}

/// One lint turn, for the checker.
#[derive(Clone, Debug)]
pub struct LintRecord {
    /// The configuration the daemon linted, when it is kept for the
    /// checker (see [`LINT_CHECK_STRIDE`]).
    pub config: Option<Arc<Config>>,
    /// `findings` from the frame.
    pub findings: u64,
    /// `diagnostics` from the frame.
    pub diagnostics: u64,
    /// Index of the turn in the log.
    pub turn: usize,
    /// A problem with the frame.
    pub error: Option<String>,
}

/// Everything one daemon conversation produced.
#[derive(Default)]
pub struct RunData {
    /// Every request, in order.
    pub log: Vec<TurnLog>,
    /// Every insert.
    pub inserts: Vec<InsertRecord>,
    /// Every lint.
    pub lints: Vec<LintRecord>,
    /// Turns whose frame was not the expected success.
    pub frame_errors: Vec<(usize, String)>,
    /// Inserts given at least one deliberately wrong answer
    /// (`--self-test`).
    pub planted: usize,
}

fn parse_frame(frame: &str) -> Result<Vec<(String, Value)>, String> {
    match json::parse(frame) {
        Ok(Value::Object(members)) => Ok(members),
        _ => Err(format!("unparseable frame: {frame}")),
    }
}

fn member<'a>(m: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    m.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn member_u64(m: &[(String, Value)], key: &str) -> u64 {
    member(m, key).and_then(|v| v.as_u64(key).ok()).unwrap_or(0)
}

fn member_str<'a>(m: &'a [(String, Value)], key: &str) -> Option<&'a str> {
    member(m, key).and_then(|v| v.as_str(key).ok())
}

fn is_ok(m: &[(String, Value)]) -> bool {
    matches!(member(m, "ok"), Some(Value::Bool(true)))
}

/// The intended configuration after `spec`: the intent's rule at the
/// intended slot of `base`.
pub fn intended_after(base: &Config, spec: &Insert) -> Result<Config, String> {
    match spec.kind {
        Kind::Acl => {
            let entry = AclIntent::parse(&spec.intent)
                .map_err(|e| e.to_string())?
                .to_entry();
            insert_acl_entry(base, &spec.target, entry, spec.slot).map_err(|e| e.to_string())
        }
        Kind::RouteMap => {
            let (snippet, name) = RouteMapIntent::parse(&spec.intent)
                .and_then(|i| i.to_snippet())
                .map_err(|e| e.to_string())?;
            insert_route_map_stanza(base, &spec.target, &snippet, &name, spec.slot)
                .map(|(cfg, _)| cfg)
                .map_err(|e| e.to_string())
        }
    }
}

/// The E1 router configs, parsed.
pub fn e1_router_configs() -> BTreeMap<String, Arc<Config>> {
    let path_of = |router: &str| format!("e1_{}.cfg", router.to_lowercase());
    ["R1", "R2", "M"]
        .iter()
        .map(|r| {
            let text = gen::E1_CONFIGS
                .iter()
                .find(|(p, _)| *p == path_of(r))
                .expect("E1 config present")
                .1;
            (
                r.to_string(),
                Arc::new(Config::parse(text).expect("E1 config parses")),
            )
        })
        .collect()
}

/// The `open` request of a network session over E1.
pub fn open_network_line() -> String {
    let configs: Vec<String> = gen::E1_CONFIGS
        .iter()
        .map(|(p, t)| format!("{}:{}", json::escape(p), json::escape(t)))
        .collect();
    format!(
        "{{\"op\":\"open\",\"topology\":{},\"configs\":{{{}}},\"invariants\":{}}}",
        json::escape(gen::E1_TOPOLOGY),
        configs.join(","),
        gen::E1_INVARIANTS
    )
}

/// The client's view of one open session.
type SessionState = (
    Option<u64>,
    Option<Arc<Config>>,
    Option<BTreeMap<String, Arc<Config>>>,
    bool,
);

/// Drives scripted actions over one connection.
pub struct Runner<T: Transport = Conn> {
    conn: T,
    /// What the conversation produced.
    pub data: RunData,
    session: Option<u64>,
    current: Option<Arc<Config>>,
    network: Option<BTreeMap<String, Arc<Config>>>,
    linted: bool,
    large_lints: usize,
    /// Sessions suspended by a nested open, resumed by its close.
    suspended: Vec<SessionState>,
    timed: bool,
    /// Plant a wrong answer on every `n`-th question (0 = never).
    pub plant_every: usize,
    questions_seen: usize,
}

impl<T: Transport> Runner<T> {
    /// A runner over an open connection.
    pub fn new(conn: T) -> Runner<T> {
        Runner {
            conn,
            data: RunData::default(),
            session: None,
            current: None,
            network: None,
            linted: false,
            large_lints: 0,
            suspended: Vec::new(),
            timed: false,
            plant_every: 0,
            questions_seen: 0,
        }
    }

    /// Gives the connection back (for the shutdown).
    pub fn into_conn(self) -> (T, RunData) {
        (self.conn, self.data)
    }

    /// Marks subsequent turns as timed.
    pub fn set_timed(&mut self, timed: bool) {
        self.timed = timed;
    }

    fn send(
        &mut self,
        line: String,
        op: Op,
        insert: Option<usize>,
    ) -> Result<(usize, Vec<(String, Value)>), String> {
        let (frame, rtt_ns) = self.conn.turn(&line)?;
        let members = parse_frame(&frame);
        let idx = self.data.log.len();
        self.data.log.push(TurnLog {
            line,
            frame,
            rtt_ns,
            op,
            timed: self.timed,
            insert,
        });
        let members = members?;
        if !is_ok(&members) {
            self.data
                .frame_errors
                .push((idx, self.data.log[idx].frame.clone()));
        }
        Ok((idx, members))
    }

    fn session_id(&self) -> Result<u64, String> {
        self.session
            .ok_or_else(|| "script acts without an open session".to_string())
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), String> {
        self.send(r#"{"op":"ping"}"#.to_string(), Op::Ping, None)?;
        Ok(())
    }

    /// Suspends the open session, if any, until the next close.
    fn suspend(&mut self) {
        if self.session.is_some() {
            self.suspended.push((
                self.session.take(),
                self.current.take(),
                self.network.take(),
                self.linted,
            ));
        }
    }

    /// Runs one scripted action.
    pub fn act(&mut self, action: &Action) -> Result<(), String> {
        match action {
            Action::OpenConfig(text) => {
                self.suspend();
                let line = format!("{{\"op\":\"open\",\"config\":{}}}", json::escape(text));
                let (_, m) = self.send(line, Op::Open, None)?;
                self.session = Some(member_u64(&m, "session"));
                self.current = Some(Arc::new(
                    Config::parse(text).map_err(|e| format!("script config: {e}"))?,
                ));
                self.network = None;
                self.linted = false;
            }
            Action::OpenNetwork => {
                self.suspend();
                let (_, m) = self.send(open_network_line(), Op::Open, None)?;
                self.session = Some(member_u64(&m, "session"));
                self.current = None;
                self.network = Some(e1_router_configs());
                self.linted = false;
            }
            Action::Close => {
                let line = format!("{{\"op\":\"close\",\"session\":{}}}", self.session_id()?);
                self.send(line, Op::Close, None)?;
                (self.session, self.current, self.network, self.linted) =
                    self.suspended.pop().unwrap_or_default();
            }
            Action::Lint => {
                let id = self.session_id()?;
                let op = if self.linted { Op::Relint } else { Op::Lint };
                self.linted = true;
                let (turn, m) =
                    self.send(format!("{{\"op\":\"lint\",\"session\":{id}}}"), op, None)?;
                let config = self
                    .current
                    .clone()
                    .ok_or("lint scripted on a network session")?;
                let n = rules(&config);
                let config = if n > LARGE_CONFIG_RULES {
                    self.large_lints += 1;
                    let stride = LINT_CHECK_STRIDE.max(n / 64);
                    (self.large_lints - 1)
                        .is_multiple_of(stride)
                        .then_some(config)
                } else {
                    Some(config)
                };
                self.data.lints.push(LintRecord {
                    config,
                    findings: member_u64(&m, "findings"),
                    diagnostics: member_u64(&m, "diagnostics"),
                    turn,
                    error: (!is_ok(&m)).then(|| self.data.log[turn].frame.clone()),
                });
            }
            Action::Insert(spec) => self.insert(spec)?,
        }
        Ok(())
    }

    fn insert(&mut self, spec: &Insert) -> Result<(), String> {
        let id = self.session_id()?;
        let base = match (&spec.router, &self.network, &self.current) {
            (Some(r), Some(net), _) => net.get(r).cloned().ok_or("unknown E1 router")?,
            (None, None, Some(cfg)) => cfg.clone(),
            _ => return Err("insert does not fit the open session".to_string()),
        };
        let intended = intended_after(&base, spec)?;
        let intended = match spec.router {
            Some(_) => intended,
            None => slice(&intended, spec.kind, &spec.target),
        };
        let rec = self.data.inserts.len();
        self.data.inserts.push(InsertRecord {
            spec: spec.clone(),
            intended,
            committed: None,
            witnesses: Vec::new(),
            planted: false,
            questions: 0,
            llm_calls: 0,
            error: None,
            timed: self.timed,
        });
        let router = match &spec.router {
            Some(r) => format!(",\"router\":{}", json::escape(r)),
            None => String::new(),
        };
        let line = format!(
            "{{\"op\":\"ask\",\"session\":{id},\"target\":{}{router},\"intent\":{}}}",
            json::escape(&spec.target),
            json::escape(&spec.intent)
        );
        let (_, mut m) = self.send(line, Op::Ask, Some(rec))?;
        loop {
            if !is_ok(&m) {
                self.data.inserts[rec].error = Some("turn failed".to_string());
                return Ok(());
            }
            if matches!(member(&m, "done"), Some(Value::Bool(true))) {
                break;
            }
            let text = member(&m, "question")
                .and_then(|q| q.as_object("question").ok())
                .and_then(|q| member_str(q, "text"))
                .ok_or("question frame without text")?;
            let choice = match oracle::parse_question(text) {
                Ok(q) => {
                    let r = &mut self.data.inserts[rec];
                    let choice = oracle::choose(&r.intended, spec.kind, &spec.target, &q);
                    r.witnesses.push(q.witness);
                    match choice {
                        Ok(c) => c,
                        Err(e) => {
                            r.error.get_or_insert(e);
                            Choice::First
                        }
                    }
                }
                Err(e) => {
                    self.data.inserts[rec].error.get_or_insert(e);
                    Choice::First
                }
            };
            self.questions_seen += 1;
            let choice =
                if self.plant_every > 0 && self.questions_seen.is_multiple_of(self.plant_every) {
                    if !self.data.inserts[rec].planted {
                        self.data.inserts[rec].planted = true;
                        self.data.planted += 1;
                    }
                    match choice {
                        Choice::First => Choice::Second,
                        Choice::Second => Choice::First,
                    }
                } else {
                    choice
                };
            let n = match choice {
                Choice::First => 1,
                Choice::Second => 2,
            };
            let (_, next) = self.send(
                format!("{{\"op\":\"answer\",\"session\":{id},\"choice\":{n}}}"),
                Op::Answer,
                Some(rec),
            )?;
            m = next;
        }
        let r = &mut self.data.inserts[rec];
        r.questions = member_u64(&m, "questions");
        r.llm_calls = member_u64(&m, "llm_calls");
        let result = member_str(&m, "result").unwrap_or("");
        if result != "inserted" && result != "committed" {
            r.error.get_or_insert(format!("insert ended as '{result}'"));
            return Ok(());
        }
        let committed = member_str(&m, "config")
            .map(Config::parse)
            .ok_or("commit frame without config")?
            .map_err(|e| format!("committed config does not parse: {e}"))?;
        r.committed = Some(match spec.router {
            Some(_) => committed.clone(),
            None => slice(&committed, spec.kind, &spec.target),
        });
        let committed = Arc::new(committed);
        match (&spec.router, &mut self.network) {
            (Some(router), Some(net)) => {
                net.insert(router.clone(), committed);
            }
            _ => self.current = Some(committed),
        }
        Ok(())
    }
}

//! The correctness checker. It never uses the BDD path for list
//! behaviour: committed lists are judged with the concrete evaluators on
//! every question witness plus seeded probes, lint frames are compared
//! with a one-shot `clarify_lint::lint_config` of the same text, and
//! network commits are replayed through `clarify-netsim`.
//!
//! A `lint` frame carries only the finding and diagnostic counts, so the
//! untraced check compares counts. The traced run compares the full set
//! of diagnostics ([`diagnostic_keys`]) of its incremental linter, whose
//! frames are byte-compared with the daemon's, against the same one-shot
//! reports.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use clarify_core::Invariant;
use clarify_lint::LintReport;
use clarify_llm::RouteMapIntent;
use clarify_netconfig::{AddrMatch, Config, RouteMapMatch};
use clarify_netsim::{Network, TopologySpec};
use clarify_nettypes::{AsPath, BgpRoute, Packet, Prefix, Protocol};
use clarify_rng::{Rng, StdRng};

use crate::client::{InsertRecord, RunData};
use crate::gen::{self, Kind};
use crate::oracle::{self, Witness};

/// Probes derived from each list's rules, at most this many rules apart.
const RULE_PROBES: usize = 48;
/// Uniformly random probes per insert.
const RANDOM_PROBES: usize = 8;

/// What the checker found.
#[derive(Default, Debug)]
pub struct Report {
    /// Inserts judged wrong: `(index into RunData::inserts, reason)`.
    pub bad_inserts: Vec<(usize, String)>,
    /// Lint turns judged wrong: `(index into RunData::lints, reason)`.
    pub bad_lints: Vec<(usize, String)>,
    /// Inserts with a planted wrong answer that were flagged.
    pub planted_flagged: usize,
    /// Probes evaluated.
    pub probes: usize,
    /// Lint frames compared with a one-shot lint.
    pub lints_checked: usize,
    /// [`diagnostic_keys`] of the one-shot lint of every configuration
    /// the checker linted, by `Config::content_hash`.
    pub one_shot: HashMap<u64, Vec<String>>,
}

/// Every diagnostic of `report` as `code severity rule related`, sorted:
/// which check fired, how severe, on which object and rule.
pub fn diagnostic_keys(report: &LintReport) -> Vec<String> {
    let mut keys: Vec<String> = report
        .diagnostics
        .iter()
        .map(|d| {
            let related = d
                .related
                .as_ref()
                .map(|r| r.to_string())
                .unwrap_or_default();
            format!("{} {} {} {related}", d.code.code(), d.severity, d.rule)
        })
        .collect();
    keys.sort();
    keys
}

fn addr_in(rng: &mut StdRng, m: &AddrMatch) -> Ipv4Addr {
    match m {
        AddrMatch::Any => Ipv4Addr::from(rng.gen::<u32>()),
        AddrMatch::Host(ip) => *ip,
        AddrMatch::Net(p) => {
            let host = if p.is_empty() {
                u32::MAX
            } else {
                u32::MAX >> p.len()
            };
            Ipv4Addr::from(p.addr_u32() | (rng.gen::<u32>() & host))
        }
    }
}

fn packet_probes(rng: &mut StdRng, cfg: &Config, target: &str) -> Vec<Witness> {
    let mut out = Vec::new();
    let Some(acl) = cfg.acl(target) else {
        return out;
    };
    let stride = acl.entries.len().div_ceil(RULE_PROBES).max(1);
    for e in acl.entries.iter().step_by(stride) {
        let protocol = match e.protocol {
            Protocol::Ip => Protocol::Tcp,
            p => p,
        };
        let port = |rng: &mut StdRng, r: clarify_nettypes::PortRange| {
            if protocol == Protocol::Icmp {
                0
            } else {
                rng.gen_range(r.lo..=r.hi)
            }
        };
        out.push(Witness::Packet(Packet {
            protocol,
            src_ip: addr_in(rng, &e.src),
            src_port: port(rng, e.src_ports),
            dst_ip: addr_in(rng, &e.dst),
            dst_port: port(rng, e.dst_ports),
        }));
    }
    for _ in 0..RANDOM_PROBES {
        out.push(Witness::Packet(Packet::tcp(
            Ipv4Addr::from(rng.gen::<u32>()),
            rng.gen_range(0..=u16::MAX),
            Ipv4Addr::from(rng.gen::<u32>()),
            rng.gen_range(0..=u16::MAX),
        )));
    }
    out
}

fn network_in(rng: &mut StdRng, p: Prefix, min_len: u8, max_len: u8) -> Prefix {
    let len = rng.gen_range(min_len.max(p.len())..=max_len.max(p.len()));
    let host = if len == 0 { u32::MAX } else { u32::MAX >> len };
    let keep = if p.is_empty() {
        0
    } else {
        u32::MAX << (32 - p.len() as u32)
    };
    let addr = (p.addr_u32() & keep) | (rng.gen::<u32>() & !keep);
    Prefix::from_u32(addr & !host, len)
}

fn route_probes(
    rng: &mut StdRng,
    cfg: &Config,
    target: &str,
    intent: Option<&RouteMapIntent>,
) -> Vec<Witness> {
    let mut out = Vec::new();
    let Some(map) = cfg.route_map(target) else {
        return out;
    };
    let stride = map.stanzas.len().div_ceil(RULE_PROBES).max(1);
    for stanza in map.stanzas.iter().step_by(stride) {
        let mut route =
            BgpRoute::with_defaults(Prefix::from_u32(rng.gen::<u32>() & 0xffff_ff00, 24));
        for m in &stanza.matches {
            match m {
                RouteMapMatch::PrefixList(names) => {
                    if let Some(e) = names
                        .first()
                        .and_then(|n| cfg.prefix_lists.get(n))
                        .and_then(|pl| pl.entries.first())
                    {
                        route.network =
                            network_in(rng, e.range.prefix, e.range.min_len, e.range.max_len);
                    }
                }
                RouteMapMatch::LocalPref(v) => route.local_pref = *v,
                RouteMapMatch::Metric(v) => route.metric = *v,
                RouteMapMatch::Tag(v) => route.tag = *v,
                RouteMapMatch::AsPath(_) => {
                    route.as_path = AsPath::from_asns(vec![rng.gen_range(1..100), 32])
                }
                RouteMapMatch::Community(_) => {}
            }
        }
        if let Some(i) = intent {
            if rng.gen_bool(0.5) {
                route.communities.extend(i.communities.iter().copied());
                if let Some(asn) = i.origin_as {
                    route.as_path = AsPath::from_asns(vec![7, asn]);
                }
            }
        }
        out.push(Witness::Route(route));
    }
    if let Some(i) = intent {
        for (p, _) in &i.prefixes {
            for _ in 0..RANDOM_PROBES {
                let mut route = BgpRoute::with_defaults(network_in(rng, *p, p.len(), 32));
                if rng.gen_bool(0.5) {
                    route.communities.extend(i.communities.iter().copied());
                }
                if let Some(asn) = i.origin_as.filter(|_| rng.gen_bool(0.5)) {
                    route.as_path = AsPath::from_asns(vec![7, asn]);
                }
                out.push(Witness::Route(route));
            }
        }
    }
    out
}

/// The E1 invariants, read from the `open` request the client sends.
fn e1_invariants() -> Vec<Invariant> {
    match clarify_serve::parse_request(&crate::client::open_network_line()) {
        Ok(clarify_serve::Request::OpenNetwork { invariants, .. }) => invariants,
        _ => unreachable!("the E1 open request is a network open"),
    }
}

/// The converged E1 network with `router` running `cfg`.
pub fn e1_converged(router: &str, cfg: &Config) -> Result<Network, String> {
    let spec = TopologySpec::parse(gen::E1_TOPOLOGY).map_err(|e| e.to_string())?;
    let mut loaded = spec
        .instantiate(&mut |path: &str| {
            gen::E1_CONFIGS
                .iter()
                .find(|(p, _)| *p == path)
                .map(|(_, t)| t.to_string())
                .ok_or_else(|| format!("no config '{path}'"))
        })
        .map_err(|e| e.to_string())?;
    *loaded
        .network
        .router_config_mut(router)
        .ok_or("unknown router")? = cfg.clone();
    loaded.network.converge().map_err(|e| e.to_string())
}

/// Replays a network commit: the committed router config must keep every
/// E1 invariant and give every router the RIB the intended config gives.
pub fn check_network(router: &str, intended: &Config, committed: &Config) -> Result<(), String> {
    let want = e1_converged(router, intended)?;
    let got = e1_converged(router, committed)?;
    for inv in e1_invariants() {
        if !inv.holds(&got) {
            return Err(format!("committed network violates {inv}"));
        }
    }
    for r in want.routers() {
        if want.rib(&r.name) != got.rib(&r.name) {
            return Err(format!(
                "netsim replay: RIB of {} differs from the intended network",
                r.name
            ));
        }
    }
    Ok(())
}

fn check_insert(rng: &mut StdRng, r: &InsertRecord, probes: &mut usize) -> Result<(), String> {
    if let Some(e) = &r.error {
        return Err(e.clone());
    }
    let committed = r.committed.as_ref().ok_or("nothing committed")?;
    let spec = &r.spec;
    let mut witnesses = r.witnesses.clone();
    match spec.kind {
        Kind::Acl => witnesses.extend(packet_probes(rng, &r.intended, &spec.target)),
        Kind::RouteMap => {
            let intent = RouteMapIntent::parse(&spec.intent).ok();
            witnesses.extend(route_probes(
                rng,
                &r.intended,
                &spec.target,
                intent.as_ref(),
            ));
        }
    }
    for w in &witnesses {
        *probes += 1;
        let want = oracle::behaviour(&r.intended, spec.kind, &spec.target, w)?;
        let got = oracle::behaviour(committed, spec.kind, &spec.target, w)?;
        if want != got {
            return Err(format!(
                "committed list differs from the intended one on {w:?}: got {got:?}, want {want:?}"
            ));
        }
    }
    if let Some(router) = &spec.router {
        check_network(router, &r.intended, committed)?;
    }
    Ok(())
}

/// A one-shot lint: findings, diagnostics and [`diagnostic_keys`].
type OneShot = Result<(u64, u64, Vec<String>), String>;

/// Checks every insert and lint of a conversation.
pub fn check(data: &RunData, seed: u64) -> Report {
    let mut report = Report::default();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc4ec_0000_0000_0000);
    for (i, r) in data.inserts.iter().enumerate() {
        if let Err(e) = check_insert(&mut rng, r, &mut report.probes) {
            if r.planted {
                report.planted_flagged += 1;
            }
            report.bad_inserts.push((i, e));
        }
    }
    // One one-shot lint per distinct configuration, two at a time.
    let mut distinct: HashMap<u64, &Config> = HashMap::new();
    for l in &data.lints {
        if let Some(c) = &l.config {
            distinct.entry(c.content_hash()).or_insert(c);
        }
    }
    let distinct: Vec<(u64, &Config)> = distinct.into_iter().collect();
    let verdicts: HashMap<u64, OneShot> = clarify_par::par_map(&distinct, |(key, cfg)| {
        let v = clarify_lint::lint_config(cfg, None)
            .map(|rep| {
                let findings = rep.findings().count() as u64;
                (
                    findings,
                    rep.diagnostics.len() as u64,
                    diagnostic_keys(&rep),
                )
            })
            .map_err(|e| format!("one-shot lint failed: {e}"));
        (*key, v)
    })
    .into_iter()
    .collect();
    for (i, l) in data.lints.iter().enumerate() {
        if let Some(e) = &l.error {
            report.bad_lints.push((i, e.clone()));
            continue;
        }
        let Some(config) = &l.config else {
            continue;
        };
        report.lints_checked += 1;
        match &verdicts[&config.content_hash()] {
            Err(e) => report.bad_lints.push((i, e.clone())),
            Ok((findings, diagnostics, _))
                if (*findings, *diagnostics) != (l.findings, l.diagnostics) =>
            {
                report.bad_lints.push((
                    i,
                    format!(
                        "lint frame reports {}/{} findings/diagnostics, one-shot lint {findings}/{diagnostics}",
                        l.findings, l.diagnostics
                    ),
                ))
            }
            Ok(_) => {}
        }
    }
    report.one_shot = verdicts
        .into_iter()
        .filter_map(|(k, v)| v.ok().map(|(_, _, keys)| (k, keys)))
        .collect();
    report
}

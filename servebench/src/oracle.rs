//! The simulated user: reads a question frame's text, evaluates its
//! witness on the intended configuration, and picks the option whose
//! rendered behaviour matches. Evaluation uses the concrete evaluators
//! (`Config::eval_acl` / `eval_route_map`), never the BDD path.

use std::collections::BTreeSet;
use std::net::Ipv4Addr;

use clarify_core::Choice;
use clarify_netconfig::{Config, RouteMapVerdict};
use clarify_nettypes::{AsPath, BgpRoute, Community, Packet, Prefix, Protocol};

use crate::gen::Kind;

/// A question's differential input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Witness {
    /// An ACL question's packet.
    Packet(Packet),
    /// A route-map question's route.
    Route(BgpRoute),
}

/// A parsed question: the witness and the two rendered behaviours.
#[derive(Clone, Debug)]
pub struct Question {
    /// The differential input.
    pub witness: Witness,
    /// OPTION 1 as rendered by the daemon.
    pub first: String,
    /// OPTION 2 as rendered by the daemon.
    pub second: String,
}

fn field<'a>(line: Option<&'a str>, key: &str) -> Result<&'a str, String> {
    line.and_then(|l| l.strip_prefix(key))
        .ok_or_else(|| format!("question text: expected '{key}'"))
}

fn num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.trim()
        .parse()
        .map_err(|_| format!("question text: bad {what} '{s}'"))
}

fn parse_packet(line: &str) -> Result<Packet, String> {
    // `tcp 10.0.0.0:0 -> 0.0.0.0:50`
    let (proto, rest) = line.split_once(' ').ok_or("question text: bad packet")?;
    let (src, dst) = rest.split_once(" -> ").ok_or("question text: bad packet")?;
    let (src_ip, src_port) = src.rsplit_once(':').ok_or("question text: bad source")?;
    let (dst_ip, dst_port) = dst
        .rsplit_once(':')
        .ok_or("question text: bad destination")?;
    Ok(Packet {
        protocol: num::<Protocol>(proto, "protocol")?,
        src_ip: num::<Ipv4Addr>(src_ip, "address")?,
        src_port: num(src_port, "port")?,
        dst_ip: num::<Ipv4Addr>(dst_ip, "address")?,
        dst_port: num(dst_port, "port")?,
    })
}

fn parse_route(text: &str) -> Result<BgpRoute, String> {
    let mut lines = text.lines();
    let network: Prefix = num(field(lines.next(), "Network: ")?, "network")?;
    let path = field(lines.next(), "AS Path: ")?;
    let asns = path
        .split_once("\"asns\": [")
        .and_then(|(_, r)| r.split_once(']'))
        .map(|(a, _)| a.replace(',', " "))
        .ok_or("question text: bad AS path")?;
    let as_path: AsPath = num(&asns, "AS path")?;
    let comms = field(lines.next(), "Communities: ")?;
    let mut communities = BTreeSet::new();
    for item in comms.trim_matches(|c| c == '[' || c == ']').split(',') {
        let item = item.trim().trim_matches('"');
        if !item.is_empty() {
            communities.insert(num::<Community>(item, "community")?);
        }
    }
    Ok(BgpRoute {
        network,
        as_path,
        communities,
        local_pref: num(
            field(lines.next(), "Local Preference: ")?,
            "local preference",
        )?,
        metric: num(field(lines.next(), "Metric: ")?, "metric")?,
        next_hop: num(field(lines.next(), "Next Hop IP: ")?, "next hop")?,
        tag: num(field(lines.next(), "Tag: ")?, "tag")?,
        weight: num(field(lines.next(), "Weight: ")?, "weight")?,
    })
}

/// Parses the `text` of a question frame.
pub fn parse_question(text: &str) -> Result<Question, String> {
    let (witness, options) = text
        .split_once("\n\nOPTION 1:\n")
        .ok_or("question text: no OPTION 1")?;
    let (first, second) = options
        .split_once("\nOPTION 2:\n")
        .ok_or("question text: no OPTION 2")?;
    let witness = match witness.strip_prefix("Packet: ") {
        Some(p) => Witness::Packet(parse_packet(p)?),
        None => Witness::Route(parse_route(witness)?),
    };
    Ok(Question {
        witness,
        first: first.to_string(),
        second: second.to_string(),
    })
}

/// Renders a route-map verdict the way questions show it.
pub fn render_route_verdict(v: &RouteMapVerdict) -> String {
    match v {
        RouteMapVerdict::Permit { route, .. } => format!("ACTION: permit\n{route}"),
        RouteMapVerdict::DenyBy { .. } | RouteMapVerdict::ImplicitDeny => {
            "ACTION: deny".to_string()
        }
    }
}

/// What `cfg`'s list `target` does with `witness`, rendered as in a
/// question option.
pub fn behaviour(
    cfg: &Config,
    kind: Kind,
    target: &str,
    witness: &Witness,
) -> Result<String, String> {
    match (kind, witness) {
        (Kind::Acl, Witness::Packet(p)) => cfg
            .eval_acl(target, p)
            .map(|v| format!("ACTION: {}", v.action))
            .map_err(|e| e.to_string()),
        (Kind::RouteMap, Witness::Route(r)) => cfg
            .eval_route_map(target, r)
            .map(|v| render_route_verdict(&v))
            .map_err(|e| e.to_string()),
        _ => Err("question witness does not fit the list kind".to_string()),
    }
}

/// The answer the intended configuration gives, or an error when neither
/// option matches it.
pub fn choose(intended: &Config, kind: Kind, target: &str, q: &Question) -> Result<Choice, String> {
    let want = behaviour(intended, kind, target, &q.witness)?;
    if want == q.first {
        Ok(Choice::First)
    } else if want == q.second {
        Ok(Choice::Second)
    } else {
        Err(format!(
            "neither option matches the intended behaviour:\n{want}"
        ))
    }
}

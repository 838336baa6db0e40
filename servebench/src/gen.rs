//! Seeded workload generation.
//!
//! A workload is a fixed *script* of actions: open a session, insert one
//! rule (an English intent plus the slot the simulated user intends),
//! lint, close. The script is a pure function of the workload name, the
//! seed and the run length in seconds, so every run of a workload times
//! the same number of turns of every class; the seed only changes *which*
//! objects and slots are hit. Slots are stratified: within every class,
//! consecutive inserts cycle through the four quarters of the list.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use clarify_llm::{AclIntent, AddrIntent, PrefixConstraint, RouteMapIntent, SetIntent};
use clarify_netconfig::{Acl, AddrMatch, Config, RouteMapMatch};
use clarify_nettypes::{Community, PortRange, Prefix, Protocol};
use clarify_rng::{Rng, StdRng};

/// The paper's §2 running example.
pub const ISP_OUT: &str = include_str!("../../testdata/isp_out.cfg");
/// The E1 topology and the three router configs it references.
pub const E1_TOPOLOGY: &str = include_str!("../../testdata/e1_topology.txt");
/// `(path, text)` for every config the E1 topology names.
pub const E1_CONFIGS: [(&str, &str); 3] = [
    ("e1_r1.cfg", include_str!("../../testdata/e1_r1.cfg")),
    ("e1_r2.cfg", include_str!("../../testdata/e1_r2.cfg")),
    ("e1_m.cfg", include_str!("../../testdata/e1_m.cfg")),
];
/// Invariants every E1 network commit must preserve, in the wire format.
pub const E1_INVARIANTS: &str = r#"[{"kind":"reachable","router":"M","prefix":"10.1.0.0/16"},{"kind":"unreachable","router":"ISP1","prefix":"10.1.0.0/16"},{"kind":"unreachable","router":"ISP2","prefix":"8.8.0.0/16"},{"kind":"reachable","router":"ISP1","prefix":"203.0.113.0/24"},{"kind":"locally-originated","router":"MGMT","prefix":"192.168.0.0/16"}]"#;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["census-mix", "large-list", "edit-relint"];

/// Seed of the §3 populations the objects are drawn from. Fixed, so the
/// object pools are the same on every run; the run seed picks from them.
const POPULATION_SEED: u64 = 2025;

/// Which ordered-rule-list kind an insert targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// An extended ACL.
    Acl,
    /// A route-map.
    RouteMap,
}

/// One insertion: the English intent and where the user wants the rule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Insert {
    /// Size class, for per-class sample counts.
    pub class: &'static str,
    /// List kind.
    pub kind: Kind,
    /// Router (network sessions only).
    pub router: Option<String>,
    /// ACL or route-map name.
    pub target: String,
    /// The English intent sent in the `ask`.
    pub intent: String,
    /// Intended zero-based slot in the list as it stands at ask time.
    pub slot: usize,
}

/// One scripted client action.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Action {
    /// Open a config session over this text.
    OpenConfig(String),
    /// Open a network session over the E1 topology.
    OpenNetwork,
    /// Ask, then answer every question until the commit.
    Insert(Insert),
    /// Lint the session's configuration.
    Lint,
    /// Close the session.
    Close,
}

/// A complete workload script.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Script {
    /// Untimed warm-up, replayed after every daemon start.
    pub warmup: Vec<Action>,
    /// The timed phase. It continues the warm-up's last session when the
    /// warm-up leaves one open.
    pub timed: Vec<Action>,
}

impl Script {
    /// Inserts in the timed phase.
    pub fn timed_inserts(&self) -> usize {
        self.timed
            .iter()
            .filter(|a| matches!(a, Action::Insert(_)))
            .count()
    }
}

/// Builds the script of `workload` for `seed`, sized by `seconds`.
///
/// The work per second is a fixed constant per workload, calibrated once
/// so that a run on a two-core x86-64 host takes about `seconds`; it is
/// never derived from a measured speed, so a given `(seed, seconds)`
/// yields the same turns on any host.
pub fn script(workload: &str, seed: u64, seconds: u64) -> Result<Script, String> {
    let seconds = seconds.max(1);
    match workload {
        "census-mix" => Ok(census_mix(seed, seconds)),
        "large-list" => Ok(large_list(seed, seconds)),
        "edit-relint" => Ok(edit_relint(seed, seconds)),
        other => Err(format!(
            "unknown workload '{other}' (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// Stratified slot picker: the `k`-th draw of a class lands in quarter
/// `k % 4` of the `n + 1` slots of a list of `n` rules.
#[derive(Default)]
struct Strata {
    drawn: BTreeMap<&'static str, usize>,
}

impl Strata {
    fn slot(&mut self, rng: &mut StdRng, class: &'static str, n: usize) -> usize {
        let k = self.drawn.entry(class).or_insert(0);
        let q = *k % 4;
        *k += 1;
        let lo = q * (n + 1) / 4;
        let hi = ((q + 1) * (n + 1) / 4).max(lo + 1);
        rng.gen_range(lo..hi)
    }
}

// ---------------------------------------------------------------------
// Intents
// ---------------------------------------------------------------------

/// An ACL intent covering most of `acl`: TCP from the /8 (or, for host
/// rules, the /16) around a sampled entry's source, to any, over the span
/// of every entry's destination ports.
fn acl_intent(rng: &mut StdRng, acl: &Acl) -> AclIntent {
    let e = &acl.entries[rng.gen_range(0..acl.entries.len())];
    let src = match e.src {
        AddrMatch::Any => AddrIntent::Any,
        AddrMatch::Host(ip) => {
            let o = ip.octets();
            AddrIntent::Net(Prefix::new(Ipv4Addr::new(o[0], o[1], 0, 0), 16))
        }
        AddrMatch::Net(p) => {
            AddrIntent::Net(Prefix::new(Ipv4Addr::new(p.addr().octets()[0], 0, 0, 0), 8))
        }
    };
    let lo = acl
        .entries
        .iter()
        .map(|e| e.dst_ports.lo)
        .min()
        .unwrap_or(0);
    let hi = acl
        .entries
        .iter()
        .map(|e| e.dst_ports.hi)
        .max()
        .unwrap_or(u16::MAX);
    AclIntent {
        permit: rng.gen_bool(0.5),
        protocol: Protocol::Tcp,
        src,
        dst: AddrIntent::Any,
        src_ports: PortRange::ANY,
        dst_ports: if lo == 0 && hi == u16::MAX {
            PortRange::ANY
        } else {
            PortRange::new(lo, hi)
        },
    }
}

/// The smallest prefix covering every prefix-list entry `map` references
/// (10.0.0.0/8 when it references none).
fn covering_prefix(cfg: &Config, map: &str) -> Prefix {
    let mut nets: Vec<Prefix> = Vec::new();
    for stanza in &cfg.route_maps[map].stanzas {
        for m in &stanza.matches {
            if let RouteMapMatch::PrefixList(names) = m {
                for name in names {
                    if let Some(pl) = cfg.prefix_lists.get(name) {
                        nets.extend(pl.entries.iter().map(|e| e.range.prefix));
                    }
                }
            }
        }
    }
    let Some(first) = nets.first() else {
        return Prefix::new(Ipv4Addr::new(10, 0, 0, 0), 8);
    };
    let mut len = nets.iter().map(|p| p.len()).min().unwrap_or(32);
    for p in &nets {
        let diff = first.addr_u32() ^ p.addr_u32();
        len = len.min(diff.leading_zeros().min(32) as u8);
    }
    let mask = if len == 0 {
        0
    } else {
        u32::MAX << (32 - len as u32)
    };
    Prefix::from_u32(first.addr_u32() & mask, len)
}

/// A route-map intent overlapping every stanza that matches on prefixes
/// under the map's covering prefix; permits set a fresh MED so that they
/// differ from every existing permit.
fn route_map_intent(rng: &mut StdRng, cfg: &Config, map: &str) -> RouteMapIntent {
    let permit = rng.gen_bool(0.5);
    RouteMapIntent {
        permit,
        prefixes: vec![(covering_prefix(cfg, map), PrefixConstraint::Le(32))],
        sets: if permit {
            vec![SetIntent::Metric(rng.gen_range(1..5000))]
        } else {
            Vec::new()
        },
        ..RouteMapIntent::default()
    }
}

/// An intent in the style of the paper's §2 example, for `ISP_OUT`.
fn isp_out_intent(rng: &mut StdRng) -> RouteMapIntent {
    let first = [10u8, 20, 100][rng.gen_range(0..3usize)];
    let net = Prefix::new(Ipv4Addr::new(first, rng.gen_range(0..=255u8), 0, 0), 16);
    let permit = rng.gen_bool(0.5);
    RouteMapIntent {
        permit,
        prefixes: vec![(net, PrefixConstraint::Le(rng.gen_range(17..=28u8)))],
        communities: vec![Community::new(300, rng.gen_range(1..=99u16))],
        origin_as: if rng.gen_range(0..3u32) == 0 {
            Some(32)
        } else {
            None
        },
        sets: if permit {
            vec![SetIntent::Metric(rng.gen_range(1..500))]
        } else {
            Vec::new()
        },
        ..RouteMapIntent::default()
    }
}

// ---------------------------------------------------------------------
// Object pools
// ---------------------------------------------------------------------

/// A named pool of single-object configs: `(config text, target, rules)`.
struct Pool {
    class: &'static str,
    kind: Kind,
    objects: Vec<(Config, String)>,
}

impl Pool {
    fn acls(class: &'static str, acls: impl IntoIterator<Item = Acl>) -> Pool {
        Pool {
            class,
            kind: Kind::Acl,
            objects: acls
                .into_iter()
                .map(|acl| {
                    let name = acl.name.clone();
                    let mut cfg = Config::new();
                    cfg.acls.insert(name.clone(), acl);
                    (cfg, name)
                })
                .collect(),
        }
    }

    fn route_maps(class: &'static str, maps: impl IntoIterator<Item = (Config, String)>) -> Pool {
        Pool {
            class,
            kind: Kind::RouteMap,
            objects: maps.into_iter().collect(),
        }
    }
}

fn rules(cfg: &Config, kind: Kind, target: &str) -> usize {
    match kind {
        Kind::Acl => cfg.acls[target].entries.len(),
        Kind::RouteMap => cfg.route_maps[target].stanzas.len(),
    }
}

fn intent_for(rng: &mut StdRng, cfg: &Config, kind: Kind, target: &str) -> String {
    match kind {
        Kind::Acl => acl_intent(rng, &cfg.acls[target]).render_prompt(),
        Kind::RouteMap => route_map_intent(rng, cfg, target).render_prompt(),
    }
}

/// The census-mix pools, one per class of the two §3 populations (the
/// border ACL `EDGE_INGRESS` is left out: it is one object, not a class).
fn census_pools() -> Vec<Pool> {
    let cloud = clarify_workload::cloud(POPULATION_SEED);
    let campus = clarify_workload::campus(POPULATION_SEED);
    let acls = |class, acls: &[Acl], p: &str| {
        Pool::acls(
            class,
            acls.iter().filter(|a| a.name.starts_with(p)).cloned(),
        )
    };
    let maps = |class, maps: &[(Config, String)], p: &str| {
        Pool::route_maps(
            class,
            maps.iter().filter(|(_, n)| n.starts_with(p)).cloned(),
        )
    };
    vec![
        acls("cloud-acl-heavy", &cloud.acls, "CLOUD_HEAVY_"),
        acls("cloud-acl-light", &cloud.acls, "CLOUD_LIGHT_"),
        acls("cloud-acl-clean", &cloud.acls, "CLOUD_CLEAN_"),
        acls("campus-acl-tail-light", &campus.acls, "CAMPUS_TAIL_L_"),
        acls("campus-acl-tail-heavy", &campus.acls, "CAMPUS_TAIL_H_"),
        acls("campus-acl-cross-light", &campus.acls, "CAMPUS_CROSS_L_"),
        acls("campus-acl-cross-heavy", &campus.acls, "CAMPUS_CROSS_H_"),
        acls("campus-acl-clean", &campus.acls, "CAMPUS_CLEAN_"),
        maps("cloud-rm-heavy", &cloud.route_maps, "RM_HEAVY_"),
        maps("cloud-rm-light", &cloud.route_maps, "RM_LIGHT_"),
        maps("cloud-rm-clean", &cloud.route_maps, "RM_CLEAN_"),
        maps("campus-rm", &campus.route_maps, "CAMPUS_RM_"),
    ]
}

/// Sessions per census-mix block.
const CENSUS_BLOCK: usize = 20;
/// `ISP_OUT` sessions per block.
const CENSUS_ISP_OUT: usize = 2;
/// E1 network sessions per block.
const CENSUS_NETWORK: usize = 1;
/// Census-mix blocks per second of run length.
const CENSUS_BLOCKS_PER_SECOND: f64 = 3.0;

/// Sessions per pool in one block of `sessions` pool sessions. Every pool
/// gets one, so each class of the census, the >20-overlap tail included,
/// is hit in every block; the rest are apportioned by each pool's share
/// of all pool objects (largest remainder, ties to the earlier pool).
pub fn census_counts(sizes: &[usize], sessions: usize) -> Vec<usize> {
    let spare = sessions.saturating_sub(sizes.len());
    let total: usize = sizes.iter().sum();
    let mut counts: Vec<usize> = sizes.iter().map(|n| 1 + spare * n / total).collect();
    let mut by_remainder: Vec<usize> = (0..sizes.len()).collect();
    by_remainder.sort_by_key(|&i| std::cmp::Reverse(spare * sizes[i] % total));
    let left = sessions.saturating_sub(counts.iter().sum::<usize>());
    for &i in by_remainder.iter().take(left) {
        counts[i] += 1;
    }
    counts
}

fn census_block(
    rng: &mut StdRng,
    strata: &mut Strata,
    pools: &[(Pool, usize)],
    isp_out: &Config,
) -> Vec<Vec<Action>> {
    let mut sessions: Vec<Vec<Action>> = Vec::with_capacity(CENSUS_BLOCK);
    for (pool, count) in pools {
        for _ in 0..*count {
            let (cfg, target) = &pool.objects[rng.gen_range(0..pool.objects.len())];
            let n = rules(cfg, pool.kind, target);
            let insert = Insert {
                class: pool.class,
                kind: pool.kind,
                router: None,
                target: target.clone(),
                intent: intent_for(rng, cfg, pool.kind, target),
                slot: strata.slot(rng, pool.class, n),
            };
            sessions.push(config_session(cfg.to_string(), insert));
        }
    }
    for _ in 0..CENSUS_ISP_OUT {
        let n = isp_out.route_maps["ISP_OUT"].stanzas.len();
        let insert = Insert {
            class: "isp-out",
            kind: Kind::RouteMap,
            router: None,
            target: "ISP_OUT".to_string(),
            intent: isp_out_intent(rng).render_prompt(),
            slot: strata.slot(rng, "isp-out", n),
        };
        sessions.push(config_session(ISP_OUT.to_string(), insert));
    }
    for _ in 0..CENSUS_NETWORK {
        sessions.push(network_session(rng, strata));
    }
    debug_assert_eq!(sessions.len(), CENSUS_BLOCK);
    // Interleave the classes; the composition stays fixed.
    rng.shuffle(&mut sessions);
    sessions
}

/// open → lint → insert → lint → close: the first lint is a full lint,
/// the second re-lints incrementally after the committed edit.
fn config_session(text: String, insert: Insert) -> Vec<Action> {
    vec![
        Action::OpenConfig(text),
        Action::Lint,
        Action::Insert(insert),
        Action::Lint,
        Action::Close,
    ]
}

/// One E1 network update at R1 or R2 that keeps every invariant.
fn network_session(rng: &mut StdRng, strata: &mut Strata) -> Vec<Action> {
    let router = if rng.gen_bool(0.5) { "R1" } else { "R2" };
    let (target, intent, n) = match rng.gen_range(0..3u32) {
        0 => (
            "ISP_IN",
            RouteMapIntent {
                permit: false,
                origin_as: Some(rng.gen_range(600..700)),
                ..RouteMapIntent::default()
            },
            4,
        ),
        1 => (
            "ISP_IN",
            RouteMapIntent {
                permit: true,
                prefixes: vec![(
                    Prefix::new(Ipv4Addr::new(8, 8, 0, 0), 16),
                    PrefixConstraint::Exact,
                )],
                sets: vec![SetIntent::LocalPref(rng.gen_range(150..400))],
                ..RouteMapIntent::default()
            },
            4,
        ),
        _ => (
            "ISP_OUT",
            RouteMapIntent {
                permit: true,
                prefixes: vec![(
                    Prefix::new(Ipv4Addr::new(203, 0, 113, 0), 24),
                    PrefixConstraint::Exact,
                )],
                sets: vec![SetIntent::Metric(rng.gen_range(1..500))],
                ..RouteMapIntent::default()
            },
            2,
        ),
    };
    let insert = Insert {
        class: "e1-network",
        kind: Kind::RouteMap,
        router: Some(router.to_string()),
        target: target.to_string(),
        intent: intent.render_prompt(),
        slot: strata.slot(rng, "e1-network", n),
    };
    vec![Action::OpenNetwork, Action::Insert(insert), Action::Close]
}

fn census_mix(seed: u64, seconds: u64) -> Script {
    let pools = census_pools();
    let sizes: Vec<usize> = pools.iter().map(|p| p.objects.len()).collect();
    let counts = census_counts(&sizes, CENSUS_BLOCK - CENSUS_ISP_OUT - CENSUS_NETWORK);
    let pools: Vec<(Pool, usize)> = pools.into_iter().zip(counts).collect();
    let isp_out = Config::parse(ISP_OUT).expect("testdata/isp_out.cfg parses");
    let mut warm_rng = StdRng::seed_from_u64(seed ^ 0x5eed_0000_0000_0001);
    let mut warm_strata = Strata::default();
    let warmup: Vec<Action> = census_block(&mut warm_rng, &mut warm_strata, &pools, &isp_out)
        .into_iter()
        .flatten()
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut strata = Strata::default();
    let blocks = ((seconds as f64 * CENSUS_BLOCKS_PER_SECOND).ceil() as usize).max(1);
    let timed = (0..blocks)
        .flat_map(|_| census_block(&mut rng, &mut strata, &pools, &isp_out))
        .flatten()
        .collect();
    Script { warmup, timed }
}

// ---------------------------------------------------------------------
// large-list
// ---------------------------------------------------------------------

/// ACL class size (entries) of the large-list workload.
pub const LARGE_ACL: usize = 192;
/// Route-map class size (stanzas) of the large-list workload.
pub const LARGE_RM: usize = 128;
/// Inserts per large-list ACL session; the last one follows the full lint.
const LARGE_ACL_INSERTS: usize = 4;
/// Sessions per large-list cycle: ACL sessions and route-map sessions.
/// With four ACL inserts per ACL session and one route-map insert per
/// route-map session, 60% of the asks are warm ACL asks, 20% the first
/// (cold) ask of an ACL session and 20% route-map asks: the median sits
/// inside the warm ACL class and the 90th percentile inside the
/// route-map class, each ten points from a class boundary.
const LARGE_CYCLE: (usize, usize) = (2, 2);
/// Large-list cycles per second of run length.
const LARGE_CYCLES_PER_SECOND: f64 = 0.5;

/// The large ACL: 144 narrow permits over 48 single-port denies. It is
/// the same list in every session and run; seeds only move the slots.
fn large_acl() -> Config {
    let mut rng = StdRng::seed_from_u64(POPULATION_SEED);
    let acl = clarify_workload::cross_acl(&mut rng, "BIG_ACL", LARGE_ACL * 3 / 4, LARGE_ACL / 4);
    let mut cfg = Config::new();
    cfg.acls.insert(acl.name.clone(), acl);
    cfg
}

/// The `k`-th deny of an ACL session: it overlaps every entry and is
/// decisive at each of the 144 permits (seven or eight questions). Its
/// single source port, distinct per insert, keeps it from shadowing any
/// entry or overlapping the session's earlier inserts, so every ask of a
/// session scans the same 192 candidates.
fn large_acl_intent(k: usize) -> String {
    AclIntent {
        permit: false,
        protocol: Protocol::Tcp,
        src: AddrIntent::Net(Prefix::new(Ipv4Addr::new(10, 0, 0, 0), 8)),
        dst: AddrIntent::Any,
        src_ports: PortRange::eq(1024 + k as u16),
        dst_ports: PortRange::new(0, 400),
    }
    .render_prompt()
}

/// A permit over every stanza (`match tag i`) with a fresh MED: every
/// slot of the map is behaviourally distinct.
fn large_rm_intent() -> String {
    RouteMapIntent {
        permit: true,
        prefixes: vec![(
            Prefix::new(Ipv4Addr::new(10, 0, 0, 0), 8),
            PrefixConstraint::Le(32),
        )],
        sets: vec![SetIntent::Metric(99)],
        ..RouteMapIntent::default()
    }
    .render_prompt()
}

/// An ACL session: three inserts, a full lint, one more insert and an
/// incremental re-lint of the single dirty list.
fn large_acl_session(rng: &mut StdRng, strata: &mut Strata) -> Vec<Action> {
    let mut actions = vec![Action::OpenConfig(large_acl().to_string())];
    for i in 0..LARGE_ACL_INSERTS {
        if i + 1 == LARGE_ACL_INSERTS {
            actions.push(Action::Lint);
        }
        let class = if i == 0 { "acl-192-first" } else { "acl-192" };
        actions.push(Action::Insert(Insert {
            class,
            kind: Kind::Acl,
            router: None,
            target: "BIG_ACL".to_string(),
            intent: large_acl_intent(i),
            slot: strata.slot(rng, "acl-192", LARGE_ACL + i),
        }));
    }
    actions.push(Action::Lint);
    actions.push(Action::Close);
    actions
}

/// A route-map session: one insert into the 128-stanza map.
fn large_rm_session(rng: &mut StdRng, strata: &mut Strata) -> Vec<Action> {
    let (cfg, _) = clarify_workload::disambiguation_family(LARGE_RM);
    vec![
        Action::OpenConfig(cfg.to_string()),
        Action::Insert(Insert {
            class: "rm-128",
            kind: Kind::RouteMap,
            router: None,
            target: "RM".to_string(),
            intent: large_rm_intent(),
            slot: strata.slot(rng, "rm-128", LARGE_RM),
        }),
        Action::Close,
    ]
}

fn large_cycle(rng: &mut StdRng, strata: &mut Strata) -> Vec<Vec<Action>> {
    let mut sessions = Vec::new();
    for _ in 0..LARGE_CYCLE.0 {
        sessions.push(large_acl_session(rng, strata));
    }
    for _ in 0..LARGE_CYCLE.1 {
        sessions.push(large_rm_session(rng, strata));
    }
    rng.shuffle(&mut sessions);
    sessions
}

fn large_list(seed: u64, seconds: u64) -> Script {
    let mut warm_rng = StdRng::seed_from_u64(seed ^ 0x5eed_0000_0000_0002);
    let mut warm_strata = Strata::default();
    let warmup = vec![
        large_acl_session(&mut warm_rng, &mut warm_strata),
        large_rm_session(&mut warm_rng, &mut warm_strata),
    ]
    .into_iter()
    .flatten()
    .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut strata = Strata::default();
    let cycles = ((seconds as f64 * LARGE_CYCLES_PER_SECOND).ceil() as usize).max(1);
    let timed = (0..cycles)
        .flat_map(|_| large_cycle(&mut rng, &mut strata))
        .flatten()
        .collect();
    Script { warmup, timed }
}

// ---------------------------------------------------------------------
// edit-relint
// ---------------------------------------------------------------------

/// Edit cycles (insert + re-lint) per second of run length.
const EDIT_CYCLES_PER_SECOND: f64 = 20.0;
/// Edit cycles in the warm-up, after the open and the first full lint.
const EDIT_WARMUP_CYCLES: usize = 4;
/// Every this many edit cycles, a side session opens one object of the
/// resident configuration, lints it and closes, while the resident
/// session stays live: the `open` and full-lint samples of the workload.
const EDIT_SIDE_EVERY: usize = 5;

/// The resident campus-slice configuration: hundreds of ACLs across every
/// campus class, campus and cloud route-maps with their prefix lists, and
/// the `ISP_OUT` policy with its AS-path list. Edits target the clean
/// ACLs and clean route-maps, whose rules are pairwise disjoint.
pub fn resident_config() -> (Config, Vec<(Kind, String)>) {
    let cloud = clarify_workload::cloud(POPULATION_SEED);
    let campus = clarify_workload::campus(POPULATION_SEED);
    let mut cfg = Config::parse(ISP_OUT).expect("testdata/isp_out.cfg parses");
    let mut targets: Vec<(Kind, String)> = Vec::new();
    for (prefix, n) in [
        ("CAMPUS_CLEAN_", 160),
        ("CAMPUS_TAIL_L_", 40),
        ("CAMPUS_TAIL_H_", 20),
        ("CAMPUS_CROSS_L_", 50),
        ("CAMPUS_CROSS_H_", 30),
    ] {
        for acl in campus
            .acls
            .iter()
            .filter(|a| a.name.starts_with(prefix))
            .take(n)
        {
            if prefix == "CAMPUS_CLEAN_" {
                targets.push((Kind::Acl, acl.name.clone()));
            }
            cfg.acls.insert(acl.name.clone(), acl.clone());
        }
    }
    let maps = campus.route_maps.iter().take(60).chain(
        cloud
            .route_maps
            .iter()
            .filter(|(_, n)| n.starts_with("RM_LIGHT_"))
            .take(40),
    );
    for (map_cfg, name) in maps {
        // `CAMPUS_RM_<i>` maps are clean; `CAMPUS_RM_A`/`_B` and the
        // cloud maps nest their stanzas.
        if name
            .strip_prefix("CAMPUS_RM_")
            .is_some_and(|i| i.parse::<u32>().is_ok())
        {
            targets.push((Kind::RouteMap, name.clone()));
        }
        for (k, v) in &map_cfg.prefix_lists {
            cfg.prefix_lists.insert(k.clone(), v.clone());
        }
        for (k, v) in &map_cfg.route_maps {
            cfg.route_maps.insert(k.clone(), v.clone());
        }
    }
    (cfg, targets)
}

/// Which rules of the resident configuration edits have targeted, and
/// how long each edited list has grown.
#[derive(Default)]
struct EditState {
    used: BTreeMap<String, Vec<usize>>,
    grown: BTreeMap<String, usize>,
}

/// One edit: an intent overlapping exactly one not yet targeted rule of a
/// clean list, with a different outcome, so every edit asks exactly one
/// question and commits on its answer. Every third edit is a route-map
/// edit: route-map asks also build a route space over the whole
/// configuration, so they form the slower class, and with the mix fixed
/// the median ask sits among ACL edits (75% into that class) and the
/// 90th percentile among route-map edits (70% into that class).
fn edit_cycle(
    k: usize,
    rng: &mut StdRng,
    strata: &mut Strata,
    pristine: &Config,
    state: &mut EditState,
    targets: &[(Kind, String)],
) -> Vec<Action> {
    let want = if k % 3 == 2 {
        Kind::RouteMap
    } else {
        Kind::Acl
    };
    let of_kind: Vec<&(Kind, String)> = targets.iter().filter(|(kind, _)| *kind == want).collect();
    let (kind, target, rule) = loop {
        let (kind, target) = of_kind[rng.gen_range(0..of_kind.len())];
        let n = rules(pristine, *kind, target);
        let used = state.used.entry(target.clone()).or_default();
        let free: Vec<usize> = (0..n).filter(|i| !used.contains(i)).collect();
        if let Some(&rule) = free.get(rng.gen_range(0..free.len().max(1))) {
            used.push(rule);
            break (*kind, target, rule);
        }
    };
    let (class, intent) = match kind {
        Kind::Acl => {
            let e = &pristine.acls[target].entries[rule];
            let src = match e.src {
                AddrMatch::Any => AddrIntent::Any,
                AddrMatch::Host(ip) => AddrIntent::Host(ip),
                AddrMatch::Net(p) => AddrIntent::Net(p),
            };
            let intent = AclIntent {
                permit: e.action != clarify_netconfig::Action::Permit,
                protocol: Protocol::Tcp,
                src,
                dst: AddrIntent::Any,
                src_ports: PortRange::ANY,
                dst_ports: e.dst_ports,
            };
            ("edit-acl", intent.render_prompt())
        }
        Kind::RouteMap => {
            let stanza = &pristine.route_maps[target].stanzas[rule];
            let net = stanza
                .matches
                .iter()
                .find_map(|m| match m {
                    RouteMapMatch::PrefixList(names) => pristine.prefix_lists[&names[0]]
                        .entries
                        .first()
                        .map(|e| e.range.prefix),
                    _ => None,
                })
                .expect("clean route-map stanzas match one prefix list");
            let intent = RouteMapIntent {
                permit: true,
                prefixes: vec![(net, PrefixConstraint::Exact)],
                sets: vec![SetIntent::Metric(rng.gen_range(1..5000))],
                ..RouteMapIntent::default()
            };
            ("edit-rm", intent.render_prompt())
        }
    };
    let grown = state.grown.entry(target.clone()).or_insert(0);
    let slot = strata.slot(rng, class, rules(pristine, kind, target) + *grown);
    *grown += 1;
    vec![
        Action::Insert(Insert {
            class,
            kind,
            router: None,
            target: target.clone(),
            intent,
            slot,
        }),
        Action::Lint,
    ]
}

/// The `j`-th short session over one object of the resident
/// configuration as first opened (with the prefix lists it references):
/// open, full lint, close. Every fourth is a route-map, the others ACLs,
/// so the median open and lint sit inside the ACL class on every seed.
fn side_session(
    j: usize,
    rng: &mut StdRng,
    cfg: &Config,
    targets: &[(Kind, String)],
) -> Vec<Action> {
    let want = if j % 4 == 3 {
        Kind::RouteMap
    } else {
        Kind::Acl
    };
    let of_kind: Vec<&(Kind, String)> = targets.iter().filter(|(kind, _)| *kind == want).collect();
    let (kind, target) = of_kind[rng.gen_range(0..of_kind.len())];
    let one = crate::client::slice(cfg, *kind, target);
    vec![
        Action::OpenConfig(one.to_string()),
        Action::Lint,
        Action::Close,
    ]
}

fn edit_relint(seed: u64, seconds: u64) -> Script {
    let (pristine, targets) = resident_config();
    let mut state = EditState::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut strata = Strata::default();
    let mut warmup = vec![Action::OpenConfig(pristine.to_string()), Action::Lint];
    for k in 0..EDIT_WARMUP_CYCLES {
        warmup.extend(edit_cycle(
            k,
            &mut rng,
            &mut strata,
            &pristine,
            &mut state,
            &targets,
        ));
    }
    let cycles = ((seconds as f64 * EDIT_CYCLES_PER_SECOND).ceil() as usize).max(1);
    let mut timed = Vec::new();
    for k in 0..cycles {
        timed.extend(edit_cycle(
            k,
            &mut rng,
            &mut strata,
            &pristine,
            &mut state,
            &targets,
        ));
        if k % EDIT_SIDE_EVERY == EDIT_SIDE_EVERY - 1 {
            timed.extend(side_session(
                k / EDIT_SIDE_EVERY,
                &mut rng,
                &pristine,
                &targets,
            ));
        }
    }
    timed.push(Action::Close);
    Script { warmup, timed }
}

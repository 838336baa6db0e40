//! The question each rule-list kind puts to the user.
//!
//! The §4 search is the same for every ordered rule list (see
//! [`clarify_analysis::RuleList`]); what the user sees is not. A
//! route-map question shows a route and the two outcomes with their
//! rewritten attributes, an ACL question a packet and two actions, a
//! prefix-list question a prefix and two verdicts. [`Placeable`] ties
//! each kind to its question type.

use clarify_analysis::{
    Acls, FilterDiff, PrefixListDiff, PrefixLists, RouteDiff, RouteMaps, RuleList, StanzaSnippet,
};
use clarify_llm::PipelineOutcome;
use clarify_netconfig::{Acl, AclVerdict, PrefixList, RouteMap, RouteMapVerdict};
use clarify_nettypes::{BgpRoute, Packet, Prefix};

/// A differential question: one concrete input and the two behaviours it
/// gets with the new rule above (OPTION 1) or below (OPTION 2) a pivot.
pub trait Question: Clone + std::fmt::Debug + std::fmt::Display + Send + Sync {
    /// The pivot rule as prompts and serve frames show it: the stanza
    /// sequence number for route-maps, the entry index otherwise.
    fn pivot(&self) -> u64;
}

/// A rule-list kind the disambiguator can place rules into.
pub trait Placeable: RuleList {
    /// The question asked about this kind.
    type Question: Question;
    /// The error text when a synthesized rule is of another kind.
    const WRONG_INTENT: &'static str;

    /// The question for the first differential `diff` found at the rule
    /// with index `pivot` of `list`.
    fn question(list: &Self::List, pivot: usize, diff: Self::Diff) -> Self::Question;
    /// The rule a synthesis outcome carries, if it is of this kind.
    fn synthesized(outcome: PipelineOutcome) -> Option<Self::Rule>;
}

/// One question to the user: a concrete route and the two behaviours it
/// would get, exactly the paper's OPTION 1 / OPTION 2 exchange.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DisambiguationQuestion {
    /// The differential input route.
    pub route: BgpRoute,
    /// Behaviour if the new stanza is placed *above* the pivot stanza.
    pub option_first: RouteMapVerdict,
    /// Behaviour if the new stanza is placed *below* the pivot stanza.
    pub option_second: RouteMapVerdict,
    /// Sequence number of the pivot stanza in the original policy.
    pub pivot_seq: u32,
}

impl std::fmt::Display for DisambiguationQuestion {
    /// Renders in the paper's §2.2 format.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{}", self.route)?;
        writeln!(f)?;
        writeln!(f, "OPTION 1:")?;
        writeln!(f, "{}", render_verdict(&self.option_first))?;
        writeln!(f, "OPTION 2:")?;
        write!(f, "{}", render_verdict(&self.option_second))
    }
}

fn render_verdict(v: &RouteMapVerdict) -> String {
    match v {
        RouteMapVerdict::Permit { route, .. } => format!("ACTION: permit\n{route}"),
        RouteMapVerdict::DenyBy { .. } | RouteMapVerdict::ImplicitDeny => {
            "ACTION: deny".to_string()
        }
    }
}

impl Question for DisambiguationQuestion {
    fn pivot(&self) -> u64 {
        u64::from(self.pivot_seq)
    }
}

impl Placeable for RouteMaps {
    type Question = DisambiguationQuestion;
    const WRONG_INTENT: &'static str = "expected a route-map intent, got an ACL intent";

    fn question(list: &RouteMap, pivot: usize, d: RouteDiff) -> DisambiguationQuestion {
        DisambiguationQuestion {
            route: d.route,
            option_first: d.a,
            option_second: d.b,
            pivot_seq: list.stanzas[pivot].seq,
        }
    }
    fn synthesized(outcome: PipelineOutcome) -> Option<StanzaSnippet> {
        match outcome {
            PipelineOutcome::RouteMap {
                snippet, map_name, ..
            } => Some(StanzaSnippet {
                config: snippet,
                map: map_name,
            }),
            _ => None,
        }
    }
}

/// One question to the user: a concrete packet and the action it would
/// get under each placement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AclQuestion {
    /// The differential packet.
    pub packet: Packet,
    /// Verdict if the new entry is placed *above* the pivot entry.
    pub option_first: AclVerdict,
    /// Verdict if the new entry is placed *below* the pivot entry.
    pub option_second: AclVerdict,
    /// Zero-based index of the pivot entry in the original ACL.
    pub pivot_index: usize,
}

impl std::fmt::Display for AclQuestion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Packet: {}", self.packet)?;
        writeln!(f)?;
        writeln!(f, "OPTION 1:")?;
        writeln!(f, "ACTION: {}", self.option_first.action)?;
        writeln!(f, "OPTION 2:")?;
        write!(f, "ACTION: {}", self.option_second.action)
    }
}

impl Question for AclQuestion {
    fn pivot(&self) -> u64 {
        self.pivot_index as u64
    }
}

impl Placeable for Acls {
    type Question = AclQuestion;
    const WRONG_INTENT: &'static str = "expected an ACL intent, got a route-map intent";

    fn question(_list: &Acl, pivot: usize, d: FilterDiff) -> AclQuestion {
        AclQuestion {
            packet: d.packet,
            option_first: d.a,
            option_second: d.b,
            pivot_index: pivot,
        }
    }
    fn synthesized(outcome: PipelineOutcome) -> Option<clarify_netconfig::AclEntry> {
        match outcome {
            PipelineOutcome::Acl { entry, .. } => Some(entry),
            _ => None,
        }
    }
}

/// One question: a concrete prefix and whether each placement permits it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PrefixQuestion {
    /// The differential prefix.
    pub prefix: Prefix,
    /// Whether the list permits it with the new entry *above* the pivot.
    pub first_permits: bool,
    /// Whether the list permits it with the new entry *below* the pivot.
    pub second_permits: bool,
    /// Zero-based index of the pivot entry.
    pub pivot_index: usize,
}

impl std::fmt::Display for PrefixQuestion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Prefix: {}", self.prefix)?;
        writeln!(f)?;
        writeln!(
            f,
            "OPTION 1: {}",
            if self.first_permits { "permit" } else { "deny" }
        )?;
        write!(
            f,
            "OPTION 2: {}",
            if self.second_permits {
                "permit"
            } else {
                "deny"
            }
        )
    }
}

impl Question for PrefixQuestion {
    fn pivot(&self) -> u64 {
        self.pivot_index as u64
    }
}

impl Placeable for PrefixLists {
    type Question = PrefixQuestion;
    const WRONG_INTENT: &'static str = "the synthesizer produces no prefix-list entries";

    fn question(_list: &PrefixList, pivot: usize, d: PrefixListDiff) -> PrefixQuestion {
        PrefixQuestion {
            prefix: d.prefix,
            first_permits: d.a_permits,
            second_permits: d.b_permits,
            pivot_index: pivot,
        }
    }
    fn synthesized(_outcome: PipelineOutcome) -> Option<clarify_netconfig::PrefixListEntry> {
        None
    }
}

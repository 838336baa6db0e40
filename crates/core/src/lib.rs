//! Clarify: interactive disambiguation for LLM-based incremental network
//! configuration synthesis.
//!
//! This crate is the paper's primary contribution. Given an existing
//! ordered rule list (a route-map, ACL or prefix list) and a freshly
//! synthesized, *verified* rule, the
//! **disambiguator** determines where the snippet belongs by asking the
//! user a logarithmic number of behavioural questions, each grounded in a
//! concrete differential example computed by `clarify-analysis`:
//!
//! ```text
//!            user intent (English)
//!                  │
//!        ┌─────────▼─────────┐    classify, retrieve, synthesize,
//!        │  clarify-llm      │    extract spec, verify, retry, punt
//!        └─────────┬─────────┘
//!                  │ verified snippet (one stanza)
//!        ┌─────────▼─────────┐    overlap set, binary search,
//!        │  Disambiguator    │    differential examples, user choice
//!        └─────────┬─────────┘
//!                  │ insertion point
//!        ┌─────────▼─────────┐    name freshening, renumbering
//!        │  clarify-netconfig │
//!        └───────────────────┘
//! ```
//!
//! The [`model`] module contains the paper's §4 formalization (the three
//! conditions on the intended semantics `M'`), checkable on finite input
//! universes; the [`Disambiguator`] implements the binary-search algorithm,
//! plus the paper prototype's top-or-bottom-only mode for fidelity.
//!
//! The algorithm is written once for every kind of rule list:
//! [`Disambiguator::plan`] is generic over a [`RuleList`] kind
//! ([`RouteMaps`], [`Acls`], [`PrefixLists`]), and [`Placeable`] ties
//! each kind to the question it asks ([`DisambiguationQuestion`],
//! [`AclQuestion`], [`PrefixQuestion`]). The one [`InsertionPlan`] replays
//! answers turn by turn for the session daemon or runs against a
//! [`UserOracle`] in one shot. The route-map names
//! ([`InsertionPlan`], [`PlanStep`], [`UserOracle`]) are the defaults of
//! the generic types; the ACL ones are aliases.

#![warn(missing_docs)]

mod disambiguator;
mod error;
pub mod model;
mod network_session;
mod oracle;
mod question;
mod session;

pub use clarify_analysis::{Acls, PrefixLists, RouteMaps, RuleList, StanzaSnippet};
pub use disambiguator::{
    insert_acl_with_oracle, insert_prefix_entry_with_oracle, plan_acl_in_space,
    verify_acl_against_intent, verify_against_intent, AclDisambiguationResult, AclInsertionPlan,
    AclPlanStep, DisambiguationResult, Disambiguator, InsertionPlan, InsertionResult,
    PlacementStrategy, PlanStep, PrefixDisambiguationResult,
};
pub use error::ClarifyError;
pub use network_session::{Invariant, NetworkSession, NetworkUpdateOutcome};
pub use oracle::{
    AclIntentOracle, Choice, FnOracle, IntentOracle, PrefixIntentOracle, ScriptedOracle, UserOracle,
};
pub use question::{AclQuestion, DisambiguationQuestion, Placeable, PrefixQuestion, Question};
pub use session::{AddAclOutcome, AddOutcome, AddStanzaOutcome, ClarifySession, SessionStats};

#[cfg(test)]
mod tests;

//! User oracles: anything that can answer a disambiguation question.

use clarify_netconfig::{Acl, Config, PrefixList, RouteMapVerdict};

use crate::error::ClarifyError;
use crate::question::{AclQuestion, DisambiguationQuestion, PrefixQuestion};

/// Which of the two presented behaviours the user wants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Choice {
    /// OPTION 1 — the behaviour where the new stanza handles the example
    /// (insertion above the pivot).
    First,
    /// OPTION 2 — the behaviour where the existing stanza keeps handling
    /// the example (insertion below the pivot).
    Second,
}

/// Anything that can answer the disambiguator's questions of type `Q`: a
/// human at a terminal, a script, or a ground-truth intent. The default
/// is the route-map question.
pub trait UserOracle<Q = DisambiguationQuestion> {
    /// Answers one differential question.
    fn choose(&mut self, question: &Q) -> Result<Choice, ClarifyError>;
}

/// Answers from a ground-truth configuration: the desired final policy.
/// Used by the evaluation harness — it plays a user who knows exactly what
/// they want and always answers consistently.
pub struct IntentOracle<'a> {
    /// The configuration holding the intended policy.
    pub intended: &'a Config,
    /// Name of the intended route-map.
    pub map: &'a str,
}

impl<'a> IntentOracle<'a> {
    /// Creates the oracle.
    pub fn new(intended: &'a Config, map: &'a str) -> Self {
        IntentOracle { intended, map }
    }
}

impl UserOracle for IntentOracle<'_> {
    fn choose(&mut self, q: &DisambiguationQuestion) -> Result<Choice, ClarifyError> {
        let want = self
            .intended
            .eval_route_map(self.map, &q.route)
            .map_err(ClarifyError::Config)?;
        let eq = |a: &RouteMapVerdict, b: &RouteMapVerdict| -> bool {
            match (a, b) {
                (
                    RouteMapVerdict::Permit { route: x, .. },
                    RouteMapVerdict::Permit { route: y, .. },
                ) => x == y,
                (RouteMapVerdict::Permit { .. }, _) | (_, RouteMapVerdict::Permit { .. }) => false,
                _ => true,
            }
        };
        if eq(&want, &q.option_first) {
            Ok(Choice::First)
        } else if eq(&want, &q.option_second) {
            Ok(Choice::Second)
        } else {
            // Neither option matches the intent: the update cannot be
            // realized by inserting this snippet anywhere (condition
            // violation); surface it with the example route.
            Err(ClarifyError::NoValidInsertion {
                witness: Box::new(q.route.clone()),
            })
        }
    }
}

/// Replays a fixed list of answers; errs when exhausted.
#[derive(Clone, Debug, Default)]
pub struct ScriptedOracle {
    answers: std::collections::VecDeque<Choice>,
}

impl ScriptedOracle {
    /// Creates an oracle that returns the given answers in order.
    pub fn new(answers: impl IntoIterator<Item = Choice>) -> Self {
        ScriptedOracle {
            answers: answers.into_iter().collect(),
        }
    }
}

impl<Q> UserOracle<Q> for ScriptedOracle {
    fn choose(&mut self, _q: &Q) -> Result<Choice, ClarifyError> {
        self.answers
            .pop_front()
            .ok_or(ClarifyError::OracleExhausted)
    }
}

/// Adapts a closure into an oracle (handy for interactive CLIs and tests).
pub struct FnOracle<F>(pub F);

impl<Q, F> UserOracle<Q> for FnOracle<F>
where
    F: FnMut(&Q) -> Choice,
{
    fn choose(&mut self, q: &Q) -> Result<Choice, ClarifyError> {
        Ok((self.0)(q))
    }
}

/// Answers ACL questions from the intended final ACL.
pub struct AclIntentOracle<'a> {
    /// The intended final ACL.
    pub intended: &'a Acl,
}

impl UserOracle<AclQuestion> for AclIntentOracle<'_> {
    fn choose(&mut self, q: &AclQuestion) -> Result<Choice, ClarifyError> {
        let want = self
            .intended
            .entries
            .iter()
            .find(|e| e.matches(&q.packet))
            .map_or(clarify_netconfig::Action::Deny, |e| e.action);
        if want == q.option_first.action {
            Ok(Choice::First)
        } else {
            // Binary actions: if it is not the first option it must be the
            // second (the two options always differ).
            debug_assert_eq!(want, q.option_second.action);
            Ok(Choice::Second)
        }
    }
}

/// Answers prefix-list questions from the intended final list.
pub struct PrefixIntentOracle<'a> {
    /// The intended final prefix list.
    pub intended: &'a PrefixList,
}

impl UserOracle<PrefixQuestion> for PrefixIntentOracle<'_> {
    fn choose(&mut self, q: &PrefixQuestion) -> Result<Choice, ClarifyError> {
        let want = self.intended.permits(&q.prefix);
        if want == q.first_permits {
            Ok(Choice::First)
        } else {
            debug_assert_eq!(want, q.second_permits);
            Ok(Choice::Second)
        }
    }
}

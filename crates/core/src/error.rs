//! Evaluation errors.
//!
//! Evaluating CALC over complex objects can be hyperexponential in the
//! input (that is the paper's point). The engine therefore treats blowups
//! as *first-class errors*: every quantifier range and every step of work
//! is budgeted by the shared [`no_object::Governor`], and exceeding a
//! budget returns a structured error instead of consuming unbounded time
//! or memory.

use no_object::governor::ResourceError;
use no_object::{DomainError, Nat, Type};
use std::fmt;

/// An evaluation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// Domain arithmetic failed (cardinality over the global cap).
    Domain(DomainError),
    /// A quantifier range exceeded [`no_object::Limits::max_range`].
    RangeTooLarge {
        /// The variable whose range blew up.
        var: String,
        /// Its type.
        ty: Type,
        /// The offending cardinality.
        card: Nat,
    },
    /// A governor budget (step fuel, range, iterations, memory, deadline,
    /// or cancellation) was exhausted; the payload names which, where, and
    /// how much was consumed.
    Resource(ResourceError),
    /// A `PFP` iteration entered a cycle or exceeded the iteration budget
    /// without converging (Definition 3.1: the limit then does not exist;
    /// the paper leaves the query value undefined — we surface it).
    PfpDiverged {
        /// The fixpoint relation name.
        rel: String,
        /// Iterations performed before giving up or detecting the cycle.
        iters: u64,
    },
    /// A relation name was neither in the instance nor bound in scope.
    UnknownRelation(String),
    /// A variable had no binding and no range — static checking should
    /// prevent this; it indicates a malformed query.
    UnboundVariable(String),
    /// A term evaluated to a value of the wrong shape (e.g. projection of
    /// a set). Static checking should prevent this.
    ShapeError(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Domain(e) => write!(f, "{e}"),
            EvalError::RangeTooLarge { var, ty, card } => write!(
                f,
                "range of variable {var}:{ty} has cardinality {card}, over the configured budget"
            ),
            EvalError::Resource(e) => write!(f, "{e}"),
            EvalError::PfpDiverged { rel, iters } => {
                write!(f, "PFP({rel}) did not converge after {iters} iterations")
            }
            EvalError::UnknownRelation(r) => write!(f, "unknown relation {r}"),
            EvalError::UnboundVariable(v) => write!(f, "unbound variable {v}"),
            EvalError::ShapeError(m) => write!(f, "shape error: {m}"),
        }
    }
}

impl std::error::Error for EvalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EvalError::Domain(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DomainError> for EvalError {
    fn from(e: DomainError) -> Self {
        EvalError::Domain(e)
    }
}

impl From<ResourceError> for EvalError {
    fn from(e: ResourceError) -> Self {
        EvalError::Resource(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        let e = EvalError::RangeTooLarge {
            var: "X".into(),
            ty: Type::set(Type::Atom),
            card: Nat::pow2(40),
        };
        let s = e.to_string();
        assert!(s.contains("X"), "{s}");
        assert!(s.contains("{U}"), "{s}");
        let r = EvalError::Resource(ResourceError {
            budget: no_object::BudgetKind::Steps,
            site: "calc.eval",
            spent: 8,
            limit: 7,
        });
        let s = r.to_string();
        assert!(s.contains('7') && s.contains("calc.eval"), "{s}");
    }

    #[test]
    fn domain_error_wraps() {
        let d = DomainError::TooLarge { ty: Type::Atom };
        let e: EvalError = d.clone().into();
        assert_eq!(e, EvalError::Domain(d));
    }
}

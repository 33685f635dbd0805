//! Deterministic fault injection for resource-exhaustion testing.
//!
//! Resource failures in a BDD package are hard to test naturally: the
//! node count at which an operation trips a limit depends on cache
//! contents, garbage-collection history and platform timing, and the
//! 31-bit index space behind [`crate::BddError::Capacity`] is
//! unreachable on purpose. A [`FaultPlan`] armed via
//! [`crate::BddManager::set_fault_plan`] makes these paths determinate:
//! it fails the *k-th* node allocation (and, sticky, every later one) or
//! the *k-th* [`crate::BddManager::check_deadline`] call, independent of
//! wall clock or real memory pressure. An allocation fault can also
//! report a deadline, as the allocation path's own deadline poll does
//! inside an operation, where no `check_deadline` call reaches.
//!
//! Faults are **sticky** by design: once the trigger ordinal is reached,
//! every subsequent allocation (or deadline check) fails until the plan
//! is cleared. A one-shot fault would be masked by the manager's
//! reclaim-before-fail retry — the retry would simply succeed and the
//! exhaustion path under test would never surface.

/// Which error a triggered allocation fault reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Report [`crate::BddError::NodeLimit`] (a memory-out).
    NodeLimit,
    /// Report [`crate::BddError::Capacity`] (index-space exhaustion).
    Capacity,
    /// Report [`crate::BddError::Deadline`] (a time-out tripped by the
    /// allocation path's deadline poll).
    Deadline,
}

/// A deterministic fault schedule for one [`crate::BddManager`].
///
/// Ordinals are 1-based and sticky: `node_limit_at(k)` fails the k-th and
/// every subsequent node allocation until the plan is cleared with
/// [`crate::BddManager::clear_fault_plan`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Fail allocations with ordinal ≥ this (1-based), if set.
    pub fail_alloc_at: Option<u64>,
    /// Error reported by a triggered allocation fault.
    pub alloc_fault_kind: Option<FaultKind>,
    /// Fail `check_deadline` calls with ordinal ≥ this (1-based), if set.
    pub fail_deadline_at: Option<u64>,
}

impl FaultPlan {
    /// A plan that fails the `k`-th (and every later) node allocation
    /// with [`crate::BddError::NodeLimit`].
    #[must_use]
    pub fn node_limit_at(k: u64) -> Self {
        FaultPlan {
            fail_alloc_at: Some(k.max(1)),
            alloc_fault_kind: Some(FaultKind::NodeLimit),
            fail_deadline_at: None,
        }
    }

    /// A plan that fails the `k`-th (and every later) node allocation
    /// with [`crate::BddError::Capacity`].
    #[must_use]
    pub fn capacity_at(k: u64) -> Self {
        FaultPlan {
            fail_alloc_at: Some(k.max(1)),
            alloc_fault_kind: Some(FaultKind::Capacity),
            fail_deadline_at: None,
        }
    }

    /// A plan that fails the `k`-th (and every later) node allocation
    /// with [`crate::BddError::Deadline`], as a deadline that passes in
    /// the middle of an operation does.
    #[must_use]
    pub fn deadline_in_alloc_at(k: u64) -> Self {
        FaultPlan {
            fail_alloc_at: Some(k.max(1)),
            alloc_fault_kind: Some(FaultKind::Deadline),
            fail_deadline_at: None,
        }
    }

    /// A plan that fails the `k`-th (and every later)
    /// [`crate::BddManager::check_deadline`] call with
    /// [`crate::BddError::Deadline`].
    #[must_use]
    pub fn deadline_at(k: u64) -> Self {
        FaultPlan {
            fail_alloc_at: None,
            alloc_fault_kind: None,
            fail_deadline_at: Some(k.max(1)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_clamp_to_one() {
        assert_eq!(FaultPlan::node_limit_at(0).fail_alloc_at, Some(1));
        assert_eq!(FaultPlan::deadline_at(0).fail_deadline_at, Some(1));
        let c = FaultPlan::capacity_at(5);
        assert_eq!(c.fail_alloc_at, Some(5));
        assert_eq!(c.alloc_fault_kind, Some(FaultKind::Capacity));
        assert_eq!(c.fail_deadline_at, None);
        let d = FaultPlan::deadline_in_alloc_at(0);
        assert_eq!(d.fail_alloc_at, Some(1));
        assert_eq!(d.alloc_fault_kind, Some(FaultKind::Deadline));
    }
}

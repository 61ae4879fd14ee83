//! Equi-join specifications: what [`crate::ColCollection::join`] and
//! [`crate::ColCollection::skew_join`] are asked to compute — key columns,
//! join kind and the planner's strategy hint.

/// Inner or left-outer equi-join.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// Emit only matching pairs.
    Inner,
    /// Additionally emit unmatched left rows; the right side's attributes
    /// are absent from them.
    LeftOuter,
}

/// A physical strategy requested by the planner for one join execution.
///
/// The plan optimizer annotates `Plan::Join` nodes with a strategy when the
/// catalog's size information makes the choice provable; the hint is carried
/// down to the engine through [`JoinSpec::with_hint`]. `Auto` keeps the
/// engine's size-based runtime decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinHint {
    /// Decide broadcast vs. shuffle from the actual side sizes at runtime.
    #[default]
    Auto,
    /// Replicate the right side to every worker (the planner proved it fits
    /// under the broadcast limit).
    BroadcastRight,
    /// Shuffle both sides by key hash (the planner proved neither side fits).
    Shuffle,
}

/// Specification of a distributed equi-join: key columns on each side, the
/// join kind and the planner's strategy hint. The output row is the left row
/// with the whole right row laid over it.
#[derive(Debug, Clone)]
pub struct JoinSpec {
    left_keys: Vec<String>,
    right_keys: Vec<String>,
    kind: JoinKind,
    hint: JoinHint,
}

impl JoinSpec {
    /// An inner equi-join on `left_keys` = `right_keys` (positionally).
    pub fn inner(left_keys: &[&str], right_keys: &[&str]) -> JoinSpec {
        JoinSpec {
            left_keys: left_keys.iter().map(|s| s.to_string()).collect(),
            right_keys: right_keys.iter().map(|s| s.to_string()).collect(),
            kind: JoinKind::Inner,
            hint: JoinHint::Auto,
        }
    }

    /// A left-outer equi-join on `left_keys` = `right_keys` (positionally).
    pub fn left_outer(left_keys: &[&str], right_keys: &[&str]) -> JoinSpec {
        JoinSpec {
            kind: JoinKind::LeftOuter,
            ..JoinSpec::inner(left_keys, right_keys)
        }
    }

    /// The left-side key columns.
    pub fn left_keys(&self) -> &[String] {
        &self.left_keys
    }

    /// The right-side key columns.
    pub fn right_keys(&self) -> &[String] {
        &self.right_keys
    }

    /// The join kind.
    pub fn kind(&self) -> JoinKind {
        self.kind
    }

    /// Requests a physical strategy chosen by the planner instead of the
    /// engine's runtime size check.
    pub fn with_hint(mut self, hint: JoinHint) -> JoinSpec {
        self.hint = hint;
        self
    }

    /// The planner's strategy hint.
    pub fn hint(&self) -> JoinHint {
        self.hint
    }
}

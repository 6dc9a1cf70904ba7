//! Shared protocol types: identifiers, modes, and tid-list entries.
//!
//! These mirror the global variables of the paper's storage-node pseudocode
//! (Fig. 4/5/6) and the write identifiers of Fig. 5 line 2.

use std::fmt;

/// Identifies a client node (`p` in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ClientId(pub u32);

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Identifies a *logical* storage node (`S_1..S_n`, zero-based). Logical
/// identity survives fail-remap (§3.5): the directory points it at a fresh
/// physical node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Identifies an erasure-code stripe. All protocol state (locks, epochs,
/// tid lists) is kept **per stripe-block**, so recovery of one stripe never
/// interferes with others.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct StripeId(pub u64);

impl fmt::Display for StripeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stripe{}", self.0)
    }
}

/// A unique write identifier: the paper's `tid = ⟨seq, i, p⟩` (Fig. 5
/// line 2) — sequence number, data-block index within the stripe, and the
/// originating client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tid {
    /// Client-local sequence number.
    pub seq: u64,
    /// Index `i` of the data block the write targets (`0..k`).
    pub block: usize,
    /// The writing client `p`.
    pub client: ClientId,
}

impl Tid {
    /// Builds a tid; mirrors `ntid ← ⟨seq, i, p⟩`.
    pub fn new(seq: u64, block: usize, client: ClientId) -> Self {
        Tid { seq, block, client }
    }
}

impl fmt::Display for Tid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨{},{},{}⟩", self.seq, self.block, self.client)
    }
}

/// Recovery epoch number (§3.8 "Epochs"). Incremented by every completed
/// recovery; storage nodes reject `add`s from earlier epochs so a `WRITE`
/// whose `swap` ran before a recovery cannot garble the recovered stripe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Epoch(pub u64);

impl Epoch {
    /// The epoch after this one.
    pub fn next(self) -> Epoch {
        Epoch(self.0 + 1)
    }
}

impl fmt::Display for Epoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Operational mode of a stripe-block (Fig. 4 line 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OpMode {
    /// Valid data in `block`.
    #[default]
    Norm,
    /// Recovery phase 3 in progress; `recons_set` names the consistent set.
    Recons,
    /// Invalid data (fresh node after fail-remap).
    Init,
}

/// Lock mode of a stripe-block (Fig. 4 line 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LMode {
    /// Unlocked: `swap` and `add` allowed.
    #[default]
    Unl,
    /// Partial lock: `add` allowed (recovery is waiting for outstanding
    /// writes to complete), `swap` rejected.
    L0,
    /// Full lock: both rejected.
    L1,
    /// Expired lock: the locking client crashed; the next client to see this
    /// starts recovery.
    Exp,
}

impl LMode {
    /// True for the modes in which a client may *start* recovery
    /// (`lmode ∈ {UNL, EXP}`, Fig. 4 line 3).
    pub fn allows_recovery_start(self) -> bool {
        matches!(self, LMode::Unl | LMode::Exp)
    }

    /// True if the block is held by a recovery lock (L0 or L1).
    pub fn is_locked(self) -> bool {
        matches!(self, LMode::L0 | LMode::L1)
    }
}

/// An entry of `recentlist`/`oldlist`: a write identifier stamped with the
/// node-local logical time of its arrival (Fig. 5 line 24).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TidEntry {
    /// The write identifier.
    pub tid: Tid,
    /// Node-local arrival time (monotonic per stripe-block).
    pub time: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tids_order_by_seq_then_block_then_client() {
        let a = Tid::new(1, 0, ClientId(0));
        let b = Tid::new(2, 0, ClientId(0));
        assert!(a < b);
        assert_ne!(a, b);
        assert_eq!(a, Tid::new(1, 0, ClientId(0)));
    }

    #[test]
    fn lmode_predicates_match_paper() {
        assert!(LMode::Unl.allows_recovery_start());
        assert!(LMode::Exp.allows_recovery_start());
        assert!(!LMode::L0.allows_recovery_start());
        assert!(!LMode::L1.allows_recovery_start());
        assert!(LMode::L0.is_locked());
        assert!(LMode::L1.is_locked());
        assert!(!LMode::Unl.is_locked());
        assert!(!LMode::Exp.is_locked());
    }

    #[test]
    fn epoch_next_increments() {
        assert_eq!(Epoch(0).next(), Epoch(1));
        assert!(Epoch(1) > Epoch(0));
    }

    #[test]
    fn display_forms_are_compact() {
        assert_eq!(ClientId(3).to_string(), "c3");
        assert_eq!(NodeId(7).to_string(), "s7");
        assert_eq!(Tid::new(9, 1, ClientId(2)).to_string(), "⟨9,1,c2⟩");
        assert_eq!(Epoch(4).to_string(), "e4");
        assert_eq!(StripeId(11).to_string(), "stripe11");
    }

    #[test]
    fn defaults_are_paper_initial_values() {
        assert_eq!(OpMode::default(), OpMode::Norm);
        assert_eq!(LMode::default(), LMode::Unl);
        assert_eq!(Epoch::default(), Epoch(0));
    }
}

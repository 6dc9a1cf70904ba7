//! Consistency checking for recorded operation histories.
//!
//! The paper's §3.1 promises "the same \[guarantee\] as provided by *regular
//! registers* generalized to multiple writers": a read never returns a value
//! that was never written or that was already overwritten; a read concurrent
//! with writes may return any of those writes' values or the previously
//! written value.
//!
//! This crate lets test harnesses *check* that guarantee on real executions:
//! a [`Recorder`] timestamps operation invocations and responses across
//! threads, and [`check_regular`] validates every read of the resulting
//! [`History`] against multi-writer regularity.
//!
//! # Checked condition
//!
//! For a read `r` returning value `v` there must exist a write `w` with
//! value `v` such that:
//!
//! 1. `w` began before `r` ended (the value did not come from the future);
//! 2. no other write `w'` both *strictly follows* `w` (`w.end < w'.start`)
//!    and *strictly precedes* `r` (`w'.end < r.start`). In other words, `v`
//!    was not already overwritten by a write that completed before the read
//!    began.
//!
//! The initial value is modeled as a virtual write that precedes all
//! operations, so a read of the initial value is legal exactly when no real
//! write completed before the read started.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A location (register) identifier — in the storage system, a logical
/// block number.
pub type Location = u64;

/// What an operation did at its location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpKind<V> {
    /// A completed write of `value`.
    Write {
        /// The value written.
        value: V,
    },
    /// A completed read returning `value` (`None` = initial value).
    Read {
        /// The value returned; `None` means the register's initial value.
        value: Option<V>,
    },
}

/// One completed operation with its invocation/response timestamps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpRecord<V> {
    /// Issuing client (for diagnostics only).
    pub client: u32,
    /// Logical invocation timestamp.
    pub start: u64,
    /// Logical response timestamp (`start < end` for well-formed records).
    pub end: u64,
    /// The operation.
    pub op: OpKind<V>,
}

/// A multi-location history of completed operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct History<V> {
    per_location: HashMap<Location, Vec<OpRecord<V>>>,
}

impl<V> Default for History<V> {
    fn default() -> Self {
        History::new()
    }
}

impl<V> History<V> {
    /// An empty history.
    pub fn new() -> Self {
        History {
            per_location: HashMap::new(),
        }
    }

    /// Appends a completed operation at `loc`.
    pub fn push(&mut self, loc: Location, record: OpRecord<V>) {
        self.per_location.entry(loc).or_default().push(record);
    }

    /// Iterates over `(location, operations)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Location, &Vec<OpRecord<V>>)> {
        self.per_location.iter()
    }

    /// Total number of recorded operations.
    pub fn len(&self) -> usize {
        self.per_location.values().map(Vec::len).sum()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A regularity violation found by [`check_regular`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The location where the violation occurred.
    pub location: Location,
    /// The offending read.
    pub read_client: u32,
    /// Invocation time of the read.
    pub read_start: u64,
    /// Human-readable explanation.
    pub reason: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "regularity violation at location {} (read by client {} at t={}): {}",
            self.location, self.read_client, self.read_start, self.reason
        )
    }
}

impl std::error::Error for Violation {}

/// Checks every read in `history` against multi-writer regularity.
///
/// # Errors
///
/// Returns the first [`Violation`] found, or `Ok(())` if the history is
/// regular.
pub fn check_regular<V: Eq + fmt::Debug>(history: &History<V>) -> Result<(), Violation> {
    for (&loc, ops) in history.per_location.iter() {
        let writes: Vec<&OpRecord<V>> = ops
            .iter()
            .filter(|o| matches!(o.op, OpKind::Write { .. }))
            .collect();
        for read in ops.iter() {
            let OpKind::Read { value } = &read.op else {
                continue;
            };
            // A write that strictly precedes the read and could supersede
            // candidates: w' with w'.end < read.start.
            let superseders: Vec<&&OpRecord<V>> =
                writes.iter().filter(|w| w.end < read.start).collect();
            match value {
                None => {
                    // Initial value: illegal if any write completed first.
                    if let Some(w) = superseders.first() {
                        return Err(Violation {
                            location: loc,
                            read_client: read.client,
                            read_start: read.start,
                            reason: format!(
                                "returned the initial value although client {}'s write \
                                 (t={}..{}) completed before the read began",
                                w.client, w.start, w.end
                            ),
                        });
                    }
                }
                Some(v) => {
                    let candidates: Vec<&&OpRecord<V>> = writes
                        .iter()
                        .filter(|w| {
                            matches!(&w.op, OpKind::Write { value } if value == v)
                                && w.start <= read.end
                        })
                        .collect();
                    if candidates.is_empty() {
                        return Err(Violation {
                            location: loc,
                            read_client: read.client,
                            read_start: read.start,
                            reason: format!(
                                "returned {v:?}, which no write produced before the read ended"
                            ),
                        });
                    }
                    let some_fresh = candidates.iter().any(|w| {
                        !superseders
                            .iter()
                            .any(|s| w.end < s.start && s.end < read.start)
                    });
                    if !some_fresh {
                        return Err(Violation {
                            location: loc,
                            read_client: read.client,
                            read_start: read.start,
                            reason: format!(
                                "returned {v:?}, but every write of that value was \
                                 overwritten before the read began"
                            ),
                        });
                    }
                }
            }
        }
    }
    Ok(())
}

/// Thread-safe recorder: hands out logical timestamps and accumulates
/// completed operations into a [`History`].
///
/// # Example
///
/// ```
/// use ajx_consistency::{check_regular, OpKind, Recorder};
///
/// let rec = Recorder::new();
/// let pending = rec.invoke();
/// // ... perform the write against the real system ...
/// rec.complete_write(7, 1, pending, 42u64);
///
/// let pending = rec.invoke();
/// rec.complete_read(7, 2, pending, Some(42u64));
/// assert!(check_regular(&rec.take_history()).is_ok());
/// ```
#[derive(Debug)]
pub struct Recorder<V> {
    clock: AtomicU64,
    history: Mutex<History<V>>,
}

/// Token holding an operation's invocation timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pending {
    start: u64,
}

impl<V> Recorder<V> {
    /// A fresh recorder with its clock at zero.
    pub fn new() -> Arc<Self> {
        Arc::new(Recorder {
            clock: AtomicU64::new(0),
            history: Mutex::new(History::new()),
        })
    }

    /// Marks an operation's invocation; call *before* issuing it.
    pub fn invoke(&self) -> Pending {
        Pending {
            start: self.clock.fetch_add(1, Ordering::SeqCst) + 1,
        }
    }

    /// Records a completed write.
    pub fn complete_write(&self, loc: Location, client: u32, pending: Pending, value: V) {
        let end = self.clock.fetch_add(1, Ordering::SeqCst) + 1;
        self.history.lock().push(
            loc,
            OpRecord {
                client,
                start: pending.start,
                end,
                op: OpKind::Write { value },
            },
        );
    }

    /// Records a write whose outcome is *unknown* — its RPC failed
    /// indeterminately (timeout / lost reply), so it may have taken effect
    /// already, may take effect later, or may never take effect.
    ///
    /// The record gets `end = u64::MAX`, making it concurrent with every
    /// subsequent operation: it can justify a read that returns its value,
    /// but it can never supersede an older value. This is the sound way to
    /// fold failed writes into a regularity check — dropping them would
    /// flag legitimate reads of a value that *did* land as "never written".
    pub fn complete_write_indeterminate(
        &self,
        loc: Location,
        client: u32,
        pending: Pending,
        value: V,
    ) {
        self.history.lock().push(
            loc,
            OpRecord {
                client,
                start: pending.start,
                end: u64::MAX,
                op: OpKind::Write { value },
            },
        );
    }

    /// Records a completed read (`None` = initial value observed).
    pub fn complete_read(&self, loc: Location, client: u32, pending: Pending, value: Option<V>) {
        let end = self.clock.fetch_add(1, Ordering::SeqCst) + 1;
        self.history.lock().push(
            loc,
            OpRecord {
                client,
                start: pending.start,
                end,
                op: OpKind::Read { value },
            },
        );
    }

    /// Extracts the history accumulated so far, leaving the recorder empty.
    pub fn take_history(&self) -> History<V> {
        std::mem::take(&mut *self.history.lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(client: u32, start: u64, end: u64, value: u64) -> OpRecord<u64> {
        OpRecord {
            client,
            start,
            end,
            op: OpKind::Write { value },
        }
    }

    fn r(client: u32, start: u64, end: u64, value: Option<u64>) -> OpRecord<u64> {
        OpRecord {
            client,
            start,
            end,
            op: OpKind::Read { value },
        }
    }

    fn hist(ops: Vec<OpRecord<u64>>) -> History<u64> {
        let mut h = History::new();
        for op in ops {
            h.push(0, op);
        }
        h
    }

    #[test]
    fn empty_history_is_regular() {
        assert!(check_regular(&hist(vec![])).is_ok());
        assert!(History::<u64>::new().is_empty());
    }

    #[test]
    fn sequential_read_sees_latest_write() {
        let h = hist(vec![w(1, 1, 2, 10), w(1, 3, 4, 20), r(2, 5, 6, Some(20))]);
        assert!(check_regular(&h).is_ok());
    }

    #[test]
    fn stale_read_of_overwritten_value_is_a_violation() {
        // w(10) then w(20) both complete before the read begins; reading 10
        // is exactly the "value that was overwritten" the paper forbids.
        let h = hist(vec![w(1, 1, 2, 10), w(1, 3, 4, 20), r(2, 5, 6, Some(10))]);
        let v = check_regular(&h).unwrap_err();
        assert!(v.to_string().contains("overwritten"));
    }

    #[test]
    fn read_of_never_written_value_is_a_violation() {
        let h = hist(vec![w(1, 1, 2, 10), r(2, 3, 4, Some(99))]);
        let v = check_regular(&h).unwrap_err();
        assert!(v.reason.contains("no write produced"));
    }

    #[test]
    fn concurrent_read_may_see_old_or_new() {
        // Write of 20 overlaps the read: both 10 (previous) and 20 are legal.
        let old = hist(vec![w(1, 1, 2, 10), w(1, 4, 8, 20), r(2, 5, 6, Some(10))]);
        assert!(check_regular(&old).is_ok());
        let new = hist(vec![w(1, 1, 2, 10), w(1, 4, 8, 20), r(2, 5, 6, Some(20))]);
        assert!(check_regular(&new).is_ok());
    }

    #[test]
    fn read_concurrent_with_multiple_writes_may_see_any() {
        let base = vec![w(1, 1, 2, 10), w(2, 3, 9, 20), w(3, 4, 10, 30)];
        for v in [10, 20, 30] {
            let mut ops = base.clone();
            ops.push(r(4, 5, 6, Some(v)));
            assert!(check_regular(&hist(ops)).is_ok(), "value {v} should be legal");
        }
    }

    #[test]
    fn future_value_is_a_violation() {
        // The write starts after the read ends; seeing its value is illegal.
        let h = hist(vec![r(2, 1, 2, Some(10)), w(1, 3, 4, 10)]);
        assert!(check_regular(&h).is_err());
    }

    #[test]
    fn initial_value_rules() {
        // Legal while no write has completed...
        assert!(check_regular(&hist(vec![r(1, 1, 2, None), w(2, 3, 4, 5)])).is_ok());
        // ...and while a write is merely concurrent...
        assert!(check_regular(&hist(vec![w(2, 1, 5, 5), r(1, 2, 3, None)])).is_ok());
        // ...but illegal once a write completed before the read began.
        let v = check_regular(&hist(vec![w(2, 1, 2, 5), r(1, 3, 4, None)])).unwrap_err();
        assert!(v.reason.contains("initial value"));
    }

    #[test]
    fn duplicate_values_use_any_witness() {
        // Two writes of the same value; the earlier is overwritten but the
        // later is fresh — the read is legal via the later witness.
        let h = hist(vec![
            w(1, 1, 2, 10),
            w(2, 3, 4, 99),
            w(3, 5, 6, 10),
            r(4, 7, 8, Some(10)),
        ]);
        assert!(check_regular(&h).is_ok());
    }

    #[test]
    fn locations_are_independent() {
        let mut h = History::new();
        h.push(1, w(1, 1, 2, 10));
        h.push(2, r(2, 3, 4, None)); // initial at loc 2: fine
        assert!(check_regular(&h).is_ok());
        assert_eq!(h.len(), 2);
        assert_eq!(h.iter().count(), 2);
    }

    #[test]
    fn recorder_round_trip_multithreaded() {
        let rec: Arc<Recorder<u64>> = Recorder::new();
        let handles: Vec<_> = (0..4)
            .map(|c| {
                let rec = rec.clone();
                std::thread::spawn(move || {
                    for i in 0..50 {
                        let p = rec.invoke();
                        rec.complete_write(c, c as u32, p, c * 1000 + i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let hist = rec.take_history();
        assert_eq!(hist.len(), 200);
        assert!(check_regular(&hist).is_ok(), "write-only history is regular");
        assert!(rec.take_history().is_empty(), "take drains");
        // Timestamps are well-formed.
    }

    #[test]
    fn indeterminate_write_is_concurrent_with_every_later_read() {
        let rec: Arc<Recorder<u64>> = Recorder::new();
        let p = rec.invoke();
        rec.complete_write(0, 1, p, 10);
        let p = rec.invoke();
        rec.complete_write_indeterminate(0, 2, p, 20);
        // Arbitrarily later, a read may see the old value (the lost write
        // never landed) or the new one (it landed after all) — but the
        // indeterminate write must never make reading 10 a violation.
        let p = rec.invoke();
        rec.complete_read(0, 3, p, Some(10));
        let p = rec.invoke();
        rec.complete_read(0, 3, p, Some(20));
        assert!(check_regular(&rec.take_history()).is_ok());
    }

    #[test]
    fn violation_display_mentions_location_and_client() {
        let h = hist(vec![w(1, 1, 2, 10), r(7, 3, 4, Some(99))]);
        let v = check_regular(&h).unwrap_err();
        let msg = v.to_string();
        assert!(msg.contains("location 0"));
        assert!(msg.contains("client 7"));
    }
}

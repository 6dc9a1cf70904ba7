//! Common-case cost models of the AJX protocol family and of the two
//! published baselines the paper compares against (Fig. 1): **FAB**
//! (Frølund et al., DSN 2004) and **GWGR** (Goodson et al., DSN 2004).
//!
//! Fig. 1 compares *failure-free* executions only, so full reimplementation
//! of FAB's quorum/log machinery or GWGR's Byzantine-tolerant verification
//! is out of scope; what matters — and what this crate models — is each
//! protocol's common-case **message pattern**: who talks to whom, in how
//! many rounds, carrying how many block payloads. Each operation is encoded
//! as an [`OpTrace`] (rounds of request/reply messages), and every Fig. 1
//! column is *derived* from the trace rather than hard-coded, so the table
//! regenerated by `fig1_comparison` is an actual computation. The AJX rows
//! are additionally cross-checked against message counts measured from the
//! real instrumented implementation (see `tests/fig1_measured.rs` in the
//! integration-test crate).
//!
//! Under load, [`run_baseline`] runs the same patterns through the §5.2
//! simulator: FAB's and GWGR's as phases of `ajx_sim::closed_loop`, the
//! AJX rows as `ajx_sim::run` under each row's own update strategy — one
//! model for all five rows.
//!
//! Pattern sources:
//!
//! * **AJX-par / -bcast / -ser** — this paper's Fig. 5 (and §3.11 for the
//!   broadcast variant).
//! * **FAB** — erasure-coded writes update *every* node of the stripe in
//!   two rounds (the seda-style coordinator collects the old data in round
//!   one and installs in round two); reads query `k` storage nodes, one of
//!   which returns the block.
//! * **GWGR** — whole-stripe (`k`-block granularity) writes in two rounds
//!   to all `n` nodes; reads fetch all `n` fragments in one round.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod sim;

pub use sim::run_baseline;


/// The protocols compared in Fig. 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// This paper's protocol with parallel adds.
    AjxPar,
    /// This paper's protocol with the broadcast optimization (§3.11).
    AjxBcast,
    /// This paper's protocol with serial adds.
    AjxSer,
    /// The FAB decentralized erasure-coded disk-array protocol.
    Fab,
    /// The Goodson et al. erasure-coded Byzantine-tolerant storage protocol.
    Gwgr,
}

impl Protocol {
    /// All five rows of Fig. 1, in the paper's order.
    pub const ALL: [Protocol; 5] = [
        Protocol::AjxPar,
        Protocol::AjxBcast,
        Protocol::AjxSer,
        Protocol::Fab,
        Protocol::Gwgr,
    ];

    /// The row label used in Fig. 1.
    pub fn label(self) -> &'static str {
        match self {
            Protocol::AjxPar => "AJX-par",
            Protocol::AjxBcast => "AJX-bcast",
            Protocol::AjxSer => "AJX-ser",
            Protocol::Fab => "FAB",
            Protocol::Gwgr => "GWGR",
        }
    }
}

/// One message in a trace: a request and its reply, with payload sizes in
/// units of **blocks** (headers are ignored, as in Fig. 1's `B` columns).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Msg {
    /// Block payloads carried by the request (0 for header-only).
    pub req_blocks: f64,
    /// Block payloads carried by the reply.
    pub rep_blocks: f64,
    /// Whether the request is a link-layer multicast (charged once to the
    /// sender regardless of fan-out).
    pub multicast_width: usize,
}

impl Msg {
    /// A unicast request/reply pair.
    pub fn unicast(req_blocks: f64, rep_blocks: f64) -> Self {
        Msg {
            req_blocks,
            rep_blocks,
            multicast_width: 1,
        }
    }
}

/// A failure-free operation execution: rounds of parallel messages.
///
/// Latency in round trips is the number of rounds; message and bandwidth
/// totals are sums over messages.
#[derive(Debug, Clone, PartialEq)]
pub struct OpTrace {
    /// Sequential rounds; messages within a round fly in parallel.
    pub rounds: Vec<Vec<Msg>>,
}

impl OpTrace {
    /// Latency in round trips (Fig. 1's "lat." columns).
    pub fn round_trips(&self) -> usize {
        self.rounds.len()
    }

    /// Total messages on the wire: one request per *delivered* copy plus
    /// one reply each (a multicast of width w delivers w requests and
    /// gathers w replies, but counts once on the send side of Fig. 1's
    /// `p + 3` accounting — the paper counts the multicast as one message).
    pub fn total_msgs(&self) -> usize {
        self.rounds
            .iter()
            .flatten()
            .map(|m| if m.multicast_width > 1 { 1 + m.multicast_width } else { 2 })
            .sum()
    }

    /// Client-side bandwidth in units of B (block payloads crossing the
    /// client's NIC in either direction) — Fig. 1's bandwidth columns.
    pub fn client_bandwidth_blocks(&self) -> f64 {
        self.rounds
            .iter()
            .flatten()
            .map(|m| m.req_blocks + m.rep_blocks * m.multicast_width as f64)
            .sum()
    }
}

/// The write pattern of `proto` on a k-of-n code (single-block write where
/// the protocol supports it).
///
/// # Panics
///
/// Panics unless `1 ≤ k < n`.
pub fn write_trace(proto: Protocol, k: usize, n: usize) -> OpTrace {
    assert!(k >= 1 && n > k, "need 1 <= k < n");
    let p = n - k;
    let rounds = match proto {
        // Fig. 5: swap (B out, old block B back), then p parallel adds
        // (B out, ack back).
        Protocol::AjxPar => vec![
            vec![Msg::unicast(1.0, 1.0)],
            (0..p).map(|_| Msg::unicast(1.0, 0.0)).collect(),
        ],
        // §3.11: swap, then one multicast of v − w (charged once), p acks.
        Protocol::AjxBcast => vec![
            vec![Msg::unicast(1.0, 1.0)],
            vec![Msg {
                req_blocks: 1.0,
                rep_blocks: 0.0,
                multicast_width: p,
            }],
        ],
        // Serial adds: p single-message rounds after the swap.
        Protocol::AjxSer => {
            let mut r = vec![vec![Msg::unicast(1.0, 1.0)]];
            r.extend((0..p).map(|_| vec![Msg::unicast(1.0, 0.0)]));
            r
        }
        // FAB: two rounds to all n nodes, each carrying the write's data;
        // round one returns the old version from one node.
        Protocol::Fab => vec![
            (0..n)
                .map(|i| Msg::unicast(1.0, if i == 0 { 1.0 } else { 0.0 }))
                .collect(),
            (0..n).map(|_| Msg::unicast(1.0, 0.0)).collect(),
        ],
        // GWGR: whole-stripe write — round one ships each node its B-sized
        // fragment, round two commits with header-only messages.
        Protocol::Gwgr => vec![
            (0..n).map(|_| Msg::unicast(1.0, 0.0)).collect(),
            (0..n).map(|_| Msg::unicast(0.0, 0.0)).collect(),
        ],
    };
    OpTrace { rounds }
}

/// The read pattern of `proto` on a k-of-n code.
///
/// # Panics
///
/// Panics unless `1 ≤ k < n`.
pub fn read_trace(proto: Protocol, k: usize, n: usize) -> OpTrace {
    assert!(k >= 1 && n > k, "need 1 <= k < n");
    let rounds = match proto {
        // Fig. 4: one request to the data node, block comes back.
        Protocol::AjxPar | Protocol::AjxBcast | Protocol::AjxSer => {
            vec![vec![Msg::unicast(0.0, 1.0)]]
        }
        // FAB: query k nodes (timestamps), one returns the block.
        Protocol::Fab => vec![(0..k)
            .map(|i| Msg::unicast(0.0, if i == 0 { 1.0 } else { 0.0 }))
            .collect()],
        // GWGR: fetch all n fragments to validate and decode.
        Protocol::Gwgr => vec![(0..n).map(|_| Msg::unicast(0.0, 1.0)).collect()],
    };
    OpTrace { rounds }
}

/// One row of Fig. 1, fully derived from the message traces.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig1Row {
    /// The protocol.
    pub protocol: Protocol,
    /// Minimum read/write granularity in blocks.
    pub granularity_blocks: usize,
    /// Read latency in round trips.
    pub read_rt: usize,
    /// Write latency in round trips.
    pub write_rt: usize,
    /// Messages per read.
    pub read_msgs: usize,
    /// Messages per write.
    pub write_msgs: usize,
    /// Read bandwidth in units of B.
    pub read_bw_blocks: f64,
    /// Write bandwidth in units of B.
    pub write_bw_blocks: f64,
}

/// Computes a Fig. 1 row for `proto` on a k-of-n code.
pub fn fig1_row(proto: Protocol, k: usize, n: usize) -> Fig1Row {
    let w = write_trace(proto, k, n);
    let r = read_trace(proto, k, n);
    Fig1Row {
        protocol: proto,
        granularity_blocks: if proto == Protocol::Gwgr { k } else { 1 },
        read_rt: r.round_trips(),
        write_rt: w.round_trips(),
        read_msgs: r.total_msgs(),
        write_msgs: w.total_msgs(),
        read_bw_blocks: r.client_bandwidth_blocks(),
        write_bw_blocks: w.client_bandwidth_blocks(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The table of Fig. 1, symbolically: for every (k, n) the derived
    /// trace must match the paper's closed forms.
    #[test]
    fn fig1_closed_forms_hold_for_all_codes() {
        for k in 1..=8usize {
            for n in (k + 1)..=(k + 6) {
                let p = n - k;
                let row = fig1_row(Protocol::AjxPar, k, n);
                assert_eq!(row.read_rt, 1);
                assert_eq!(row.write_rt, 2);
                assert_eq!(row.read_msgs, 2);
                assert_eq!(row.write_msgs, 2 * (p + 1), "AJX-par #msgs, k={k} n={n}");
                assert!((row.read_bw_blocks - 1.0).abs() < 1e-9);
                assert!(
                    (row.write_bw_blocks - (p + 2) as f64).abs() < 1e-9,
                    "AJX-par write bw"
                );

                let row = fig1_row(Protocol::AjxBcast, k, n);
                assert_eq!(row.write_rt, 2);
                assert_eq!(row.write_msgs, p + 3, "AJX-bcast #msgs");
                assert!((row.write_bw_blocks - 3.0).abs() < 1e-9, "AJX-bcast bw: 3B");

                let row = fig1_row(Protocol::AjxSer, k, n);
                assert_eq!(row.write_rt, p + 1);
                assert_eq!(row.write_msgs, 2 * (p + 1));
                assert!((row.write_bw_blocks - (p + 2) as f64).abs() < 1e-9);

                let row = fig1_row(Protocol::Fab, k, n);
                assert_eq!(row.read_rt, 1);
                assert_eq!(row.write_rt, 2);
                assert_eq!(row.read_msgs, 2 * k, "FAB read msgs: 2k");
                assert_eq!(row.write_msgs, 4 * n, "FAB write msgs: 4n");
                assert!((row.read_bw_blocks - 1.0).abs() < 1e-9);
                assert!(
                    (row.write_bw_blocks - (2 * n + 1) as f64).abs() < 1e-9,
                    "FAB write bw: (2n+1)B"
                );

                let row = fig1_row(Protocol::Gwgr, k, n);
                assert_eq!(row.granularity_blocks, k, "GWGR granularity: k blocks");
                assert_eq!(row.read_msgs, 2 * n, "GWGR read msgs: 2n");
                assert_eq!(row.write_msgs, 4 * n, "GWGR write msgs: 4n");
                assert!((row.read_bw_blocks - n as f64).abs() < 1e-9, "GWGR read: nB");
                assert!((row.write_bw_blocks - n as f64).abs() < 1e-9, "GWGR write: nB");
            }
        }
    }

    #[test]
    fn ajx_beats_baselines_for_efficient_codes() {
        // The paper's headline: for large k with small p, AJX writes cost
        // far fewer messages than FAB/GWGR ("p much smaller than n").
        let (k, n) = (16, 18); // p = 2
        let ajx = fig1_row(Protocol::AjxPar, k, n);
        let fab = fig1_row(Protocol::Fab, k, n);
        let gwgr = fig1_row(Protocol::Gwgr, k, n);
        assert!(ajx.write_msgs * 10 < fab.write_msgs, "6 vs 72");
        assert!(ajx.write_msgs * 10 < gwgr.write_msgs);
        assert!(ajx.write_bw_blocks * 5.0 < fab.write_bw_blocks);
        assert!(ajx.read_msgs < fab.read_msgs && ajx.read_msgs < gwgr.read_msgs);
    }

    #[test]
    fn labels_cover_all_protocols() {
        let labels: Vec<&str> = Protocol::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(labels, ["AJX-par", "AJX-bcast", "AJX-ser", "FAB", "GWGR"]);
    }

    #[test]
    #[should_panic(expected = "need 1 <= k < n")]
    fn degenerate_code_rejected() {
        let _ = write_trace(Protocol::Fab, 3, 3);
    }

    #[test]
    fn multicast_counts_once_on_send() {
        let t = write_trace(Protocol::AjxBcast, 4, 8); // p = 4
        // swap (2 msgs) + 1 multicast + 4 replies = 7 = p + 3.
        assert_eq!(t.total_msgs(), 7);
        // Bandwidth: swap B out + old B back + one diff B = 3B.
        assert!((t.client_bandwidth_blocks() - 3.0).abs() < 1e-9);
    }
}

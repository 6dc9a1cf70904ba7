//! The per-block state of `WRITE` (Fig. 5 lines 7-21) as a sans-IO state
//! machine: no endpoint, no clock, no sleeping.
//!
//! A [`BlockWrite`] is born from an accepted `swap` and then only builds
//! `add` requests and absorbs replies. [`Client`](crate::Client)'s write
//! window owns the I/O and decides how the requests travel — in blocking
//! `pfor` rounds, one window for a single block, for `write_blocks` and
//! for every step of a [`mux`](crate::mux) run alike. The classification
//! of an `add` reply — the one place [`AddStatus`] is matched — exists
//! once.

use crate::config::{ProtocolConfig, ORDER_RETRY_LIMIT};
use ajx_gf::kernel::TILE;
use ajx_storage::{
    AddReply, AddStatus, CheckTidReply, Epoch, LMode, OpMode, Request, StripeId, SwapReply, Tid,
};
use std::collections::BTreeSet;

/// One data block's write between its `swap` and its last `add`.
#[derive(Debug)]
pub(crate) struct BlockWrite {
    i: usize,
    ntid: Tid,
    /// The swapped-out content `w`; every increment is computed against it.
    old: Vec<u8>,
    epoch: Epoch,
    otid: Option<Tid>,
    /// Redundant indices still to update (the paper's `T`).
    t: BTreeSet<usize>,
    /// Indices that hold this write (the paper's `D`), data node included.
    d: BTreeSet<usize>,
    order_rounds: u32,
    /// This round of replies saw an ORDER (Fig. 5 line 14).
    saw_order: bool,
    /// This round of replies met Fig. 5 line 13: expired lock, crashed
    /// node, or hopeless ordering.
    need_recovery: bool,
}

impl BlockWrite {
    /// Starts the add phase for data index `i` of a `k`-of-`n` stripe from
    /// an accepted `swap`; `None` if the node rejected it (`block = ⊥`).
    pub(crate) fn new(i: usize, ntid: Tid, swap: SwapReply, k: usize, n: usize) -> Option<Self> {
        Some(BlockWrite {
            i,
            ntid,
            old: swap.block?,
            epoch: swap.epoch,
            otid: swap.otid,
            t: (k..n).collect(),
            d: BTreeSet::from([i]),
            order_rounds: 0,
            saw_order: false,
            need_recovery: false,
        })
    }

    /// Whether redundant index `j` is still owed an `add`.
    pub(crate) fn wants(&self, j: usize) -> bool {
        self.t.contains(&j)
    }

    fn request(&self, stripe: StripeId, delta: Vec<u8>, scale: Option<(usize, usize)>) -> Request {
        Request::Add {
            stripe,
            delta,
            ntid: self.ntid,
            otid: self.otid,
            epoch: self.epoch,
            scale,
        }
    }

    /// The client-scaled increments `α_ji·(v − w)` for every redundant
    /// index `j` in `incs`, each into its own pool buffer, in one pass of
    /// [`TILE`]-byte tiles over `v` and `w`: each tile of both is read once,
    /// while hot, for all the indices. A buffer is grown one tile at a time
    /// (capacity reserved up front), so its zero-fill lands in cache just
    /// before `delta_into` overwrites it. The one increment routine: every
    /// `add` this write sends carries an increment made here.
    pub(crate) fn increments(
        &self,
        cfg: &ProtocolConfig,
        value: &[u8],
        incs: &mut [(usize, Vec<u8>)],
    ) {
        assert_eq!(value.len(), self.old.len(), "block sizes validated");
        for (_, buf) in incs.iter_mut() {
            *buf = crate::pool::take_empty(value.len());
        }
        for (v, w) in value.chunks(TILE).zip(self.old.chunks(TILE)) {
            for (j, buf) in incs.iter_mut() {
                let at = buf.len();
                buf.resize(at + v.len(), 0);
                cfg.code
                    .delta_into_buf(*j - cfg.k(), self.i, v, w, &mut buf[at..])
                    .expect("block sizes validated");
            }
        }
    }

    /// The `add` carrying `delta`, an increment
    /// [`increments`](Self::increments) made for its target index.
    pub(crate) fn add_of(&self, stripe: StripeId, delta: Vec<u8>) -> Request {
        self.request(stripe, delta, None)
    }

    /// The `add` for redundant index `j`, its increment made alone: the
    /// one-index case of [`increments`](Self::increments).
    pub(crate) fn add(
        &self,
        cfg: &ProtocolConfig,
        stripe: StripeId,
        j: usize,
        value: &[u8],
    ) -> Request {
        let mut inc = [(j, Vec::new())];
        self.increments(cfg, value, &mut inc);
        let [(_, delta)] = inc;
        self.add_of(stripe, delta)
    }

    /// The §3.11 multicast form: the plain difference `v − w`, computed
    /// once, addressed to every index still in `T` (returned in order); each
    /// node multiplies by its own `α_ji`. The maker builds the `add` for one
    /// such index `j` from a copy of the difference — a `Vec<u8>` field
    /// cannot be shared.
    pub(crate) fn multicast_adds(
        &self,
        cfg: &ProtocolConfig,
        stripe: StripeId,
        value: &[u8],
    ) -> (Vec<usize>, impl Fn(usize) -> Request + '_) {
        let diff = cfg
            .code
            .broadcast_delta(value, &self.old)
            .expect("block sizes validated");
        let k = cfg.k();
        let add = move |j: usize| self.request(stripe, diff.clone(), Some((j - k, self.i)));
        (self.t.iter().copied().collect(), add)
    }

    /// Absorbs the reply to the `add` sent to `j` (Fig. 5 lines 9-14): an
    /// applied `add` moves `j` from `T` to `D`; a stale epoch or an INIT
    /// node drops `j` from `T`, so only a fresh `swap` can complete the
    /// write; a locked node, or a predecessor write that has not reached
    /// `j` yet (§3.7, ORDER), keeps `j` in `T` for the same `add` again.
    pub(crate) fn on_add(&mut self, j: usize, r: &AddReply) {
        self.saw_order |= r.status == AddStatus::Order;
        self.need_recovery |= r.lmode == LMode::Exp
            || (r.opmode != OpMode::Norm && r.lmode == LMode::Unl)
            || (r.status == AddStatus::Order && self.order_rounds >= ORDER_RETRY_LIMIT);
        match r.status {
            AddStatus::Ok => {
                self.t.remove(&j);
                self.d.insert(j);
            }
            // Stale epoch or INIT node — drop from T; the outer repeat
            // re-swaps if needed.
            AddStatus::Unavail if matches!(r.lmode, LMode::Unl | LMode::L0) => {
                self.t.remove(&j);
            }
            AddStatus::Order | AddStatus::Unavail => {}
        }
    }

    /// Whether a reply of the current round asked for recovery (Fig. 5
    /// line 13): the stripe needs it before this write can make progress.
    pub(crate) fn needs_recovery(&self) -> bool {
        self.need_recovery
    }

    /// Closes a round of replies; `true` if it contained an ORDER, i.e. the
    /// `checktid` probe and a pause are due before the next round.
    pub(crate) fn close_round(&mut self) -> bool {
        self.need_recovery = false;
        self.order_rounds += u32::from(self.saw_order);
        std::mem::take(&mut self.saw_order)
    }

    /// Fig. 5 lines 15-16: the `checktid` probe for every index in `D`, or
    /// nothing once the predecessor write is known to be collected.
    pub(crate) fn checktids(&self, stripe: StripeId) -> Vec<(usize, Request)> {
        let Some(otid) = self.otid else {
            return Vec::new();
        };
        let probe = Request::CheckTid {
            stripe,
            ntid: self.ntid,
            otid,
        };
        self.d.iter().map(|&j| (j, probe.clone())).collect()
    }

    /// Absorbs `j`'s `checktid` reply (Fig. 5 lines 17-19).
    pub(crate) fn on_checktid(&mut self, j: usize, r: CheckTidReply) {
        match r {
            // The predecessor completed and was collected: stop ordering.
            CheckTidReply::Gc => self.otid = None,
            // `j` crashed and lost this write.
            CheckTidReply::Init => {
                self.d.remove(&j);
            }
            CheckTidReply::NoChange => {}
        }
    }

    /// Fig. 5 line 21's loop exit: nothing left to send, or nothing left
    /// that holds the write.
    pub(crate) fn settled(&self) -> bool {
        self.t.is_empty() || self.d.is_empty()
    }

    /// Whether the write reached its data node and all `n − k` redundant
    /// nodes: `D = {i} ∪ k..n`.
    pub(crate) fn complete(&self, cfg: &ProtocolConfig) -> bool {
        self.d.contains(&self.i) && (cfg.k()..cfg.n()).all(|j| self.d.contains(&j))
    }

    /// Ends the write: its tid, the indices holding it (for Fig. 7's GC
    /// lists) and the swapped-out buffer (for the pool).
    pub(crate) fn finish(self) -> (Tid, BTreeSet<usize>, Vec<u8>) {
        (self.ntid, self.d, self.old)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ajx_storage::ClientId;
    use AddStatus::{Ok as AOk, Order as AOrder, Unavail};
    use Effect::{Done, Dropped, Order, Retry};

    const K: usize = 2;
    const N: usize = 5;

    fn cfg() -> ProtocolConfig {
        ProtocolConfig::new(K, N, 8).unwrap()
    }

    fn tid(seq: u64) -> Tid {
        Tid::new(seq, 1, ClientId(7))
    }

    fn add_reply(status: AddStatus, opmode: OpMode, lmode: LMode) -> AddReply {
        AddReply {
            status,
            opmode,
            lmode,
            spent: Vec::new(),
        }
    }

    fn swapped(otid: Option<Tid>) -> BlockWrite {
        let swap = SwapReply {
            block: Some(vec![3; 8]),
            epoch: Epoch::default(),
            otid,
            lmode: LMode::Unl,
        };
        BlockWrite::new(1, tid(9), swap, K, N).expect("accepted swap")
    }

    #[test]
    fn rejected_swap_starts_no_write() {
        let swap = SwapReply {
            block: None,
            epoch: Epoch::default(),
            otid: None,
            lmode: LMode::L1,
        };
        assert!(BlockWrite::new(0, tid(1), swap, K, N).is_none());
    }

    /// What one `add` reply did to its index, read off the write's state.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Effect {
        /// Applied: `j` moved from `T` to `D`.
        Done,
        /// Stale epoch or INIT node: `j` left `T` without joining `D`.
        Dropped,
        /// Locked node: `j` stays in `T`.
        Retry,
        /// As `Retry`, and the round asks for the `checktid` probe.
        Order,
    }

    /// The effect of the reply to `j`'s `add`, closing its round.
    fn effect(bw: &mut BlockWrite, j: usize) -> Effect {
        let order = bw.close_round();
        match (bw.wants(j), bw.d.contains(&j)) {
            (false, true) => Done,
            (false, false) => Dropped,
            (true, _) if order => Order,
            (true, _) => Retry,
        }
    }

    /// Fig. 5 lines 9-13 as a table: every `(status, opmode, lmode)` a node
    /// can answer, at `order_rounds` below and at the retry limit.
    #[test]
    fn add_reply_classification_table() {
        use LMode::{Exp, Unl, L0, L1};
        use OpMode::{Init, Norm, Recons};
        // (status, opmode, lmode, order_rounds) -> (outcome, need_recovery)
        let table = [
            (AOk, Norm, Unl, 0, Done, false),
            (AOk, Norm, L0, 0, Done, false),
            // ORDER retries quietly until the rounds run out.
            (AOrder, Norm, Unl, 0, Order, false),
            (AOrder, Norm, Unl, ORDER_RETRY_LIMIT - 1, Order, false),
            (AOrder, Norm, Unl, ORDER_RETRY_LIMIT, Order, true),
            (AOrder, Norm, L0, ORDER_RETRY_LIMIT + 5, Order, true),
            // ⊥ from an unlocked or draining node: stale epoch or INIT —
            // out of T; only a non-NORM unlocked node asks for recovery.
            (Unavail, Norm, Unl, 0, Dropped, false),
            (Unavail, Norm, L0, 0, Dropped, false),
            (Unavail, Init, Unl, 0, Dropped, true),
            (Unavail, Recons, Unl, 0, Dropped, true),
            (Unavail, Init, L0, 0, Dropped, false),
            // ⊥ from a fully locked node: someone is recovering; wait.
            (Unavail, Norm, L1, 0, Retry, false),
            (Unavail, Recons, L1, 0, Retry, false),
            (Unavail, Init, L1, ORDER_RETRY_LIMIT, Retry, false),
            // An expired lock always asks for recovery.
            (Unavail, Norm, Exp, 0, Retry, true),
            (Unavail, Init, Exp, 0, Retry, true),
            (AOrder, Norm, Exp, 0, Order, true),
        ];
        for (status, opmode, lmode, rounds, outcome, need_recovery) in table {
            let mut bw = swapped(None);
            let order = add_reply(AOrder, Norm, L0);
            for _ in 0..rounds {
                bw.on_add(2, &order);
                assert!(bw.close_round());
            }
            let reply = add_reply(status, opmode, lmode);
            bw.on_add(3, &reply);
            let row = format!("{status:?}/{opmode:?}/{lmode:?} at {rounds} order rounds");
            assert_eq!(bw.needs_recovery(), need_recovery, "{row}");
            let saw_order = bw.saw_order;
            assert_eq!(effect(&mut bw, 3), outcome, "{row}");
            assert_eq!(saw_order, outcome == Order, "{row}: saw-order");
            assert!(
                !bw.needs_recovery() && !bw.close_round(),
                "{row}: a new round starts clean"
            );
            assert!(bw.wants(2) && bw.wants(4), "{row}: other indices untouched");
        }
    }

    #[test]
    fn checktid_replies_move_otid_and_d() {
        let otid = Some(tid(4));
        let mut bw = swapped(otid);
        let ok = add_reply(AOk, OpMode::Norm, LMode::Unl);
        bw.on_add(2, &ok);
        // One probe per index in D = {i, 2}, each naming both tids.
        let probes = bw.checktids(StripeId(6));
        assert_eq!(probes.iter().map(|(j, _)| *j).collect::<Vec<_>>(), [1, 2]);
        for (_, req) in &probes {
            assert!(matches!(
                req,
                Request::CheckTid { stripe: StripeId(6), ntid, otid: o }
                    if *ntid == tid(9) && Some(*o) == otid
            ));
        }
        bw.on_checktid(1, CheckTidReply::NoChange);
        assert_eq!((bw.otid, bw.d.len()), (otid, 2), "NoChange changes nothing");
        bw.on_checktid(2, CheckTidReply::Init);
        assert!(!bw.d.contains(&2) && bw.d.contains(&1), "Init leaves D");
        assert_eq!(bw.otid, otid);
        bw.on_checktid(1, CheckTidReply::Gc);
        assert_eq!(bw.otid, None, "Gc ends the ordering wait");
        assert!(
            bw.checktids(StripeId(6)).is_empty(),
            "nothing left to probe for"
        );
        // The next add carries no predecessor.
        let Request::Add { otid: carried, .. } = bw.add(&cfg(), StripeId(6), 3, &[5; 8]) else {
            panic!("add builds Request::Add");
        };
        assert_eq!(carried, None);
    }

    #[test]
    fn complete_iff_d_is_the_data_index_plus_every_redundant_index() {
        let cfg = cfg();
        let ok = add_reply(AOk, OpMode::Norm, LMode::Unl);
        let mut bw = swapped(None);
        assert!(!bw.settled() && !bw.complete(&cfg));
        for j in K..N {
            assert!(!bw.complete(&cfg), "incomplete before add {j}");
            bw.on_add(j, &ok);
        }
        assert!(bw.settled() && bw.complete(&cfg));
        let (ntid, d, old) = bw.finish();
        assert_eq!((ntid, old), (tid(9), vec![3; 8]));
        assert_eq!(d.into_iter().collect::<Vec<_>>(), [1, 2, 3, 4]);

        // A dropped index settles the write incomplete.
        let mut bw = swapped(None);
        let stale = add_reply(Unavail, OpMode::Norm, LMode::Unl);
        bw.on_add(2, &ok);
        bw.on_add(3, &stale);
        bw.on_add(4, &ok);
        assert!(bw.settled() && !bw.complete(&cfg));

        // Losing the data node from D (checktid Init) with every redundant
        // index done is still not complete.
        let mut bw = swapped(Some(tid(4)));
        for j in K..N {
            bw.on_add(j, &ok);
        }
        bw.on_checktid(1, CheckTidReply::Init);
        assert!(bw.settled() && !bw.complete(&cfg));
    }

    /// The tiled pass makes, for any subset of the redundant indices, the
    /// increments `delta_into_buf` makes one index at a time — from pool
    /// buffers left full of another request's bytes.
    #[test]
    fn tiled_increments_equal_one_delta_per_index() {
        let codes = [
            ("RS 4-of-8", ProtocolConfig::new(4, 8, 16).unwrap()),
            ("RS 12-of-16", ProtocolConfig::new(12, 16, 16).unwrap()),
            ("LRC(12,3,1)", ProtocolConfig::new_lrc(12, 3, 1, 16).unwrap()),
        ];
        for (name, cfg) in codes {
            let (k, n) = (cfg.k(), cfg.n());
            for len in [16, 4096, 65536, 3 * TILE + 10] {
                let value: Vec<u8> = (0..len).map(|b| (b * 7 + 1) as u8).collect();
                let old: Vec<u8> = (0..len).map(|b| (b * 13 + 5) as u8).collect();
                let i = len % k;
                let swap = SwapReply {
                    block: Some(old.clone()),
                    epoch: Epoch::default(),
                    otid: None,
                    lmode: LMode::Unl,
                };
                let bw = BlockWrite::new(i, tid(1), swap, k, n).unwrap();
                for subset in 0u32..1 << (n - k) {
                    let js: Vec<usize> = (k..n).filter(|j| subset >> (j - k) & 1 == 1).collect();
                    for _ in &js {
                        crate::pool::give(vec![0xEE; len + 64]);
                    }
                    let mut incs: Vec<(usize, Vec<u8>)> = js.iter().map(|&j| (j, Vec::new())).collect();
                    bw.increments(&cfg, &value, &mut incs);
                    for (j, inc) in incs {
                        let mut want = vec![0u8; len];
                        cfg.code.delta_into_buf(j - k, i, &value, &old, &mut want).unwrap();
                        assert!(inc == want, "{name}, {len} B, indices {js:?}: increment for {j}");
                    }
                }
            }
        }
    }

    #[test]
    fn add_and_multicast_carry_the_swap_state() {
        let cfg = cfg();
        let bw = swapped(Some(tid(4)));
        let value = [0xA5u8; 8];
        let Request::Add {
            delta,
            ntid,
            otid,
            scale,
            ..
        } = bw.add(&cfg, StripeId(0), 3, &value)
        else {
            panic!("add builds Request::Add");
        };
        assert_eq!((ntid, otid, scale), (tid(9), Some(tid(4)), None));
        let mut want = vec![0u8; 8];
        cfg.code
            .delta_into_buf(3 - K, 1, &value, &[3; 8], &mut want)
            .unwrap();
        assert_eq!(
            delta, want,
            "client-scaled increment against the swapped-out block"
        );

        let (js, multicast) = bw.multicast_adds(&cfg, StripeId(0), &value);
        assert_eq!(js, [2, 3, 4]);
        for j in js {
            let Request::Add { delta, scale, .. } = multicast(j) else {
                panic!("multicast builds adds")
            };
            assert_eq!(
                scale,
                Some((j - K, 1)),
                "node {j} scales by its own coefficient"
            );
            assert_eq!(delta, cfg.code.broadcast_delta(&value, &[3; 8]).unwrap());
        }
    }
}

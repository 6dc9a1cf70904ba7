//! A small thread-local block-buffer pool for the multi-block data path.
//!
//! The batched read/write paths stage one buffer per (block × redundant
//! node) for deltas and read-modify-write edges. Allocating those afresh
//! per call would put the allocator on the per-block critical path the
//! PR 1 kernels just got off of. Instead, buffers circulate: a `swap`
//! reply's old block is [`give`]n back once its deltas are computed, an
//! `add` reply hands back the increment buffer it carried, and the next
//! delta [`take`]s them — so in steady state a sequential writer touches
//! the allocator only to grow the pool to its high-water mark.
//!
//! The pool is thread-local (no locks, no cross-thread traffic) and
//! bounded, so a burst cannot pin memory forever. Buffers of any size are
//! accepted; `take` reuses capacity via `clear` + `resize`, which also
//! zero-fills — callers get the same all-zeroes contract as `vec![0; n]`.
//!
//! **Stale-byte audit.** A recycled buffer's spare capacity keeps the
//! previous user's bytes, so the zeroing discipline in [`take`] is the
//! only thing standing between the pool and cross-request data leaks:
//! `clear()` drops the logical length to zero and `resize(len, 0)` writes
//! a fresh zero into *every* byte of the new length, whether the buffer
//! grew or shrank. Stale bytes survive only past `len`, where safe code
//! cannot read them (`set_len` is `unsafe`, and nothing in this workspace
//! touches it). The regression tests below pin both directions — shrink
//! (old bytes beyond the new length) and grow (the region between the old
//! and new lengths, which `resize` must cover). [`take_copy`] holds the
//! same line without the zero pass: `clear()` then `extend_from_slice(src)`
//! makes the new length exactly `src.len()` and writes every byte of it from
//! `src`, so a recycled buffer longer than `src` hides its tail past `len`
//! and one shorter than `src` grows (or reallocates) under bytes that all
//! come from `src`; its two tests pin those directions. [`take_empty`]
//! hands out length zero and leaves the growing to its caller, who may only
//! use `resize` or `extend_from_slice`: the client's increments grow their
//! buffer one tile at a time with `resize(len + tile, 0)`, so each tile's
//! zero-fill lands in cache just before the kernel overwrites it.

use std::cell::RefCell;

/// Retained buffers per thread; beyond this, returned buffers are simply
/// dropped. One window of `write_blocks` at the default `pipeline_width`
/// holds k staged values and k·(n − k) increments for each of its 8
/// stripes at once, and all of them come back: 8 × 60 = 480 at RS
/// 12-of-16. The bound counts buffers, not bytes: a byte bound large
/// enough for that window lets a pool of 1 KiB blocks grow to tens of
/// thousands of buffers, which slowed `many_clients` by about 9 %.
const MAX_POOLED: usize = 512;

thread_local! {
    static POOL: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
}

/// Takes a zeroed buffer of length `len` from the pool, allocating only if
/// the pool is empty.
pub(crate) fn take(len: usize) -> Vec<u8> {
    POOL.with(|p| {
        let mut pool = p.borrow_mut();
        match pool.pop() {
            Some(mut buf) => {
                buf.clear();
                buf.resize(len, 0);
                buf
            }
            None => vec![0u8; len],
        }
    })
}

/// Takes an empty buffer with room for `cap` bytes from the pool, for a
/// caller that grows it itself — with `resize` (zero-filled) or
/// `extend_from_slice`, so every byte of its length is written.
pub(crate) fn take_empty(cap: usize) -> Vec<u8> {
    let mut buf = POOL.with(|p| p.borrow_mut().pop()).unwrap_or_default();
    buf.clear();
    buf.reserve(cap);
    buf
}

/// Takes a buffer holding a copy of `src` from the pool: [`take`] followed
/// by `copy_from_slice`, minus the zero-fill that copy would overwrite.
pub(crate) fn take_copy(src: &[u8]) -> Vec<u8> {
    let mut buf = take_empty(src.len());
    buf.extend_from_slice(src);
    buf
}

/// Returns a buffer to the pool for reuse by a later [`take`].
pub(crate) fn give(buf: Vec<u8>) {
    if buf.capacity() == 0 {
        return;
    }
    POOL.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.len() < MAX_POOLED {
            pool.push(buf);
        }
    });
}

/// Buffers this thread's pool currently holds.
#[cfg(test)]
pub(crate) fn pooled() -> usize {
    POOL.with(|p| p.borrow().len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_reuses_a_given_buffer_without_reallocating() {
        // Drain whatever earlier tests left behind so the capacity check
        // below observes our buffer, not a stale one.
        while POOL.with(|p| !p.borrow().is_empty()) {
            let _ = POOL.with(|p| p.borrow_mut().pop());
        }
        let mut buf = take(32);
        buf.iter_mut().for_each(|b| *b = 0xFF);
        let ptr = buf.as_ptr();
        let cap = buf.capacity();
        give(buf);
        let again = take(16);
        assert_eq!(again.as_ptr(), ptr, "same allocation came back");
        assert_eq!(again.capacity(), cap);
        assert!(again.iter().all(|&b| b == 0), "reused buffer is zeroed");
        assert_eq!(again.len(), 16);
    }

    #[test]
    fn shrinking_take_never_leaks_stale_bytes() {
        let mut big = take(64);
        big.iter_mut().for_each(|b| *b = 0xA5);
        give(big);
        // Whichever pooled buffer pops, its dirty history must be invisible.
        let small = take(16);
        assert_eq!(small.len(), 16);
        assert!(small.iter().all(|&b| b == 0), "stale bytes in shrunk buffer");
    }

    #[test]
    fn take_copy_into_a_longer_recycled_buffer_shows_only_the_source() {
        let mut big = take(64);
        big.iter_mut().for_each(|b| *b = 0xA5);
        give(big);
        let src = [7u8; 16];
        let copy = take_copy(&src);
        assert_eq!(copy, src, "stale bytes or a stale length in the copy");
    }

    #[test]
    fn take_copy_into_a_shorter_recycled_buffer_shows_only_the_source() {
        // Empty the pool so the short buffer is the one that pops.
        while POOL.with(|p| p.borrow_mut().pop()).is_some() {}
        let mut short = take(8);
        short.iter_mut().for_each(|b| *b = 0x5A);
        give(short);
        let src: Vec<u8> = (0..48).collect();
        let copy = take_copy(&src);
        assert_eq!(copy, src, "stale bytes under the grown length");
        assert_eq!(pooled(), 0, "the recycled buffer was the one used");
    }

    #[test]
    fn growing_take_zeroes_past_the_old_logical_length() {
        let mut short = take(8);
        short.iter_mut().for_each(|b| *b = 0x5A);
        give(short);
        // The grown view covers bytes the previous user never touched and
        // bytes it dirtied; both regions must read zero.
        let grown = take(48);
        assert_eq!(grown.len(), 48);
        assert!(
            grown.iter().all(|&b| b == 0),
            "stale bytes past the old logical length"
        );
    }

    #[test]
    fn pool_is_bounded() {
        for _ in 0..(2 * MAX_POOLED) {
            give(vec![0u8; 8]);
        }
        assert!(POOL.with(|p| p.borrow().len()) <= MAX_POOLED);
    }

    #[test]
    fn take_empty_grown_by_resize_never_shows_stale_bytes() {
        let mut dirty = take(64);
        dirty.iter_mut().for_each(|b| *b = 0xA5);
        give(dirty);
        let mut buf = take_empty(48);
        assert!(buf.is_empty() && buf.capacity() >= 48);
        buf.resize(16, 0);
        assert!(buf.iter().all(|&b| b == 0), "stale bytes under the grown length");
    }

    #[test]
    fn empty_buffers_are_not_pooled() {
        let before = POOL.with(|p| p.borrow().len());
        give(Vec::new());
        assert_eq!(POOL.with(|p| p.borrow().len()), before);
    }
}

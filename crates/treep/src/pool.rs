//! Thread-local free lists of gossip payload buffers.
//!
//! Every maintenance round a node sends its routing updates to each of its
//! round partners, and every receiver drops them after one read: a
//! `malloc` per copy on the sending side and a `free` per copy on the
//! receiving one, the bulk of the protocol's allocations on an idle
//! overlay. Here the receiving handler gives the buffer back
//! ([`recycle`]) and the next payload of that length is copied into it
//! ([`copy`]).
//!
//! A list is kept per element type ([`RoutingUpdate`] for keep-alives and
//! their acks, [`PeerInfo`] for the superiors of a child-report ack) and
//! per thread, indexed by capacity. Every buffer [`copy`] hands out has a
//! capacity equal to its length, as `Vec::clone` gives, so a message in
//! flight holds the bytes it held before. The lists are bounded: at most
//! [`DEPTH`] spare buffers of each capacity from 1 to [`MAX_LEN`], and at
//! most [`BUDGET_BYTES`] (24 KiB) of spare buffers per element type, so at
//! most 48 KiB per thread; a buffer beyond either bound, or of a capacity
//! above [`MAX_LEN`], is freed. Payloads are built in one scratch buffer
//! per type and thread ([`scratch`] / [`restore`]), which keeps the
//! capacity of the longest list built in it.
//!
//! Thread-local is the scope of both hosts: the simulator dispatches on
//! one thread, and a `UdpNode` runs every callback of its node on its
//! receive loop. Nothing here changes what is sent.

use crate::entry::PeerInfo;
use crate::messages::RoutingUpdate;
use std::cell::RefCell;

/// Spare buffers kept per capacity.
const DEPTH: usize = 8;
/// The largest capacity kept: a keep-alive carries at most 14 updates and a
/// child-report ack at most 9 superiors.
const MAX_LEN: usize = 14;
/// The most bytes of spare buffers kept per element type. At 16 KiB
/// `tests/alloc_budget.rs`'s idle overlay read 0.41 allocations per event,
/// at 24 KiB 0.33.
const BUDGET_BYTES: usize = 24 * 1024;

/// One thread's spare buffers of one element type.
pub(crate) struct FreeList<T> {
    /// `spare[c - 1]` holds empty buffers of capacity exactly `c`.
    spare: [Vec<Vec<T>>; MAX_LEN],
    /// Bytes held by the buffers in `spare`.
    bytes: usize,
    /// The buffer payloads are built in before they are copied out.
    scratch: Vec<T>,
}

impl<T: Copy> FreeList<T> {
    const fn new() -> Self {
        FreeList {
            spare: [const { Vec::new() }; MAX_LEN],
            bytes: 0,
            scratch: Vec::new(),
        }
    }

    /// A buffer holding `items`, of capacity `items.len()`: a spare one
    /// when there is one of that capacity, a fresh one otherwise.
    fn copy(&mut self, items: &[T]) -> Vec<T> {
        let spare = items
            .len()
            .checked_sub(1)
            .and_then(|at| self.spare.get_mut(at))
            .and_then(Vec::pop);
        match spare {
            Some(mut buf) => {
                self.bytes -= size_of_val(items);
                buf.extend_from_slice(items);
                buf
            }
            None => items.to_vec(),
        }
    }

    /// Keep `buf` for a later [`FreeList::copy`] of its capacity, or free
    /// it when that list is full, the budget spent or the capacity beyond
    /// the largest kept.
    fn recycle(&mut self, mut buf: Vec<T>) {
        let bytes = buf.capacity() * size_of::<T>();
        let Some(list) = buf
            .capacity()
            .checked_sub(1)
            .and_then(|at| self.spare.get_mut(at))
        else {
            return;
        };
        if list.len() < DEPTH && self.bytes + bytes <= BUDGET_BYTES {
            if list.capacity() == 0 {
                list.reserve_exact(DEPTH);
            }
            buf.clear();
            list.push(buf);
            self.bytes += bytes;
        }
    }
}

/// An element type with a free list per thread.
pub(crate) trait Pooled: Copy + 'static {
    /// Run `f` on this thread's list of `Vec<Self>` buffers.
    fn with_list<R>(f: impl FnOnce(&mut FreeList<Self>) -> R) -> R;
}

thread_local! {
    static UPDATES: RefCell<FreeList<RoutingUpdate>> = const { RefCell::new(FreeList::new()) };
    static PEERS: RefCell<FreeList<PeerInfo>> = const { RefCell::new(FreeList::new()) };
}

impl Pooled for RoutingUpdate {
    fn with_list<R>(f: impl FnOnce(&mut FreeList<Self>) -> R) -> R {
        UPDATES.with_borrow_mut(f)
    }
}

impl Pooled for PeerInfo {
    fn with_list<R>(f: impl FnOnce(&mut FreeList<Self>) -> R) -> R {
        PEERS.with_borrow_mut(f)
    }
}

/// A buffer holding `items`, of capacity `items.len()`.
pub(crate) fn copy<T: Pooled>(items: &[T]) -> Vec<T> {
    T::with_list(|list| list.copy(items))
}

/// Give a payload buffer that has been read back to this thread's list.
pub(crate) fn recycle<T: Pooled>(buf: Vec<T>) {
    T::with_list(|list| list.recycle(buf));
}

/// This thread's scratch buffer of `T`, empty; hand it back with
/// [`restore`] so the next payload is built without allocating.
pub(crate) fn scratch<T: Pooled>() -> Vec<T> {
    T::with_list(|list| std::mem::take(&mut list.scratch))
}

/// Return the buffer [`scratch`] lent.
pub(crate) fn restore<T: Pooled>(mut buf: Vec<T>) {
    buf.clear();
    T::with_list(|list| list.scratch = buf);
}

/// Build a payload in this thread's scratch buffer with `fill`, and return
/// a copy of it from the free list.
pub(crate) fn build<T: Pooled>(fill: impl FnOnce(&mut Vec<T>)) -> Vec<T> {
    let mut buf = scratch();
    fill(&mut buf);
    let out = copy(&buf);
    restore(buf);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_copy_reuses_a_spare_buffer_and_has_the_capacity_of_its_length() {
        let mut list = FreeList::<u64>::new();
        let spare = Vec::with_capacity(3);
        let at = spare.as_ptr();
        list.recycle(spare);
        assert_eq!(list.bytes, 24);
        let reused = list.copy(&[1, 2, 3]);
        assert_eq!(reused.as_ptr(), at);
        assert_eq!(list.bytes, 0);
        for items in [&[1, 2, 3][..], &[4, 5, 6], &[7], &[]] {
            let buf = list.copy(items);
            assert_eq!(buf, items);
            assert_eq!(buf.capacity(), items.len());
        }
    }

    #[test]
    fn depth_is_bounded() {
        let mut list = FreeList::<u64>::new();
        for _ in 0..DEPTH + 3 {
            list.recycle(vec![0; 2]);
        }
        assert_eq!(list.spare[1].len(), DEPTH);
        assert_eq!(list.bytes, DEPTH * 16);
    }

    #[test]
    fn bytes_are_bounded() {
        let mut list = FreeList::<[u8; 512]>::new();
        for _ in 0..DEPTH {
            for len in 1..=MAX_LEN {
                list.recycle(vec![[0; 512]; len]);
            }
        }
        assert!(list.bytes <= BUDGET_BYTES, "{} bytes kept", list.bytes);
        let kept: usize = (list.spare.iter().enumerate())
            .map(|(at, bufs)| bufs.len() * (at + 1) * 512)
            .sum();
        assert_eq!(kept, list.bytes);
    }

    #[test]
    fn oversized_and_empty_buffers_are_dropped() {
        let mut list = FreeList::<u64>::new();
        list.recycle(vec![0; MAX_LEN + 1]);
        list.recycle(Vec::new());
        assert!(list.spare.iter().all(Vec::is_empty));
        assert_eq!(list.bytes, 0);
    }
}

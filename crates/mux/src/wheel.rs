//! The multiplexer's timer queue: a binary min-heap over `u64` ticks.
//!
//! The multiplexer replaces every blocking wait — pacing, retry backoff,
//! machine wakeups, receiver poll cadence — with an entry here, so the
//! driver thread never parks on one session's behalf. A mux holds one
//! live entry per session (its pacing gap, wake-up or retry backoff) plus
//! stale ones waiting to be dropped, so a heap is all the structure it needs:
//! O(log n) per insert and per expiration, and its top is the exact next
//! deadline. The type is still called `TimerWheel`, the name of the
//! hierarchical wheel it replaced, because the benchmark binds that name.
//!
//! Determinism contract: for a fixed sequence of `insert`/`advance` calls
//! the set *and order* of expirations is a pure function of that sequence.
//! An entry is due at its deadline, or at the tick it was inserted if that
//! deadline had already passed. Expirations come out in due order, and
//! entries due on the same tick come out in insertion order. Nothing in
//! this module reads a clock — ticks are whatever the caller says they
//! are, which is what lets the same queue serve a virtual clock in tests
//! and a wall clock in production.

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// Timer queue: `insert` keys at absolute tick deadlines, `advance` the
/// current tick, and collect expirations in deadline order.
///
/// Keys are opaque `Copy` handles; cancellation is the caller's problem
/// (the multiplexer uses per-key generation counters and simply ignores
/// stale expirations — lazy cancellation keeps the cancel path free).
#[derive(Debug)]
pub struct TimerWheel<K> {
    now: u64,
    /// Min-heap of `(due, seq, deadline, key)`, where `due` is
    /// `max(deadline, now at insert)`. `seq` counts insertions, so no two
    /// entries tie and keys are never compared.
    heap: BinaryHeap<Reverse<(u64, u64, u64, K)>>,
    seq: u64,
}

impl<K: Copy + Ord> TimerWheel<K> {
    /// An empty queue positioned at tick 0.
    pub fn new() -> Self {
        TimerWheel {
            now: 0,
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Current tick.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Pending entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no timers are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `key` to expire at absolute tick `deadline`. Deadlines at
    /// or before the current tick expire on the next `advance` call, in
    /// insertion order.
    pub fn insert(&mut self, deadline: u64, key: K) {
        self.seq += 1;
        let due = deadline.max(self.now);
        self.heap.push(Reverse((due, self.seq, deadline, key)));
    }

    /// The tick the earliest pending entry is due at, or `None` when
    /// empty: exactly the tick `advance` must reach to fire it, which is
    /// what a virtual clock jumps to and a wall clock sleeps until.
    pub fn next_deadline(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse((due, ..))| *due)
    }

    /// Move the clock to `to` (never backwards), appending every entry due
    /// by then onto `expired` as `(deadline, key)` pairs, in due order.
    pub fn advance(&mut self, to: u64, expired: &mut Vec<(u64, K)>) {
        self.now = self.now.max(to);
        while let Some(top) = self.heap.peek_mut() {
            let Reverse((due, _, deadline, key)) = *top;
            if due > self.now {
                break;
            }
            PeekMut::pop(top);
            expired.push((deadline, key));
        }
    }

    /// Every pending key, in no particular order.
    #[cfg(test)]
    pub(crate) fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.heap.iter().map(|Reverse((.., key))| *key)
    }
}

impl<K: Copy + Ord> Default for TimerWheel<K> {
    fn default() -> Self {
        TimerWheel::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &mut TimerWheel<u32>, to: u64) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        w.advance(to, &mut out);
        out
    }

    #[test]
    fn fires_in_deadline_order_near_and_far() {
        let mut w = TimerWheel::new();
        // Deadlines from the next tick to far past 2^24 ticks.
        let deadlines = [
            1u64, 63, 64, 100, 4095, 4096, 262143, 262144, 16_777_215, 16_777_216, 20_000_000,
        ];
        for (i, &d) in deadlines.iter().enumerate() {
            w.insert(d, i as u32);
        }
        assert_eq!(w.len(), deadlines.len());
        let fired = drain(&mut w, 25_000_000);
        assert_eq!(fired.len(), deadlines.len());
        assert!(w.is_empty());
        let ticks: Vec<u64> = fired.iter().map(|&(d, _)| d).collect();
        let mut sorted = deadlines.to_vec();
        sorted.sort_unstable();
        assert_eq!(ticks, sorted, "expirations in deadline order");
        for &(d, k) in &fired {
            assert_eq!(d, deadlines[k as usize]);
        }
    }

    #[test]
    fn same_tick_entries_fire_in_insertion_order() {
        let mut w = TimerWheel::new();
        for k in 0..10u32 {
            w.insert(500, k);
        }
        let fired = drain(&mut w, 500);
        assert_eq!(
            fired.iter().map(|&(_, k)| k).collect::<Vec<_>>(),
            (0..10).collect::<Vec<_>>()
        );
        // Inserted at different ticks, due on the same one: still in
        // insertion order.
        w.insert(600 + 200, 0);
        drain(&mut w, 600 + 150);
        w.insert(600 + 200, 1);
        assert_eq!(drain(&mut w, 600 + 200), [(800, 0), (800, 1)]);
    }

    #[test]
    fn past_deadlines_fire_immediately() {
        let mut w = TimerWheel::new();
        assert!(drain(&mut w, 100).is_empty());
        w.insert(50, 1); // already past
        w.insert(100, 2); // exactly now
        assert_eq!(w.next_deadline(), Some(100), "due entries are due now");
        let fired = drain(&mut w, 100);
        assert_eq!(fired.len(), 2);
        assert_eq!(fired[0].1, 1);
        assert_eq!(fired[1].1, 2);
    }

    #[test]
    fn partial_advance_leaves_future_entries() {
        let mut w = TimerWheel::new();
        w.insert(10, 1);
        w.insert(1000, 2);
        let fired = drain(&mut w, 500);
        assert_eq!(fired, vec![(10, 1)]);
        assert_eq!(w.len(), 1);
        assert_eq!(drain(&mut w, 1000), vec![(1000, 2)]);
    }

    #[test]
    fn next_deadline_is_exact() {
        // One jump to the reported tick fires the entry: an idle mux spends
        // no turn that only moves entries around.
        let mut w = TimerWheel::new();
        w.insert(7777, 1);
        assert_eq!(w.next_deadline(), Some(7777));
        assert_eq!(drain(&mut w, 7776), []);
        assert_eq!(w.next_deadline(), Some(7777));
        assert_eq!(drain(&mut w, 7777), [(7777, 1)]);
        assert_eq!(w.next_deadline(), None);
        assert!(w.is_empty());
    }

    #[test]
    fn strided_advances_preserve_exact_deadlines() {
        let mut w = TimerWheel::new();
        // Insert far-future entries, advance close, then past them: no
        // deadline may be distorted on the way.
        for k in 0..50u32 {
            w.insert(100_000 + k as u64 * 37, k);
        }
        let early = drain(&mut w, 99_999);
        assert!(early.is_empty());
        let fired = drain(&mut w, 200_000);
        assert_eq!(fired.len(), 50);
        for &(d, k) in &fired {
            assert_eq!(d, 100_000 + k as u64 * 37);
        }
        let ticks: Vec<u64> = fired.iter().map(|&(d, _)| d).collect();
        let mut sorted = ticks.clone();
        sorted.sort_unstable();
        assert_eq!(ticks, sorted);
    }

    #[test]
    fn interleaved_insert_and_advance() {
        // A dense pacing-like workload: always re-arm 3 ticks out while
        // advancing 1 tick at a time.
        let mut w = TimerWheel::new();
        w.insert(3, 0);
        let mut fired_total = 0u32;
        for t in 1..=300u64 {
            let mut fired = Vec::new();
            w.advance(t, &mut fired);
            for &(d, k) in &fired {
                assert_eq!(d, t, "pacing timer fires exactly on schedule");
                fired_total += 1;
                if fired_total < 100 {
                    w.insert(t + 3, k + 1);
                }
            }
        }
        assert_eq!(fired_total, 100);
        assert!(w.is_empty());
    }

    #[test]
    fn next_deadline_is_the_earliest_entry_at_any_distance() {
        // The idle nap of a wall-clocked mux is capped at next_deadline,
        // so the bound must be the earliest entry's exact deadline however
        // far out it lies, not a horizon-sized guess.
        let mut w = TimerWheel::new();
        let far = (1u64 << 24) + 12_345;
        w.insert(far, 0);
        assert_eq!(w.next_deadline(), Some(far));
        let farther = (1u64 << 30) + 7;
        w.insert(farther, 1);
        assert_eq!(w.next_deadline(), Some(far), "earliest far entry wins");
        w.insert(50, 2);
        assert_eq!(w.next_deadline(), Some(50), "a near entry wins");
    }

    #[test]
    fn random_deadlines_fire_on_time_under_random_strides() {
        // Property-style sweep: seeded pseudo-random deadlines out to 2^25
        // ticks, advanced in pseudo-random strides. Every entry must fire
        // exactly at its own tick, in deadline order, however the strides
        // chop the journey.
        let mut rng: u64 = 0x9E37_79B9;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut w = TimerWheel::new();
        let mut expected: Vec<(u64, u32)> = (0..96u32)
            .map(|k| {
                // Half the entries beyond 2^24 ticks, half within it.
                let d = if k % 2 == 0 {
                    (1u64 << 24) + next() % (1u64 << 24)
                } else {
                    1 + next() % (1u64 << 24)
                };
                w.insert(d, k);
                (d, k)
            })
            .collect();
        expected.sort_by_key(|&(d, k)| (d, k));
        let horizon = expected.last().map(|&(d, _)| d).unwrap_or(0);
        let mut fired = Vec::new();
        let mut t = 0u64;
        while t < horizon {
            t += 1 + next() % ((1u64 << 23) + 1);
            if let Some(bound) = w.next_deadline() {
                assert_eq!(bound, expected[fired.len()].0, "next_deadline is exact");
            }
            w.advance(t.min(horizon), &mut fired);
        }
        assert!(w.is_empty());
        assert_eq!(fired.len(), expected.len());
        for (&(got_d, got_k), &(want_d, _)) in fired.iter().zip(&expected) {
            assert_eq!(got_d, want_d, "a deadline was distorted");
            let original = expected.iter().find(|&&(_, k)| k == got_k).unwrap().0;
            assert_eq!(got_d, original, "entry {got_k} fired off its deadline");
        }
    }

    #[test]
    fn len_counts_due_near_and_far_entries() {
        let mut w = TimerWheel::new();
        w.insert(0, 0); // due
        w.insert(10, 1);
        w.insert(1_000_000, 2);
        w.insert(1u64 << 40, 3);
        assert_eq!(w.len(), 4);
        drain(&mut w, 10);
        assert_eq!(w.len(), 2);
        drain(&mut w, 1u64 << 41);
        assert!(w.is_empty());
    }
}

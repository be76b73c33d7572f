//! The server's forward schedule (§3.2 steps 4–6).
//!
//! After the scheduling thread computes a packet's forward time it "lists
//! the packet into the schedule" (step 4); a scanning thread "keeps
//! watching the schedule and initiates a sending thread once the emulation
//! clock meets the time to forward" (step 5). [`ForwardSchedule`] is that
//! schedule: a min-heap keyed by (due time, insertion sequence) so that
//! entries with equal due times pop in FIFO order, which keeps virtual-time
//! runs fully deterministic.

use crate::time::EmuTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// An entry awaiting its forward time. Ordering ignores the payload:
/// entries compare by `(due, seq)` only, so `T` needs no trait bounds.
#[derive(Debug, Clone)]
struct Slot<T> {
    due: EmuTime,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Slot<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.due, self.seq) == (other.due, other.seq)
    }
}

impl<T> Eq for Slot<T> {}

impl<T> Ord for Slot<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due, self.seq).cmp(&(other.due, other.seq))
    }
}

impl<T> PartialOrd for Slot<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A time-ordered queue of items to forward.
#[derive(Debug)]
pub struct ForwardSchedule<T> {
    heap: BinaryHeap<Reverse<Slot<T>>>,
    next_seq: u64,
}

impl<T> Default for ForwardSchedule<T> {
    fn default() -> Self {
        ForwardSchedule { heap: BinaryHeap::new(), next_seq: 0 }
    }
}

impl<T> ForwardSchedule<T> {
    /// An empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Step 4: lists `item` for forwarding at `due`.
    pub fn schedule(&mut self, due: EmuTime, item: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Slot { due, seq, item }));
    }

    /// Sets aside `n` consecutive insertion sequence numbers and returns
    /// the first. An entry listed later through
    /// [`ForwardSchedule::schedule_reserved`] with one of them pops, among
    /// equal due times, exactly where a [`ForwardSchedule::schedule`] call
    /// made now would have — ahead of everything scheduled in between.
    /// Unused numbers leave harmless gaps: only relative order matters.
    pub fn reserve(&mut self, n: u64) -> u64 {
        let first = self.next_seq;
        self.next_seq += n;
        first
    }

    /// Lists `item` at `due` under a sequence number taken from an earlier
    /// [`ForwardSchedule::reserve`]; the caller uses each number once.
    pub fn schedule_reserved(&mut self, due: EmuTime, seq: u64, item: T) {
        self.heap.push(Reverse(Slot { due, seq, item }));
    }

    /// The due time of the earliest entry, if any — what the scanning
    /// thread sleeps until in real-time mode.
    pub fn next_due(&self) -> Option<EmuTime> {
        self.heap.peek().map(|Reverse(s)| s.due)
    }

    /// Step 5: pops the earliest entry if its time has come (`due ≤ now`).
    pub fn pop_due(&mut self, now: EmuTime) -> Option<(EmuTime, T)> {
        if self.next_due()? <= now {
            let Reverse(s) = self.heap.pop().expect("peeked entry exists");
            Some((s.due, s.item))
        } else {
            None
        }
    }

    /// Pops the earliest entry unconditionally — virtual-time mode, where
    /// the clock is advanced *to* the entry rather than waited on.
    pub fn pop_next(&mut self) -> Option<(EmuTime, T)> {
        self.heap.pop().map(|Reverse(s)| (s.due, s.item))
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Discards all pending entries.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut s = ForwardSchedule::new();
        s.schedule(EmuTime::from_millis(30), "c");
        s.schedule(EmuTime::from_millis(10), "a");
        s.schedule(EmuTime::from_millis(20), "b");
        assert_eq!(s.next_due(), Some(EmuTime::from_millis(10)));
        assert_eq!(s.pop_next().unwrap().1, "a");
        assert_eq!(s.pop_next().unwrap().1, "b");
        assert_eq!(s.pop_next().unwrap().1, "c");
        assert!(s.pop_next().is_none());
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut s = ForwardSchedule::new();
        let t = EmuTime::from_millis(5);
        for i in 0..100 {
            s.schedule(t, i);
        }
        for i in 0..100 {
            assert_eq!(s.pop_next().unwrap().1, i);
        }
    }

    #[test]
    fn reserved_slots_pop_ahead_of_later_entries_at_equal_due() {
        let mut s = ForwardSchedule::new();
        let t = EmuTime::from_millis(5);
        s.schedule(t, "before");
        let seq = s.reserve(3);
        s.schedule(t, "after-1");
        s.schedule(EmuTime::from_millis(4), "earlier-due");
        s.schedule(t, "after-2");
        // Filled in late, out of order, one number left unused.
        s.schedule_reserved(t, seq + 1, "reserved-b");
        s.schedule_reserved(t, seq, "reserved-a");
        let order: Vec<_> = std::iter::from_fn(|| s.pop_next()).map(|(_, i)| i).collect();
        assert_eq!(
            order,
            ["earlier-due", "before", "reserved-a", "reserved-b", "after-1", "after-2"]
        );
    }

    #[test]
    fn pop_due_respects_clock() {
        let mut s = ForwardSchedule::new();
        s.schedule(EmuTime::from_millis(10), 1);
        s.schedule(EmuTime::from_millis(20), 2);
        assert!(s.pop_due(EmuTime::from_millis(5)).is_none());
        assert_eq!(s.pop_due(EmuTime::from_millis(10)).unwrap().1, 1);
        assert!(s.pop_due(EmuTime::from_millis(15)).is_none());
        assert_eq!(s.pop_due(EmuTime::from_millis(25)).unwrap().1, 2);
    }

    #[test]
    fn popping_until_none_takes_the_due_prefix_in_order() {
        let mut s = ForwardSchedule::new();
        for i in 1..=10u64 {
            s.schedule(EmuTime::from_millis(i * 10), i);
        }
        let now = EmuTime::from_millis(35);
        let drained: Vec<u64> = std::iter::from_fn(|| s.pop_due(now)).map(|(_, i)| i).collect();
        assert_eq!(drained, vec![1, 2, 3]);
        assert_eq!(s.len(), 7);
    }

    #[test]
    fn len_and_clear() {
        let mut s = ForwardSchedule::new();
        assert!(s.is_empty());
        s.schedule(EmuTime::from_secs(1), ());
        s.schedule(EmuTime::from_secs(2), ());
        assert_eq!(s.len(), 2);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.next_due(), None);
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut s = ForwardSchedule::new();
        s.schedule(EmuTime::from_millis(10), "late");
        s.schedule(EmuTime::from_millis(1), "early");
        assert_eq!(s.pop_next().unwrap().1, "early");
        s.schedule(EmuTime::from_millis(5), "mid");
        assert_eq!(s.pop_next().unwrap().1, "mid");
        assert_eq!(s.pop_next().unwrap().1, "late");
    }
}

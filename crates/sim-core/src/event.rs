//! Deterministic discrete-event queue.
//!
//! [`EventQueue`] is a priority queue keyed by [`SimTime`] with a strict
//! total order: events scheduled for the same instant pop in the order they
//! were pushed (FIFO tie-break via a monotone sequence number). This makes
//! every simulation replayable bit-for-bit from a seed.
//!
//! ## Implementation
//!
//! A **4-ary min-heap** on `(time, seq)` over a **generation-stamped slab**:
//!
//! * heap entries carry only the ordering key and a slab index, so sifts
//!   move small fixed-size records whatever the payload type, and the
//!   4-ary layout halves the tree depth of a binary heap;
//! * cancellation is **O(1)**: it flips the slab slot's state to a
//!   tombstone that `pop` discards (and reclaims) when the entry surfaces.
//!   There is no side `HashSet` — the pop path does zero hash lookups — and
//!   slots are recycled through a free list, so memory stays bounded by the
//!   peak number of pending events;
//! * slot reuse bumps a generation counter, so a stale [`EventId`] can
//!   never cancel an unrelated later event;
//! * [`EventQueue::reset`] returns the queue to its pristine state while
//!   keeping every allocation (heap, slab, free list), so drivers that run
//!   many sessions back-to-back (batch hosts, sweep workers) pay the
//!   warm-up once.
//!
//! The original seed implementation (`BinaryHeap + HashSet` lazy
//! cancellation) survives test-only as `legacy::LegacyQueue`, the reference
//! for the randomized differential tests.

use crate::time::SimTime;

/// A handle identifying a scheduled event, usable for cancellation.
///
/// Internally a `(slot, generation)` pair; the generation stamp makes
/// handles single-use — once the event fires or is cancelled, the handle
/// goes stale and [`EventQueue::cancel`] returns `false` for it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventId {
    slot: u32,
    gen: u32,
}

/// Operation counts maintained by [`EventQueue`] since its last
/// [`EventQueue::reset`] (see [`EventQueue::op_counts`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueOps {
    /// Events scheduled (both [`EventQueue::push`] and
    /// [`EventQueue::push_saturating`]).
    pub pushes: u64,
    /// Events delivered by [`EventQueue::pop`] (tombstone skips excluded).
    pub pops: u64,
    /// Successful [`EventQueue::cancel`] calls.
    pub cancels: u64,
}

/// Heap entry: ordering key inline, payload in the slab.
#[derive(Clone, Copy)]
struct Entry {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl Entry {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

enum Slot<E> {
    /// Pending event.
    Occupied(E),
    /// Cancelled; its heap entry has not surfaced yet.
    Tombstone,
    /// Recyclable (not referenced by any entry).
    Free,
}

const ARITY: usize = 4;

/// A deterministic priority queue of timestamped events.
///
/// ```
/// use msim_core::event::EventQueue;
/// use msim_core::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(2), "second");
/// q.push(SimTime::from_secs(1), "first");
/// assert_eq!(q.pop().unwrap().1, "first");
/// assert_eq!(q.pop().unwrap().1, "second");
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<E> {
    /// 4-ary min-heap on `(at, seq)`; may hold tombstoned entries.
    heap: Vec<Entry>,
    slots: Vec<(u32, Slot<E>)>,
    free: Vec<u32>,
    live: usize,
    next_seq: u64,
    now: SimTime,
    saturated_pushes: u64,
    /// Lifetime operation counts (pushes / pops / cancels) since the last
    /// [`EventQueue::reset`]. Plain integers on purpose: they are always
    /// maintained (the cost is one add per op) so batch drivers can
    /// publish per-session deltas into the telemetry registry without the
    /// queue depending on it.
    ops: QueueOps,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at zero.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with room for `cap` pending events before
    /// reallocating the slab.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: Vec::new(),
            slots: Vec::with_capacity(cap),
            free: Vec::new(),
            live: 0,
            next_seq: 0,
            now: SimTime::ZERO,
            saturated_pushes: 0,
            ops: QueueOps::default(),
        }
    }

    /// Empties the queue and rewinds the clock to zero, keeping every
    /// allocation (heap, slab, free list). Batch drivers call this between
    /// sessions so storage is reused.
    pub fn reset(&mut self) {
        self.heap.clear();
        self.slots.clear();
        self.free.clear();
        self.live = 0;
        self.next_seq = 0;
        self.now = SimTime::ZERO;
        self.saturated_pushes = 0;
        self.ops = QueueOps::default();
    }

    /// Pre-allocates slab room for `cap` pending events (capacity hint for
    /// drivers that know their session shape).
    pub fn reserve(&mut self, cap: usize) {
        self.slots.reserve(cap.saturating_sub(self.slots.len()));
    }

    /// The current simulated instant: the timestamp of the most recently
    /// popped event (zero before any pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `payload` at instant `at`.
    ///
    /// Scheduling in the past is a logic error in the caller; in debug
    /// builds it panics, in release builds the event is *saturated* to fire
    /// "now" (at the current clock) to keep the clock monotone, and the
    /// [`EventQueue::saturated_pushes`] counter records the rewrite so
    /// callers/tests can detect the condition instead of it passing
    /// silently.
    pub fn push(&mut self, at: SimTime, payload: E) -> EventId {
        debug_assert!(
            at >= self.now,
            "scheduled event in the past: at={at:?} now={:?}",
            self.now
        );
        self.push_saturating(at, payload).0
    }

    /// Like [`EventQueue::push`], but reports saturation instead of only
    /// counting it: returns `(id, true)` when `at` lay in the past and was
    /// rewritten to "now". Does not panic in debug builds — this is the
    /// checked entry point for callers that handle the condition.
    pub fn push_saturating(&mut self, at: SimTime, payload: E) -> (EventId, bool) {
        self.ops.pushes += 1;
        let saturated = at < self.now;
        if saturated {
            self.saturated_pushes += 1;
        }
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;

        let slot = match self.free.pop() {
            Some(idx) => {
                self.slots[idx as usize].1 = Slot::Occupied(payload);
                idx
            }
            None => {
                let idx = u32::try_from(self.slots.len()).expect("event slab exhausted");
                self.slots.push((0, Slot::Occupied(payload)));
                idx
            }
        };
        let gen = self.slots[slot as usize].0;
        self.live += 1;
        self.heap.push(Entry { at, seq, slot });
        self.sift_up(self.heap.len() - 1);
        (EventId { slot, gen }, saturated)
    }

    /// Number of release-mode past-scheduled pushes rewritten to "now" over
    /// the queue's lifetime (always 0 when callers are well-behaved).
    pub fn saturated_pushes(&self) -> u64 {
        self.saturated_pushes
    }

    /// Operation counts (pushes / pops / cancels) since the last
    /// [`EventQueue::reset`]. Batch drivers publish these as per-session
    /// deltas into the [`crate::telemetry`] registry.
    pub fn op_counts(&self) -> QueueOps {
        self.ops
    }

    /// Cancels a previously scheduled event. Returns `true` if the event was
    /// still pending (it will be silently skipped when its time comes).
    /// O(1): no heap restructuring, no hashing.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let Some((gen, slot)) = self.slots.get_mut(id.slot as usize) else {
            return false;
        };
        if *gen != id.gen || !matches!(slot, Slot::Occupied(_)) {
            return false;
        }
        *slot = Slot::Tombstone;
        self.live -= 1;
        self.ops.cancels += 1;
        true
    }

    /// Removes and returns the earliest pending event, advancing the clock
    /// to its timestamp. Returns `None` when the queue is drained (all
    /// remaining tombstones are reclaimed before returning `None`, so
    /// push/cancel churn cannot grow memory).
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        loop {
            let entry = self.pop_root()?;
            if let Some(payload) = self.release_slot(entry.slot) {
                self.live -= 1;
                self.ops.pops += 1;
                self.now = entry.at;
                return Some((entry.at, payload));
            }
            // Tombstone: slot recycled, skip.
        }
    }

    /// Timestamp of the next live event without popping it.
    ///
    /// Pure (`&self`): peeking skips tombstones without reclaiming them —
    /// reclamation happens on `pop`.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.live == 0 {
            return None;
        }
        // A live root is the minimum; a tombstoned one cannot be rotated
        // away by a pure peek, so fall back to a scan of the live entries.
        match self.heap.first() {
            Some(root) if self.slot_is_live(root.slot) => Some(root.at),
            _ => self
                .heap
                .iter()
                .filter(|e| self.slot_is_live(e.slot))
                .map(|e| e.key())
                .min()
                .map(|(at, _)| at),
        }
    }

    /// Number of live (non-cancelled) events still pending.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    #[inline]
    fn slot_is_live(&self, slot: u32) -> bool {
        matches!(self.slots[slot as usize].1, Slot::Occupied(_))
    }

    /// Frees `slot`, bumping its generation; returns the payload if it was
    /// still occupied (`None` for tombstones).
    fn release_slot(&mut self, slot: u32) -> Option<E> {
        let cell = &mut self.slots[slot as usize];
        cell.0 = cell.0.wrapping_add(1);
        let payload = match std::mem::replace(&mut cell.1, Slot::Free) {
            Slot::Occupied(p) => Some(p),
            Slot::Tombstone => None,
            Slot::Free => unreachable!("slot freed twice"),
        };
        self.free.push(slot);
        payload
    }

    /// Removes the heap's root entry, restoring the heap property.
    fn pop_root(&mut self) -> Option<Entry> {
        let last = self.heap.pop()?;
        if self.heap.is_empty() {
            return Some(last);
        }
        let root = std::mem::replace(&mut self.heap[0], last);
        self.sift_down(0);
        Some(root)
    }

    #[inline]
    fn sift_up(&mut self, mut i: usize) {
        let entry = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if self.heap[parent].key() <= entry.key() {
                break;
            }
            self.heap[i] = self.heap[parent];
            i = parent;
        }
        self.heap[i] = entry;
    }

    #[inline]
    fn sift_down(&mut self, mut i: usize) {
        let len = self.heap.len();
        let entry = self.heap[i];
        loop {
            let first_child = i * ARITY + 1;
            if first_child >= len {
                break;
            }
            let mut min_child = first_child;
            let mut min_key = self.heap[first_child].key();
            let last_child = (first_child + ARITY - 1).min(len - 1);
            for c in first_child + 1..=last_child {
                let k = self.heap[c].key();
                if k < min_key {
                    min_key = k;
                    min_child = c;
                }
            }
            if entry.key() <= min_key {
                break;
            }
            self.heap[i] = self.heap[min_child];
            i = min_child;
        }
        self.heap[i] = entry;
    }
}

#[cfg(test)]
mod legacy {
    //! The seed implementation (`BinaryHeap<Entry> + HashSet<EventId>` lazy
    //! cancellation), preserved verbatim in behaviour as the reference the
    //! slab heap is differential-tested against.

    use crate::time::SimTime;
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
    pub struct LegacyId(u64);

    struct Entry<E> {
        at: SimTime,
        seq: u64,
        id: LegacyId,
        payload: E,
    }

    impl<E> PartialEq for Entry<E> {
        fn eq(&self, other: &Self) -> bool {
            self.at == other.at && self.seq == other.seq
        }
    }
    impl<E> Eq for Entry<E> {}
    impl<E> PartialOrd for Entry<E> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<E> Ord for Entry<E> {
        fn cmp(&self, other: &Self) -> Ordering {
            other
                .at
                .cmp(&self.at)
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }

    pub struct LegacyQueue<E> {
        heap: BinaryHeap<Entry<E>>,
        next_seq: u64,
        next_id: u64,
        cancelled: std::collections::HashSet<LegacyId>,
        now: SimTime,
    }

    impl<E> LegacyQueue<E> {
        pub fn new() -> Self {
            LegacyQueue {
                heap: BinaryHeap::new(),
                next_seq: 0,
                next_id: 0,
                cancelled: std::collections::HashSet::new(),
                now: SimTime::ZERO,
            }
        }

        pub fn push(&mut self, at: SimTime, payload: E) -> LegacyId {
            let at = at.max(self.now);
            let id = LegacyId(self.next_id);
            self.next_id += 1;
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Entry {
                at,
                seq,
                id,
                payload,
            });
            id
        }

        pub fn cancel(&mut self, id: LegacyId) -> bool {
            if id.0 >= self.next_id {
                return false;
            }
            // One deliberate deviation from the seed: cancelling an id that
            // already fired returned `true` there (and leaked the id into
            // `cancelled` forever). The slab queues return `false` for stale
            // handles; align so the differential test can assert outcomes.
            if self.cancelled.contains(&id) || !self.pending(id) {
                return false;
            }
            self.cancelled.insert(id)
        }

        fn pending(&self, id: LegacyId) -> bool {
            self.heap.iter().any(|e| e.id == id)
        }

        pub fn pop(&mut self) -> Option<(SimTime, E)> {
            while let Some(entry) = self.heap.pop() {
                if self.cancelled.remove(&entry.id) {
                    continue;
                }
                self.now = entry.at;
                return Some((entry.at, entry.payload));
            }
            None
        }

        pub fn peek_time(&self) -> Option<SimTime> {
            self.heap
                .iter()
                .filter(|e| !self.cancelled.contains(&e.id))
                .map(|e| (e.at, e.seq))
                .min()
                .map(|(at, _)| at)
        }

        pub fn len(&self) -> usize {
            self.heap.len() - self.cancelled.len()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), 3u32);
        q.push(SimTime::from_secs(1), 1u32);
        q.push(SimTime::from_secs(2), 2u32);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100u32 {
            q.push(t, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(5), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(5));
    }

    #[test]
    fn cancellation_skips_events() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime::from_secs(1), "a");
        let _b = q.push(SimTime::from_secs(2), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel is rejected");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, "b");
        assert!(q.pop().is_none());
    }

    #[test]
    fn stale_and_unknown_ids_are_not_cancellable() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime::from_secs(1), "a");
        assert_eq!(q.pop().unwrap().1, "a");
        assert!(!q.cancel(a), "popped event's id is stale");
        // The slot gets recycled by the next push; the old id must still be
        // rejected thanks to the generation stamp.
        let b = q.push(SimTime::from_secs(2), "b");
        assert!(!q.cancel(a), "stale id cannot cancel the recycled slot");
        assert!(q.cancel(b));
        let c = EventId { slot: 999, gen: 0 };
        assert!(!q.cancel(c), "out-of-range id is not cancellable");
    }

    #[test]
    fn peek_is_pure_and_does_not_advance_clock() {
        let mut q = EventQueue::new();
        let id = q.push(SimTime::from_secs(1), ());
        q.push(SimTime::from_secs(2), ());
        // peek takes &self: a shared reference suffices.
        let q_ref: &EventQueue<()> = &q;
        assert_eq!(q_ref.peek_time(), Some(SimTime::from_secs(1)));
        assert_eq!(q.now(), SimTime::ZERO);
        q.cancel(id);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)), "idempotent");
    }

    #[test]
    fn peek_skips_a_cancelled_root() {
        let mut q = EventQueue::new();
        let first = q.push(SimTime::from_secs(3600), 1u32);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(3600)));
        // Cancelled root: peek must skip it without mutating.
        q.push(SimTime::from_secs(7200), 2u32);
        assert!(q.cancel(first));
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(7200)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(7200), 2)));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1), 1u32);
        let (t, e) = q.pop().unwrap();
        assert_eq!(e, 1);
        q.push(t + SimDuration::from_secs(1), 2u32);
        q.push(t + SimDuration::from_millis(500), 3u32);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "scheduled event in the past")]
    fn scheduling_in_the_past_panics_in_debug() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(2), ());
        q.pop();
        q.push(SimTime::from_secs(1), ());
    }

    #[test]
    fn past_push_saturates_and_is_reported() {
        // Covers the release-mode semantics of `push` via the checked entry
        // point (which never panics, so this test runs in both build modes):
        // a past-scheduled event fires "now" and the rewrite is observable.
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(5), 0u32);
        q.pop();
        assert_eq!(q.saturated_pushes(), 0);
        let (_, saturated) = q.push_saturating(SimTime::from_secs(1), 1u32);
        assert!(saturated, "past schedule is flagged");
        assert_eq!(q.saturated_pushes(), 1);
        let (at, e) = q.pop().unwrap();
        assert_eq!(e, 1);
        assert_eq!(at, SimTime::from_secs(5), "event rewritten to now");
        // An on-time push is not flagged.
        let (_, saturated) = q.push_saturating(SimTime::from_secs(6), 2u32);
        assert!(!saturated);
        assert_eq!(q.saturated_pushes(), 1);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn release_push_saturates_silently_but_counts() {
        // In release builds the plain `push` rewrites past events to "now"
        // (monotone clock) and the counter is the only trace.
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(5), 0u32);
        q.pop();
        q.push(SimTime::from_secs(1), 1u32);
        assert_eq!(q.saturated_pushes(), 1);
        let (at, e) = q.pop().unwrap();
        assert_eq!(e, 1);
        assert_eq!(at, SimTime::from_secs(5));
    }

    #[test]
    fn slots_are_recycled_bounded() {
        // Push/cancel churn must not grow memory: tombstones are reclaimed
        // as pops sweep past them, slots and entries are reused.
        let mut q = EventQueue::new();
        for round in 0..1000u64 {
            let t = SimTime::from_micros(round + 1_000_000);
            let a = q.push(t, round);
            let b = q.push(t, round + 1);
            assert!(q.cancel(a));
            assert_eq!(q.pop().unwrap().1, round + 1);
            let _ = b;
        }
        assert!(q.slots.len() <= 4, "slab stays tiny: {}", q.slots.len());
        assert!(q.heap.len() <= 4, "heap stays tiny: {}", q.heap.len());
    }

    #[test]
    fn drain_after_mass_cancel_reclaims_everything() {
        let mut q = EventQueue::new();
        let ids: Vec<EventId> = (0..500u64)
            .map(|i| q.push(SimTime::from_micros(i * 50_000), i))
            .collect();
        for id in ids {
            assert!(q.cancel(id));
        }
        assert_eq!(q.len(), 0);
        assert_eq!(q.pop(), None, "pop reclaims all tombstones");
        assert_eq!(q.heap.len(), 0);
        assert_eq!(q.free.len(), q.slots.len(), "every slot is free again");
    }

    #[test]
    fn reset_keeps_storage_but_clears_state() {
        let mut q = EventQueue::new();
        for i in 0..200u64 {
            q.push(SimTime::from_micros(i * 10_000), i);
        }
        for _ in 0..100 {
            q.pop();
        }
        let slab_cap = q.slots.capacity();
        q.reset();
        assert_eq!(q.len(), 0);
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.pop(), None);
        assert!(q.slots.capacity() >= slab_cap, "slab storage kept");
        // A fresh session on the reset queue behaves like a new queue.
        q.push(SimTime::from_secs(1), 7u64);
        q.push(SimTime::from_millis(500), 3u64);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 7);
    }

    /// Drives the queue and the seed `BinaryHeap` reference through one
    /// randomized schedule, asserting identical observable behaviour at
    /// every step. Pushes spread over four horizon bands (tens of µs to
    /// minutes); `past_pushes` additionally schedules into the past via
    /// `push_saturating` (the reference clamps such pushes to "now").
    fn differential_vs_legacy(seed: u64, steps: usize, past_pushes: bool) {
        let mut rng = crate::rng::Prng::new(seed);
        let mut new_q: EventQueue<u64> = EventQueue::new();
        let mut ref_q: legacy::LegacyQueue<u64> = legacy::LegacyQueue::new();
        // Parallel handle lists: (new_id, legacy_id).
        let mut handles = Vec::new();
        let mut payload = 0u64;
        let mut saturated = 0u64;

        for _step in 0..steps {
            match rng.below(12) {
                // 0-4: push with a spread of horizons.
                0..=4 => {
                    let spread = match rng.below(4) {
                        0 => rng.below(50),          // same-instant dense
                        1 => rng.below(10_000),      // near horizon
                        2 => rng.below(5_000_000),   // seconds out
                        _ => rng.below(600_000_000), // minutes out
                    };
                    let at = new_q.now() + SimDuration::from_micros(spread);
                    payload += 1;
                    let a = new_q.push(at, payload);
                    let b = ref_q.push(at, payload);
                    handles.push((a, b));
                }
                // 5: past-scheduled push (saturates to "now").
                5 => {
                    if past_pushes {
                        let back = rng.below(1_000_000);
                        let now = new_q.now();
                        let at = SimTime::from_micros(now.as_micros().saturating_sub(back));
                        payload += 1;
                        let (a, sat) = new_q.push_saturating(at, payload);
                        assert_eq!(sat, at < now, "saturation flag");
                        saturated += u64::from(sat);
                        let b = ref_q.push(at, payload);
                        handles.push((a, b));
                    }
                }
                // 6-7: cancel a random (possibly stale) handle.
                6 | 7 => {
                    if !handles.is_empty() {
                        let i = rng.below(handles.len() as u64) as usize;
                        let (a, b) = handles[i];
                        assert_eq!(new_q.cancel(a), ref_q.cancel(b), "cancel outcome");
                    }
                }
                // 8-9: pop.
                8 | 9 => {
                    assert_eq!(new_q.pop(), ref_q.pop(), "pop");
                }
                // 10-11: peek.
                _ => {
                    assert_eq!(new_q.peek_time(), ref_q.peek_time(), "peek");
                }
            }
            assert_eq!(new_q.len(), ref_q.len(), "len");
            assert_eq!(new_q.is_empty(), ref_q.len() == 0, "is_empty");
            assert_eq!(new_q.saturated_pushes(), saturated, "saturation count");
        }
        // Drain both; full remaining order must match.
        loop {
            let (a, b) = (new_q.pop(), ref_q.pop());
            assert_eq!(a, b, "drain");
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn differential_vs_legacy_binary_heap() {
        for seed in 1..=20u64 {
            differential_vs_legacy(seed, 2000, false);
        }
    }

    #[test]
    fn differential_vs_legacy_with_past_saturation() {
        for seed in 100..=110u64 {
            differential_vs_legacy(seed, 2000, true);
        }
    }

    #[test]
    fn large_queue_pops_sorted() {
        let mut q = EventQueue::new();
        let mut rng = crate::rng::Prng::new(42);
        for i in 0..10_000u64 {
            q.push(SimTime::from_micros(rng.below(1_000_000)), i);
        }
        let mut last = SimTime::ZERO;
        let mut n = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
            n += 1;
        }
        assert_eq!(n, 10_000);
    }
}

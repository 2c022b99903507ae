//! An indexed arrival-order queue with O(1) removal.
//!
//! Both the EASY backfilling event loop (`resa-algos`) and the simulation
//! engine's waiting set (`resa-sim`) iterate a queue in arrival order while
//! removing arbitrary elements as jobs start. A `Vec` makes each removal an
//! `O(n)` shift and (in the engine's case) forced a fresh `Vec<Job>` clone at
//! every decision point; [`WaitList`] is a doubly-linked list threaded through
//! two index arrays instead, giving O(1) `push_back`/`remove`/`contains` with
//! zero steady-state allocation.

/// Sentinel index meaning "none".
const NIL: u32 = u32::MAX;

/// Doubly-linked arrival-order list over the indices `0..capacity`.
///
/// Every index may be present at most once; `push_back` appends in arrival
/// order and `remove` unlinks in O(1). Iteration visits present indices in
/// insertion order and is safe against removing the element just visited
/// (grab [`WaitList::next_of`] before removing).
#[derive(Debug, Clone)]
pub struct WaitList {
    next: Vec<u32>,
    prev: Vec<u32>,
    present: Vec<bool>,
    head: u32,
    tail: u32,
    len: usize,
}

impl Default for WaitList {
    /// An empty list accepting no index yet (see [`WaitList::ensure_capacity`]).
    fn default() -> Self {
        WaitList::with_capacity(0)
    }
}

impl WaitList {
    /// An empty list accepting indices `0..capacity`.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity < NIL as usize, "WaitList capacity overflow");
        WaitList {
            next: vec![NIL; capacity],
            prev: vec![NIL; capacity],
            present: vec![false; capacity],
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    /// Grow the accepted index range to `0..capacity` (no-op if already that
    /// large). Long-running callers (the `resa serve` waiting set, whose job
    /// catalog grows with every submission) use this instead of rebuilding.
    pub fn ensure_capacity(&mut self, capacity: usize) {
        assert!(capacity < NIL as usize, "WaitList capacity overflow");
        if capacity > self.next.len() {
            self.next.resize(capacity, NIL);
            self.prev.resize(capacity, NIL);
            self.present.resize(capacity, false);
        }
    }

    /// Current index capacity (length of the backing arrays). Exposed so
    /// bounded-memory harnesses can assert that live state stays O(active
    /// jobs) — a raw job id used as the index would drag this to the maximum
    /// id ever seen, which is why streaming callers queue compact *slots*
    /// and remap sparse external ids before they reach the list.
    pub fn capacity(&self) -> usize {
        self.next.len()
    }

    /// Shift every present index down by `delta` and shrink the accepted
    /// range accordingly — the compaction path taken after a prefix of the
    /// caller's catalog is retired (so old index `i` now lives at
    /// `i - delta`). Arrival order is preserved. Retirement is rare relative
    /// to queue operations, so this rebuilds the links in O(capacity).
    ///
    /// # Panics
    /// Panics if any present index is smaller than `delta`.
    pub fn rebase(&mut self, delta: usize) {
        if delta == 0 {
            return;
        }
        let order: Vec<usize> = self.iter().collect();
        let new_cap = self.next.len().saturating_sub(delta);
        self.next.clear();
        self.next.resize(new_cap, NIL);
        self.prev.clear();
        self.prev.resize(new_cap, NIL);
        self.present.clear();
        self.present.resize(new_cap, false);
        self.head = NIL;
        self.tail = NIL;
        self.len = 0;
        for index in order {
            assert!(index >= delta, "rebase past a still-queued index");
            self.push_back(index - delta);
        }
    }

    /// Number of present indices.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `index` is currently in the list.
    pub fn contains(&self, index: usize) -> bool {
        self.present.get(index).copied().unwrap_or(false)
    }

    /// First (oldest) present index.
    pub fn front(&self) -> Option<usize> {
        (self.head != NIL).then_some(self.head as usize)
    }

    /// The index after `index` in arrival order.
    ///
    /// # Panics
    /// Panics in debug builds if `index` is not present.
    pub fn next_of(&self, index: usize) -> Option<usize> {
        debug_assert!(self.present[index]);
        let n = self.next[index];
        (n != NIL).then_some(n as usize)
    }

    /// Append `index` at the back.
    ///
    /// # Panics
    /// Panics if `index` is already present or out of range.
    pub fn push_back(&mut self, index: usize) {
        assert!(!self.present[index], "index already queued");
        let i = index as u32;
        self.present[index] = true;
        self.prev[index] = self.tail;
        self.next[index] = NIL;
        if self.tail != NIL {
            self.next[self.tail as usize] = i;
        } else {
            self.head = i;
        }
        self.tail = i;
        self.len += 1;
    }

    /// Insert `index` at the front, ahead of every queued element — the
    /// priority-boost path of deadline admission (`resa-sim`), where a job
    /// whose due date the speculative bound already misses jumps the queue.
    ///
    /// # Panics
    /// Panics if `index` is already present or out of range.
    pub fn push_front(&mut self, index: usize) {
        assert!(!self.present[index], "index already queued");
        let i = index as u32;
        self.present[index] = true;
        self.next[index] = self.head;
        self.prev[index] = NIL;
        if self.head != NIL {
            self.prev[self.head as usize] = i;
        } else {
            self.tail = i;
        }
        self.head = i;
        self.len += 1;
    }

    /// Unlink `index`. Returns whether it was present.
    pub fn remove(&mut self, index: usize) -> bool {
        if !self.contains(index) {
            return false;
        }
        let (p, n) = (self.prev[index], self.next[index]);
        if p != NIL {
            self.next[p as usize] = n;
        } else {
            self.head = n;
        }
        if n != NIL {
            self.prev[n as usize] = p;
        } else {
            self.tail = p;
        }
        self.present[index] = false;
        self.prev[index] = NIL;
        self.next[index] = NIL;
        self.len -= 1;
        true
    }

    /// Iterate the present indices in arrival order.
    pub fn iter(&self) -> WaitListIter<'_> {
        WaitListIter {
            list: self,
            cursor: self.head,
        }
    }
}

/// Iterator over a [`WaitList`] in arrival order.
#[derive(Debug)]
pub struct WaitListIter<'a> {
    list: &'a WaitList,
    cursor: u32,
}

impl Iterator for WaitListIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.cursor == NIL {
            return None;
        }
        let current = self.cursor as usize;
        self.cursor = self.list.next[current];
        Some(current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_iterate_remove() {
        let mut l = WaitList::with_capacity(5);
        assert!(l.is_empty());
        for i in [2, 0, 4] {
            l.push_back(i);
        }
        assert_eq!(l.len(), 3);
        assert_eq!(l.iter().collect::<Vec<_>>(), vec![2, 0, 4]);
        assert_eq!(l.front(), Some(2));
        assert!(l.contains(4) && !l.contains(1));

        assert!(l.remove(0));
        assert_eq!(l.iter().collect::<Vec<_>>(), vec![2, 4]);
        assert!(!l.remove(0), "double remove is a no-op");
        assert!(l.remove(2));
        assert_eq!(l.front(), Some(4));
        assert!(l.remove(4));
        assert!(l.is_empty());
        assert_eq!(l.front(), None);
    }

    #[test]
    fn push_front_jumps_the_queue() {
        let mut l = WaitList::with_capacity(5);
        l.push_front(0); // front onto an empty list behaves like push_back
        assert_eq!(l.iter().collect::<Vec<_>>(), vec![0]);
        l.push_back(1);
        l.push_front(2);
        l.push_front(3); // the latest boost is frontmost
        assert_eq!(l.iter().collect::<Vec<_>>(), vec![3, 2, 0, 1]);
        assert_eq!(l.front(), Some(3));
        assert!(l.remove(3));
        assert_eq!(l.front(), Some(2));
        assert!(l.remove(0));
        assert_eq!(l.iter().collect::<Vec<_>>(), vec![2, 1]);
    }

    #[test]
    fn reinsertion_after_removal() {
        let mut l = WaitList::with_capacity(3);
        l.push_back(1);
        l.push_back(2);
        l.remove(1);
        l.push_back(1); // now behind 2
        assert_eq!(l.iter().collect::<Vec<_>>(), vec![2, 1]);
        assert_eq!(l.next_of(2), Some(1));
        assert_eq!(l.next_of(1), None);
    }

    #[test]
    fn ensure_capacity_grows_in_place() {
        let mut l = WaitList::with_capacity(2);
        l.push_back(1);
        l.ensure_capacity(5);
        l.push_back(4);
        assert_eq!(l.iter().collect::<Vec<_>>(), vec![1, 4]);
        assert!(!l.contains(3));
        l.ensure_capacity(3); // shrinking is a no-op
        assert!(l.contains(4));
    }

    #[test]
    #[should_panic(expected = "already queued")]
    fn double_push_panics() {
        let mut l = WaitList::with_capacity(2);
        l.push_back(0);
        l.push_back(0);
    }

    #[test]
    fn rebase_shifts_and_shrinks() {
        let mut l = WaitList::with_capacity(10);
        for i in [7, 4, 9] {
            l.push_back(i);
        }
        l.rebase(3);
        assert_eq!(l.iter().collect::<Vec<_>>(), vec![4, 1, 6]);
        assert_eq!(l.capacity(), 7);
        assert_eq!(l.front(), Some(4));
        assert!(l.contains(6) && !l.contains(7));
        // Rebasing by zero is a no-op.
        l.rebase(0);
        assert_eq!(l.iter().collect::<Vec<_>>(), vec![4, 1, 6]);
        // The freed range is really gone: re-growing starts from the new cap.
        l.ensure_capacity(8);
        l.push_back(7);
        assert_eq!(l.iter().collect::<Vec<_>>(), vec![4, 1, 6, 7]);
    }

    #[test]
    #[should_panic(expected = "rebase past a still-queued index")]
    fn rebase_past_live_index_panics() {
        let mut l = WaitList::with_capacity(4);
        l.push_back(1);
        l.rebase(2);
    }
}

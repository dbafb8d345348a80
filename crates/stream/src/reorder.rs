//! The output reorder buffer.
//!
//! §I of the paper notes that because different items may flow through
//! different recipes (with different processing times), a buffer is needed at
//! the output to re-establish the input order. The cost model assumes such a
//! buffer exists; this module provides it for the streaming substrate and
//! reports the peak occupancy the buffer actually needs.

use std::collections::BTreeSet;

/// Reorder buffer: accepts item completions in any order and releases items
/// strictly in their arrival order (0, 1, 2, …).
#[derive(Debug, Default, Clone)]
pub struct ReorderBuffer {
    /// Next item index expected at the output.
    next_expected: usize,
    /// Completed items waiting for earlier items to finish.
    pending: BTreeSet<usize>,
    /// Largest number of items simultaneously buffered.
    peak_occupancy: usize,
    /// Total number of items released in order.
    released: usize,
}

impl ReorderBuffer {
    /// Creates an empty buffer expecting item 0 first.
    pub fn new() -> Self {
        ReorderBuffer::default()
    }

    /// Accepts the completion of `item` and returns the (possibly empty) batch
    /// of items that can now be released in order.
    ///
    /// # Panics
    ///
    /// Panics if the same item is completed twice or an already-released item
    /// is completed again — both indicate a simulator bug.
    pub fn complete(&mut self, item: usize) -> Vec<usize> {
        assert!(
            item >= self.next_expected,
            "item {item} was already released"
        );
        assert!(self.pending.insert(item), "item {item} completed twice");
        self.peak_occupancy = self.peak_occupancy.max(self.pending.len());
        let mut released = Vec::new();
        while self.pending.remove(&self.next_expected) {
            released.push(self.next_expected);
            self.next_expected += 1;
        }
        self.released += released.len();
        released
    }

    /// Number of items currently buffered, waiting for earlier items.
    pub fn occupancy(&self) -> usize {
        self.pending.len()
    }

    /// Largest occupancy observed so far, i.e. the buffer capacity the
    /// deployment actually needs.
    pub fn peak_occupancy(&self) -> usize {
        self.peak_occupancy
    }

    /// Total number of items released in order so far.
    pub fn released(&self) -> usize {
        self.released
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_completions_flow_straight_through() {
        let mut buffer = ReorderBuffer::new();
        assert_eq!(buffer.complete(0), vec![0]);
        assert_eq!(buffer.complete(1), vec![1]);
        assert_eq!(buffer.complete(2), vec![2]);
        assert_eq!(buffer.peak_occupancy(), 1);
        assert_eq!(buffer.released(), 3);
    }

    #[test]
    fn out_of_order_completions_are_held_back() {
        let mut buffer = ReorderBuffer::new();
        assert_eq!(buffer.complete(2), Vec::<usize>::new());
        assert_eq!(buffer.complete(1), Vec::<usize>::new());
        assert_eq!(buffer.occupancy(), 2);
        // Item 0 unlocks everything, in order.
        assert_eq!(buffer.complete(0), vec![0, 1, 2]);
        assert_eq!(buffer.occupancy(), 0);
        assert_eq!(buffer.peak_occupancy(), 3);
        assert_eq!(buffer.next_expected, 3);
    }

    #[test]
    fn interleaved_pattern_releases_progressively() {
        let mut buffer = ReorderBuffer::new();
        assert!(buffer.complete(1).is_empty());
        assert_eq!(buffer.complete(0), vec![0, 1]);
        assert!(buffer.complete(3).is_empty());
        assert_eq!(buffer.complete(2), vec![2, 3]);
        assert_eq!(buffer.released(), 4);
    }

    #[test]
    #[should_panic(expected = "completed twice")]
    fn double_completion_panics() {
        let mut buffer = ReorderBuffer::new();
        buffer.complete(5);
        buffer.complete(5);
    }

    #[test]
    #[should_panic(expected = "already released")]
    fn completing_a_released_item_panics() {
        let mut buffer = ReorderBuffer::new();
        buffer.complete(0);
        buffer.complete(0);
    }
}

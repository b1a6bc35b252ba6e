//! Sliding windows over data streams (Definition 2).
//!
//! The paper adopts the count-based model: `W_t` holds the `w` most recent
//! tuples; at each new timestamp the oldest tuple expires. The time-based
//! model (reference \[39\]) is sketched as an easy extension — provided
//! here as [`TimeWindow`], which may expire several tuples at once.

use std::collections::VecDeque;

/// Count-based sliding window of fixed capacity `w`.
#[derive(Debug, Clone)]
pub struct SlidingWindow<T> {
    w: usize,
    buf: VecDeque<(u64, T)>,
}

impl<T> SlidingWindow<T> {
    /// Creates a window holding at most `w` items.
    ///
    /// # Panics
    /// Panics if `w == 0`.
    pub fn new(w: usize) -> Self {
        assert!(w > 0, "window size must be positive");
        Self {
            w,
            buf: VecDeque::with_capacity(w + 1),
        }
    }

    /// Capacity `w`.
    pub fn capacity(&self) -> usize {
        self.w
    }

    /// Current number of unexpired items.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Pushes an item arriving at `timestamp`; returns the expired oldest
    /// item when the window was full (Algorithm 1 lines 7–9 evict exactly
    /// this tuple from the candidate lists and result set).
    ///
    /// Simultaneous arrivals (equal timestamps) are legal: eviction is
    /// count-based, so ties resolve by arrival order, which the single
    /// ordered step stage makes deterministic.
    ///
    /// # Panics
    /// Panics (debug builds) if timestamps decrease.
    pub fn push(&mut self, timestamp: u64, item: T) -> Option<(u64, T)> {
        debug_assert!(
            self.buf.back().is_none_or(|(t, _)| *t <= timestamp),
            "timestamps must be non-decreasing"
        );
        self.buf.push_back((timestamp, item));
        if self.buf.len() > self.w {
            self.buf.pop_front()
        } else {
            None
        }
    }

    /// Iterates over `(timestamp, item)` pairs, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.buf.iter().map(|(t, x)| (*t, x))
    }

    /// The oldest item, if any.
    pub fn oldest(&self) -> Option<(u64, &T)> {
        self.buf.front().map(|(t, x)| (*t, x))
    }

    /// The newest item, if any.
    pub fn newest(&self) -> Option<(u64, &T)> {
        self.buf.back().map(|(t, x)| (*t, x))
    }
}

/// Time-based sliding window: keeps items with `timestamp > now − span`.
#[derive(Debug, Clone)]
pub struct TimeWindow<T> {
    span: u64,
    buf: VecDeque<(u64, T)>,
}

impl<T> TimeWindow<T> {
    /// Creates a window covering the most recent `span` time units.
    ///
    /// # Panics
    /// Panics if `span == 0`.
    pub fn new(span: u64) -> Self {
        assert!(span > 0, "window span must be positive");
        Self {
            span,
            buf: VecDeque::new(),
        }
    }

    /// Current number of unexpired items.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Pushes an item arriving at `timestamp` and returns every expired
    /// item (several tuples can share a timestamp in the time-based model,
    /// so several can expire at once).
    pub fn push(&mut self, timestamp: u64, item: T) -> Vec<(u64, T)> {
        debug_assert!(
            self.buf.back().is_none_or(|(t, _)| *t <= timestamp),
            "timestamps must be non-decreasing"
        );
        self.buf.push_back((timestamp, item));
        let mut expired = Vec::new();
        // Window covers (now − span, now]; with unsigned timestamps nothing
        // can expire before `span` time units have elapsed.
        if timestamp >= self.span {
            let cutoff = timestamp - self.span;
            while let Some((t, _)) = self.buf.front() {
                if *t <= cutoff {
                    expired.push(self.buf.pop_front().unwrap());
                } else {
                    break;
                }
            }
        }
        expired
    }

    /// Iterates over `(timestamp, item)` pairs, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.buf.iter().map(|(t, x)| (*t, x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_window_expires_fifo() {
        let mut w = SlidingWindow::new(3);
        assert_eq!(w.push(0, "a"), None);
        assert_eq!(w.push(1, "b"), None);
        assert_eq!(w.push(2, "c"), None);
        assert_eq!(w.push(3, "d"), Some((0, "a")));
        assert_eq!(w.push(4, "e"), Some((1, "b")));
        assert_eq!(w.len(), 3);
        let items: Vec<&str> = w.iter().map(|(_, x)| *x).collect();
        assert_eq!(items, vec!["c", "d", "e"]);
    }

    #[test]
    fn count_window_oldest_newest() {
        let mut w = SlidingWindow::new(2);
        assert!(w.oldest().is_none());
        w.push(5, 50);
        w.push(6, 60);
        assert_eq!(w.oldest(), Some((5, &50)));
        assert_eq!(w.newest(), Some((6, &60)));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _: SlidingWindow<u8> = SlidingWindow::new(0);
    }

    #[test]
    fn count_window_accepts_simultaneous_arrivals() {
        let mut w = SlidingWindow::new(2);
        assert_eq!(w.push(7, "a"), None);
        assert_eq!(w.push(7, "b"), None);
        // Ties evict in arrival order.
        assert_eq!(w.push(7, "c"), Some((7, "a")));
        assert_eq!(w.oldest(), Some((7, &"b")));
    }

    #[test]
    fn window_of_one() {
        let mut w = SlidingWindow::new(1);
        assert_eq!(w.push(0, 1), None);
        assert_eq!(w.push(1, 2), Some((0, 1)));
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn time_window_expires_by_span() {
        let mut w = TimeWindow::new(10);
        assert!(w.push(0, "a").is_empty());
        assert!(w.push(5, "b").is_empty());
        // now=11: cutoff=1, expires item at t=0
        let expired = w.push(11, "c");
        assert_eq!(expired, vec![(0, "a")]);
        // now=30: cutoff=20, expires t=5 and t=11
        let expired = w.push(30, "d");
        assert_eq!(expired.len(), 2);
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn time_window_same_timestamp_batch() {
        let mut w = TimeWindow::new(5);
        w.push(1, 1);
        w.push(1, 2);
        w.push(1, 3);
        assert_eq!(w.len(), 3);
        let expired = w.push(10, 4);
        assert_eq!(expired.len(), 3);
    }
}

//! A bounded best-k list.
//!
//! Algorithm 1 keeps "a list L of size k … updated after each iteration;
//! the new team is added to L if its cost is smaller than the last team in
//! L". This is exactly that list, generic so the per-thread root scans can
//! keep local lists and merge them.

/// Keeps the `k` items with the smallest keys seen so far.
///
/// Equal keys are ordered by value, so the kept set is the `k` smallest
/// `(key, value)` pairs — one total order, whatever the insertion order.
/// That is what makes merging per-thread lists exact: any partition of
/// the offers merges to the list a single pass would keep.
///
/// Insertion is `O(k)` (a shifted insert into a sorted `Vec`), which for
/// the paper's `k ≤ 10` beats any heap bookkeeping.
#[derive(Clone, Debug)]
pub struct BoundedTopK<T> {
    capacity: usize,
    items: Vec<(f64, T)>,
}

impl<T: Ord> BoundedTopK<T> {
    /// A list keeping the best `capacity` items.
    pub fn new(capacity: usize) -> Self {
        BoundedTopK {
            capacity,
            items: Vec::with_capacity(capacity.min(64)),
        }
    }

    /// Offers an item; it is kept only if `(key, value)` is among the
    /// `k` smallest pairs. NaN keys are rejected outright.
    pub fn offer(&mut self, key: f64, value: T) -> bool {
        if self.capacity == 0 || key.is_nan() {
            return false;
        }
        let pos = self
            .items
            .partition_point(|(k, v)| *k < key || (*k == key && *v <= value));
        if pos == self.capacity {
            return false;
        }
        self.items.insert(pos, (key, value));
        self.items.truncate(self.capacity);
        true
    }

    /// Current worst (largest) kept key, if the list is full.
    pub fn threshold(&self) -> Option<f64> {
        (self.items.len() == self.capacity)
            .then(|| self.items.last().map(|&(k, _)| k))
            .flatten()
    }

    /// Number of kept items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if no items are kept.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Consumes the list, returning `(key, value)` pairs in ascending
    /// order.
    pub fn into_sorted(self) -> Vec<(f64, T)> {
        self.items
    }

    /// Merges another list into this one.
    pub fn merge(&mut self, other: BoundedTopK<T>) {
        for (k, v) in other.items {
            self.offer(k, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_k_smallest() {
        let mut l = BoundedTopK::new(3);
        for (k, v) in [(5.0, 'a'), (1.0, 'b'), (4.0, 'c'), (2.0, 'd'), (9.0, 'e')] {
            l.offer(k, v);
        }
        let got: Vec<char> = l.into_sorted().into_iter().map(|(_, v)| v).collect();
        assert_eq!(got, vec!['b', 'd', 'c']);
    }

    #[test]
    fn rejects_when_full_and_worse() {
        let mut l = BoundedTopK::new(2);
        assert!(l.offer(1.0, ()));
        assert!(l.offer(2.0, ()));
        assert!(!l.offer(3.0, ()), "worse than the kept tail");
        assert!(l.offer(0.5, ()));
        assert_eq!(l.threshold(), Some(1.0));
    }

    #[test]
    fn threshold_only_when_full() {
        let mut l = BoundedTopK::new(3);
        l.offer(1.0, ());
        assert_eq!(l.threshold(), None);
        l.offer(2.0, ());
        l.offer(3.0, ());
        assert_eq!(l.threshold(), Some(3.0));
    }

    #[test]
    fn equal_keys_break_ties_by_value() {
        let mut l = BoundedTopK::new(3);
        for v in ['z', 'x', 'w', 'y'] {
            l.offer(1.0, v);
        }
        let got: Vec<char> = l.into_sorted().into_iter().map(|(_, v)| v).collect();
        assert_eq!(got, vec!['w', 'x', 'y'], "smallest values among ties");
    }

    #[test]
    fn zero_capacity_accepts_nothing() {
        let mut l = BoundedTopK::new(0);
        assert!(!l.offer(1.0, ()));
        assert!(l.is_empty());
    }

    #[test]
    fn nan_keys_rejected() {
        let mut l = BoundedTopK::new(2);
        assert!(!l.offer(f64::NAN, ()));
        assert!(l.is_empty());
    }

    #[test]
    fn merge_combines_lists() {
        let mut a = BoundedTopK::new(2);
        a.offer(3.0, 'a');
        a.offer(1.0, 'b');
        let mut b = BoundedTopK::new(2);
        b.offer(2.0, 'c');
        b.offer(0.5, 'd');
        a.merge(b);
        let got: Vec<char> = a.into_sorted().into_iter().map(|(_, v)| v).collect();
        assert_eq!(got, vec!['d', 'b']);
    }
}

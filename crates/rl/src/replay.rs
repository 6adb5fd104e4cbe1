use rand::Rng;
use std::collections::VecDeque;

/// A bounded experience-replay buffer.
///
/// Oldest experiences are evicted when the capacity is reached; sampling is
/// uniform with replacement, one borrowed experience per draw, which is all
/// DDPG needs at this scale.
///
/// # Example
///
/// ```
/// use ie_rl::ReplayBuffer;
/// use rand::SeedableRng;
///
/// let mut buffer = ReplayBuffer::new(8);
/// for i in 0..20 {
///     buffer.push(i);
/// }
/// assert_eq!(buffer.len(), 8);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let drawn = buffer.sample_one(&mut rng).copied();
/// assert!(drawn.is_some_and(|i| (12..20).contains(&i)));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayBuffer<T> {
    capacity: usize,
    items: VecDeque<T>,
}

impl<T> ReplayBuffer<T> {
    /// Creates a buffer holding at most `capacity` experiences.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "replay capacity must be non-zero");
        ReplayBuffer { capacity, items: VecDeque::with_capacity(capacity) }
    }

    /// Maximum number of experiences retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of experiences currently stored.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns `true` when no experiences are stored.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Adds an experience, evicting the oldest one if the buffer is full.
    pub fn push(&mut self, item: T) {
        if self.items.len() == self.capacity {
            self.items.pop_front();
        }
        self.items.push_back(item);
    }

    /// Uniformly samples one stored experience with one
    /// `gen_range(0..len)` draw, or returns `None` without drawing when the
    /// buffer is empty. Repeated calls sample with replacement.
    pub fn sample_one<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
        if self.items.is_empty() {
            return None;
        }
        self.items.get(rng.gen_range(0..self.items.len()))
    }

    /// Iterates over the stored experiences, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }

    /// Removes all stored experiences.
    pub fn clear(&mut self) {
        self.items.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn eviction_keeps_the_newest_items() {
        let mut b = ReplayBuffer::new(3);
        for i in 0..5 {
            b.push(i);
        }
        let items: Vec<i32> = b.iter().copied().collect();
        assert_eq!(items, vec![2, 3, 4]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.capacity(), 3);
    }

    #[test]
    fn sampling_only_returns_stored_items() {
        let mut b = ReplayBuffer::new(10);
        for i in 0..10 {
            b.push(i * 10);
        }
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..100 {
            let x = *b.sample_one(&mut rng).unwrap();
            assert!(x % 10 == 0 && x < 100);
        }
    }

    #[test]
    fn empty_buffer_samples_nothing() {
        let b: ReplayBuffer<u8> = ReplayBuffer::new(4);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(b.sample_one(&mut rng).is_none());
        assert!(b.is_empty());
    }

    #[test]
    fn clear_empties_the_buffer() {
        let mut b = ReplayBuffer::new(4);
        b.push(1);
        b.clear();
        assert!(b.is_empty());
    }

    #[test]
    #[should_panic(expected = "replay capacity must be non-zero")]
    fn zero_capacity_panics() {
        let _: ReplayBuffer<u8> = ReplayBuffer::new(0);
    }
}

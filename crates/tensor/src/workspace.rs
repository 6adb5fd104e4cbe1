//! A reusable scratch arena for allocation-free kernel pipelines.
//!
//! The out-parameter kernels ([`crate::gemm_into`], [`crate::im2col_batch_into`],
//! …) need somewhere to write. A [`Workspace`] owns a small set of grow-only
//! `f32` buffers ("slots") that a caller sizes once — typically from a static
//! execution plan — and then borrows on every inference without touching the
//! allocator again. Slots only ever grow, so after the first warm-up pass a
//! steady-state workload performs zero heap allocations.

/// A set of independently borrowable, grow-only `f32` scratch buffers.
///
/// # Example
///
/// ```
/// use ie_tensor::{gemm_into, Workspace};
///
/// let mut ws = Workspace::new();
/// ws.ensure_slot(0, 4); // 2x2 output
/// let a = [1.0, 2.0, 3.0, 4.0];
/// let b = [1.0, 0.0, 0.0, 1.0];
/// gemm_into(&a, &b, &mut ws.slot_mut(0)[..4], 2, 2, 2);
/// assert_eq!(&ws.slot(0)[..4], &a);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    slots: Vec<Vec<f32>>,
}

impl Workspace {
    /// Creates an empty workspace with no slots.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Number of slots currently present.
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// Capacity (element count) of slot `idx`, or 0 when it does not exist.
    pub fn slot_len(&self, idx: usize) -> usize {
        self.slots.get(idx).map(Vec::len).unwrap_or(0)
    }

    /// Grows slot `idx` to hold at least `len` elements, creating intermediate
    /// slots as needed. Slots never shrink, so once every call site has been
    /// warmed the workspace performs no further allocations. New space is
    /// zero-filled; existing contents are preserved.
    pub fn ensure_slot(&mut self, idx: usize, len: usize) {
        if self.slots.len() <= idx {
            self.slots.resize_with(idx + 1, Vec::new);
        }
        if self.slots[idx].len() < len {
            self.slots[idx].resize(len, 0.0);
        }
    }

    /// Borrows slot `idx` immutably (its full grown extent).
    ///
    /// # Panics
    ///
    /// Panics when the slot does not exist.
    pub fn slot(&self, idx: usize) -> &[f32] {
        &self.slots[idx]
    }

    /// Borrows slot `idx` mutably (its full grown extent).
    ///
    /// # Panics
    ///
    /// Panics when the slot does not exist.
    pub fn slot_mut(&mut self, idx: usize) -> &mut [f32] {
        &mut self.slots[idx]
    }

    /// Borrows two distinct slots mutably at once — the ping-pong pattern a
    /// layer pipeline uses (read the previous activation from one slot while
    /// writing the next into the other).
    ///
    /// # Panics
    ///
    /// Panics when `i == j` or either slot does not exist.
    pub fn pair_mut(&mut self, i: usize, j: usize) -> (&mut [f32], &mut [f32]) {
        assert_ne!(i, j, "pair_mut requires two distinct slots");
        let (lo, hi) = (i.min(j), i.max(j));
        let (left, right) = self.slots.split_at_mut(hi);
        let (a, b) = (left[lo].as_mut_slice(), right[0].as_mut_slice());
        if i < j {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Zero-fills every slot (contents only; capacities are kept).
    pub fn clear(&mut self) {
        for slot in &mut self.slots {
            slot.fill(0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_grow_monotonically_and_preserve_contents() {
        let mut ws = Workspace::new();
        ws.ensure_slot(1, 4);
        assert_eq!(ws.num_slots(), 2);
        assert_eq!(ws.slot_len(0), 0);
        assert_eq!(ws.slot_len(1), 4);
        ws.slot_mut(1)[0] = 7.0;
        ws.ensure_slot(1, 2); // smaller request: no shrink
        assert_eq!(ws.slot_len(1), 4);
        ws.ensure_slot(1, 6); // grow keeps the prefix
        assert_eq!(ws.slot_len(1), 6);
        assert_eq!(ws.slot(1)[0], 7.0);
        assert_eq!(ws.slot(1)[5], 0.0);
    }

    #[test]
    fn pair_mut_returns_disjoint_slices_in_order() {
        let mut ws = Workspace::new();
        ws.ensure_slot(0, 2);
        ws.ensure_slot(1, 3);
        {
            let (a, b) = ws.pair_mut(0, 1);
            a[0] = 1.0;
            b[2] = 2.0;
        }
        let (b, a) = ws.pair_mut(1, 0);
        assert_eq!(b.len(), 3);
        assert_eq!(a.len(), 2);
        assert_eq!(a[0], 1.0);
        assert_eq!(b[2], 2.0);
    }

    #[test]
    #[should_panic(expected = "distinct slots")]
    fn pair_mut_rejects_aliasing() {
        let mut ws = Workspace::new();
        ws.ensure_slot(0, 1);
        let _ = ws.pair_mut(0, 0);
    }

    #[test]
    fn clear_zeroes_contents_but_keeps_capacity() {
        let mut ws = Workspace::new();
        ws.ensure_slot(0, 3);
        ws.slot_mut(0).fill(9.0);
        ws.clear();
        assert_eq!(ws.slot(0), &[0.0, 0.0, 0.0]);
        assert_eq!(ws.slot_len(0), 3);
    }
}

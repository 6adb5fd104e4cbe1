use std::fmt;

/// A tensor shape: the size of each dimension in row-major order.
///
/// Shapes are lightweight value types; the crate only ever materialises
/// contiguous row-major layouts, so strides are derived on demand rather than
/// stored.
///
/// # Example
///
/// ```
/// use ie_tensor::Shape;
///
/// let s = Shape::new(&[2, 3, 4]);
/// assert_eq!(s.len(), 24);
/// assert_eq!(s.strides(), vec![12, 4, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from a slice of dimension sizes.
    pub fn new(dims: &[usize]) -> Self {
        Shape { dims: dims.to_vec() }
    }

    /// The number of dimensions (rank) of the shape.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// The dimension sizes.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Total number of elements described by the shape.
    ///
    /// The empty shape (rank 0) describes a scalar and has one element.
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// Returns `true` if the shape contains zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row-major strides for the shape.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Converts a multi-dimensional index into a flat row-major offset.
    ///
    /// Returns `None` if the index rank does not match or any coordinate is
    /// out of range.
    pub fn offset(&self, index: &[usize]) -> Option<usize> {
        if index.len() != self.dims.len() {
            return None;
        }
        let mut flat = 0usize;
        for ((&i, &d), stride) in index.iter().zip(&self.dims).zip(self.strides()) {
            if i >= d {
                return None;
            }
            flat += i * stride;
        }
        Some(flat)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape { dims }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn len_is_product_of_dims() {
        assert_eq!(Shape::new(&[2, 3, 4]).len(), 24);
        assert_eq!(Shape::new(&[5]).len(), 5);
        assert_eq!(Shape::new(&[]).len(), 1, "scalar shape has one element");
        assert_eq!(Shape::new(&[3, 0, 2]).len(), 0);
    }

    #[test]
    fn strides_are_row_major() {
        assert_eq!(Shape::new(&[2, 3, 4]).strides(), vec![12, 4, 1]);
        assert_eq!(Shape::new(&[7]).strides(), vec![1]);
        assert!(Shape::new(&[]).strides().is_empty());
    }

    #[test]
    fn offset_maps_last_axis_fastest() {
        let s = Shape::new(&[2, 3]);
        assert_eq!(s.offset(&[0, 0]), Some(0));
        assert_eq!(s.offset(&[0, 2]), Some(2));
        assert_eq!(s.offset(&[1, 0]), Some(3));
        assert_eq!(s.offset(&[1, 2]), Some(5));
    }

    #[test]
    fn offset_rejects_bad_indices() {
        let s = Shape::new(&[2, 3]);
        assert_eq!(s.offset(&[2, 0]), None, "row out of range");
        assert_eq!(s.offset(&[0, 3]), None, "col out of range");
        assert_eq!(s.offset(&[0]), None, "wrong rank");
    }

    #[test]
    fn display_lists_dims() {
        assert_eq!(Shape::new(&[1, 28, 28]).to_string(), "[1, 28, 28]");
    }

    #[test]
    fn conversions_from_slices_and_vecs() {
        let a: Shape = (&[2usize, 2][..]).into();
        let b: Shape = vec![2usize, 2].into();
        assert_eq!(a, b);
    }
}

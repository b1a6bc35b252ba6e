//! Axis-aligned bounding rectangles (MBRs) in `d` dimensions.

use ter_text::Interval;

/// A `d`-dimensional axis-aligned rectangle: one closed [`Interval`] per
/// dimension. The MBR type of [`crate::ArTree`] nodes and the tree's
/// query-range type.
#[derive(Debug, Clone, PartialEq)]
pub struct Rect {
    dims: Box<[Interval]>,
}

impl Rect {
    /// Builds a rectangle from per-dimension intervals.
    pub fn new(dims: Vec<Interval>) -> Self {
        Self {
            dims: dims.into_boxed_slice(),
        }
    }

    /// An empty accumulator rectangle of dimensionality `d` — expanding it
    /// with any point/rect yields that point/rect.
    pub fn empty(d: usize) -> Self {
        Self::new(vec![Interval::empty(); d])
    }

    /// The degenerate rectangle covering exactly `point`.
    pub fn point(point: &[f64]) -> Self {
        Self::new(point.iter().map(|&v| Interval::point(v)).collect())
    }

    /// The unit hyper-cube `[0,1]^d` (the pivot-converted data space).
    pub fn unit(d: usize) -> Self {
        Self::new(vec![Interval::unit(); d])
    }

    /// Dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dims.len()
    }

    /// Per-dimension intervals.
    #[inline]
    pub fn dims(&self) -> &[Interval] {
        &self.dims
    }

    /// Interval of dimension `k`.
    #[inline]
    pub fn dim_interval(&self, k: usize) -> &Interval {
        &self.dims[k]
    }

    /// Whether the accumulator has absorbed nothing yet.
    pub fn is_empty(&self) -> bool {
        self.dims.iter().any(|i| i.is_empty())
    }

    /// Whether `point` lies inside the rectangle (inclusive).
    pub fn contains_point(&self, point: &[f64]) -> bool {
        debug_assert_eq!(point.len(), self.dim());
        self.dims.iter().zip(point).all(|(i, &v)| i.contains(v))
    }

    /// Whether the two rectangles intersect (share at least one point).
    pub fn intersects(&self, other: &Rect) -> bool {
        debug_assert_eq!(self.dim(), other.dim());
        self.dims
            .iter()
            .zip(other.dims.iter())
            .all(|(a, b)| a.intersects(b))
    }

    /// Whether `other` lies entirely inside `self`.
    pub fn contains_rect(&self, other: &Rect) -> bool {
        self.dims
            .iter()
            .zip(other.dims.iter())
            .all(|(a, b)| a.contains_interval(b))
    }

    /// Grows to include `point`.
    pub fn expand_point(&mut self, point: &[f64]) {
        debug_assert_eq!(point.len(), self.dim());
        for (i, &v) in self.dims.iter_mut().zip(point) {
            i.expand(v);
        }
    }

    /// Grows to include all of `other`.
    pub fn expand_rect(&mut self, other: &Rect) {
        for (i, o) in self.dims.iter_mut().zip(other.dims.iter()) {
            i.expand_interval(o);
        }
    }

    /// Sum of side lengths — the cheap "margin" measure used to pick the
    /// subtree whose enlargement is smallest on insertion. (Volume degrades
    /// to 0 for degenerate rects, which pivot-converted points often are,
    /// so margin is the more robust choice here.)
    pub fn margin(&self) -> f64 {
        self.dims.iter().map(|i| i.width()).sum()
    }

    /// Margin increase if `point` were added.
    pub fn enlargement_for_point(&self, point: &[f64]) -> f64 {
        let mut grown = self.clone();
        grown.expand_point(point);
        grown.margin() - self.margin()
    }

    /// Center coordinate of dimension `k` (used by STR bulk loading and the
    /// split heuristic).
    pub fn center(&self, k: usize) -> f64 {
        let i = &self.dims[k];
        (i.lo + i.hi) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_rect_contains_its_point() {
        let r = Rect::point(&[0.2, 0.8]);
        assert!(r.contains_point(&[0.2, 0.8]));
        assert!(!r.contains_point(&[0.2, 0.81]));
    }

    #[test]
    fn intersection_all_dims_required() {
        let a = Rect::new(vec![Interval::new(0.0, 0.5), Interval::new(0.0, 0.5)]);
        let b = Rect::new(vec![Interval::new(0.4, 1.0), Interval::new(0.6, 1.0)]);
        assert!(!a.intersects(&b)); // dim 1 disjoint
        let c = Rect::new(vec![Interval::new(0.4, 1.0), Interval::new(0.5, 1.0)]);
        assert!(a.intersects(&c));
    }

    #[test]
    fn expand_point_grows_minimally() {
        let mut r = Rect::empty(2);
        r.expand_point(&[0.3, 0.7]);
        assert_eq!(r, Rect::point(&[0.3, 0.7]));
        r.expand_point(&[0.5, 0.1]);
        assert!(r.contains_point(&[0.3, 0.7]));
        assert!(r.contains_point(&[0.5, 0.1]));
        assert!((r.margin() - (0.2 + 0.6)).abs() < 1e-12);
    }

    #[test]
    fn contains_rect_nested() {
        let outer = Rect::unit(3);
        let inner = Rect::new(vec![
            Interval::new(0.1, 0.2),
            Interval::new(0.3, 0.4),
            Interval::new(0.5, 0.6),
        ]);
        assert!(outer.contains_rect(&inner));
        assert!(!inner.contains_rect(&outer));
    }

    #[test]
    fn enlargement_zero_when_inside() {
        let mut r = Rect::empty(2);
        r.expand_point(&[0.0, 0.0]);
        r.expand_point(&[1.0, 1.0]);
        assert_eq!(r.enlargement_for_point(&[0.5, 0.5]), 0.0);
        assert!(r.enlargement_for_point(&[1.5, 0.5]) > 0.0);
    }

    #[test]
    fn empty_rect_never_intersects() {
        let e = Rect::empty(2);
        assert!(e.is_empty());
        assert!(!e.intersects(&Rect::unit(2)));
    }
}

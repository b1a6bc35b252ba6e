//! Closed `f64` intervals.
//!
//! Intervals appear everywhere in the paper: CDD distance constraints
//! `[ε.min, ε.max]` (Definition 3), token-set-size bounds
//! `[|T⁻|, |T⁺|]` (Lemma 4.1), pivot-distance bounds `[lb_X, ub_X]`
//! (Lemmas 4.2/4.3), and the per-node aggregate intervals of the aR-tree
//! (§5.1).

/// A closed interval `[lo, hi]` over `f64`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Lower endpoint (inclusive).
    pub lo: f64,
    /// Upper endpoint (inclusive).
    pub hi: f64,
}

impl Interval {
    /// Creates `[lo, hi]`.
    ///
    /// # Panics
    /// Panics (debug builds) if `lo > hi` or either endpoint is NaN.
    pub fn new(lo: f64, hi: f64) -> Self {
        debug_assert!(!lo.is_nan() && !hi.is_nan(), "NaN interval endpoint");
        debug_assert!(lo <= hi, "inverted interval [{lo}, {hi}]");
        Self { lo, hi }
    }

    /// The degenerate interval `[v, v]`.
    pub fn point(v: f64) -> Self {
        Self::new(v, v)
    }

    /// The full Jaccard-distance range `[0, 1]`.
    pub fn unit() -> Self {
        Self::new(0.0, 1.0)
    }

    /// The "missing attribute" sentinel `[-1, -1]` used by the CDD-index
    /// (§5.1 indexes `A_x.I = [-1,-1]` for constrained-but-missing attributes).
    pub fn missing() -> Self {
        Self::new(-1.0, -1.0)
    }

    /// Whether this is the missing sentinel.
    pub fn is_missing(&self) -> bool {
        self.lo == -1.0 && self.hi == -1.0
    }

    /// An empty accumulator: `[+∞, −∞]`. `expand`ing it with any value or
    /// interval yields that value/interval; useful for building minimal
    /// bounding intervals over a collection.
    pub fn empty() -> Self {
        Self {
            lo: f64::INFINITY,
            hi: f64::NEG_INFINITY,
        }
    }

    /// Whether the accumulator has not absorbed anything yet.
    pub fn is_empty(&self) -> bool {
        self.lo > self.hi
    }

    /// Interval width (`0` for the empty accumulator).
    pub fn width(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.hi - self.lo
        }
    }

    /// Membership test (inclusive on both ends).
    #[inline]
    pub fn contains(&self, v: f64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Whether `other` lies entirely inside `self`.
    pub fn contains_interval(&self, other: &Interval) -> bool {
        !other.is_empty() && self.lo <= other.lo && other.hi <= self.hi
    }

    /// Whether the two intervals share at least one point.
    #[inline]
    pub fn intersects(&self, other: &Interval) -> bool {
        !self.is_empty() && !other.is_empty() && self.lo <= other.hi && other.lo <= self.hi
    }

    /// Grows the interval to include `v`.
    #[inline]
    pub fn expand(&mut self, v: f64) {
        if v < self.lo {
            self.lo = v;
        }
        if v > self.hi {
            self.hi = v;
        }
    }

    /// Grows the interval to include all of `other`.
    pub fn expand_interval(&mut self, other: &Interval) {
        if other.is_empty() {
            return;
        }
        self.expand(other.lo);
        self.expand(other.hi);
    }

    /// Minimum distance from `v` to any point of the interval (0 if inside).
    pub fn min_dist_to(&self, v: f64) -> f64 {
        if v < self.lo {
            self.lo - v
        } else if v > self.hi {
            v - self.hi
        } else {
            0.0
        }
    }

    /// Minimum |x − y| over x ∈ self, y ∈ other (0 if they intersect).
    ///
    /// This is exactly the `min_dist` case analysis of Lemma 4.2.
    pub fn min_gap(&self, other: &Interval) -> f64 {
        if self.lo > other.hi {
            self.lo - other.hi
        } else if other.lo > self.hi {
            other.lo - self.hi
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contains_inclusive_endpoints() {
        let i = Interval::new(0.2, 0.5);
        assert!(i.contains(0.2));
        assert!(i.contains(0.5));
        assert!(!i.contains(0.19));
        assert!(!i.contains(0.51));
    }

    #[test]
    fn intersects_symmetric() {
        let a = Interval::new(0.0, 0.3);
        let b = Interval::new(0.3, 0.6);
        let c = Interval::new(0.4, 0.6);
        assert!(a.intersects(&b) && b.intersects(&a));
        assert!(!a.intersects(&c) && !c.intersects(&a));
    }

    #[test]
    fn empty_accumulator_expand() {
        let mut acc = Interval::empty();
        assert!(acc.is_empty());
        acc.expand(0.4);
        assert_eq!(acc, Interval::point(0.4));
        acc.expand(0.1);
        acc.expand(0.9);
        assert_eq!(acc, Interval::new(0.1, 0.9));
    }

    #[test]
    fn expand_interval_ignores_empty() {
        let mut acc = Interval::new(0.2, 0.3);
        acc.expand_interval(&Interval::empty());
        assert_eq!(acc, Interval::new(0.2, 0.3));
        acc.expand_interval(&Interval::new(0.0, 0.1));
        assert_eq!(acc, Interval::new(0.0, 0.3));
    }

    #[test]
    fn min_gap_matches_lemma_4_2_cases() {
        // lb_X > ub_Y  → lb_X − ub_Y
        let x = Interval::new(0.7, 0.9);
        let y = Interval::new(0.1, 0.2);
        assert!((x.min_gap(&y) - 0.5).abs() < 1e-12);
        // lb_Y > ub_X → symmetric
        assert!((y.min_gap(&x) - 0.5).abs() < 1e-12);
        // overlapping → 0
        let z = Interval::new(0.15, 0.8);
        assert_eq!(x.min_gap(&z), 0.0);
    }

    #[test]
    fn min_dist_to_point() {
        let i = Interval::new(0.3, 0.6);
        assert!((i.min_dist_to(0.1) - 0.2).abs() < 1e-12);
        assert!((i.min_dist_to(0.9) - 0.3).abs() < 1e-12);
        assert_eq!(i.min_dist_to(0.45), 0.0);
    }

    #[test]
    fn missing_sentinel() {
        assert!(Interval::missing().is_missing());
        assert!(!Interval::unit().is_missing());
    }

    #[test]
    fn width_of_empty_is_zero() {
        assert_eq!(Interval::empty().width(), 0.0);
        assert!((Interval::new(0.25, 0.75).width() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn contains_interval_cases() {
        let outer = Interval::new(0.0, 1.0);
        assert!(outer.contains_interval(&Interval::new(0.2, 0.8)));
        assert!(outer.contains_interval(&outer));
        assert!(!Interval::new(0.2, 0.8).contains_interval(&outer));
        assert!(!outer.contains_interval(&Interval::empty()));
    }
}

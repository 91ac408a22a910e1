//! Feature count vectors.
//!
//! Each feature is associated with a small vector of action counts (clicks,
//! likes, comments, shares, impressions, ...). The paper's *Indexed Feature
//! Stat* stores them as "either an int64 pair or a list"; we model both with
//! one inline small-vector type: most features carry one or two attributes, so
//! the common case stays heap-free.

use std::fmt;
use std::ops::{Index, IndexMut};

/// Maximum number of count attributes a table may declare.
///
/// Production IPS tables track a handful of action attributes (clicks, likes,
/// comments, shares, impressions, conversions, price, ...). Eight covers
/// every workload in the paper's examples while keeping the inline
/// representation a single cache line.
pub const MAX_ATTRIBUTES: usize = 8;

const INLINE: usize = 2;

/// A small vector of signed 64-bit attribute counts.
///
/// The first `len` entries are meaningful; the rest are zero. Up to
/// [`INLINE`] values are stored inline ("int64 pair" fast path from the
/// paper); longer vectors spill to the heap.
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum CountVector {
    /// At most two attributes, stored inline.
    Inline { len: u8, vals: [i64; INLINE] },
    /// Three or more attributes.
    Spilled(Box<[i64]>),
}

impl CountVector {
    /// An empty (zero-attribute) vector.
    #[must_use]
    pub const fn empty() -> Self {
        CountVector::Inline {
            len: 0,
            vals: [0; INLINE],
        }
    }

    /// A single-attribute vector — the most common production shape.
    #[must_use]
    pub const fn single(v: i64) -> Self {
        CountVector::Inline {
            len: 1,
            vals: [v, 0],
        }
    }

    /// A two-attribute vector (the paper's "int64 pair").
    #[must_use]
    pub const fn pair(a: i64, b: i64) -> Self {
        CountVector::Inline {
            len: 2,
            vals: [a, b],
        }
    }

    /// Build from a slice. Panics if `vals.len() > MAX_ATTRIBUTES`.
    #[must_use]
    pub fn from_slice(vals: &[i64]) -> Self {
        assert!(
            vals.len() <= MAX_ATTRIBUTES,
            "count vector limited to {MAX_ATTRIBUTES} attributes, got {}",
            vals.len()
        );
        match vals.len() {
            0 => Self::empty(),
            1 => Self::single(vals[0]),
            2 => Self::pair(vals[0], vals[1]),
            _ => CountVector::Spilled(vals.into()),
        }
    }

    /// A zero vector with `len` attributes.
    #[must_use]
    pub fn zeros(len: usize) -> Self {
        assert!(len <= MAX_ATTRIBUTES);
        if len <= INLINE {
            CountVector::Inline {
                len: len as u8,
                vals: [0; INLINE],
            }
        } else {
            CountVector::Spilled(vec![0; len].into())
        }
    }

    /// Number of attributes.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            CountVector::Inline { len, .. } => *len as usize,
            CountVector::Spilled(v) => v.len(),
        }
    }

    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// View as a slice.
    #[inline]
    #[must_use]
    pub fn as_slice(&self) -> &[i64] {
        match self {
            CountVector::Inline { len, vals } => &vals[..*len as usize],
            CountVector::Spilled(v) => v,
        }
    }

    /// Attribute at `idx`, or 0 when the vector is shorter. Aggregating
    /// heterogeneous vectors (e.g. after a schema widening) treats missing
    /// attributes as zero.
    #[inline]
    #[must_use]
    pub fn get_or_zero(&self, idx: usize) -> i64 {
        self.as_slice().get(idx).copied().unwrap_or(0)
    }

    fn make_mut(&mut self, min_len: usize) -> &mut [i64] {
        assert!(min_len <= MAX_ATTRIBUTES);
        let cur = self.len();
        let target = cur.max(min_len);
        if target > INLINE {
            if let CountVector::Inline { len, vals } = self {
                let mut v = vec![0i64; target];
                v[..*len as usize].copy_from_slice(&vals[..*len as usize]);
                *self = CountVector::Spilled(v.into());
            } else if let CountVector::Spilled(v) = self {
                if v.len() < target {
                    let mut grown = vec![0i64; target];
                    grown[..v.len()].copy_from_slice(v);
                    *self = CountVector::Spilled(grown.into());
                }
            }
        } else if let CountVector::Inline { len, .. } = self {
            *len = (*len).max(target as u8);
        }
        match self {
            CountVector::Inline { len, vals } => &mut vals[..*len as usize],
            CountVector::Spilled(v) => v,
        }
    }

    /// Set attribute `idx`, widening the vector with zeros if needed.
    pub fn set(&mut self, idx: usize, v: i64) {
        self.make_mut(idx + 1)[idx] = v;
    }

    /// Element-wise saturating sum. Widens to the longer of the two vectors.
    pub fn merge_sum(&mut self, other: &[i64]) {
        let dst = self.make_mut(other.len());
        for (i, v) in other.iter().enumerate() {
            dst[i] = dst[i].saturating_add(*v);
        }
    }

    /// Element-wise max. Widens to the longer of the two vectors.
    pub fn merge_max(&mut self, other: &[i64]) {
        let dst = self.make_mut(other.len());
        for (i, v) in other.iter().enumerate() {
            dst[i] = dst[i].max(*v);
        }
    }

    /// Element-wise min over the shared prefix; extra attributes of `other`
    /// are copied (a missing attribute is "no constraint", not zero).
    pub fn merge_min(&mut self, other: &[i64]) {
        let shared = self.len().min(other.len());
        let dst = self.make_mut(other.len());
        for (i, v) in other.iter().enumerate() {
            if i < shared {
                dst[i] = dst[i].min(*v);
            } else {
                dst[i] = *v;
            }
        }
    }

    /// Replace with `other` ("last write wins" reduce function).
    pub fn merge_last(&mut self, other: &[i64]) {
        *self = Self::from_slice(other);
    }

    /// Multiply every attribute by `factor`, rounding toward zero. Used by
    /// decay functions, which operate on aggregated counts.
    pub fn scale(&mut self, factor: f64) {
        scale_counts(self.make_mut(0), factor);
    }

    /// Approximate heap + inline footprint in bytes, for memory accounting.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        match self {
            CountVector::Inline { .. } => std::mem::size_of::<CountVector>(),
            CountVector::Spilled(v) => std::mem::size_of::<CountVector>() + v.len() * 8,
        }
    }
}

/// [`CountVector::scale`] over a plain slice of counts.
pub fn scale_counts(counts: &mut [i64], factor: f64) {
    for v in counts {
        // Saturate rather than wrap on overflow of the f64 -> i64 cast.
        *v = (*v as f64 * factor) as i64;
    }
}

impl Default for CountVector {
    fn default() -> Self {
        Self::empty()
    }
}

impl Index<usize> for CountVector {
    type Output = i64;
    #[inline]
    fn index(&self, idx: usize) -> &i64 {
        &self.as_slice()[idx]
    }
}

impl IndexMut<usize> for CountVector {
    #[inline]
    fn index_mut(&mut self, idx: usize) -> &mut i64 {
        let len = self.len();
        assert!(idx < len, "index {idx} out of bounds for len {len}");
        match self {
            CountVector::Inline { vals, .. } => &mut vals[idx],
            CountVector::Spilled(v) => &mut v[idx],
        }
    }
}

impl fmt::Debug for CountVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl From<&[i64]> for CountVector {
    fn from(vals: &[i64]) -> Self {
        Self::from_slice(vals)
    }
}

impl<const N: usize> From<[i64; N]> for CountVector {
    fn from(vals: [i64; N]) -> Self {
        Self::from_slice(&vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_shape() {
        assert_eq!(CountVector::empty().len(), 0);
        assert_eq!(CountVector::single(5).as_slice(), &[5]);
        assert_eq!(CountVector::pair(1, 2).as_slice(), &[1, 2]);
        assert_eq!(CountVector::from_slice(&[1, 2, 3]).as_slice(), &[1, 2, 3]);
        assert!(matches!(
            CountVector::from_slice(&[1, 2, 3]),
            CountVector::Spilled(_)
        ));
        assert!(matches!(
            CountVector::from_slice(&[1, 2]),
            CountVector::Inline { .. }
        ));
    }

    #[test]
    #[should_panic(expected = "limited")]
    fn too_many_attributes_panics() {
        let _ = CountVector::from_slice(&[0; MAX_ATTRIBUTES + 1]);
    }

    #[test]
    fn merge_sum_widens() {
        let mut a = CountVector::single(10);
        a.merge_sum(&[1, 2, 3]);
        assert_eq!(a.as_slice(), &[11, 2, 3]);
    }

    #[test]
    fn merge_sum_saturates() {
        let mut a = CountVector::single(i64::MAX);
        a.merge_sum(&[1]);
        assert_eq!(a.as_slice(), &[i64::MAX]);
    }

    #[test]
    fn merge_max_and_min() {
        let mut a = CountVector::pair(1, 9);
        a.merge_max(&[5, 2]);
        assert_eq!(a.as_slice(), &[5, 9]);

        let mut b = CountVector::pair(1, 9);
        b.merge_min(&[5, 2, 7]);
        assert_eq!(b.as_slice(), &[1, 2, 7]);
    }

    #[test]
    fn merge_last_replaces() {
        let mut a = CountVector::from_slice(&[1, 2, 3]);
        a.merge_last(&[9]);
        assert_eq!(a.as_slice(), &[9]);
    }

    #[test]
    fn set_widens_with_zeros() {
        let mut a = CountVector::empty();
        a.set(3, 7);
        assert_eq!(a.as_slice(), &[0, 0, 0, 7]);
    }

    #[test]
    fn scale_rounds_toward_zero() {
        let mut a = CountVector::pair(10, -10);
        a.scale(0.55);
        assert_eq!(a.as_slice(), &[5, -5]);
    }

    #[test]
    fn get_or_zero_out_of_range() {
        let a = CountVector::single(4);
        assert_eq!(a.get_or_zero(0), 4);
        assert_eq!(a.get_or_zero(5), 0);
    }

    #[test]
    fn index_mut_works_inline_and_spilled() {
        let mut a = CountVector::pair(1, 2);
        a[1] = 20;
        assert_eq!(a.as_slice(), &[1, 20]);
        let mut b = CountVector::from_slice(&[1, 2, 3]);
        b[2] = 30;
        assert_eq!(b.as_slice(), &[1, 2, 30]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_mut_out_of_bounds_panics() {
        let mut a = CountVector::single(1);
        a[1] = 5;
    }

    #[test]
    fn approx_bytes_spilled_larger() {
        assert!(
            CountVector::from_slice(&[1, 2, 3, 4]).approx_bytes()
                > CountVector::pair(1, 2).approx_bytes()
        );
    }
}

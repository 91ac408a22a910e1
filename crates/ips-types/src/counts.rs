//! Feature count vectors.
//!
//! Each feature is associated with a small vector of action counts (clicks,
//! likes, comments, shares, impressions, ...). The paper's *Indexed Feature
//! Stat* stores them as "either an int64 pair or a list"; one inline array
//! sized for [`MAX_ATTRIBUTES`] holds every width here, so a count vector
//! never touches the heap. Tables commonly declare three attributes
//! (likes, shares, impressions), a width an "int64 pair" would not hold.

use std::fmt;
use std::ops::{Index, IndexMut};

/// Maximum number of count attributes a table may declare.
///
/// Production IPS tables track a handful of action attributes (clicks, likes,
/// comments, shares, impressions, conversions, price, ...). Eight covers
/// every workload in the paper's examples while keeping the inline
/// representation at 72 bytes.
pub const MAX_ATTRIBUTES: usize = 8;

/// A small vector of signed 64-bit attribute counts.
///
/// The first `len` entries are meaningful; the rest are zero, so derived
/// equality and hashing see only the meaningful prefix.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct CountVector {
    len: u8,
    vals: [i64; MAX_ATTRIBUTES],
}

impl CountVector {
    /// An empty (zero-attribute) vector.
    #[must_use]
    pub const fn empty() -> Self {
        Self {
            len: 0,
            vals: [0; MAX_ATTRIBUTES],
        }
    }

    /// A single-attribute vector.
    #[must_use]
    pub const fn single(v: i64) -> Self {
        let mut vals = [0; MAX_ATTRIBUTES];
        vals[0] = v;
        Self { len: 1, vals }
    }

    /// A two-attribute vector (the paper's "int64 pair").
    #[must_use]
    pub const fn pair(a: i64, b: i64) -> Self {
        let mut vals = [0; MAX_ATTRIBUTES];
        vals[0] = a;
        vals[1] = b;
        Self { len: 2, vals }
    }

    /// Build from a slice. Panics if `vals.len() > MAX_ATTRIBUTES`.
    #[must_use]
    pub fn from_slice(vals: &[i64]) -> Self {
        assert!(
            vals.len() <= MAX_ATTRIBUTES,
            "count vector limited to {MAX_ATTRIBUTES} attributes, got {}",
            vals.len()
        );
        let mut v = Self::zeros(vals.len());
        v.vals[..vals.len()].copy_from_slice(vals);
        v
    }

    /// A zero vector with `len` attributes.
    #[must_use]
    pub fn zeros(len: usize) -> Self {
        assert!(len <= MAX_ATTRIBUTES);
        Self {
            len: len as u8,
            vals: [0; MAX_ATTRIBUTES],
        }
    }

    /// Number of attributes.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// View as a slice.
    #[inline]
    #[must_use]
    pub fn as_slice(&self) -> &[i64] {
        &self.vals[..self.len()]
    }

    /// Attribute at `idx`, or 0 when the vector is shorter. Aggregating
    /// heterogeneous vectors (e.g. after a schema widening) treats missing
    /// attributes as zero.
    #[inline]
    #[must_use]
    pub fn get_or_zero(&self, idx: usize) -> i64 {
        self.as_slice().get(idx).copied().unwrap_or(0)
    }

    /// The first `max(len, min_len)` attributes, widening with zeros.
    fn make_mut(&mut self, min_len: usize) -> &mut [i64] {
        assert!(min_len <= MAX_ATTRIBUTES);
        self.len = self.len.max(min_len as u8);
        &mut self.vals[..self.len as usize]
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
            dst[i] = if i < shared { dst[i].min(*v) } else { *v };
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
}

/// [`CountVector::scale`] over a plain slice of counts.
pub fn scale_counts(counts: &mut [i64], factor: f64) {
    for v in counts {
        // Saturate rather than wrap on overflow of the f64 -> i64 cast.
        *v = (*v as f64 * factor) as i64;
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
        &mut self.vals[..len][idx]
    }
}

impl AsRef<[i64]> for CountVector {
    fn as_ref(&self) -> &[i64] {
        self.as_slice()
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
        assert_eq!(CountVector::from_slice(&[1, 2]), CountVector::pair(1, 2));
        // A widened vector equals one built at that width: the unused tail
        // stays zero.
        let mut widened = CountVector::single(1);
        widened.merge_sum(&[0, 2]);
        assert_eq!(widened, CountVector::pair(1, 2));
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
    fn index_mut_works_at_every_width() {
        let mut a = CountVector::pair(1, 2);
        a[1] = 20;
        assert_eq!(a.as_slice(), &[1, 20]);
        let mut b = CountVector::from_slice(&[1, 2, 3]);
        b[2] = 30;
        assert_eq!(b.as_slice(), &[1, 2, 30]);
        let mut c = CountVector::zeros(MAX_ATTRIBUTES);
        c[MAX_ATTRIBUTES - 1] = 7;
        assert_eq!(c.get_or_zero(MAX_ATTRIBUTES - 1), 7);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_mut_out_of_bounds_panics() {
        let mut a = CountVector::single(1);
        a[1] = 5;
    }

    #[test]
    fn one_inline_size_for_every_width() {
        // No heap part: a vector of any width is its inline array plus
        // the length, padded to the array's alignment.
        assert_eq!(std::mem::size_of::<CountVector>(), 8 * (MAX_ATTRIBUTES + 1));
    }
}

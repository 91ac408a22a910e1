//! Top-K selection.
//!
//! Queries routinely ask for the top handful of features out of hundreds of
//! folded candidates, each ranked by a precomputed key. A linear-time
//! selection moves the best `k` to the front, and only those `k` are
//! sorted. Callers supply a total order (ties break on feature id), so
//! results are deterministic.

use std::cmp::Ordering;

/// Select the `k` largest items under `cmp` (a total "greater-is-better"
/// order), returning them best-first.
pub fn top_k_by<T>(
    items: impl Iterator<Item = T>,
    k: usize,
    cmp: impl Fn(&T, &T) -> Ordering,
) -> Vec<T> {
    let best_first = |a: &T, b: &T| cmp(b, a);
    let mut kept: Vec<T> = items.collect();
    if k < kept.len() {
        kept.select_nth_unstable_by(k, best_first);
        kept.truncate(k);
    }
    kept.sort_unstable_by(best_first);
    kept
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selects_largest_k() {
        let data = vec![5, 1, 9, 3, 7, 2, 8];
        let top = top_k_by(data.into_iter(), 3, |a, b| a.cmp(b));
        assert_eq!(top, vec![9, 8, 7]);
    }

    #[test]
    fn k_zero_is_empty() {
        let top = top_k_by(vec![1, 2, 3].into_iter(), 0, |a: &i32, b| a.cmp(b));
        assert!(top.is_empty());
    }

    #[test]
    fn k_larger_than_input_returns_all_sorted() {
        let top = top_k_by(vec![2, 1, 3].into_iter(), 10, |a, b| a.cmp(b));
        assert_eq!(top, vec![3, 2, 1]);
    }

    #[test]
    fn ascending_order_via_reversed_cmp() {
        let data = vec![5, 1, 9, 3];
        let bottom = top_k_by(data.into_iter(), 2, |a, b| b.cmp(a));
        assert_eq!(bottom, vec![1, 3]);
    }

    #[test]
    fn ties_resolved_by_total_order() {
        // Items: (score, id). Tie on score broken by id descending.
        let data = vec![(5, 1u64), (5, 2), (5, 3), (4, 4)];
        let top = top_k_by(data.into_iter(), 2, |a, b| {
            a.0.cmp(&b.0).then(a.1.cmp(&b.1))
        });
        assert_eq!(top, vec![(5, 3), (5, 2)]);
    }

    #[test]
    fn matches_full_sort_reference() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        for _ in 0..50 {
            let n = rng.gen_range(0..200);
            let data: Vec<(i64, u64)> =
                (0..n).map(|i| (rng.gen_range(-50..50), i as u64)).collect();
            let k = rng.gen_range(0..20);
            let fast = top_k_by(data.clone().into_iter(), k, |a, b| {
                a.0.cmp(&b.0).then(a.1.cmp(&b.1))
            });
            let mut reference = data;
            reference.sort_by(|a, b| b.0.cmp(&a.0).then(b.1.cmp(&a.1)));
            reference.truncate(k);
            assert_eq!(fast, reference);
        }
    }
}

//! Sorted-set operations over extent slices.
//!
//! Extents (`E(π)`, `E(c)`, `E(t)`) are sorted, deduplicated `EntityId`
//! slices. The ranking model's hot loop is `‖E(π) ∩ E(c*)‖`; this module
//! provides merge intersections that switch to galloping (exponential
//! probe + binary search) when one side is much smaller, which is the
//! common case (a specific feature against a broad category), plus the
//! k-way union/intersection primitives the
//! [`crate::sharded::ShardedContext`] execution layer builds candidate
//! pools and required-feature filters from.

use pivote_kg::EntityId;

/// When `|small| * GALLOP_FACTOR < |large|`, gallop instead of merging.
const GALLOP_FACTOR: usize = 16;

/// Size of the intersection of two sorted, deduplicated slices.
pub fn intersect_len(a: &[EntityId], b: &[EntityId]) -> usize {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if small.is_empty() {
        return 0;
    }
    if small.len() * GALLOP_FACTOR < large.len() {
        gallop_intersect::<false>(small, large, &mut Vec::new())
    } else {
        merge_intersect::<false>(small, large, &mut Vec::new())
    }
}

/// Materialized intersection of two sorted, deduplicated slices.
///
/// Uses the same gallop/merge size heuristic as [`intersect_len`]: linear
/// merge for similar sizes, galloping probes only when one side is much
/// smaller. (An earlier version always binary-probed, degrading to
/// O(n log n) on similar-sized inputs.)
pub fn intersect(a: &[EntityId], b: &[EntityId]) -> Vec<EntityId> {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::with_capacity(small.len());
    if small.is_empty() {
        return out;
    }
    if small.len() * GALLOP_FACTOR < large.len() {
        gallop_intersect::<true>(small, large, &mut out);
    } else {
        merge_intersect::<true>(small, large, &mut out);
    }
    out
}

/// Shared merge loop; materializes matches when `COLLECT`, counts always.
fn merge_intersect<const COLLECT: bool>(
    a: &[EntityId],
    b: &[EntityId],
    out: &mut Vec<EntityId>,
) -> usize {
    let mut i = 0;
    let mut j = 0;
    let mut n = 0;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                if COLLECT {
                    out.push(a[i]);
                }
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// Shared gallop loop (exponential probe + binary search in the larger
/// side); materializes matches when `COLLECT`, counts always.
fn gallop_intersect<const COLLECT: bool>(
    small: &[EntityId],
    large: &[EntityId],
    out: &mut Vec<EntityId>,
) -> usize {
    let mut n = 0;
    let mut rest = large;
    for &x in small {
        // exponential probe
        let mut hi = 1;
        while hi < rest.len() && rest[hi] < x {
            hi *= 2;
        }
        let window = &rest[..hi.min(rest.len())];
        let lo = window.partition_point(|&y| y < x);
        rest = &rest[lo..];
        if rest.first() == Some(&x) {
            if COLLECT {
                out.push(x);
            }
            n += 1;
            rest = &rest[1..];
        }
        if rest.is_empty() {
            break;
        }
    }
    n
}

/// Intersection of `k` sorted, deduplicated slices.
///
/// Sorts the inputs smallest-first so every step intersects the running
/// result (never larger than the smallest input) against the next slice,
/// letting the gallop path kick in as the running result shrinks. An
/// empty input list yields an empty result (there is no universe set to
/// return).
pub fn intersect_k(sets: &[&[EntityId]]) -> Vec<EntityId> {
    match sets {
        [] => Vec::new(),
        [only] => only.to_vec(),
        _ => {
            let mut order: Vec<&[EntityId]> = sets.to_vec();
            order.sort_by_key(|s| s.len());
            let mut acc = intersect(order[0], order[1]);
            for s in &order[2..] {
                if acc.is_empty() {
                    break;
                }
                acc = intersect(&acc, s);
            }
            acc
        }
    }
}

/// Union of two sorted, deduplicated slices.
pub fn union(a: &[EntityId], b: &[EntityId]) -> Vec<EntityId> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let mut i = 0;
    let mut j = 0;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Union of `k` sorted, deduplicated slices.
///
/// Small fan-ins use pairwise merging in a size-balanced (tournament)
/// order; large fan-ins fall back to concat + sort + dedup, which beats a
/// deep merge tree once allocation churn dominates.
pub fn union_k(sets: &[&[EntityId]]) -> Vec<EntityId> {
    match sets.len() {
        0 => Vec::new(),
        1 => sets[0].to_vec(),
        2 => union(sets[0], sets[1]),
        n if n <= 8 => {
            // tournament merge: repeatedly merge the two smallest
            let mut heads: Vec<Vec<EntityId>> = sets.iter().map(|s| s.to_vec()).collect();
            while heads.len() > 1 {
                heads.sort_by_key(|v| std::cmp::Reverse(v.len()));
                let a = heads.pop().expect("len > 1");
                let b = heads.pop().expect("len > 1");
                heads.push(union(&a, &b));
            }
            heads.pop().expect("one merged set")
        }
        _ => {
            let total: usize = sets.iter().map(|s| s.len()).sum();
            let mut out = Vec::with_capacity(total);
            for s in sets {
                out.extend_from_slice(s);
            }
            out.sort_unstable();
            out.dedup();
            out
        }
    }
}

/// Whether a sorted slice contains `x`.
#[inline]
pub fn contains(a: &[EntityId], x: EntityId) -> bool {
    a.binary_search(&x).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn ids(v: &[u32]) -> Vec<EntityId> {
        v.iter().map(|&x| EntityId::new(x)).collect()
    }

    #[test]
    fn small_cases() {
        assert_eq!(intersect_len(&ids(&[]), &ids(&[1, 2])), 0);
        assert_eq!(intersect_len(&ids(&[1]), &ids(&[1])), 1);
        assert_eq!(intersect_len(&ids(&[1, 3, 5]), &ids(&[2, 3, 4, 5])), 2);
        assert_eq!(
            intersect(&ids(&[1, 3, 5]), &ids(&[2, 3, 4, 5])),
            ids(&[3, 5])
        );
    }

    #[test]
    fn gallop_path_is_exercised() {
        let small = ids(&[0, 500, 999]);
        let large: Vec<EntityId> = (0..1000).map(EntityId::new).collect();
        assert_eq!(intersect_len(&small, &large), 3);
        assert_eq!(intersect(&small, &large), small);
        let miss = ids(&[1000, 2000]);
        assert_eq!(intersect_len(&miss, &large), 0);
        assert!(intersect(&miss, &large).is_empty());
    }

    #[test]
    fn union_merges() {
        assert_eq!(union(&ids(&[1, 3]), &ids(&[2, 3, 4])), ids(&[1, 2, 3, 4]));
        assert_eq!(union(&ids(&[]), &ids(&[1])), ids(&[1]));
    }

    #[test]
    fn k_way_edge_cases() {
        assert!(intersect_k(&[]).is_empty());
        assert!(union_k(&[]).is_empty());
        let a = ids(&[1, 2, 3]);
        assert_eq!(intersect_k(&[&a]), a);
        assert_eq!(union_k(&[&a]), a);
        let b = ids(&[2, 3, 4]);
        let c = ids(&[3, 4, 5]);
        assert_eq!(intersect_k(&[&a, &b, &c]), ids(&[3]));
        assert_eq!(union_k(&[&a, &b, &c]), ids(&[1, 2, 3, 4, 5]));
        // an empty member annihilates the intersection
        assert!(intersect_k(&[&a, &[], &b]).is_empty());
    }

    #[test]
    fn contains_works() {
        let a = ids(&[1, 4, 9]);
        assert!(contains(&a, EntityId::new(4)));
        assert!(!contains(&a, EntityId::new(5)));
    }

    fn sorted_ids() -> impl Strategy<Value = Vec<EntityId>> {
        proptest::collection::btree_set(0u32..500, 0..100)
            .prop_map(|s| s.into_iter().map(EntityId::new).collect())
    }

    /// Adversarial size ratios around the gallop threshold: tiny sets
    /// against wide dense ranges, so both the merge and gallop paths run.
    fn skewed_pair() -> impl Strategy<Value = (Vec<EntityId>, Vec<EntityId>)> {
        (
            proptest::collection::btree_set(0u32..4000, 0..8),
            (0u32..64, 500usize..3000),
        )
            .prop_map(|(small, (start, len))| {
                let small: Vec<EntityId> = small.into_iter().map(EntityId::new).collect();
                let large: Vec<EntityId> = (start..start + len as u32).map(EntityId::new).collect();
                (small, large)
            })
    }

    fn naive_intersect(a: &[EntityId], b: &[EntityId]) -> Vec<EntityId> {
        let bs: BTreeSet<EntityId> = b.iter().copied().collect();
        a.iter().copied().filter(|x| bs.contains(x)).collect()
    }

    fn naive_union(sets: &[&[EntityId]]) -> Vec<EntityId> {
        let mut all: BTreeSet<EntityId> = BTreeSet::new();
        for s in sets {
            all.extend(s.iter().copied());
        }
        all.into_iter().collect()
    }

    proptest! {
        /// Both intersection paths agree with the naive definition.
        #[test]
        fn prop_intersect_matches_naive(a in sorted_ids(), b in sorted_ids()) {
            let naive = naive_intersect(&a, &b);
            prop_assert_eq!(intersect_len(&a, &b), naive.len());
            prop_assert_eq!(intersect(&a, &b), naive);
        }

        /// The gallop/merge heuristic agrees with the naive definition on
        /// adversarial size ratios, for both directions of skew.
        #[test]
        fn prop_intersect_skewed_matches_naive((small, large) in skewed_pair()) {
            let naive = naive_intersect(&small, &large);
            prop_assert_eq!(intersect(&small, &large), naive.clone());
            prop_assert_eq!(intersect(&large, &small), naive.clone());
            prop_assert_eq!(intersect_len(&small, &large), naive.len());
            prop_assert_eq!(intersect_len(&large, &small), naive.len());
        }

        /// Union matches the naive definition and stays sorted/deduped.
        #[test]
        fn prop_union_matches_naive(a in sorted_ids(), b in sorted_ids()) {
            let mut naive: Vec<EntityId> = a.iter().chain(b.iter()).copied().collect();
            naive.sort_unstable();
            naive.dedup();
            prop_assert_eq!(union(&a, &b), naive);
        }

        /// Intersection is symmetric and bounded by the smaller side.
        #[test]
        fn prop_intersect_symmetric(a in sorted_ids(), b in sorted_ids()) {
            prop_assert_eq!(intersect_len(&a, &b), intersect_len(&b, &a));
            prop_assert!(intersect_len(&a, &b) <= a.len().min(b.len()));
        }

        /// K-way ops agree with BTreeSet references for any fan-in,
        /// including adversarially skewed member sizes.
        #[test]
        fn prop_k_way_matches_naive(
            sets in proptest::collection::vec(sorted_ids(), 0..12),
            (skew_small, skew_large) in skewed_pair(),
        ) {
            let mut views: Vec<&[EntityId]> = sets.iter().map(|v| v.as_slice()).collect();
            views.push(&skew_small);
            views.push(&skew_large);

            prop_assert_eq!(union_k(&views), naive_union(&views));

            let mut naive_inter: BTreeSet<EntityId> =
                views[0].iter().copied().collect();
            for s in &views[1..] {
                let keep: BTreeSet<EntityId> = s.iter().copied().collect();
                naive_inter.retain(|x| keep.contains(x));
            }
            prop_assert_eq!(
                intersect_k(&views),
                naive_inter.into_iter().collect::<Vec<_>>()
            );
        }
    }
}

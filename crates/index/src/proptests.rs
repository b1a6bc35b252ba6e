//! Property tests: index structures must agree with linear scans and keep
//! their invariants under arbitrary insert/delete interleavings.

use proptest::prelude::*;
use ter_text::Interval;

use std::cell::RefCell;
use std::collections::BTreeSet;

use crate::artree::{ArTree, Entry};
use crate::grid::{CellKey, Grid, RegionGrid};
use crate::rect::Rect;
use crate::Aggregate;

#[derive(Debug, Clone, PartialEq)]
struct Count(usize);
impl Aggregate for Count {
    fn merge(&mut self, o: &Self) {
        self.0 += o.0;
    }
}

/// Set union: idempotent and not invertible, like the ER-grid's OR/min/max
/// merges, and exact enough to expose any stale or missing contribution.
#[derive(Debug, Clone, PartialEq)]
struct Ids(BTreeSet<u64>);
impl Aggregate for Ids {
    fn merge(&mut self, o: &Self) {
        self.0.extend(o.0.iter().copied());
    }
}

fn arb_point(dim: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec((0u32..=100).prop_map(|v| v as f64 / 100.0), dim)
}

fn arb_rect(dim: usize) -> impl Strategy<Value = Rect> {
    proptest::collection::vec(
        ((0u32..=100), (0u32..=100)).prop_map(|(a, b)| {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            Interval::new(lo as f64 / 100.0, hi as f64 / 100.0)
        }),
        dim,
    )
    .prop_map(Rect::new)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// aR-tree range query ≡ linear scan, after inserts only.
    #[test]
    fn artree_range_matches_scan(
        points in proptest::collection::vec(arb_point(2), 0..120),
        range in arb_rect(2),
    ) {
        let mut tree: ArTree<usize, Count> = ArTree::new(2, 5);
        for (i, p) in points.iter().enumerate() {
            tree.insert(p.clone(), i, Count(1));
        }
        tree.check_invariants().unwrap();
        let mut got: Vec<usize> =
            tree.range_query(&range).iter().map(|e| e.payload).collect();
        let mut expect: Vec<usize> = points
            .iter()
            .enumerate()
            .filter(|(_, p)| range.contains_point(p))
            .map(|(i, _)| i)
            .collect();
        got.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    /// Bulk load ≡ incremental insert, query-wise.
    #[test]
    fn artree_bulk_equals_incremental(
        points in proptest::collection::vec(arb_point(3), 1..100),
        range in arb_rect(3),
    ) {
        let items: Vec<Entry<usize, ()>> = points
            .iter()
            .enumerate()
            .map(|(i, p)| Entry { point: p.clone().into_boxed_slice(), payload: i, agg: () })
            .collect();
        let bulk = ArTree::bulk_load(3, 5, items);
        bulk.check_invariants().unwrap();
        let mut incr: ArTree<usize, ()> = ArTree::new(3, 5);
        for (i, p) in points.iter().enumerate() {
            incr.insert(p.clone(), i, ());
        }
        let mut a: Vec<usize> = bulk.range_query(&range).iter().map(|e| e.payload).collect();
        let mut b: Vec<usize> = incr.range_query(&range).iter().map(|e| e.payload).collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    /// Insert/delete interleavings keep invariants, the length counter, the
    /// root aggregate, and query results consistent with a shadow model.
    #[test]
    fn artree_insert_delete_model(
        ops in proptest::collection::vec((arb_point(2), any::<bool>()), 1..80),
        range in arb_rect(2),
    ) {
        let mut tree: ArTree<usize, Count> = ArTree::new(2, 4);
        let mut model: Vec<(Vec<f64>, usize)> = Vec::new();
        let mut next_id = 0usize;
        for (point, is_insert) in ops {
            if is_insert || model.is_empty() {
                tree.insert(point.clone(), next_id, Count(1));
                model.push((point, next_id));
                next_id += 1;
            } else {
                let (p, id) = model.swap_remove(model.len() / 2);
                prop_assert!(tree.delete(&p, &id));
            }
            tree.check_invariants().unwrap();
        }
        prop_assert_eq!(tree.len(), model.len());
        if !model.is_empty() {
            prop_assert_eq!(tree.root_agg(), Some(&Count(model.len())));
        }
        let mut got: Vec<usize> = tree.range_query(&range).iter().map(|e| e.payload).collect();
        let mut expect: Vec<usize> = model
            .iter()
            .filter(|(p, _)| range.contains_point(p))
            .map(|(_, id)| *id)
            .collect();
        got.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    /// Grid range query ≡ linear scan under insert/evict churn.
    #[test]
    fn grid_matches_scan_under_churn(
        ops in proptest::collection::vec((arb_point(2), any::<bool>()), 1..100),
        range in arb_rect(2),
    ) {
        let mut grid: Grid<usize, Count> = Grid::new(2, 7);
        let mut model: Vec<(Vec<f64>, usize)> = Vec::new();
        let mut next_id = 0usize;
        for (point, is_insert) in ops {
            if is_insert || model.is_empty() {
                grid.insert(point.clone(), next_id, Count(1));
                model.push((point, next_id));
                next_id += 1;
            } else {
                let (p, id) = model.remove(0); // FIFO, like window expiry
                prop_assert!(grid.evict(&p, &id));
            }
            grid.check_invariants().unwrap();
        }
        let mut got: Vec<usize> = grid.range_query(&range).iter().map(|e| e.payload).collect();
        let mut expect: Vec<usize> = model
            .iter()
            .filter(|(p, _)| range.contains_point(p))
            .map(|(_, id)| *id)
            .collect();
        got.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    /// Cell aggregates always equal the merge of their entries' aggregates
    /// (checked via total count conservation).
    #[test]
    fn grid_aggregate_conservation(points in proptest::collection::vec(arb_point(1), 1..60)) {
        let mut grid: Grid<usize, Count> = Grid::new(1, 5);
        for (i, p) in points.iter().enumerate() {
            grid.insert(p.clone(), i, Count(1));
        }
        let mut total = 0;
        grid.traverse(|_, agg| { total += agg.0; false }, |_| {});
        prop_assert_eq!(total, points.len());
    }

    /// FIFO cells under random insert, oldest-evict and arbitrary-evict
    /// sequences: after every operation each cell's aggregate equals a
    /// from-scratch fold of its entries, and its entries are exactly the
    /// surviving regions that cover it, in insertion order. An entry's
    /// aggregate is its id (exposing any stale or missing contribution)
    /// or, with `few_classes`, its id modulo 3 (making neighbouring suffix
    /// aggregates equal, so the front stack's runs merge).
    #[test]
    fn region_grid_cells_stay_exact_under_churn(
        ops in proptest::collection::vec((arb_rect(2), 0u8..4, 0usize..64), 1..60),
        cells in 1u16..=4,
        few_classes in any::<bool>(),
    ) {
        let class = |id: u64| if few_classes { id % 3 } else { id };
        let mut grid: RegionGrid<u64, Ids> = RegionGrid::new(2, cells);
        let mut live: Vec<(u64, Rect)> = Vec::new();
        for (i, (rect, kind, pick)) in ops.into_iter().enumerate() {
            let i = i as u64;
            match kind {
                0 | 1 => {
                    grid.insert(rect.clone(), i, Ids(BTreeSet::from([class(i)])));
                    live.push((i, rect));
                }
                _ if live.is_empty() => {}
                2 => {
                    let (id, r) = live.remove(0);
                    prop_assert!(grid.evict(&r, &id));
                }
                _ => {
                    let (id, r) = live.remove(pick % live.len());
                    prop_assert!(grid.evict(&r, &id));
                }
            }
            let seen: RefCell<Vec<(CellKey, Ids, Vec<u64>)>> = RefCell::new(Vec::new());
            grid.traverse(
                |key, agg| {
                    seen.borrow_mut().push((key.into(), agg.clone(), Vec::new()));
                    true
                },
                |e| seen.borrow_mut().last_mut().unwrap().2.push(e.payload),
            );
            let mut covered = 0;
            for (key, agg, payloads) in seen.into_inner() {
                let expect: Vec<u64> = live
                    .iter()
                    .filter(|(_, r)| grid.cell_keys_of(r).contains(&key))
                    .map(|(id, _)| *id)
                    .collect();
                prop_assert_eq!(&payloads, &expect);
                prop_assert_eq!(agg, Ids(payloads.iter().map(|&id| class(id)).collect()));
                covered += payloads.len();
            }
            prop_assert_eq!(covered, grid.cell_entry_count());
        }
    }
}

//! An aggregate R-tree (aR-tree) over `d`-dimensional points.
//!
//! Reference \[20\] of the paper (Lazaridis & Mehrotra, "Progressive
//! Approximate Aggregate Queries With A Multi-Resolution Tree Structure").
//! Every node carries, besides its MBR, the merge of the [`Aggregate`]s of
//! all data entries beneath it; traversals can prune a whole subtree from
//! its aggregate alone. The per-group trees of the CDD-index `I_j` are
//! instances of this structure.
//!
//! Implementation notes: arena-allocated nodes, margin-based
//! choose-subtree, widest-dimension midpoint split, STR bulk loading, and
//! exact aggregate recomputation on the deletion path. Favors simplicity
//! and verifiable correctness (`range_query` is property-tested against a
//! linear scan) over the last constant factor.

use crate::rect::Rect;
use crate::Aggregate;

/// A data entry: a point in `[0,1]^d` (pivot-converted space), an opaque
/// payload (tuple/sample/rule id), and its leaf-level aggregate.
#[derive(Debug, Clone)]
pub struct Entry<P, A> {
    /// Location in the converted metric space.
    pub point: Box<[f64]>,
    /// Caller-owned identifier.
    pub payload: P,
    /// Leaf aggregate (merged into every ancestor's summary).
    pub agg: A,
}

#[derive(Debug, Clone)]
enum NodeKind {
    /// Child node indices.
    Internal(Vec<usize>),
    /// Entry slot indices.
    Leaf(Vec<usize>),
}

#[derive(Debug, Clone)]
struct Node<A> {
    mbr: Rect,
    agg: Option<A>,
    kind: NodeKind,
}

/// The aggregate R-tree. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct ArTree<P, A: Aggregate> {
    dim: usize,
    max_fanout: usize,
    nodes: Vec<Node<A>>,
    entries: Vec<Option<Entry<P, A>>>,
    free_entries: Vec<usize>,
    root: usize,
    len: usize,
}

impl<P, A: Aggregate> ArTree<P, A> {
    /// Creates an empty tree over `dim`-dimensional points.
    ///
    /// `max_fanout` bounds both internal fanout and leaf capacity
    /// (minimum 4; the paper does not prescribe one, 16 is the default used
    /// throughout this reproduction).
    pub fn new(dim: usize, max_fanout: usize) -> Self {
        assert!(dim > 0, "zero-dimensional tree");
        let max_fanout = max_fanout.max(4);
        let root = Node {
            mbr: Rect::empty(dim),
            agg: None,
            kind: NodeKind::Leaf(Vec::new()),
        };
        Self {
            dim,
            max_fanout,
            nodes: vec![root],
            entries: Vec::new(),
            free_entries: Vec::new(),
            root: 0,
            len: 0,
        }
    }

    /// Bulk loads with Sort-Tile-Recursive packing; much better node overlap
    /// than repeated inserts for a static point set.
    pub fn bulk_load(dim: usize, max_fanout: usize, items: Vec<Entry<P, A>>) -> Self {
        let mut tree = Self::new(dim, max_fanout);
        if items.is_empty() {
            return tree;
        }
        tree.len = items.len();
        let mut slots: Vec<usize> = Vec::with_capacity(items.len());
        for e in items {
            assert_eq!(e.point.len(), dim, "entry dimensionality mismatch");
            slots.push(tree.entries.len());
            tree.entries.push(Some(e));
        }
        // Recursively tile the slots into leaves.
        let leaves = tree.str_pack_entries(slots, 0);
        let mut level: Vec<usize> = leaves;
        while level.len() > 1 {
            level = tree.str_pack_nodes(level, 0);
        }
        tree.root = level[0];
        tree
    }

    fn str_pack_entries(&mut self, mut slots: Vec<usize>, axis: usize) -> Vec<usize> {
        if slots.len() <= self.max_fanout {
            let node = self.make_leaf(slots);
            return vec![node];
        }
        let key = |tree: &Self, s: usize| tree.entries[s].as_ref().unwrap().point[axis];
        slots.sort_by(|&a, &b| key(self, a).partial_cmp(&key(self, b)).unwrap());
        let n_groups = slots.len().div_ceil(self.max_fanout);
        // Number of slabs along this axis ≈ n_groups^(1/remaining_dims).
        let remaining = self.dim - axis;
        let slabs = if remaining <= 1 {
            n_groups
        } else {
            (n_groups as f64).powf(1.0 / remaining as f64).ceil() as usize
        }
        .max(1);
        let per_slab = slots.len().div_ceil(slabs);
        let mut out = Vec::new();
        for chunk in slots.chunks(per_slab) {
            let next_axis = (axis + 1) % self.dim;
            if remaining <= 1 {
                out.push(self.make_leaf(chunk.to_vec()));
            } else {
                out.extend(self.str_pack_entries(chunk.to_vec(), next_axis));
            }
        }
        out
    }

    fn str_pack_nodes(&mut self, mut children: Vec<usize>, axis: usize) -> Vec<usize> {
        children.sort_by(|&a, &b| {
            self.nodes[a]
                .mbr
                .center(axis)
                .partial_cmp(&self.nodes[b].mbr.center(axis))
                .unwrap()
        });
        let mut out = Vec::new();
        for chunk in children.chunks(self.max_fanout) {
            out.push(self.make_internal(chunk.to_vec()));
        }
        out
    }

    fn make_leaf(&mut self, slots: Vec<usize>) -> usize {
        let id = self.nodes.len();
        self.nodes.push(Node {
            mbr: Rect::empty(self.dim),
            agg: None,
            kind: NodeKind::Leaf(slots),
        });
        self.recompute(id);
        id
    }

    fn make_internal(&mut self, children: Vec<usize>) -> usize {
        let id = self.nodes.len();
        self.nodes.push(Node {
            mbr: Rect::empty(self.dim),
            agg: None,
            kind: NodeKind::Internal(children),
        });
        self.recompute(id);
        id
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Dimensionality of indexed points.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Root MBR (empty accumulator if the tree is empty).
    pub fn root_mbr(&self) -> &Rect {
        &self.nodes[self.root].mbr
    }

    /// Root aggregate, if any entry exists.
    pub fn root_agg(&self) -> Option<&A> {
        self.nodes[self.root].agg.as_ref()
    }

    /// Recomputes `node`'s MBR and aggregate from its children/entries.
    fn recompute(&mut self, node: usize) {
        let mut mbr = Rect::empty(self.dim);
        let mut agg: Option<A> = None;
        match &self.nodes[node].kind {
            NodeKind::Leaf(slots) => {
                for &s in slots {
                    let e = self.entries[s].as_ref().unwrap();
                    mbr.expand_point(&e.point);
                    match &mut agg {
                        None => agg = Some(e.agg.clone()),
                        Some(a) => a.merge(&e.agg),
                    }
                }
            }
            NodeKind::Internal(children) => {
                // Clone the child list to appease the borrow checker; fanout
                // is small so this is cheap.
                for c in children.clone() {
                    let (cm, ca) = (self.nodes[c].mbr.clone(), self.nodes[c].agg.clone());
                    mbr.expand_rect(&cm);
                    if let Some(ca) = ca {
                        match &mut agg {
                            None => agg = Some(ca),
                            Some(a) => a.merge(&ca),
                        }
                    }
                }
            }
        }
        self.nodes[node].mbr = mbr;
        self.nodes[node].agg = agg;
    }

    /// Inserts an entry.
    pub fn insert(&mut self, point: Vec<f64>, payload: P, agg: A) {
        assert_eq!(point.len(), self.dim, "point dimensionality mismatch");
        let slot = match self.free_entries.pop() {
            Some(s) => {
                self.entries[s] = Some(Entry {
                    point: point.into_boxed_slice(),
                    payload,
                    agg,
                });
                s
            }
            None => {
                self.entries.push(Some(Entry {
                    point: point.into_boxed_slice(),
                    payload,
                    agg,
                }));
                self.entries.len() - 1
            }
        };
        self.len += 1;
        if let Some(sibling) = self.insert_rec(self.root, slot) {
            // Root split: grow the tree by one level.
            let old_root = self.root;
            self.root = self.make_internal(vec![old_root, sibling]);
        }
    }

    /// Recursive insert; returns a new sibling node index if `node` split.
    fn insert_rec(&mut self, node: usize, slot: usize) -> Option<usize> {
        let split = match &self.nodes[node].kind {
            NodeKind::Leaf(_) => {
                if let NodeKind::Leaf(slots) = &mut self.nodes[node].kind {
                    slots.push(slot);
                }
                self.recompute(node);
                self.maybe_split(node)
            }
            NodeKind::Internal(children) => {
                let point = self.entries[slot].as_ref().unwrap().point.clone();
                // Least margin enlargement; ties → smaller margin.
                let mut best = children[0];
                let mut best_key = (f64::INFINITY, f64::INFINITY);
                for &c in children {
                    let enl = self.nodes[c].mbr.enlargement_for_point(&point);
                    let key = (enl, self.nodes[c].mbr.margin());
                    if key < best_key {
                        best_key = key;
                        best = c;
                    }
                }
                let child_split = self.insert_rec(best, slot);
                if let Some(new_child) = child_split {
                    if let NodeKind::Internal(children) = &mut self.nodes[node].kind {
                        children.push(new_child);
                    }
                }
                self.recompute(node);
                self.maybe_split(node)
            }
        };
        split
    }

    /// Splits `node` if it exceeds `max_fanout`; returns the new sibling.
    fn maybe_split(&mut self, node: usize) -> Option<usize> {
        let count = match &self.nodes[node].kind {
            NodeKind::Leaf(s) => s.len(),
            NodeKind::Internal(c) => c.len(),
        };
        if count <= self.max_fanout {
            return None;
        }
        // Pick the dimension with widest spread of centers, sort, cut in half.
        let sibling = match self.nodes[node].kind.clone() {
            NodeKind::Leaf(mut slots) => {
                let axis = self.widest_axis_entries(&slots);
                slots.sort_by(|&a, &b| {
                    let pa = self.entries[a].as_ref().unwrap().point[axis];
                    let pb = self.entries[b].as_ref().unwrap().point[axis];
                    pa.partial_cmp(&pb).unwrap()
                });
                let right = slots.split_off(slots.len() / 2);
                self.nodes[node].kind = NodeKind::Leaf(slots);
                self.recompute(node);
                self.make_leaf(right)
            }
            NodeKind::Internal(mut children) => {
                let axis = self.widest_axis_nodes(&children);
                children.sort_by(|&a, &b| {
                    self.nodes[a]
                        .mbr
                        .center(axis)
                        .partial_cmp(&self.nodes[b].mbr.center(axis))
                        .unwrap()
                });
                let right = children.split_off(children.len() / 2);
                self.nodes[node].kind = NodeKind::Internal(children);
                self.recompute(node);
                self.make_internal(right)
            }
        };
        Some(sibling)
    }

    fn widest_axis_entries(&self, slots: &[usize]) -> usize {
        let mut mbr = Rect::empty(self.dim);
        for &s in slots {
            mbr.expand_point(&self.entries[s].as_ref().unwrap().point);
        }
        Self::widest_axis(&mbr)
    }

    fn widest_axis_nodes(&self, children: &[usize]) -> usize {
        let mut mbr = Rect::empty(self.dim);
        for &c in children {
            mbr.expand_rect(&self.nodes[c].mbr);
        }
        Self::widest_axis(&mbr)
    }

    fn widest_axis(mbr: &Rect) -> usize {
        let mut best = 0;
        let mut best_w = -1.0;
        for k in 0..mbr.dim() {
            let w = mbr.dim_interval(k).width();
            if w > best_w {
                best_w = w;
                best = k;
            }
        }
        best
    }

    /// Pruning traversal.
    ///
    /// `visit` is called with each node's MBR and aggregate; returning
    /// `false` prunes the subtree. Entries of non-pruned leaves are handed
    /// to `on_entry`. This is the primitive the 3-way index join of §5.3 is
    /// built from.
    pub fn traverse<'a>(
        &'a self,
        mut visit: impl FnMut(&Rect, &A) -> bool,
        mut on_entry: impl FnMut(&'a Entry<P, A>),
    ) {
        if self.is_empty() {
            return;
        }
        let mut stack = vec![self.root];
        while let Some(n) = stack.pop() {
            let node = &self.nodes[n];
            let agg = match &node.agg {
                Some(a) => a,
                None => continue, // empty node
            };
            if !visit(&node.mbr, agg) {
                continue;
            }
            match &node.kind {
                NodeKind::Leaf(slots) => {
                    for &s in slots {
                        on_entry(self.entries[s].as_ref().unwrap());
                    }
                }
                NodeKind::Internal(children) => stack.extend_from_slice(children),
            }
        }
    }

    /// All entries whose point lies inside `range` (order unspecified).
    pub fn range_query(&self, range: &Rect) -> Vec<&Entry<P, A>> {
        let mut out = Vec::new();
        self.traverse(
            |mbr, _| range.intersects(mbr),
            |e| {
                if range.contains_point(&e.point) {
                    out.push(e);
                }
            },
        );
        out
    }

    /// Iterates over all live entries.
    pub fn iter(&self) -> impl Iterator<Item = &Entry<P, A>> {
        self.entries.iter().filter_map(|e| e.as_ref())
    }

    /// Tree depth (1 = a single leaf root). Exposed for tests/inspection.
    pub fn depth(&self) -> usize {
        let mut d = 1;
        let mut n = self.root;
        loop {
            match &self.nodes[n].kind {
                NodeKind::Leaf(_) => return d,
                NodeKind::Internal(c) => {
                    n = c[0];
                    d += 1;
                }
            }
        }
    }

    /// Checks the structural invariants (MBR containment, counts, fanout).
    /// Used by tests; cheap enough to call after every mutation in proptests.
    pub fn check_invariants(&self) -> Result<(), String> {
        let counted = self.check_node(self.root, None)?;
        if counted != self.len {
            return Err(format!("len {} but counted {}", self.len, counted));
        }
        Ok(())
    }

    fn check_node(&self, node: usize, parent_mbr: Option<&Rect>) -> Result<usize, String> {
        let n = &self.nodes[node];
        if let Some(pm) = parent_mbr {
            if !n.mbr.is_empty() && !pm.contains_rect(&n.mbr) {
                return Err(format!("node {node} MBR escapes parent"));
            }
        }
        match &n.kind {
            NodeKind::Leaf(slots) => {
                if slots.len() > self.max_fanout {
                    return Err(format!("leaf {node} over fanout: {}", slots.len()));
                }
                for &s in slots {
                    let e = self
                        .entries
                        .get(s)
                        .and_then(|e| e.as_ref())
                        .ok_or_else(|| format!("leaf {node} references dead slot {s}"))?;
                    if !n.mbr.contains_point(&e.point) {
                        return Err(format!("entry {s} outside leaf {node} MBR"));
                    }
                }
                Ok(slots.len())
            }
            NodeKind::Internal(children) => {
                if children.is_empty() {
                    return Err(format!("internal node {node} has no children"));
                }
                if children.len() > self.max_fanout {
                    return Err(format!("internal {node} over fanout: {}", children.len()));
                }
                let mut total = 0;
                for &c in children {
                    total += self.check_node(c, Some(&n.mbr))?;
                }
                Ok(total)
            }
        }
    }
}

impl<P: PartialEq, A: Aggregate> ArTree<P, A> {
    /// Deletes the entry with the given payload located at `point`.
    ///
    /// Returns `true` if an entry was removed. Underflowing leaves are kept
    /// (they stay correct; this reproduction favours simplicity — the only
    /// deleting index, the dynamic-repository extension of §5.5, removes a
    /// small fraction of entries).
    pub fn delete(&mut self, point: &[f64], payload: &P) -> bool {
        assert_eq!(point.len(), self.dim);
        let removed = self.delete_rec(self.root, point, payload);
        if removed {
            self.len -= 1;
            // Collapse a root with a single internal child to keep depth tight.
            while let NodeKind::Internal(children) = &self.nodes[self.root].kind {
                if children.len() == 1 {
                    self.root = children[0];
                } else {
                    break;
                }
            }
        }
        removed
    }

    fn delete_rec(&mut self, node: usize, point: &[f64], payload: &P) -> bool {
        if !self.nodes[node].mbr.contains_point(point) {
            return false;
        }
        match self.nodes[node].kind.clone() {
            NodeKind::Leaf(slots) => {
                for (i, &s) in slots.iter().enumerate() {
                    let e = self.entries[s].as_ref().unwrap();
                    if e.point.as_ref() == point && &e.payload == payload {
                        if let NodeKind::Leaf(slots) = &mut self.nodes[node].kind {
                            slots.swap_remove(i);
                        }
                        self.entries[s] = None;
                        self.free_entries.push(s);
                        self.recompute(node);
                        return true;
                    }
                }
                false
            }
            NodeKind::Internal(children) => {
                for (i, &c) in children.iter().enumerate() {
                    if self.delete_rec(c, point, payload) {
                        // Drop children that became empty.
                        let child_empty = match &self.nodes[c].kind {
                            NodeKind::Leaf(s) => s.is_empty(),
                            NodeKind::Internal(cs) => cs.is_empty(),
                        };
                        if child_empty {
                            if let NodeKind::Internal(children) = &mut self.nodes[node].kind {
                                children.swap_remove(i);
                            }
                        }
                        self.recompute(node);
                        return true;
                    }
                }
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ter_text::Interval;

    /// Sum aggregate for testing aggregate maintenance.
    #[derive(Debug, Clone, PartialEq)]
    struct Sum(f64);
    impl Aggregate for Sum {
        fn merge(&mut self, other: &Self) {
            self.0 += other.0;
        }
    }

    fn rect2(a: (f64, f64), b: (f64, f64)) -> Rect {
        Rect::new(vec![Interval::new(a.0, a.1), Interval::new(b.0, b.1)])
    }

    #[test]
    fn empty_tree_queries() {
        let t: ArTree<u32, ()> = ArTree::new(2, 8);
        assert!(t.is_empty());
        assert!(t.range_query(&Rect::unit(2)).is_empty());
        t.check_invariants().unwrap();
    }

    #[test]
    fn insert_and_range_query() {
        let mut t: ArTree<u32, ()> = ArTree::new(2, 4);
        for i in 0..100u32 {
            let x = (i % 10) as f64 / 10.0;
            let y = (i / 10) as f64 / 10.0;
            t.insert(vec![x, y], i, ());
        }
        t.check_invariants().unwrap();
        assert_eq!(t.len(), 100);
        assert!(t.depth() > 1);
        let hits = t.range_query(&rect2((0.0, 0.25), (0.0, 0.25)));
        // x,y ∈ {0.0, 0.1, 0.2} → 9 points
        assert_eq!(hits.len(), 9);
    }

    #[test]
    fn aggregates_accumulate_on_insert() {
        let mut t: ArTree<u32, Sum> = ArTree::new(1, 4);
        for i in 0..20u32 {
            t.insert(vec![i as f64 / 20.0], i, Sum(1.0));
        }
        assert_eq!(t.root_agg(), Some(&Sum(20.0)));
    }

    #[test]
    fn traversal_prunes_subtrees() {
        let mut t: ArTree<u32, Sum> = ArTree::new(1, 4);
        for i in 0..64u32 {
            t.insert(vec![i as f64 / 64.0], i, Sum(1.0));
        }
        let mut visited_entries = 0;
        let range = Interval::new(0.0, 0.1);
        t.traverse(
            |mbr, _agg| mbr.dim_interval(0).intersects(&range),
            |_| visited_entries += 1,
        );
        // Should visit far fewer than all 64 entries.
        assert!(visited_entries < 32, "visited {visited_entries}");
        assert!(visited_entries >= 7); // 0/64 ..= 6/64 are within range
    }

    #[test]
    fn delete_removes_and_updates_aggregate() {
        let mut t: ArTree<u32, Sum> = ArTree::new(1, 4);
        for i in 0..10u32 {
            t.insert(vec![i as f64 / 10.0], i, Sum(1.0));
        }
        assert!(t.delete(&[0.3], &3));
        assert!(!t.delete(&[0.3], &3)); // already gone
        assert_eq!(t.len(), 9);
        assert_eq!(t.root_agg(), Some(&Sum(9.0)));
        t.check_invariants().unwrap();
        let hits = t.range_query(&Rect::new(vec![Interval::new(0.29, 0.31)]));
        assert!(hits.is_empty());
    }

    #[test]
    fn delete_everything_then_reinsert() {
        let mut t: ArTree<u32, Sum> = ArTree::new(2, 4);
        let pts: Vec<(f64, f64)> = (0..30)
            .map(|i| (i as f64 / 30.0, 1.0 - i as f64 / 30.0))
            .collect();
        for (i, &(x, y)) in pts.iter().enumerate() {
            t.insert(vec![x, y], i as u32, Sum(1.0));
        }
        for (i, &(x, y)) in pts.iter().enumerate() {
            assert!(t.delete(&[x, y], &(i as u32)), "delete {i}");
            t.check_invariants().unwrap();
        }
        assert!(t.is_empty());
        t.insert(vec![0.5, 0.5], 99, Sum(1.0));
        assert_eq!(t.range_query(&Rect::unit(2)).len(), 1);
    }

    #[test]
    fn bulk_load_matches_linear_scan() {
        let items: Vec<Entry<u32, ()>> = (0..200u32)
            .map(|i| Entry {
                point: vec![(i as f64 * 0.37) % 1.0, (i as f64 * 0.73) % 1.0].into_boxed_slice(),
                payload: i,
                agg: (),
            })
            .collect();
        let expect: Vec<u32> = items
            .iter()
            .filter(|e| e.point[0] <= 0.5 && e.point[1] <= 0.5)
            .map(|e| e.payload)
            .collect();
        let t = ArTree::bulk_load(2, 8, items);
        t.check_invariants().unwrap();
        assert_eq!(t.len(), 200);
        let mut got: Vec<u32> = t
            .range_query(&rect2((0.0, 0.5), (0.0, 0.5)))
            .iter()
            .map(|e| e.payload)
            .collect();
        let mut expect = expect;
        got.sort_unstable();
        expect.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn bulk_load_aggregate_sum() {
        let items: Vec<Entry<u32, Sum>> = (0..57u32)
            .map(|i| Entry {
                point: vec![i as f64 / 57.0].into_boxed_slice(),
                payload: i,
                agg: Sum(2.0),
            })
            .collect();
        let t = ArTree::bulk_load(1, 6, items);
        assert_eq!(t.root_agg(), Some(&Sum(114.0)));
    }

    #[test]
    fn duplicate_points_coexist() {
        let mut t: ArTree<u32, ()> = ArTree::new(1, 4);
        for i in 0..8u32 {
            t.insert(vec![0.5], i, ());
        }
        assert_eq!(
            t.range_query(&Rect::new(vec![Interval::point(0.5)])).len(),
            8
        );
        assert!(t.delete(&[0.5], &5));
        assert_eq!(t.len(), 7);
    }
}

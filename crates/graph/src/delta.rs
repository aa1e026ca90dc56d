//! A mutable edge-delta overlay over the immutable CSR [`Graph`].
//!
//! Production graphs mutate; the CSR does not. [`DeltaGraph`] bridges
//! the two: it borrows a base snapshot and accumulates edge inserts,
//! re-weights, and deletes in sorted per-node side-lists, giving
//! `O(log d)` edge lookup and merged neighbor iteration that is
//! **bit-compatible** with the CSR a fresh [`Graph::from_edges`] build
//! of the edited edge list would produce (same targets, same weights,
//! same degree sums in the same order). [`DeltaGraph::compact`]
//! produces that same CSR by a row splice instead of a rebuild — the
//! base's untouched rows are copied as slices and only overlaid rows
//! are re-merged, an O(n + m) copy with no sort and the same bits —
//! and emits a [`Permutation`] relabeling hook: the identity today,
//! the seam through which a future compaction that drops or renumbers
//! vertices plugs into the existing `map_back` plumbing.
//!
//! Snapshot semantics: the overlay is a *writer-side* structure. The
//! borrowed base and every compacted CSR are immutable snapshots, so a
//! reader holding one (stamped with an epoch, as the serve engine does)
//! never observes a half-applied delta — writers append to the overlay
//! and publish a new snapshot atomically via `compact`. The
//! [`DeltaGraph::version`] counter advances once per applied mutation;
//! [`DeltaGraph::net_delta`] summarizes the accumulated edits as one
//! [`EdgeDelta`] record per changed edge, the input contract of the
//! push-style residual repair kernel in `acir-local`.

use crate::permute::Permutation;
use crate::{Graph, GraphError, NodeId, Result};
use std::collections::BTreeMap;

/// One edge mutation to apply to a [`DeltaGraph`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EdgeOp {
    /// Insert the edge `{u, v}` with `weight`, or overwrite its weight
    /// if it already exists.
    Insert {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint (`u == v` is a self-loop).
        v: NodeId,
        /// New edge weight; must be finite and positive.
        weight: f64,
    },
    /// Remove the edge `{u, v}` (a no-op if absent).
    Delete {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
    },
}

/// The net effect of the accumulated mutations on one edge, in the
/// canonical `u <= v` orientation: the weight the base graph held
/// (`None` if the edge did not exist) and the weight the merged view
/// holds now (`None` if deleted). This is the record the residual
/// repair kernel consumes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeDelta {
    /// Smaller endpoint.
    pub u: NodeId,
    /// Larger endpoint (`u == v` for self-loops).
    pub v: NodeId,
    /// Weight in the base snapshot (`None` = edge absent).
    pub old: Option<f64>,
    /// Weight in the merged view (`None` = edge deleted).
    pub new: Option<f64>,
}

impl EdgeDelta {
    /// Net weighted-degree change this edit contributes at endpoint
    /// `c` (zero if `c` is not an endpoint). Self-loops contribute
    /// their weight once, matching the CSR degree convention.
    pub fn degree_change_at(&self, c: NodeId) -> f64 {
        if c != self.u && c != self.v {
            return 0.0;
        }
        self.new.unwrap_or(0.0) - self.old.unwrap_or(0.0)
    }
}

/// A sorted per-node overlay row: `(target, Some(weight))` overrides
/// the base arc's weight (or inserts a new arc); `(target, None)`
/// tombstones it.
type OverlayRow = Vec<(NodeId, Option<f64>)>;

/// An edge-insert/delete overlay over a borrowed CSR snapshot. See the
/// [module docs](self).
#[derive(Debug, Clone)]
pub struct DeltaGraph<'g> {
    base: &'g Graph,
    overlay: BTreeMap<NodeId, OverlayRow>,
    /// Merged weighted degree of every touched node, recomputed after
    /// each mutation by summing the merged row in ascending-target
    /// order — the same order `Graph::from_edges` sums rows in, so the
    /// cached value is bit-identical to the compacted CSR's.
    degrees: BTreeMap<NodeId, f64>,
    version: u64,
}

impl<'g> DeltaGraph<'g> {
    /// An empty overlay over `base`.
    pub fn new(base: &'g Graph) -> Self {
        Self {
            base,
            overlay: BTreeMap::new(),
            degrees: BTreeMap::new(),
            version: 0,
        }
    }

    /// The borrowed base snapshot.
    pub fn base(&self) -> &Graph {
        self.base
    }

    /// Number of nodes (the overlay never adds or removes vertices;
    /// relabeling across such compactions is what the [`Permutation`]
    /// hook of [`Self::compact`] exists for).
    pub fn n(&self) -> usize {
        self.base.n()
    }

    /// Write cursor: advances once per applied mutation. Readers pair
    /// it with an immutable snapshot to detect concurrent edits.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Has any mutation been applied?
    pub fn is_dirty(&self) -> bool {
        !self.overlay.is_empty()
    }

    /// Nodes with at least one overlaid arc, ascending.
    pub fn touched_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.overlay.keys().copied()
    }

    /// Apply one [`EdgeOp`]; returns the edge's previous merged weight
    /// (`None` if it did not exist).
    pub fn apply(&mut self, op: &EdgeOp) -> Result<Option<f64>> {
        match *op {
            EdgeOp::Insert { u, v, weight } => self.insert_edge(u, v, weight),
            EdgeOp::Delete { u, v } => self.delete_edge(u, v),
        }
    }

    /// Insert `{u, v}` with `weight`, overwriting an existing weight.
    /// Returns the previous merged weight, if any.
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId, weight: f64) -> Result<Option<f64>> {
        self.check_node(u)?;
        self.check_node(v)?;
        if !(weight.is_finite() && weight > 0.0) {
            return Err(GraphError::BadWeight(weight));
        }
        let old = self.lookup(u, v);
        self.set_overlay(u, v, Some(weight));
        if u != v {
            self.set_overlay(v, u, Some(weight));
        }
        self.refresh_degree(u);
        if u != v {
            self.refresh_degree(v);
        }
        self.version += 1;
        Ok(old)
    }

    /// Delete `{u, v}`. Returns the weight it had, or `None` (and
    /// leaves the overlay untouched) if the edge does not exist.
    pub fn delete_edge(&mut self, u: NodeId, v: NodeId) -> Result<Option<f64>> {
        self.check_node(u)?;
        self.check_node(v)?;
        let old = self.lookup(u, v);
        if old.is_none() {
            return Ok(None);
        }
        self.set_overlay(u, v, None);
        if u != v {
            self.set_overlay(v, u, None);
        }
        self.refresh_degree(u);
        if u != v {
            self.refresh_degree(v);
        }
        self.version += 1;
        Ok(old)
    }

    /// Merged weight of `{u, v}`, or 0.0 if absent. `O(log d)`:
    /// a binary search of the overlay row, then of the CSR row.
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> f64 {
        self.lookup(u, v).unwrap_or(0.0)
    }

    /// Whether `{u, v}` is an edge in the merged view.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edge_weight(u, v) > 0.0
    }

    /// Merged weighted degree of `u` — bit-identical to what the
    /// compacted CSR reports.
    pub fn degree(&self, u: NodeId) -> f64 {
        match self.degrees.get(&u) {
            Some(&d) => d,
            None => self.base.degree(u),
        }
    }

    /// Merged total volume `Σ_u d_u`, summed in node order — the same
    /// order `Graph::from_edges` uses, so bit-identical to the
    /// compacted CSR's.
    pub fn total_volume(&self) -> f64 {
        if self.overlay.is_empty() {
            return self.base.total_volume();
        }
        (0..self.n() as NodeId).map(|u| self.degree(u)).sum()
    }

    /// Iterate over the merged `(neighbor, weight)` row of `u`, sorted
    /// by neighbor — element-for-element and bit-for-bit what the
    /// compacted CSR's `neighbors(u)` yields.
    pub fn neighbors(&self, u: NodeId) -> MergedNeighbors<'_> {
        MergedNeighbors {
            base: Box::new(self.base.neighbors(u)),
            base_peek: None,
            over: self
                .overlay
                .get(&u)
                .map_or(&[][..], |row| row.as_slice())
                .iter(),
            over_peek: None,
            primed: false,
        }
    }

    /// The accumulated edits as one canonical record per changed edge
    /// (ascending `(u, v)`, `u <= v`), dropping edits that net out to
    /// no change. This is the delta the residual repair kernel and the
    /// serve engine's sketch/answer maintenance consume.
    pub fn net_delta(&self) -> Vec<EdgeDelta> {
        let mut out = Vec::new();
        for (&u, row) in &self.overlay {
            for &(v, new) in row {
                if v < u {
                    continue; // recorded once, from the smaller endpoint
                }
                let old = match self.base.edge_weight(u, v) {
                    w if w > 0.0 => Some(w),
                    _ => None,
                };
                let changed = match (old, new) {
                    (Some(a), Some(b)) => a.to_bits() != b.to_bits(),
                    (None, None) => false,
                    _ => true,
                };
                if changed {
                    out.push(EdgeDelta { u, v, old, new });
                }
            }
        }
        out
    }

    /// Materialize the merged view as a fresh CSR and emit the
    /// relabeling hook, by a row splice: the base's CSR slices between
    /// overlaid rows are copied with their offsets shifted, and each
    /// overlaid row is written from the merged iterator — an O(n + m)
    /// copy with no sort. Every degree is then re-summed from its row
    /// and the total volume from the degrees, exactly as
    /// `Graph::from_edges` sums them (the base's cached degrees are not
    /// copied: after a relabeling [`Graph::permute`] they were summed
    /// in the old row order and may differ in the last bit). The result
    /// is therefore bit-identical to `Graph::from_edges` of the merged
    /// edge list for any base whose arcs carry bitwise-symmetric
    /// weights, as every `from_edges` build of a simple edge list and
    /// every permutation of one does.
    ///
    /// The permutation is the identity (the overlay neither adds nor
    /// drops vertices); callers should still route results through it,
    /// so a future compaction that renumbers vertices is a local change.
    pub fn compact(&self) -> Result<(Graph, Permutation)> {
        let n = self.n();
        let (base_offsets, base_targets, base_weights) = self.base.csr_parts();
        let arcs = base_targets.len() + self.overlay.values().map(Vec::len).sum::<usize>();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(arcs);
        let mut weights = Vec::with_capacity(arcs);
        offsets.push(0);
        let mut next = 0usize;
        for u in self.overlay.keys().map(|&u| u as usize).chain([n]) {
            // Base rows `next..u` verbatim, their offsets shifted.
            let (start, end) = (base_offsets[next], base_offsets[u]);
            let shift = targets.len();
            targets.extend_from_slice(&base_targets[start..end]);
            weights.extend_from_slice(&base_weights[start..end]);
            offsets.extend(
                base_offsets[next + 1..=u]
                    .iter()
                    .map(|&o| o - start + shift),
            );
            if u == n {
                break;
            }
            // The overlaid row itself, from the merged iterator.
            for (v, w) in self.neighbors(u as NodeId) {
                targets.push(v);
                weights.push(w);
            }
            offsets.push(targets.len());
            next = u + 1;
        }
        let g = Graph::from_csr_parts(offsets, targets, weights);
        Ok((g, Permutation::identity(n)))
    }

    fn check_node(&self, u: NodeId) -> Result<()> {
        if u as usize >= self.n() {
            return Err(GraphError::NodeOutOfRange {
                node: u,
                n: self.n(),
            });
        }
        Ok(())
    }

    /// Merged weight lookup as an `Option`.
    fn lookup(&self, u: NodeId, v: NodeId) -> Option<f64> {
        if let Some(row) = self.overlay.get(&u) {
            if let Ok(k) = row.binary_search_by_key(&v, |e| e.0) {
                return row[k].1;
            }
        }
        match self.base.edge_weight(u, v) {
            w if w > 0.0 => Some(w),
            _ => None,
        }
    }

    fn set_overlay(&mut self, u: NodeId, target: NodeId, val: Option<f64>) {
        let row = self.overlay.entry(u).or_default();
        match row.binary_search_by_key(&target, |e| e.0) {
            Ok(k) => row[k].1 = val,
            Err(k) => row.insert(k, (target, val)),
        }
    }

    fn refresh_degree(&mut self, u: NodeId) {
        let d: f64 = self.neighbors(u).map(|(_, w)| w).sum();
        self.degrees.insert(u, d);
    }
}

/// Iterator over a [`DeltaGraph`] node's merged `(neighbor, weight)`
/// row: a two-pointer merge of the CSR row and the overlay side-list,
/// both sorted by target. Overlay entries override (or tombstone) base
/// arcs with the same target.
pub struct MergedNeighbors<'a> {
    base: Box<dyn Iterator<Item = (NodeId, f64)> + 'a>,
    base_peek: Option<(NodeId, f64)>,
    over: std::slice::Iter<'a, (NodeId, Option<f64>)>,
    over_peek: Option<(NodeId, Option<f64>)>,
    primed: bool,
}

impl Iterator for MergedNeighbors<'_> {
    type Item = (NodeId, f64);

    fn next(&mut self) -> Option<Self::Item> {
        if !self.primed {
            self.base_peek = self.base.next();
            self.over_peek = self.over.next().copied();
            self.primed = true;
        }
        loop {
            match (self.base_peek, self.over_peek) {
                (Some((bv, bw)), Some((ov, val))) => {
                    if bv < ov {
                        self.base_peek = self.base.next();
                        return Some((bv, bw));
                    }
                    if bv == ov {
                        self.base_peek = self.base.next();
                    }
                    self.over_peek = self.over.next().copied();
                    match val {
                        Some(w) => return Some((ov, w)),
                        None => continue, // tombstoned arc
                    }
                }
                (Some((bv, bw)), None) => {
                    self.base_peek = self.base.next();
                    return Some((bv, bw));
                }
                (None, Some((ov, val))) => {
                    self.over_peek = self.over.next().copied();
                    match val {
                        Some(w) => return Some((ov, w)),
                        None => continue,
                    }
                }
                (None, None) => return None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::gen::deterministic::{barbell, cycle};
    use proptest::prelude::*;

    fn bits(it: impl Iterator<Item = (NodeId, f64)>) -> Vec<(NodeId, u64)> {
        it.map(|(v, w)| (v, w.to_bits())).collect()
    }

    fn assert_bitwise_same(a: &Graph, b: &Graph) {
        assert_eq!(a.n(), b.n());
        assert_eq!(a.arc_count(), b.arc_count());
        for u in 0..a.n() as NodeId {
            assert_eq!(bits(a.neighbors(u)), bits(b.neighbors(u)), "row {u}");
            assert_eq!(a.degree(u).to_bits(), b.degree(u).to_bits(), "degree {u}");
        }
        assert_eq!(a.total_volume().to_bits(), b.total_volume().to_bits());
    }

    #[test]
    fn empty_overlay_reads_like_the_base() {
        let g = barbell(5, 2).unwrap();
        let d = DeltaGraph::new(&g);
        assert!(!d.is_dirty());
        assert_eq!(d.version(), 0);
        for u in 0..g.n() as NodeId {
            assert_eq!(bits(d.neighbors(u)), bits(g.neighbors(u)));
            assert_eq!(d.degree(u).to_bits(), g.degree(u).to_bits());
        }
        assert_eq!(d.total_volume().to_bits(), g.total_volume().to_bits());
        assert!(d.net_delta().is_empty());
        let (c, p) = d.compact().unwrap();
        assert!(p.is_identity());
        assert_bitwise_same(&c, &g);
    }

    #[test]
    fn insert_delete_reweight_round_trip() {
        let g = cycle(6).unwrap();
        let mut d = DeltaGraph::new(&g);
        // Insert a chord.
        assert_eq!(d.insert_edge(0, 3, 2.0).unwrap(), None);
        assert_eq!(d.edge_weight(0, 3), 2.0);
        assert_eq!(d.edge_weight(3, 0), 2.0);
        assert_eq!(d.degree(0), g.degree(0) + 2.0);
        // Reweight an existing base edge.
        assert_eq!(d.insert_edge(1, 2, 5.0).unwrap(), Some(1.0));
        assert_eq!(d.edge_weight(2, 1), 5.0);
        // Delete a base edge.
        assert_eq!(d.delete_edge(4, 5).unwrap(), Some(1.0));
        assert!(!d.has_edge(4, 5));
        assert_eq!(d.degree(4), 1.0);
        // Deleting a non-edge is a no-op.
        let v = d.version();
        assert_eq!(d.delete_edge(0, 2).unwrap(), None);
        assert_eq!(d.version(), v);

        let delta = d.net_delta();
        assert_eq!(
            delta,
            vec![
                EdgeDelta {
                    u: 0,
                    v: 3,
                    old: None,
                    new: Some(2.0)
                },
                EdgeDelta {
                    u: 1,
                    v: 2,
                    old: Some(1.0),
                    new: Some(5.0)
                },
                EdgeDelta {
                    u: 4,
                    v: 5,
                    old: Some(1.0),
                    new: None
                },
            ]
        );
        assert_eq!(delta[0].degree_change_at(0), 2.0);
        assert_eq!(delta[2].degree_change_at(5), -1.0);
        assert_eq!(delta[2].degree_change_at(0), 0.0);
    }

    #[test]
    fn merged_view_bit_identical_to_fresh_build() {
        let g = barbell(6, 3).unwrap();
        let mut d = DeltaGraph::new(&g);
        d.insert_edge(0, 14, 0.5).unwrap();
        d.delete_edge(0, 1).unwrap();
        d.insert_edge(3, 3, 1.25).unwrap(); // self-loop
        d.insert_edge(2, 4, 7.0).unwrap(); // reweight inside the clique
        d.delete_edge(6, 7).unwrap(); // bridge segment edge
                                      // Reference: fresh CSR from the edited edge list.
        let mut edges: Vec<(NodeId, NodeId, f64)> = g
            .edges()
            .filter(|&(u, v, _)| !((u, v) == (0, 1) || (u, v) == (6, 7)))
            .map(|(u, v, w)| {
                if (u, v) == (2, 4) {
                    (u, v, 7.0)
                } else {
                    (u, v, w)
                }
            })
            .collect();
        edges.push((0, 14, 0.5));
        edges.push((3, 3, 1.25));
        let fresh = Graph::from_edges(g.n(), edges).unwrap();
        for u in 0..g.n() as NodeId {
            assert_eq!(bits(d.neighbors(u)), bits(fresh.neighbors(u)), "row {u}");
            assert_eq!(d.degree(u).to_bits(), fresh.degree(u).to_bits());
        }
        assert_eq!(d.total_volume().to_bits(), fresh.total_volume().to_bits());
        let (compacted, perm) = d.compact().unwrap();
        assert!(perm.is_identity());
        assert_bitwise_same(&compacted, &fresh);
    }

    #[test]
    fn lookup_is_consistent_after_overwrites() {
        let g = cycle(4).unwrap();
        let mut d = DeltaGraph::new(&g);
        d.insert_edge(0, 2, 1.0).unwrap();
        d.delete_edge(0, 2).unwrap();
        assert!(!d.has_edge(0, 2));
        assert!(d.net_delta().is_empty(), "insert+delete nets out");
        d.insert_edge(0, 2, 3.0).unwrap();
        assert_eq!(d.edge_weight(0, 2), 3.0);
        assert_eq!(d.net_delta().len(), 1);
        // Re-inserting the base weight of an existing edge nets out too.
        d.insert_edge(0, 1, 2.0).unwrap();
        d.insert_edge(0, 1, 1.0).unwrap();
        assert_eq!(d.net_delta().len(), 1);
    }

    #[test]
    fn validates_nodes_and_weights() {
        let g = cycle(4).unwrap();
        let mut d = DeltaGraph::new(&g);
        assert!(d.insert_edge(0, 9, 1.0).is_err());
        assert!(d.insert_edge(9, 0, 1.0).is_err());
        assert!(d.insert_edge(0, 1, 0.0).is_err());
        assert!(d.insert_edge(0, 1, f64::NAN).is_err());
        assert!(d.insert_edge(0, 1, -1.0).is_err());
        assert!(d.delete_edge(9, 0).is_err());
        assert_eq!(d.version(), 0);
        assert!(!d.is_dirty());
    }

    /// `Graph::from_edges` of `dg`'s merged edge list (each edge once,
    /// from its smaller endpoint): the reference `compact` must match.
    fn rebuilt_from_merged_edges(dg: &DeltaGraph<'_>) -> Graph {
        let n = dg.n();
        let edges: Vec<(NodeId, NodeId, f64)> = (0..n as NodeId)
            .flat_map(|u| {
                dg.neighbors(u)
                    .filter(move |&(v, _)| v >= u)
                    .map(move |(v, w)| (u, v, w))
            })
            .collect();
        Graph::from_edges(n, edges).unwrap()
    }

    /// Offsets, targets, weight bits, degree bits and volume bits.
    fn assert_same_csr(a: &Graph, b: &Graph) {
        let ((ao, at, aw), (bo, bt, bw)) = (a.csr_parts(), b.csr_parts());
        assert_eq!(ao, bo);
        assert_eq!(at, bt);
        let wbits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(wbits(aw), wbits(bw));
        assert_eq!(wbits(a.degrees()), wbits(b.degrees()));
        assert_eq!(a.total_volume().to_bits(), b.total_volume().to_bits());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The row splice against a full rebuild, on the bases where a
        /// shortcut would show: non-dyadic weights (so summation order
        /// matters in the last bit) relabeled by `compact_ordered`,
        /// whose `permute` keeps each degree as summed in the *old* row
        /// order. Streams mix inserts, reweights and deletes, and every
        /// case adds a self-loop and strips one node of all its edges.
        #[test]
        fn compact_matches_from_edges_on_relabeled_nondyadic_bases(
            n in 6usize..48,
            raw in collection::vec((0u32..1024, 0u32..1024, 0u32..777_777), 8..160),
            degree_order in 0u8..2,
            ops in collection::vec((0u8..3, 0u32..1024, 0u32..1024, 0u32..777_777), 1..24),
            (looped, stripped) in (0u32..1024, 0u32..1024),
        ) {
            let weight = |k: u32| 0.1 + f64::from(k) / 777_777.0;
            // A simple edge list: one weight per unordered pair.
            let mut edges: BTreeMap<(NodeId, NodeId), f64> = BTreeMap::new();
            for &(a, b, k) in &raw {
                let (u, v) = (a % n as u32, b % n as u32);
                edges.entry((u.min(v), u.max(v))).or_insert(weight(k));
            }
            let g0 = Graph::from_edges(n, edges.iter().map(|(&(u, v), &w)| (u, v, w))).unwrap();
            let order = if degree_order == 1 {
                crate::CompactionOrder::DegreeDescending
            } else {
                crate::CompactionOrder::Rcm
            };
            let (base, _) = crate::compact_ordered(&DeltaGraph::new(&g0), order).unwrap();
            // An empty overlay already re-sums the relabeled degrees.
            let (plain, _) = DeltaGraph::new(&base).compact().unwrap();
            assert_same_csr(&plain, &Graph::from_edges(n, base.edges()).unwrap());

            let mut dg = DeltaGraph::new(&base);
            for &(kind, a, b, k) in &ops {
                let u = a % n as u32;
                let row: Vec<NodeId> = dg.neighbors(u).map(|(v, _)| v).collect();
                match kind {
                    // Insert a (possibly new) edge, self-loops included.
                    0 => {
                        dg.insert_edge(u, b % n as u32, weight(k)).unwrap();
                    }
                    // Reweight or delete an existing edge of `u`.
                    _ if row.is_empty() => {}
                    1 => {
                        dg.insert_edge(u, row[b as usize % row.len()], weight(k)).unwrap();
                    }
                    _ => {
                        dg.delete_edge(u, row[b as usize % row.len()]).unwrap();
                    }
                }
            }
            dg.insert_edge(looped % n as u32, looped % n as u32, weight(looped)).unwrap();
            let x = stripped % n as u32;
            let row: Vec<NodeId> = dg.neighbors(x).map(|(v, _)| v).collect();
            for v in row {
                dg.delete_edge(x, v).unwrap();
            }
            prop_assert_eq!(dg.neighbors(x).count(), 0);

            let (compacted, perm) = dg.compact().unwrap();
            prop_assert!(perm.is_identity());
            assert_same_csr(&compacted, &rebuilt_from_merged_edges(&dg));
        }
    }

    #[test]
    fn touched_nodes_and_apply() {
        let g = cycle(5).unwrap();
        let mut d = DeltaGraph::new(&g);
        d.apply(&EdgeOp::Insert {
            u: 4,
            v: 1,
            weight: 1.0,
        })
        .unwrap();
        d.apply(&EdgeOp::Delete { u: 2, v: 3 }).unwrap();
        let touched: Vec<NodeId> = d.touched_nodes().collect();
        assert_eq!(touched, vec![1, 2, 3, 4]);
        assert_eq!(d.version(), 2);
    }
}

//! Per-column lookup tables shared by the geometry-level walks: the unit
//! work tally in [`units`](crate::units) and the deps sweep in
//! [`sweep`](crate::sweep).

use crate::units::Partition;
use spfactor_interval::Interval;
use spfactor_symbolic::{fundamental_supernodes, SymbolicFactor};

/// Flattened ownership segmentations, the row transpose of the
/// strict-lower structure, and the fundamental supernode of each column.
pub(crate) struct ColumnTables {
    /// Column `j`'s segments ([`Partition::column_ownership`]) are
    /// `seg[seg_start[j]..seg_start[j + 1]]` (ascending, disjoint).
    seg_start: Vec<usize>,
    seg: Vec<(Interval, u32)>,
    /// Transpose of the strict-lower structure: row `j`'s entries are
    /// `(k, pos)` pairs with `L(j,k)` stored, `k < j` ascending, `pos` the
    /// index of `j` in `factor.col(k)`. Row `j`'s slice is
    /// `row_adj[row_start[j]..row_start[j + 1]]`.
    row_start: Vec<usize>,
    row_adj: Vec<(u32, u32)>,
    /// Fundamental-supernode id per column. Columns of one supernode have
    /// identical factor structure below any shared row
    /// (`struct(L_{k+1}) = struct(L_k) \ {k+1}`).
    pub(crate) snode: Vec<u32>,
}

impl ColumnTables {
    pub(crate) fn new(factor: &SymbolicFactor, partition: &Partition) -> Self {
        let n = factor.n();
        let mut seg_start = Vec::with_capacity(n + 1);
        let mut seg = Vec::new();
        seg_start.push(0);
        for j in 0..n {
            partition.column_ownership(j, &mut seg);
            seg_start.push(seg.len());
        }
        // Counting sort of the strict-lower entries by row: iterating
        // columns ascending keeps each row list k-ascending.
        let mut row_start = vec![0usize; n + 1];
        for k in 0..n {
            for &i in factor.col(k) {
                row_start[i + 1] += 1;
            }
        }
        for j in 0..n {
            row_start[j + 1] += row_start[j];
        }
        let mut row_adj = vec![(0u32, 0u32); row_start[n]];
        let mut cursor = row_start.clone();
        for k in 0..n {
            for (pos, &i) in factor.col(k).iter().enumerate() {
                row_adj[cursor[i]] = (k as u32, pos as u32);
                cursor[i] += 1;
            }
        }
        let mut snode = vec![0u32; n];
        for (id, sn) in fundamental_supernodes(factor).iter().enumerate() {
            snode[sn.clone()].fill(id as u32);
        }
        ColumnTables {
            seg_start,
            seg,
            row_start,
            row_adj,
            snode,
        }
    }

    /// The ownership segmentation of column `j`; the first segment always
    /// contains the diagonal row `j`.
    pub(crate) fn col_segs(&self, j: usize) -> &[(Interval, u32)] {
        &self.seg[self.seg_start[j]..self.seg_start[j + 1]]
    }

    /// The `(k, pos)` pairs of row `j`, `k` ascending.
    pub(crate) fn row_pairs(&self, j: usize) -> &[(u32, u32)] {
        &self.row_adj[self.row_start[j]..self.row_start[j + 1]]
    }
}

/// Returns the end of the prefix of `rows[idx..end]` with values `<= hi`,
/// as an absolute index. One compare against the slice's last row settles
/// the dominant case — a single segment covering the whole remainder —
/// before falling back to binary search.
#[inline]
pub(crate) fn split_at(rows: &[usize], idx: usize, end: usize, hi: usize) -> usize {
    if rows[end - 1] <= hi {
        end
    } else {
        idx + rows[idx..end].partition_point(|&r| r <= hi)
    }
}

/// Advances `idx` to the first segment whose interval reaches row `i`
/// (caller guarantees one exists). A few linear steps cover the dense-run
/// common case; sparse columns inside wide segmentations — where stored
/// rows skip dozens of segments at a time — fall through to a binary
/// search so the advance is logarithmic, not linear, in the skip length.
#[inline]
pub(crate) fn advance(segs: &[(Interval, u32)], mut idx: usize, i: usize) -> usize {
    let mut linear = 0;
    while segs[idx].0.hi < i {
        idx += 1;
        linear += 1;
        if linear == 4 {
            return idx + segs[idx..].partition_point(|s| s.0.hi < i);
        }
    }
    idx
}

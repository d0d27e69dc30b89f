//! Pinned equivalence for the unit layout: the closed-form work tally and
//! segment-walk ownership map of `Partition::build` must agree with the
//! per-operation oracle, at the sizes where the closed form matters.
//!
//! The oracle, `Partition::element_work`, enumerates every update pair
//! and scaling (`ops::for_each_update` / `ops::for_each_scaling`) and
//! charges each to its target's owner through `Partition::unit_of`. The
//! owners themselves are checked against unit geometry. The cases are
//! the five paper matrices and a 10⁴-column Laplacian grid, each at
//! grain 4 and 25 plus the one-column-per-unit layout of the wrap scheme.
//! `scripts/verify.sh` runs this file with `--release`.

use spfactor::matrix::gen::paper;
use spfactor::matrix::SymmetricPattern;
use spfactor::order::{order_with_engine, OrderEngine, Ordering};
use spfactor::partition::{Partition, PartitionParams, UnitShape};
use spfactor::symbolic::SymbolicFactor;

fn factor_of(pattern: &SymmetricPattern) -> SymbolicFactor {
    let perm = order_with_engine(pattern, Ordering::paper_default(), OrderEngine::Compressed);
    SymbolicFactor::from_pattern(&pattern.permute(&perm))
}

fn assert_layout_matches_oracle(f: &SymbolicFactor, part: &Partition, name: &str) {
    // Per-unit work against the per-operation tally.
    let work = part.element_work(f);
    for (u, &w) in part.units.iter().zip(&work) {
        assert_eq!(u.work, w, "{name}: work of unit {}", u.id);
    }
    assert_eq!(part.total_work(), f.paper_work(), "{name}: total work");
    // Per-unit element counts against the ownership map.
    let mut elements = vec![0usize; part.num_units()];
    for &u in part.owner_map() {
        elements[u as usize] += 1;
    }
    for (u, &e) in part.units.iter().zip(&elements) {
        assert_eq!(u.elements, e, "{name}: elements of unit {}", u.id);
    }
    // Every owner's geometry contains its entry.
    for id in 0..f.num_entries() {
        let (i, j) = f.entry_coords(id);
        let unit = &part.units[part.owner_map()[id] as usize];
        let inside = match unit.shape {
            UnitShape::Column { col } => col == j,
            UnitShape::Triangle { extent } => extent.contains(i) && extent.contains(j),
            UnitShape::Rectangle { cols, rows } => i != j && cols.contains(j) && rows.contains(i),
        };
        assert!(inside, "{name}: ({i}, {j}) owned by {:?}", unit.shape);
    }
}

fn check_all_layouts(pattern: &SymmetricPattern, name: &str) {
    let f = factor_of(pattern);
    for grain in [4usize, 25] {
        let part = Partition::build(&f, &PartitionParams::with_grain(grain));
        assert_layout_matches_oracle(&f, &part, &format!("{name} g={grain}"));
    }
    assert_layout_matches_oracle(&f, &Partition::columns(&f), &format!("{name} columns"));
}

#[test]
fn unit_layout_matches_oracle_on_paper_matrices() {
    for m in paper::all() {
        check_all_layouts(&m.pattern, m.name);
    }
}

#[test]
fn unit_layout_matches_oracle_on_lap100() {
    let m = paper::lap_grid(100);
    assert_eq!(m.pattern.n(), 10_000);
    check_all_layouts(&m.pattern, m.name);
}

//! The strided rank-shifted workload of `tests/engine_equivalence.rs`,
//! promoted from a private test struct to a shared spec so other suites
//! (and the property generators that wrap it) describe it once.

use flexio_types::{Datatype, Dt};

/// A randomized per-rank access pattern: strided blocks, rank-shifted.
#[derive(Debug, Clone)]
pub struct StridedSpec {
    /// World size.
    pub nprocs: usize,
    /// Data bytes per filetype block.
    pub block: u64,
    /// Hole after each block.
    pub gap: u64,
    /// Filetype instances written per rank.
    pub count: u64,
    /// Per-rank view displacement unit (usually `block + gap`).
    pub disp_unit: u64,
}

impl StridedSpec {
    /// The shared filetype: one `block` every `(block+gap)*nprocs` bytes.
    pub fn filetype(&self) -> Dt {
        let unit = (self.block + self.gap) * self.nprocs as u64;
        Datatype::resized(0, unit, Datatype::bytes(self.block))
    }

    /// Rank `r`'s view displacement.
    pub fn disp(&self, rank: usize) -> u64 {
        rank as u64 * self.disp_unit
    }

    /// Data bytes each rank writes.
    pub fn bytes_per_rank(&self) -> u64 {
        self.block * self.count
    }

    /// Rank `r`'s deterministic payload (the historic byte formula of the
    /// equivalence suite — its recorded counterexample replays with it).
    pub fn data(&self, rank: usize) -> Vec<u8> {
        (0..self.bytes_per_rank())
            .map(|i| ((rank as u64 * 89 + i * 13 + 5) % 247) as u8)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filetype_tiles_do_not_overlap_across_ranks() {
        let w = StridedSpec { nprocs: 3, block: 4, gap: 2, count: 5, disp_unit: 6 };
        // Rank tiles land at disp + k*unit: byte ranges must be disjoint.
        let unit = (w.block + w.gap) * w.nprocs as u64;
        let mut seen = std::collections::BTreeSet::new();
        for r in 0..w.nprocs {
            for k in 0..w.count {
                for b in 0..w.block {
                    assert!(seen.insert(w.disp(r) + k * unit + b), "overlap at rank {r}");
                }
            }
        }
    }

    #[test]
    fn data_formula_is_pinned() {
        let w = StridedSpec { nprocs: 2, block: 3, gap: 0, count: 1, disp_unit: 3 };
        assert_eq!(w.data(0), vec![5, 18, 31]);
        assert_eq!(w.data(1), vec![94, 107, 120]);
    }
}

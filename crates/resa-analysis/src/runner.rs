//! The experiment runner: one fan-out point for every sweep.
//!
//! The paper's experimental sections need thousands of simulated runs per
//! figure; this module turns each figure/table sweep into a list of
//! self-contained cells and maps them either sequentially or across all
//! cores (through the workspace's `rayon` stand-in, which executes on scoped
//! OS threads).
//!
//! **Determinism.** Parallel and sequential runs produce *identical* rows in
//! *identical* order: every cell derives its randomness from its own seed
//! (never from shared mutable state or the thread schedule), and the
//! parallel map preserves input order, so seed `s`, cell `i` always sees
//! the same stream no matter which thread runs it.

use crate::figures::{
    figure1_cell, figure1_witness, figure2_cell, figure3_cell, Fig1Row, Fig2Row, Fig3Row,
};
use rayon::prelude::*;

/// Sequential-or-parallel driver for figure and table sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentRunner {
    parallel: bool,
}

impl ExperimentRunner {
    /// Fan cells out across every available core.
    pub fn parallel() -> Self {
        ExperimentRunner { parallel: true }
    }

    /// Run cells in order on the calling thread (the reference mode the
    /// parallel mode is asserted against).
    pub fn sequential() -> Self {
        ExperimentRunner { parallel: false }
    }

    /// Map `f` over `items`, preserving input order. The unit of work is one
    /// item; `f` must be self-contained (see the module docs on
    /// determinism).
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        if self.parallel {
            items.par_iter().map(f).collect()
        } else {
            items.iter().map(f).collect()
        }
    }

    /// The Figure-1 series (3-PARTITION reduction): one cell per `k`, plus
    /// the unsatisfiable witness.
    pub fn figure1(&self, ks: &[usize], target: u64, rho: u64, seed: u64) -> Vec<Fig1Row> {
        let mut rows = self.map(ks, |&k| figure1_cell(k, target, rho, seed));
        rows.extend(figure1_witness(rho));
        rows
    }

    /// The Figure-2 series (non-increasing staircases): one cell per
    /// `(machines, seed)` pair.
    pub fn figure2(
        &self,
        machines_list: &[u32],
        jobs_per_instance: usize,
        seeds: &[u64],
    ) -> Vec<Fig2Row> {
        let cells: Vec<(u32, u64)> = machines_list
            .iter()
            .flat_map(|&m| seeds.iter().map(move |&s| (m, s)))
            .collect();
        self.map(&cells, |&(m, s)| figure2_cell(m, jobs_per_instance, s))
    }

    /// The Figure-3 series (Proposition-2 adversaries): one cell per `k`.
    pub fn figure3(&self, ks: &[u32]) -> Vec<Fig3Row> {
        self.map(ks, |&k| figure3_cell(k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_equals_sequential_on_every_figure() {
        let seq = ExperimentRunner::sequential();
        let par = ExperimentRunner::parallel();

        let f1s = seq.figure1(&[2, 3], 10, 2, 1);
        let f1p = par.figure1(&[2, 3], 10, 2, 1);
        assert_eq!(f1s.len(), f1p.len());
        for (a, b) in f1s.iter().zip(&f1p) {
            assert_eq!((a.k, a.optimal, a.lsrc), (b.k, b.optimal, b.lsrc));
        }

        let f2s = seq.figure2(&[6, 10], 8, &[1, 2]);
        let f2p = par.figure2(&[6, 10], 8, &[1, 2]);
        assert_eq!(f2s.len(), 4);
        for (a, b) in f2s.iter().zip(&f2p) {
            assert_eq!(
                (a.machines, a.lsrc, a.reference),
                (b.machines, b.lsrc, b.reference)
            );
            assert_eq!(a.ratio.to_bits(), b.ratio.to_bits());
        }

        let f3s = seq.figure3(&[3, 4, 5]);
        let f3p = par.figure3(&[3, 4, 5]);
        for (a, b) in f3s.iter().zip(&f3p) {
            assert_eq!((a.k, a.lsrc, a.optimal), (b.k, b.lsrc, b.optimal));
        }
    }

    #[test]
    fn map_preserves_order_and_results() {
        let items: Vec<u64> = (0..500).collect();
        let seq = ExperimentRunner::sequential().map(&items, |&x| x * x);
        let par = ExperimentRunner::parallel().map(&items, |&x| x * x);
        assert_eq!(seq, par);
    }
}

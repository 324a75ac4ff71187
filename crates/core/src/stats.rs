//! Prover-side statistics (paper Figs. 14–16).

use lvq_merkle::BmtProofStats;

use crate::fragment::BlockFragment;

/// How many fragments of each kind a response carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FragmentCounts {
    /// Clean per-block entries (paper's Ø fragments).
    pub empty: u64,
    /// Strawman Merkle-branch fragments.
    pub merkle_branches: u64,
    /// LVQ existence proofs.
    pub existence: u64,
    /// LVQ SMT inexistence proofs (FPM resolutions).
    pub absence_smt: u64,
    /// Integral blocks.
    pub integral_blocks: u64,
}

impl FragmentCounts {
    /// Records one fragment.
    pub fn record(&mut self, fragment: &BlockFragment) {
        match fragment {
            BlockFragment::Empty => self.empty += 1,
            BlockFragment::MerkleBranches(_) => self.merkle_branches += 1,
            BlockFragment::Existence(_) => self.existence += 1,
            BlockFragment::AbsenceSmt(_) => self.absence_smt += 1,
            BlockFragment::IntegralBlock(_) => self.integral_blocks += 1,
        }
    }

    /// Total non-empty fragments.
    pub fn resolved_blocks(&self) -> u64 {
        self.merkle_branches + self.existence + self.absence_smt + self.integral_blocks
    }
}

/// Everything the prover observed while answering one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProverStats {
    /// BMT proof statistics over all segments of a
    /// [`crate::Prover::respond`] or `respond_range` query (zero for
    /// per-block schemes). `bmt.endpoint_count()` is the quantity of
    /// paper Figs. 15/16.
    pub bmt: BmtProofStats,
    /// The same statistics for a `respond_batch` or `respond_batch_range`
    /// query, whose shared proofs serve every address at once.
    pub batch_bmt: BmtProofStats,
    /// Fragment census.
    pub fragments: FragmentCounts,
    /// Blocks whose bodies the prover had to consult.
    pub blocks_resolved: u64,
    /// Blocks where the filter matched but the address was absent — the
    /// paper's FPM cases.
    pub fpm_blocks: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fragment_census() {
        let mut counts = FragmentCounts::default();
        counts.record(&BlockFragment::Empty);
        counts.record(&BlockFragment::Empty);
        counts.record(&BlockFragment::MerkleBranches(Vec::new()));
        assert_eq!(counts.empty, 2);
        assert_eq!(counts.merkle_branches, 1);
        assert_eq!(counts.resolved_blocks(), 1);
    }
}

//! Experiment scales.

use lvq_workload::{probes, ProbeSpec, TrafficModel};

/// How big an experiment run is.
///
/// `Paper` mirrors the evaluation setup of §VII (4,096 blocks,
/// late-2012 traffic, 10/30 KB filters). `Small` shrinks everything by
/// ~16× in block count and proportionally in filter size so that Bloom
/// fill ratios — and therefore every *shape* the figures show — are
/// preserved while a full run takes seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Fast, shape-preserving runs for CI and the golden figure test.
    Small,
    /// The paper's full setup.
    Paper,
}

impl Scale {
    /// Parses `"small"` / `"paper"`.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "small" => Some(Scale::Small),
            "paper" | "full" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// Chain length (paper: 4,096 blocks at heights 204,800–208,895,
    /// re-indexed here from 1).
    pub fn blocks(self) -> u64 {
        match self {
            Scale::Small => 256,
            Scale::Paper => 4096,
        }
    }

    /// Background traffic model.
    pub fn traffic(self) -> TrafficModel {
        match self {
            Scale::Small => TrafficModel::tiny(),
            Scale::Paper => TrafficModel::mainnet_2012(),
        }
    }

    /// Per-block filter size for the non-BMT schemes (paper: 10 KB).
    pub fn per_block_bf(self) -> u32 {
        match self {
            Scale::Small => 640,
            Scale::Paper => 10_000,
        }
    }

    /// Filter size for the BMT schemes (paper: 30 KB).
    pub fn bmt_bf(self) -> u32 {
        match self {
            Scale::Small => 1_920,
            Scale::Paper => 30_000,
        }
    }

    /// Number of Bloom hash functions (paper: "default"; DESIGN.md §6).
    pub fn hashes(self) -> u32 {
        2
    }

    /// The Fig. 13/14/15 filter-size sweep (paper: 10–500 KB).
    pub fn bf_sweep(self) -> Vec<u32> {
        match self {
            Scale::Small => vec![640, 1_920, 3_200, 6_400, 12_800, 32_000],
            Scale::Paper => vec![
                10_000, 30_000, 50_000, 100_000, 200_000, 300_000, 400_000, 500_000,
            ],
        }
    }

    /// The Fig. 16 segment-length sweep (paper: 1–4,096).
    pub fn m_sweep(self) -> Vec<u64> {
        let max = self.blocks();
        let mut m = 1;
        let mut out = Vec::new();
        while m <= max {
            out.push(m);
            m *= 2;
        }
        out
    }

    /// The Table III probes, scaled to the chain length.
    pub fn probes(self) -> Vec<ProbeSpec> {
        probes::table3_scaled(self.blocks())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_matches_evaluation_setup() {
        let s = Scale::Paper;
        assert_eq!(s.blocks(), 4096);
        assert_eq!(s.per_block_bf(), 10_000);
        assert_eq!(s.bmt_bf(), 30_000);
        assert_eq!(s.bf_sweep().first(), Some(&10_000));
        assert_eq!(s.bf_sweep().last(), Some(&500_000));
        assert_eq!(
            s.m_sweep(),
            vec![1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096]
        );
        assert_eq!(s.probes(), probes::table3());
    }

    #[test]
    fn small_scale_preserves_bits_per_block_ratio() {
        // bits-per-expected-address within ~2× of the paper setup so fill
        // ratios (and figure shapes) carry over.
        let paper_ratio = Scale::Paper.per_block_bf() as f64 / 500.0;
        let small_ratio = Scale::Small.per_block_bf() as f64 / 30.0;
        assert!(small_ratio / paper_ratio < 2.0 && paper_ratio / small_ratio < 2.0);
    }

    #[test]
    fn parse_names() {
        assert_eq!(Scale::parse("small"), Some(Scale::Small));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("full"), Some(Scale::Paper));
        assert_eq!(Scale::parse("big"), None);
    }
}

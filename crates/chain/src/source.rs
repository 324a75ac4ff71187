//! Pluggable block storage behind a [`Chain`](crate::Chain).
//!
//! The chain's derived state (headers, address tables, span hashes) is
//! small and always lives in memory; the blocks themselves — the bulk of
//! a real node's storage — sit behind the [`BlockSource`] trait so a
//! chain can be served either from a fully deserialized in-memory vector
//! ([`InMemoryBlocks`]) or lazily from an on-disk store (the
//! `lvq-store` crate's `DiskBlockSource`).

use std::fmt;
use std::sync::Arc;

use crate::block::Block;
use crate::chain::CacheStats;
use crate::error::ChainError;

/// Random- and sequential-access block storage for a chain.
///
/// Heights are 1-based, matching [`crate::Chain::block`]. Implementations
/// must be cheap to call concurrently: provers materialize blocks from
/// many server worker threads at once.
pub trait BlockSource: Send + Sync + fmt::Debug {
    /// Number of blocks stored (the chain's tip height).
    fn len(&self) -> u64;

    /// `true` if no blocks are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The block at `height` (1-based).
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::UnknownHeight`] outside `1..=len` and
    /// [`ChainError::Source`] if the backing storage fails.
    fn block(&self, height: u64) -> Result<Arc<Block>, ChainError>;

    /// Visits every block in height order.
    ///
    /// The default delegates to [`BlockSource::block`]; disk-backed
    /// implementations override it with a sequential scan that bypasses
    /// the block cache, so a full-chain pass does not evict the hot set.
    ///
    /// # Errors
    ///
    /// Propagates the first error from the storage or from `visit`.
    fn scan(
        &self,
        visit: &mut dyn FnMut(u64, &Block) -> Result<(), ChainError>,
    ) -> Result<(), ChainError> {
        for height in 1..=self.len() {
            let block = self.block(height)?;
            visit(height, &block)?;
        }
        Ok(())
    }

    /// Appends `block` as the new tip (height `len() + 1`).
    ///
    /// Linkage and content validation happen in the chain layer —
    /// sources store whatever they are handed, exactly like the initial
    /// build path. The default refuses, so read-only sources cannot be
    /// grown by accident.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::Source`] if the source does not support
    /// appends or the backing storage fails.
    fn push_block(&mut self, block: Arc<Block>) -> Result<(), ChainError> {
        let _ = block;
        Err(ChainError::Source {
            detail: "block source does not support appends".into(),
        })
    }

    /// Discards every block above `height`, so `len()` becomes
    /// `height`. This is the reorg rewind primitive; the default
    /// refuses, so read-only sources cannot lose blocks by accident.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::UnknownHeight`] if `height > len()` and
    /// [`ChainError::Source`] if the source does not support truncation
    /// or the backing storage fails.
    fn truncate(&mut self, height: u64) -> Result<(), ChainError> {
        let _ = height;
        Err(ChainError::Source {
            detail: "block source does not support truncation".into(),
        })
    }

    /// Approximate bytes of block data currently resident in memory —
    /// the whole chain for [`InMemoryBlocks`], the cache occupancy for a
    /// disk-backed source.
    fn resident_bytes(&self) -> u64;

    /// Hit/miss statistics of the source's block cache, if it has one.
    fn cache_stats(&self) -> CacheStats {
        CacheStats::default()
    }
}

/// The classic fully-resident source: every block deserialized in a
/// vector. This is what [`crate::ChainBuilder::finish`] produces.
#[derive(Debug, Default)]
pub struct InMemoryBlocks {
    pub(crate) blocks: Vec<Arc<Block>>,
    total_bytes: u64,
}

impl InMemoryBlocks {
    /// Wraps an ordered block vector (index 0 is height 1).
    pub fn new(blocks: Vec<Block>) -> Self {
        let total_bytes = blocks
            .iter()
            .map(|b| lvq_codec::Encodable::encoded_len(b) as u64)
            .sum();
        InMemoryBlocks {
            blocks: blocks.into_iter().map(Arc::new).collect(),
            total_bytes,
        }
    }
}

impl BlockSource for InMemoryBlocks {
    fn len(&self) -> u64 {
        self.blocks.len() as u64
    }

    fn block(&self, height: u64) -> Result<Arc<Block>, ChainError> {
        if height == 0 || height > self.len() {
            return Err(ChainError::UnknownHeight { height });
        }
        Ok(self.blocks[(height - 1) as usize].clone())
    }

    fn scan(
        &self,
        visit: &mut dyn FnMut(u64, &Block) -> Result<(), ChainError>,
    ) -> Result<(), ChainError> {
        for (i, block) in self.blocks.iter().enumerate() {
            visit(i as u64 + 1, block)?;
        }
        Ok(())
    }

    fn push_block(&mut self, block: Arc<Block>) -> Result<(), ChainError> {
        self.total_bytes += lvq_codec::Encodable::encoded_len(&*block) as u64;
        self.blocks.push(block);
        Ok(())
    }

    fn truncate(&mut self, height: u64) -> Result<(), ChainError> {
        if height > self.len() {
            return Err(ChainError::UnknownHeight { height });
        }
        for block in self.blocks.drain(height as usize..) {
            self.total_bytes -= lvq_codec::Encodable::encoded_len(&*block) as u64;
        }
        Ok(())
    }

    fn resident_bytes(&self) -> u64 {
        self.total_bytes
    }
}

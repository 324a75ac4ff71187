//! Pluggable storage for the chain's per-block derived state.
//!
//! The blocks themselves already sit behind [`crate::BlockSource`]; this
//! module does the same for the *derived* state every query touches —
//! the sorted per-block `(address, distinct-tx count)` tables that feed
//! span filters and SMTs. With the in-memory default the chain behaves
//! exactly as it always has (tables rebuilt on open, resident forever);
//! with a persistent implementation (the `lvq-store` crate's
//! authenticated `IndexedTables`) the tables live in a Merkle AVL index
//! on disk, reopen is a root-record read instead of a chain replay, and
//! per-address presence queries become index point reads.

use std::fmt;
use std::sync::Arc;

use lvq_crypto::Hash256;

use crate::address::Address;
use crate::chain::CacheStats;
use crate::error::ChainError;
use crate::header::BlockHeader;

/// One finalised dyadic BMT span produced while absorbing a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// First height of the span (1-based, inclusive).
    pub lo: u64,
    /// Last height of the span (inclusive).
    pub hi: u64,
    /// The committed BMT node hash of the span.
    pub hash: Hash256,
}

/// Everything the chain derives from one absorbed block, handed to the
/// table source in a single call so persistent implementations can
/// apply it as one atomic batch.
#[derive(Debug)]
pub struct TableUpdate<'a> {
    /// Height of the absorbed block (1-based; always `len() + 1`).
    pub height: u64,
    /// The block's header.
    pub header: &'a BlockHeader,
    /// The block's sorted `(address, distinct-tx count)` table.
    pub table: Arc<Vec<(Address, u64)>>,
    /// Dyadic BMT spans this block finalised (empty for non-BMT
    /// policies and for blocks that close no span).
    pub new_spans: &'a [SpanRecord],
}

/// Storage for per-block derived state behind a [`crate::Chain`].
///
/// Heights are 1-based like everything else. Implementations must be
/// cheap to call concurrently from reads (`table`, `presence`) — server
/// workers hit them from many threads — while `push` is only ever
/// called by the chain's single writer.
pub trait TableSource: Send + Sync + fmt::Debug {
    /// Number of blocks whose derived state is stored (the tip height
    /// this source is consistent with).
    fn len(&self) -> u64;

    /// `true` if nothing is stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The sorted `(address, distinct-tx count)` table of the block at
    /// `height`.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::UnknownHeight`] outside `1..=len` and
    /// [`ChainError::Source`] if the backing storage fails or fails
    /// verification.
    fn table(&self, height: u64) -> Result<Arc<Vec<(Address, u64)>>, ChainError>;

    /// Absorbs the derived state of the block at `len() + 1`.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::Source`] if the backing storage fails; on
    /// error the source must still report its previous `len()`.
    fn push(&mut self, update: TableUpdate<'_>) -> Result<(), ChainError>;

    /// The heights (ascending) at which `address` appears, with its
    /// distinct-tx count per height — `Ok(None)` if this source keeps
    /// no per-address index (the chain then falls back to a full scan).
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::Source`] if the backing storage fails.
    fn presence(&self, address: &Address) -> Result<Option<Vec<(u64, u64)>>, ChainError> {
        let _ = address;
        Ok(None)
    }

    /// Makes everything pushed so far durable and anchors it at
    /// `tip_height` (a no-op for in-memory sources). Called by ingest
    /// pipelines *after* the corresponding blocks are durable in the
    /// block store, so the index can never lead the chain.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::Source`] on storage failure.
    fn sync(&self, tip_height: u64) -> Result<(), ChainError> {
        let _ = tip_height;
        Ok(())
    }

    /// Discards every block's derived state above `height`, so `len()`
    /// becomes `height`. This is the reorg rewind primitive; the
    /// default refuses, so sources without rewind support cannot lose
    /// state by accident.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::UnknownHeight`] if `height > len()` and
    /// [`ChainError::Source`] if the source does not support truncation
    /// or the backing storage fails.
    fn truncate(&mut self, height: u64) -> Result<(), ChainError> {
        let _ = height;
        Err(ChainError::Source {
            detail: "table source does not support truncation".into(),
        })
    }

    /// Hit/miss statistics of the source's node cache, if it has one.
    fn cache_stats(&self) -> CacheStats {
        CacheStats::default()
    }

    /// Empties the source's cache (counters keep counting).
    fn clear_cache(&self) {}

    /// Re-budgets the source's cache, dropping cached entries.
    fn set_cache_budget(&self, budget_bytes: usize) {
        let _ = budget_bytes;
    }

    /// Approximate bytes of derived state resident in memory.
    fn resident_bytes(&self) -> u64 {
        0
    }
}

/// The classic fully-resident table source: every per-block table in a
/// vector, exactly what the chain kept inline before the index existed.
#[derive(Debug, Default)]
pub struct InMemoryTables {
    tables: Vec<Arc<Vec<(Address, u64)>>>,
    total_bytes: u64,
}

fn table_bytes(table: &[(Address, u64)]) -> u64 {
    table
        .iter()
        .map(|(addr, _)| addr.as_bytes().len() as u64 + 16)
        .sum()
}

impl InMemoryTables {
    /// An empty source.
    pub fn new() -> Self {
        InMemoryTables::default()
    }
}

impl TableSource for InMemoryTables {
    fn len(&self) -> u64 {
        self.tables.len() as u64
    }

    fn table(&self, height: u64) -> Result<Arc<Vec<(Address, u64)>>, ChainError> {
        if height == 0 || height > self.len() {
            return Err(ChainError::UnknownHeight { height });
        }
        Ok(self.tables[(height - 1) as usize].clone())
    }

    fn push(&mut self, update: TableUpdate<'_>) -> Result<(), ChainError> {
        debug_assert_eq!(update.height, self.len() + 1);
        self.total_bytes += table_bytes(&update.table);
        self.tables.push(update.table);
        Ok(())
    }

    fn truncate(&mut self, height: u64) -> Result<(), ChainError> {
        if height > self.len() {
            return Err(ChainError::UnknownHeight { height });
        }
        for table in self.tables.drain(height as usize..) {
            self.total_bytes -= table_bytes(&table);
        }
        Ok(())
    }

    fn resident_bytes(&self) -> u64 {
        self.total_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(entries: &[(&str, u64)]) -> Arc<Vec<(Address, u64)>> {
        Arc::new(
            entries
                .iter()
                .map(|(a, c)| (Address::new(*a), *c))
                .collect(),
        )
    }

    #[test]
    fn in_memory_tables_roundtrip() {
        let mut tables = InMemoryTables::new();
        assert!(tables.is_empty());
        let header = crate::Block::new_unchained(vec![crate::Transaction::coinbase(
            Address::new("1Miner"),
            50,
            1,
        )])
        .header;
        for (h, t) in [
            table(&[("1Alice", 2), ("1Miner", 1)]),
            table(&[("1Miner", 1)]),
        ]
        .into_iter()
        .enumerate()
        {
            tables
                .push(TableUpdate {
                    height: h as u64 + 1,
                    header: &header,
                    table: t,
                    new_spans: &[],
                })
                .unwrap();
        }
        assert_eq!(tables.len(), 2);
        assert_eq!(tables.table(1).unwrap().len(), 2);
        assert_eq!(tables.table(2).unwrap().len(), 1);
        assert!(matches!(
            tables.table(3),
            Err(ChainError::UnknownHeight { height: 3 })
        ));
        assert!(tables.resident_bytes() > 0);
        // No per-address index on the in-memory source.
        assert_eq!(tables.presence(&Address::new("1Alice")).unwrap(), None);
    }
}

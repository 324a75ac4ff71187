//! A full node whose chain grows while it serves.
//!
//! [`crate::FullNode`] answers queries through `&self` and is shared
//! across a [`crate::NodeServer`]'s whole worker pool, so its chain is
//! frozen at whatever tip it had when the server was bound — a node
//! following the live network cannot use it directly. [`LiveNode`]
//! wraps the full node in a reader-writer lock:
//!
//! * every request is answered under a **read** lock held for the whole
//!   exchange, so the proving height a query observes is pinned — a
//!   proof never straddles a mid-append tip, and the headers, the BMT
//!   spans, and the per-block witnesses it combines all describe one
//!   consistent chain state;
//! * the ingest pipeline ([`crate::TipIngester`]) extends the chain
//!   under the **write** lock, which waits for in-flight proofs and
//!   blocks new ones only for the duration of the (cheap, incremental)
//!   [`lvq_chain::Chain::extend_batch`] call — the expensive parts of
//!   ingest (fetching, decoding, appending to the store) happen outside
//!   the lock.
//!
//! A client that wants end-to-end stability across *several* requests
//! pins its own height: it syncs headers, notes the tip `T`, and issues
//! range queries clamped to `T` ([`crate::QuerySpec::range`]) — the
//! server keeps growing underneath, but everything at or below `T` is
//! immutable.

use std::sync::Arc;

use lvq_chain::{BlockSource, ChainError, InMemoryBlocks, InMemoryTables, TableSource};
use lvq_core::SchemeConfig;
use lvq_crypto::Hash256;
use parking_lot::RwLock;

use crate::full::{FullNode, Handled};
use crate::server::ServeNode;

/// A [`FullNode`] behind a reader-writer lock: queries share read
/// access, the ingester extends the chain under write access. See the
/// module docs for the consistency discipline.
#[derive(Debug)]
pub struct LiveNode<S: BlockSource = InMemoryBlocks, T: TableSource = InMemoryTables> {
    inner: RwLock<FullNode<S, T>>,
}

impl<S: BlockSource, T: TableSource> LiveNode<S, T> {
    /// Wraps a full node for concurrent serve-while-growing use.
    pub fn new(node: FullNode<S, T>) -> Self {
        LiveNode {
            inner: RwLock::new(node),
        }
    }

    /// The scheme the node serves (immutable over the node's life).
    pub fn config(&self) -> SchemeConfig {
        self.inner.read().config()
    }

    /// The currently served tip height.
    pub fn tip_height(&self) -> u64 {
        self.inner.read().chain().tip_height()
    }

    /// Hash of the currently served tip header — what the next
    /// ingested block's `prev_block` must carry.
    pub fn tip_hash(&self) -> Hash256 {
        self.inner.read().chain().tip_hash()
    }

    /// Runs `f` against the node under the read lock — e.g. for
    /// ground-truth checks or the chain's cache statistics. The chain
    /// cannot advance while `f` runs; keep it short.
    pub fn with_node<R>(&self, f: impl FnOnce(&FullNode<S, T>) -> R) -> R {
        f(&self.inner.read())
    }

    /// Absorbs up to `max` blocks the node's block source has gained,
    /// under the write lock. Returns how many were absorbed.
    ///
    /// # Errors
    ///
    /// Propagates [`ChainError`] from [`FullNode::extend_batch`]; the
    /// chain stays at the last successfully absorbed height and keeps
    /// serving there.
    pub fn extend_batch(&self, max: u64) -> Result<u64, ChainError> {
        self.inner.write().extend_batch(max)
    }

    /// Flushes the chain's table source and anchors it at the served
    /// tip, under the read lock (durability needs no exclusivity — the
    /// table source synchronizes internally, and extension only happens
    /// under the write lock, which excludes this).
    ///
    /// # Errors
    ///
    /// Propagates [`ChainError::Source`] on storage failure.
    pub fn sync_derived(&self) -> Result<(), ChainError> {
        self.inner.read().sync_derived()
    }

    /// Switches the served chain to a competing branch under the write
    /// lock (see [`FullNode::reorg_to`]). In-flight proofs finish
    /// against the old branch before the switch; every request that
    /// starts afterwards observes the new one — no proof ever mixes
    /// headers from both. Returns the new tip height.
    ///
    /// # Errors
    ///
    /// As [`lvq_chain::Chain::reorg_to`].
    pub fn reorg_to(
        &self,
        fork_height: u64,
        branch: &[Arc<lvq_chain::Block>],
    ) -> Result<u64, ChainError> {
        self.inner.write().reorg_to(fork_height, branch)
    }

    /// Unwraps the inner full node (e.g. after ingest has stopped).
    pub fn into_inner(self) -> FullNode<S, T> {
        self.inner.into_inner()
    }
}

impl<S: BlockSource + 'static, T: TableSource + 'static> ServeNode for LiveNode<S, T> {
    /// Answers under the read lock held for the whole exchange, so the
    /// proving height is pinned for this request.
    fn handle_classified(&self, request: &[u8]) -> Handled {
        self.inner.read().handle_classified(request)
    }

    fn tip_hash(&self) -> Hash256 {
        LiveNode::tip_hash(self)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use lvq_chain::Address;
    use lvq_codec::{decode_exact, Encodable};

    use super::*;
    use crate::message::Message;
    use crate::testutil::live_fixture;

    #[test]
    fn extension_is_visible_to_get_headers_from() {
        let fixture = live_fixture("live-headers", 6, 10);
        let (live, store) = (Arc::clone(&fixture.live), Arc::clone(&fixture.store));
        let pending = fixture.pending().to_vec();
        assert_eq!(live.tip_height(), 6);

        // Pin our header at the probe height, as a real client would.
        let request = Message::GetHeadersFrom {
            height: 6,
            tip_hash: live.tip_hash(),
        }
        .encode();
        let handled = live.handle_classified(&request);
        let Ok(Message::Headers(headers)) = decode_exact::<Message>(&handled.bytes) else {
            panic!("expected headers");
        };
        assert!(headers.is_empty(), "nothing beyond the tip yet");

        for block in &pending {
            store.append(block).unwrap();
        }
        assert_eq!(live.extend_batch(64).unwrap(), 4);
        assert_eq!(live.tip_height(), 10);

        let handled = live.handle_classified(&request);
        let Ok(Message::Headers(headers)) = decode_exact::<Message>(&handled.bytes) else {
            panic!("expected headers");
        };
        assert_eq!(headers.len(), 4, "the live tip is served incrementally");
    }

    #[test]
    fn concurrent_queries_verify_while_the_chain_grows() {
        let fixture = live_fixture("live-concurrent", 4, 10);
        let (live, store) = (Arc::clone(&fixture.live), Arc::clone(&fixture.store));
        let pending = fixture.pending().to_vec();
        let config = live.config();
        let mut handles = Vec::new();
        for _ in 0..3 {
            let live = Arc::clone(&live);
            handles.push(std::thread::spawn(move || {
                let mut transport = crate::LocalTransport::new(&*live);
                let mut light = crate::LightNode::sync_from(&mut transport, config).unwrap();
                let spec = crate::QuerySpec::address(Address::new("1Miner"));
                for _ in 0..20 {
                    // Pin the proving height to the client's own synced
                    // tip: the verified history must be exactly that
                    // prefix, whatever the server's tip is by now.
                    let tip = light.client().tip_height();
                    let run = light
                        .run(&spec.clone().range(1, tip), &mut transport)
                        .unwrap();
                    assert_eq!(run.histories[0].transactions.len(), tip as usize);
                    light.sync_new(&mut transport).unwrap();
                }
            }));
        }
        for block in &pending {
            store.append(block).unwrap();
            live.extend_batch(1).unwrap();
            std::thread::yield_now();
        }
        for handle in handles {
            handle.join().expect("query thread panicked");
        }
        assert_eq!(live.tip_height(), 10);
    }
}

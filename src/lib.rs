//! # LVQ — Lightweight Verifiable Queries for Bitcoin Transaction History
//!
//! A from-scratch Rust reproduction of *“LVQ: A Lightweight Verifiable
//! Query Approach for Transaction History in Bitcoin”* (Dai, Xiao, Yang,
//! Wang, Chang, Han, Jin — ICDCS 2020).
//!
//! A Bitcoin light node stores only block headers; to learn the history
//! of an address it must ask a full node it does not trust. LVQ makes
//! the answer *verifiable* — both **correct** (every returned
//! transaction is on-chain, via Merkle branches) and **complete** (no
//! transaction was omitted, via Bloom-filter and Sorted-Merkle-Tree
//! inexistence proofs) — while staying *lightweight* in both light-node
//! storage (32-byte header commitments instead of multi-KB filters) and
//! network transfer (merged BMT branches instead of per-block filters).
//!
//! This crate is a facade: it re-exports the workspace's crates under
//! one roof and hosts the runnable examples and cross-crate integration
//! tests.
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`codec`] | `lvq-codec` | canonical wire encoding; all measured byte counts |
//! | [`crypto`] | `lvq-crypto` | SHA-256, MurmurHash3, Base58Check, [`Hash256`] |
//! | [`bloom`] | `lvq-bloom` | BIP 37-style Bloom filters with union and FPR analysis |
//! | [`merkle`] | `lvq-merkle` | MT, SMT and BMT trees with their proof systems |
//! | [`chain`] | `lvq-chain` | the Bitcoin-like substrate: blocks, headers, chain building |
//! | [`store`] | `lvq-store` | crash-safe on-disk block store: segmented CRC-framed files, torn-tail recovery, serve-from-disk [`chain::BlockSource`] |
//! | [`core`] | `lvq-core` | the LVQ protocol: schemes, segmenting, prover, light client |
//! | [`node`] | `lvq-node` | full/light node pair over pluggable transports: in-process metered pipe or framed TCP with a bounded worker-pool server |
//! | [`workload`] | `lvq-workload` | deterministic mainnet-like workloads, Table III probes |
//!
//! # Quickstart
//!
//! ```
//! use lvq::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A small LVQ-committed chain with one interesting address.
//! let config = SchemeConfig::new(Scheme::Lvq, BloomParams::new(256, 2)?, 8)?;
//! let mut builder = ChainBuilder::new(config.chain_params())?;
//! let shop = Address::new("1CoffeeShop");
//! for h in 1..=8u32 {
//!     let mut txs = vec![Transaction::coinbase(Address::new("1Miner"), 50, h)];
//!     if h % 3 == 0 {
//!         txs.push(Transaction::coinbase(shop.clone(), 10, 100 + h));
//!     }
//!     builder.push_block(txs)?;
//! }
//!
//! // Full node answers; light node verifies against headers only.
//! // The transport is pluggable: LocalTransport stays in-process,
//! // TcpTransport speaks to a NodeServer over a socket — byte counts
//! // are identical either way.
//! let full = FullNode::new(builder.finish())?;
//! let mut peer = LocalTransport::new(&full);
//! let mut light = LightNode::sync_from(&mut peer, config)?;
//! let history = light.run(&QuerySpec::address(shop), &mut peer)?.into_single();
//! assert_eq!(history.balance.net(), 20);
//! assert_eq!(history.completeness, Completeness::Complete);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use lvq_bloom as bloom;
pub use lvq_chain as chain;
pub use lvq_codec as codec;
pub use lvq_core as core;
pub use lvq_crypto as crypto;
pub use lvq_merkle as merkle;
pub use lvq_node as node;
pub use lvq_store as store;
pub use lvq_workload as workload;

pub use lvq_crypto::Hash256;

/// The commonly-used subset of the API, for glob import.
pub mod prelude {
    pub use lvq_bloom::{BloomFilter, BloomParams, CheckOutcome};
    pub use lvq_chain::{
        balance_of, Address, BalanceBreakdown, Block, BlockHeader, BlockSource, Chain,
        ChainBuilder, ChainParams, CommitmentPolicy, InMemoryBlocks, Transaction, TxInput,
        TxOutPoint, TxOutput, UtxoSet,
    };
    pub use lvq_codec::{Decodable, Encodable};
    pub use lvq_core::{
        segments, Completeness, LightClient, Prover, QueryResponse, Scheme, SchemeConfig,
        SizeBreakdown, VerifiedHistory,
    };
    pub use lvq_crypto::Hash256;
    pub use lvq_merkle::{Bmt, BmtProof, MerkleBranch, MerkleTree, SmtProof, SortedMerkleTree};
    pub use lvq_node::{
        query_quorum, BandwidthModel, FullNode, LightNode, LocalTransport, NodeServer,
        PipelinedTcpTransport, QueryPeer, QueryRun, QuerySpec, QuorumReport, RetryPolicy,
        ServeNode, ServerConfig, ServerStats, TcpOptions, TcpTransport, Transport,
    };
    pub use lvq_store::{ingest_chain, open_chain, BlockStore, DiskBlockSource, StoreConfig};
    pub use lvq_workload::{probes, TrafficModel, Workload, WorkloadBuilder};
}

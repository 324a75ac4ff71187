//! Live follow-the-tip ingest over the persistent address index.
//!
//! The durable-first contract: the ingester appends blocks to the
//! store, extends the chain (updating the index in memory), and only
//! then anchors the index — so the index root can never lead the
//! durable chain, and a node that stops at any point reopens with pure
//! point reads (`Intact`) or an incremental catch-up, never a rebuild.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use lvq_bloom::BloomParams;
use lvq_chain::{Address, Block, BlockSource, Chain, ChainBuilder, TableSource, Transaction};
use lvq_codec::Encodable;
use lvq_core::{Prover, Scheme, SchemeConfig};
use lvq_node::{
    FullNode, IngestConfig, LightNode, LiveNode, LocalTransport, MemoryFeed, Message, NodeServer,
    QuerySpec, ResyncOutcome, ServerConfig, TcpTransport, TipIngester, Transport,
};
use lvq_store::{
    open_chain_indexed, AddrIndexRecovery, BlockStore, DiskBlockSource, IndexedTables, StoreConfig,
};

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        let n = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("lvq-node-idx-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn truth_chain(total: u64) -> (Chain, Vec<Block>) {
    let config = SchemeConfig::new(Scheme::Lvq, BloomParams::new(128, 2).unwrap(), 16).unwrap();
    let mut builder = ChainBuilder::new(config.chain_params()).unwrap();
    for h in 1..=total {
        let mut txs = vec![Transaction::coinbase(Address::new("1Miner"), 50, h as u32)];
        if h % 3 == 0 {
            txs.push(Transaction::coinbase(
                Address::new("1Sparse"),
                1,
                (1000 + h) as u32,
            ));
        }
        builder.push_block(txs).unwrap();
    }
    let truth = builder.finish();
    let blocks = (1..=total)
        .map(|h| (*truth.block(h).unwrap()).clone())
        .collect();
    (truth, blocks)
}

fn fast_config() -> IngestConfig {
    IngestConfig::new()
        .with_min_batch(2)
        .with_max_batch(8)
        .with_poll(Duration::from_micros(200))
}

fn respond_bytes<S, T>(chain: &Chain<S, T>, address: &Address) -> Vec<u8>
where
    S: BlockSource,
    T: TableSource,
{
    let prover = Prover::from_chain(chain).expect("known scheme");
    prover
        .respond(address)
        .expect("prover never fails")
        .0
        .encode()
}

fn wait_for_tip(live: &LiveNode<DiskBlockSource, IndexedTables>, tip: u64) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while live.tip_height() < tip {
        assert!(
            std::time::Instant::now() < deadline,
            "ingester never reached height {tip} (at {})",
            live.tip_height()
        );
        std::thread::sleep(Duration::from_micros(200));
    }
}

#[test]
fn follow_the_tip_writes_the_index_and_reopens_with_point_reads() {
    let (truth, blocks) = truth_chain(30);
    let scratch = ScratchDir::new("follow");
    let store_config = StoreConfig::default();
    drop(BlockStore::create(scratch.path(), truth.params(), store_config).unwrap());

    {
        let (chain, report) = open_chain_indexed(scratch.path(), store_config).unwrap();
        assert_eq!(chain.tip_height(), 0);
        assert!(matches!(
            report.addr_index,
            AddrIndexRecovery::Rebuilt {
                reason: "no index present"
            }
        ));
        let store = Arc::clone(chain.source().store());
        let live = Arc::new(LiveNode::new(FullNode::new(chain).unwrap()));

        let feed = MemoryFeed::new(blocks.clone());
        let publisher = feed.publisher();
        let handle = TipIngester::spawn(Arc::clone(&live), Arc::clone(&store), feed, fast_config());
        for step in [5u64, 9, 2, 14] {
            let published = publisher.publish(step);
            wait_for_tip(&live, published);
        }
        wait_for_tip(&live, 30);
        let stats = handle.stop().expect("clean pipeline");
        assert_eq!(stats.blocks_appended, 30);
        assert_eq!(store.len(), 30);

        // Queries served live through the index match ground truth.
        live.with_node(|node| {
            for address in [Address::new("1Miner"), Address::new("1Sparse")] {
                assert_eq!(
                    respond_bytes(&truth, &address),
                    respond_bytes(node.chain(), &address)
                );
            }
        });
    }

    // Everything dropped (node, store, index): the reopen restores from
    // the anchored root with no replay and serves identical traffic.
    let (chain, report) = open_chain_indexed(scratch.path(), store_config).unwrap();
    assert_eq!(report.addr_index, AddrIndexRecovery::Intact);
    assert!(report.is_clean(), "unexpected recovery: {report:?}");
    assert_eq!(chain.tip_height(), 30);
    for address in [
        Address::new("1Miner"),
        Address::new("1Sparse"),
        Address::new("1Nobody"),
    ] {
        assert_eq!(
            respond_bytes(&truth, &address),
            respond_bytes(&chain, &address)
        );
        assert_eq!(truth.history_of(&address), chain.history_of(&address));
    }

    // An index-backed node goes behind `LocalTransport` as it is, and
    // the transport carries the very bytes `handle` produces.
    let full = FullNode::new(chain).unwrap();
    let request = Message::QueryRequest {
        address: Address::new("1Sparse"),
        range: None,
    }
    .encode();
    let (reply, _) = LocalTransport::new(&full).exchange(&request).unwrap();
    assert_eq!(reply, full.handle(&request).unwrap());
}

/// A light client connected over TCP before ingest starts pins each
/// query to the height it has verified. The server's tip is already
/// ahead when the query runs, yet the answer is exactly ground truth cut
/// at the pinned height; the client then catches up through
/// `GetHeadersFrom` alone.
#[test]
fn tcp_client_pins_its_verified_height_while_the_tip_advances() {
    const PREFIX: u64 = 6;
    let (truth, blocks) = truth_chain(24);
    let scratch = ScratchDir::new("tcp-pin");
    let store_config = StoreConfig::default();
    {
        let store = BlockStore::create(scratch.path(), truth.params(), store_config).unwrap();
        for block in &blocks[..PREFIX as usize] {
            store.append(block).unwrap();
        }
    }

    let (chain, _) = open_chain_indexed(scratch.path(), store_config).unwrap();
    let store = Arc::clone(chain.source().store());
    let live = Arc::new(LiveNode::new(FullNode::new(chain).unwrap()));
    let server =
        NodeServer::bind(Arc::clone(&live), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut tcp = TcpTransport::connect(server.local_addr()).unwrap();
    let mut light = LightNode::sync_from(&mut tcp, live.config()).unwrap();
    assert_eq!(light.client().tip_height(), PREFIX);

    let feed = MemoryFeed::new(blocks);
    let publisher = feed.publisher();
    let handle = TipIngester::spawn(Arc::clone(&live), Arc::clone(&store), feed, fast_config());

    let addresses = [Address::new("1Miner"), Address::new("1Sparse")];
    let spec = QuerySpec::addresses(addresses.to_vec());
    let mut pinned = PREFIX;
    for target in [12, 18, 24] {
        publisher.publish(target - publisher.published());
        wait_for_tip(&live, target);

        let run = light.run(&spec.clone().range(1, pinned), &mut tcp).unwrap();
        for (address, history) in addresses.iter().zip(&run.histories) {
            let mut expected = truth.history_of(address);
            expected.retain(|(height, _)| *height <= pinned);
            assert_eq!(history.transactions, expected, "{address:?} at {pinned}");
        }

        let synced = light.sync_new(&mut tcp).unwrap();
        assert_eq!(synced, ResyncOutcome::Synced(target - pinned));
        pinned = target;
    }

    let run = light.run(&spec, &mut tcp).unwrap();
    for (address, history) in addresses.iter().zip(&run.histories) {
        assert_eq!(history.transactions, truth.history_of(address));
    }
    assert_eq!(handle.stop().unwrap().blocks_appended, 24 - PREFIX);
    drop(tcp);
    assert_eq!(server.shutdown().errors, 0);
}

#[test]
fn index_never_leads_the_store_when_stopped_mid_stream() {
    let (truth, blocks) = truth_chain(24);
    let scratch = ScratchDir::new("midstop");
    let store_config = StoreConfig::default();
    drop(BlockStore::create(scratch.path(), truth.params(), store_config).unwrap());

    {
        let (chain, _) = open_chain_indexed(scratch.path(), store_config).unwrap();
        let store = Arc::clone(chain.source().store());
        let live = Arc::new(LiveNode::new(FullNode::new(chain).unwrap()));
        let feed = MemoryFeed::new(blocks.clone());
        let publisher = feed.publisher();
        let handle = TipIngester::spawn(Arc::clone(&live), Arc::clone(&store), feed, fast_config());
        publisher.publish(17);
        wait_for_tip(&live, 17);
        handle.stop().expect("clean pipeline");
    }

    // Whatever instant the pipeline stopped at, the reopen never finds
    // the index *ahead* of the store — so never a rebuild.
    let (chain, report) = open_chain_indexed(scratch.path(), store_config).unwrap();
    assert!(
        matches!(
            report.addr_index,
            AddrIndexRecovery::Intact | AddrIndexRecovery::CaughtUp { .. }
        ),
        "durable-first ordering violated: {:?}",
        report.addr_index
    );
    assert_eq!(chain.tip_height(), 17);
    for address in [Address::new("1Miner"), Address::new("1Sparse")] {
        let prover = Prover::from_chain(&chain).unwrap();
        let (response, _) = prover.respond(&address).unwrap();
        // Compare against truth restricted to the persisted prefix.
        let truth_prover = Prover::from_chain(&truth).unwrap();
        let (truth_response, _) = truth_prover.respond_range(&address, 1, 17).unwrap();
        assert_eq!(truth_response.encode(), response.encode());
    }
}

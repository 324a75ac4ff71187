//! Self-healing runtime, end to end: a poisoned request fails *that*
//! request with a structured error while the server keeps serving, and
//! a panicking ingest pipeline is restarted by its supervisor and
//! still converges on the right chain.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lvq_bloom::BloomParams;
use lvq_chain::{Address, Block, ChainBuilder, Transaction};
use lvq_core::{Scheme, SchemeConfig};
use lvq_node::{
    BlockFeed, FeedError, FullNode, Handled, HealthState, IngestConfig, LightNode, LiveNode,
    MemoryFeed, NodeError, NodeServer, QuerySpec, ServeNode, ServerConfig, TcpTransport,
    TipIngester, WireErrorCode,
};
use lvq_store::{BlockStore, StoreConfig};

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        let n = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("lvq-node-sup-{tag}-{}-{n}", std::process::id()));
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

fn config() -> SchemeConfig {
    SchemeConfig::new(Scheme::Lvq, BloomParams::new(128, 2).unwrap(), 16).unwrap()
}

fn truth_blocks(total: u64) -> Vec<Block> {
    let mut builder = ChainBuilder::new(config().chain_params()).unwrap();
    for h in 1..=total {
        builder
            .push_block(vec![Transaction::coinbase(
                Address::new("1Miner"),
                50,
                h as u32,
            )])
            .unwrap();
    }
    let chain = builder.finish();
    (1..=total)
        .map(|h| (*chain.block(h).unwrap()).clone())
        .collect()
}

fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// A node whose handler panics on any request mentioning `1Panic` —
/// the deliberately poisoned request.
struct PanickyNode {
    inner: FullNode,
}

impl ServeNode for PanickyNode {
    fn handle_classified(&self, request: &[u8]) -> Handled {
        if request
            .windows(b"1Panic".len())
            .any(|w| w == b"1Panic".as_slice())
        {
            panic!("injected handler panic");
        }
        self.inner.handle_classified(request)
    }

    fn tip_hash(&self) -> lvq_crypto::Hash256 {
        self.inner.chain().tip_hash()
    }
}

#[test]
fn panicking_request_degrades_health_without_killing_the_server() {
    let mut builder = ChainBuilder::new(config().chain_params()).unwrap();
    for h in 1..=6u32 {
        builder
            .push_block(vec![Transaction::coinbase(Address::new("1Miner"), 50, h)])
            .unwrap();
    }
    let full = FullNode::new(builder.finish()).unwrap();
    let node = Arc::new(PanickyNode { inner: full });
    let server = NodeServer::bind(
        Arc::clone(&node),
        "127.0.0.1:0",
        ServerConfig::default().with_workers(2),
    )
    .unwrap();

    let mut transport = TcpTransport::connect(server.local_addr()).unwrap();
    let mut light = LightNode::sync_from(&mut transport, config()).unwrap();

    // A healthy request, before anything goes wrong.
    let run = light
        .run(&QuerySpec::address(Address::new("1Miner")), &mut transport)
        .unwrap();
    assert_eq!(run.histories[0].transactions.len(), 6);
    assert_eq!(server.stats().health, HealthState::Healthy);

    // The poisoned request: the panic must come back as a structured,
    // non-retryable Internal error on this same connection.
    let err = light
        .run(&QuerySpec::address(Address::new("1Panic")), &mut transport)
        .unwrap_err();
    match err {
        NodeError::Server(e) => {
            assert_eq!(e.code, WireErrorCode::Internal);
            assert!(!err.retryable(), "a poisoned request must not be retried");
        }
        other => panic!("expected a structured Internal error, got {other:?}"),
    }

    // The process survived: the same connection keeps serving, and the
    // stats show exactly one contained panic and a degraded (not
    // failed) health state.
    let run = light
        .run(&QuerySpec::address(Address::new("1Miner")), &mut transport)
        .unwrap();
    assert_eq!(run.histories[0].transactions.len(), 6);

    let stats = server.stats();
    assert_eq!(stats.panicked_requests, 1);
    assert!(
        matches!(stats.health, HealthState::Degraded { .. }),
        "health should be degraded, got {:?}",
        stats.health
    );
    assert_eq!(stats.worker_restarts, 0, "the worker itself never died");

    // Two more poisoned requests: still no process death, still
    // structured errors, counters keep counting.
    for _ in 0..2 {
        let err = light
            .run(&QuerySpec::address(Address::new("1Panic")), &mut transport)
            .unwrap_err();
        assert!(matches!(
            err,
            NodeError::Server(e) if e.code == WireErrorCode::Internal
        ));
    }
    assert_eq!(server.stats().panicked_requests, 3);

    drop(transport);
    let stats = server.shutdown();
    assert_eq!(stats.panicked_requests, 3);
    assert!(matches!(stats.health, HealthState::Degraded { .. }));
}

/// A feed that panics once, at a scripted height, then behaves.
struct PanicOnceFeed {
    inner: MemoryFeed,
    panic_from: u64,
    fired: Arc<AtomicBool>,
}

impl BlockFeed for PanicOnceFeed {
    fn fetch(&mut self, from: u64, max: u64) -> Result<Vec<Block>, FeedError> {
        if from >= self.panic_from && !self.fired.swap(true, Ordering::SeqCst) {
            panic!("injected feed panic at height {from}");
        }
        self.inner.fetch(from, max)
    }
}

#[test]
fn supervised_ingest_survives_a_panic_and_converges() {
    const TIP: u64 = 12;
    let blocks = truth_blocks(TIP);
    let tip_hash = blocks.last().unwrap().header.block_hash();

    let scratch = ScratchDir::new("ingest");
    drop(
        BlockStore::create(
            scratch.path(),
            config().chain_params(),
            StoreConfig::default(),
        )
        .unwrap(),
    );
    let (chain, report) = lvq_store::open_chain(scratch.path(), StoreConfig::default()).unwrap();
    assert!(report.is_clean());
    let store = Arc::clone(chain.source().store());
    let live = Arc::new(LiveNode::new(FullNode::new(chain).unwrap()));

    let master = MemoryFeed::new(blocks);
    master.publisher().publish_all();
    let fired = Arc::new(AtomicBool::new(false));
    let make_feed = {
        let master = master.clone();
        let fired = Arc::clone(&fired);
        move || PanicOnceFeed {
            inner: master.clone(),
            panic_from: 5,
            fired: Arc::clone(&fired),
        }
    };

    let handle = TipIngester::spawn_supervised(
        Arc::clone(&live),
        Arc::clone(&store),
        make_feed,
        IngestConfig::new()
            .with_min_batch(2)
            .with_max_batch(4)
            .with_poll(Duration::from_millis(1)),
    );

    // The pipeline panics somewhere past height 5, restarts, resumes
    // from the store's persisted height, and still reaches the tip.
    wait_for("the supervised ingest to reach the tip", || {
        handle.stats().tip_height == TIP
    });
    assert!(fired.load(Ordering::SeqCst), "the panic never fired");
    assert_eq!(handle.restarts(), 1);
    wait_for("health to recover after the restart", || {
        handle.health().get() == HealthState::Healthy
    });
    assert!(handle.is_running());

    assert_eq!(live.tip_height(), TIP);
    assert_eq!(live.tip_hash(), tip_hash);
    let stats = handle.stop();
    assert_eq!(stats.tip_height, TIP);

    // The store survived the panicked attempt: clean reopen, full
    // verification.
    drop(live);
    drop(store);
    let (reopened, report) = BlockStore::open(scratch.path(), StoreConfig::default()).unwrap();
    assert!(
        report.is_clean(),
        "store dirty after supervision: {report:?}"
    );
    assert_eq!(reopened.verify_all().unwrap(), TIP);
}

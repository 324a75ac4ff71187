//! Follow-the-tip ingest: grow the chain into the store while serving.
//!
//! A [`crate::LiveNode`] can extend, but something has to drive it.
//! [`TipIngester`] is that driver: a background thread that pulls new
//! blocks from a [`BlockFeed`], appends them to the [`BlockStore`]
//! **first** (the store is the durable truth — after a crash it leads
//! every derived structure), and only then extends the in-memory chain
//! under the live node's write lock, making the new tip visible to
//! [`crate::Message::GetHeadersFrom`] clients.
//!
//! The loop is deliberately boring and robust:
//!
//! * **adaptive batching** — the fetch size doubles after every
//!   successful batch and halves on a transient feed failure, bounded
//!   by [`IngestConfig::min_batch`]`..=`[`IngestConfig::max_batch`], so
//!   a healthy feed is drained in large strides and a flaky one is
//!   probed gently;
//! * **seeded-jitter retry** — transient feed failures back off
//!   exponentially with deterministic jitter
//!   ([`IngestConfig::seed`]), so two ingesters recovering from the
//!   same outage do not hammer the source in lockstep, and a test can
//!   replay the exact schedule;
//! * **linkage validation before persistence** — each fetched block's
//!   `prev_block` is checked against the running tip hash *before*
//!   anything touches the store, so a byzantine feed cannot poison the
//!   durable state;
//! * **resume from the last persisted height** — the next fetch always
//!   starts at `store.len() + 1`. A restart after a crash (or a
//!   [`IngestHandle::stop`] mid-stream) reopens the store, reassembles
//!   the chain from it, and continues exactly where durability left
//!   off: no block is re-appended, none is skipped.
//!
//! # Equivocation mode
//!
//! With [`IngestConfig::max_reorg_depth`] > 0 the pipeline stops
//! assuming the feed is a straight line. The fetch cursor counts
//! *announcements* instead of heights (a feed may announce competing
//! blocks at the same height), and every announced block runs through
//! a [`ForkTree`]: canonical extensions take the usual durable-first
//! path, competing blocks are journaled to the store's fork sidecar
//! log ([`BlockStore::log_fork_block`]) and stored on a side branch,
//! and when a branch out-lengths the canonical chain the ingester
//! reorgs the live node onto it ([`crate::LiveNode::reorg_to`]) under
//! the write lock — queries in flight finish on the old branch, every
//! later one observes the new one. Blocks that link nowhere (garbage,
//! or forks beyond the reorg budget) are dropped and counted rather
//! than treated as fatal: a real network contains both. After a
//! restart the announcement cursor starts over from 1; replayed
//! announcements classify as duplicates (or fall below the fork
//! window and are dropped), so replay converges on the same chain.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use lvq_chain::{Block, BlockSource, ChainError, ForkEvent, ForkTree, TableSource};
use lvq_store::{BlockStore, StoreError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::live::LiveNode;
use crate::supervise::{
    interruptible_sleep, HealthCell, Supervised, SupervisorConfig, TaskSpec, WorkCtx,
};

/// Supervision labels for the ingest pipeline.
const INGEST_SPEC: TaskSpec = TaskSpec {
    name: "lvq-ingest",
    restart_reason: "ingest pipeline restarted after a crash",
    stall_reason: "ingest pipeline stalled and was replaced",
    fail_reason: "ingest pipeline died repeatedly; chain stopped growing",
};

/// How a [`BlockFeed`] fetch can fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedError {
    /// The source hiccuped (network blip, upstream busy); retrying the
    /// same fetch can succeed.
    Transient {
        /// What the feed was doing.
        context: &'static str,
    },
}

impl std::fmt::Display for FeedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FeedError::Transient { context } => write!(f, "transient feed failure ({context})"),
        }
    }
}

/// Where new blocks come from.
///
/// The contract is pull-based and height-addressed: `fetch(from, max)`
/// returns up to `max` consecutive blocks starting at height `from`,
/// and an empty vector means the feed has nothing past `from - 1` yet
/// (the ingester is caught up and will poll again). The feed is *not*
/// trusted: the ingester validates header linkage before persisting.
pub trait BlockFeed: Send + 'static {
    /// Fetches up to `max` consecutive blocks starting at `from`.
    ///
    /// # Errors
    ///
    /// Returns [`FeedError::Transient`] when the source hiccuped and
    /// the same fetch should be retried after a backoff.
    fn fetch(&mut self, from: u64, max: u64) -> Result<Vec<Block>, FeedError>;
}

/// An in-memory feed over a pre-built block sequence whose visible tip
/// a [`FeedPublisher`] advances — the test and experiment stand-in for
/// a network peer announcing blocks.
#[derive(Debug, Clone)]
pub struct MemoryFeed {
    blocks: Arc<Vec<Block>>,
    published: Arc<AtomicU64>,
}

impl MemoryFeed {
    /// Wraps `blocks` (heights `1..=blocks.len()`); nothing is
    /// published yet.
    pub fn new(blocks: Vec<Block>) -> Self {
        MemoryFeed {
            blocks: Arc::new(blocks),
            published: Arc::new(AtomicU64::new(0)),
        }
    }

    /// A handle that advances the feed's visible tip.
    pub fn publisher(&self) -> FeedPublisher {
        FeedPublisher {
            total: self.blocks.len() as u64,
            published: Arc::clone(&self.published),
        }
    }
}

impl BlockFeed for MemoryFeed {
    fn fetch(&mut self, from: u64, max: u64) -> Result<Vec<Block>, FeedError> {
        let published = self.published.load(Ordering::Acquire);
        if from > published {
            return Ok(Vec::new());
        }
        let hi = published.min(from.saturating_add(max).saturating_sub(1));
        Ok(self.blocks[(from - 1) as usize..hi as usize].to_vec())
    }
}

/// Advances a [`MemoryFeed`]'s visible tip.
#[derive(Debug, Clone)]
pub struct FeedPublisher {
    total: u64,
    published: Arc<AtomicU64>,
}

impl FeedPublisher {
    /// Publishes `n` more blocks (clamped to the sequence length);
    /// returns the new visible tip.
    pub fn publish(&self, n: u64) -> u64 {
        let mut tip = self.published.load(Ordering::Acquire);
        loop {
            let next = tip.saturating_add(n).min(self.total);
            match self
                .published
                .compare_exchange(tip, next, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return next,
                Err(actual) => tip = actual,
            }
        }
    }

    /// Publishes everything.
    pub fn publish_all(&self) -> u64 {
        self.publish(self.total)
    }

    /// The currently visible tip.
    pub fn published(&self) -> u64 {
        self.published.load(Ordering::Acquire)
    }

    /// Heights in the sequence.
    pub fn total(&self) -> u64 {
        self.total
    }
}

/// A feed wrapper that injects seeded transient failures — the
/// fault-injection stand-in for an unreliable upstream.
#[derive(Debug)]
pub struct FlakyFeed<F> {
    inner: F,
    rng: StdRng,
    failure_prob: f64,
}

impl<F: BlockFeed> FlakyFeed<F> {
    /// Fails each fetch with probability `failure_prob`, deterministic
    /// in `seed`.
    pub fn new(inner: F, failure_prob: f64, seed: u64) -> Self {
        FlakyFeed {
            inner,
            rng: StdRng::seed_from_u64(seed),
            failure_prob,
        }
    }
}

impl<F: BlockFeed> BlockFeed for FlakyFeed<F> {
    fn fetch(&mut self, from: u64, max: u64) -> Result<Vec<Block>, FeedError> {
        if self.rng.gen_bool(self.failure_prob) {
            return Err(FeedError::Transient {
                context: "injected",
            });
        }
        self.inner.fetch(from, max)
    }
}

/// Tuning knobs for a [`TipIngester`].
///
/// `#[non_exhaustive]`: construct with [`IngestConfig::default`] (or
/// the [`IngestConfig::new`] alias) and chain `with_*` setters, so new
/// knobs can be added without breaking callers.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct IngestConfig {
    /// Smallest fetch batch (also the size after repeated failures).
    pub min_batch: u64,
    /// Largest fetch batch a healthy feed is drained with.
    pub max_batch: u64,
    /// Sleep between fetches while caught up with the feed.
    pub poll: Duration,
    /// Base backoff after a transient feed failure; doubles per
    /// consecutive failure up to `max_backoff`, plus seeded jitter of
    /// up to half the current backoff.
    pub backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Consecutive transient failures tolerated before the ingester
    /// gives up with [`IngestError::FeedGaveUp`]; `None` retries
    /// forever.
    pub max_consecutive_failures: Option<u32>,
    /// Seed of the retry jitter.
    pub seed: u64,
    /// Deepest reorg the pipeline will follow. 0 (the default) keeps
    /// the legacy straight-line contract: any non-linking block is
    /// [`IngestError::BrokenFeed`]. Greater than 0 enables
    /// equivocation mode (see the module docs).
    pub max_reorg_depth: u64,
}

impl Default for IngestConfig {
    /// Batches 4..=64, 2 ms poll, 1 ms base backoff capped at 100 ms,
    /// unlimited retries, seed 0.
    fn default() -> Self {
        IngestConfig {
            min_batch: 4,
            max_batch: 64,
            poll: Duration::from_millis(2),
            backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(100),
            max_consecutive_failures: None,
            seed: 0,
            max_reorg_depth: 0,
        }
    }
}

impl IngestConfig {
    /// Alias for [`IngestConfig::default`], reading better at the head
    /// of a `with_*` chain.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the smallest fetch batch.
    #[must_use]
    pub fn with_min_batch(mut self, min_batch: u64) -> Self {
        self.min_batch = min_batch;
        self
    }

    /// Sets the largest fetch batch.
    #[must_use]
    pub fn with_max_batch(mut self, max_batch: u64) -> Self {
        self.max_batch = max_batch;
        self
    }

    /// Sets the caught-up poll interval.
    #[must_use]
    pub fn with_poll(mut self, poll: Duration) -> Self {
        self.poll = poll;
        self
    }

    /// Sets the base backoff after a transient feed failure.
    #[must_use]
    pub fn with_backoff(mut self, backoff: Duration) -> Self {
        self.backoff = backoff;
        self
    }

    /// Sets the backoff ceiling.
    #[must_use]
    pub fn with_max_backoff(mut self, max_backoff: Duration) -> Self {
        self.max_backoff = max_backoff;
        self
    }

    /// Sets how many consecutive transient failures are tolerated
    /// before [`IngestError::FeedGaveUp`]; `None` retries forever.
    #[must_use]
    pub fn with_max_consecutive_failures(mut self, max: Option<u32>) -> Self {
        self.max_consecutive_failures = max;
        self
    }

    /// Sets the retry-jitter seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the deepest reorg the pipeline will follow (0 disables
    /// equivocation mode).
    #[must_use]
    pub fn with_max_reorg_depth(mut self, depth: u64) -> Self {
        self.max_reorg_depth = depth;
        self
    }
}

/// Point-in-time counters of an ingest pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestStats {
    /// Blocks appended to the store (and made visible) by this
    /// ingester — excludes what it found already persisted.
    pub blocks_appended: u64,
    /// Successful append batches.
    pub batches: u64,
    /// Transient feed failures retried.
    pub retries: u64,
    /// The persisted height the ingester resumed from at startup.
    pub resume_height: u64,
    /// The current persisted (and served) tip height.
    pub tip_height: u64,
    /// Whether the last fetch found the feed drained.
    pub caught_up: bool,
    /// Branch switches performed (equivocation mode only): a side
    /// branch out-lengthed the canonical chain and was adopted.
    pub reorgs: u64,
    /// Blocks journaled to the fork sidecar log and stored on side
    /// branches — excludes the canonical appends in
    /// [`IngestStats::blocks_appended`] (blocks a reorg promotes to
    /// canonical stay counted here, not there).
    pub fork_blocks: u64,
    /// Deepest reorg performed (old tip minus fork height).
    pub deepest_reorg: u64,
    /// Announced blocks dropped: linking nowhere the fork tree knows,
    /// or forking beyond the reorg budget.
    pub dropped_blocks: u64,
}

#[derive(Debug, Default)]
struct IngestShared {
    blocks_appended: AtomicU64,
    batches: AtomicU64,
    retries: AtomicU64,
    resume_height: AtomicU64,
    tip_height: AtomicU64,
    caught_up: AtomicBool,
    reorgs: AtomicU64,
    fork_blocks: AtomicU64,
    deepest_reorg: AtomicU64,
    dropped_blocks: AtomicU64,
}

impl IngestShared {
    fn snapshot(&self) -> IngestStats {
        IngestStats {
            blocks_appended: self.blocks_appended.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            resume_height: self.resume_height.load(Ordering::Relaxed),
            tip_height: self.tip_height.load(Ordering::Relaxed),
            caught_up: self.caught_up.load(Ordering::Relaxed),
            reorgs: self.reorgs.load(Ordering::Relaxed),
            fork_blocks: self.fork_blocks.load(Ordering::Relaxed),
            deepest_reorg: self.deepest_reorg.load(Ordering::Relaxed),
            dropped_blocks: self.dropped_blocks.load(Ordering::Relaxed),
        }
    }
}

/// A cloneable, read-only view of a running ingester's counters —
/// attach one to a [`crate::NodeServer`]
/// ([`crate::NodeServer::attach_ingest`]) so
/// [`crate::ServerStats::ingest`] reports ingest progress alongside
/// serving counters.
#[derive(Debug, Clone)]
pub struct IngestMonitor {
    shared: Arc<IngestShared>,
}

impl IngestMonitor {
    /// The current counters.
    pub fn snapshot(&self) -> IngestStats {
        self.shared.snapshot()
    }
}

/// How an ingest pipeline can die.
#[derive(Debug)]
pub enum IngestError {
    /// Appending to the store failed (disk full, I/O error) — fatal,
    /// because durability can no longer lead the served state.
    Store(StoreError),
    /// Extending the chain over the appended blocks failed.
    Chain(ChainError),
    /// A fetched block's `prev_block` does not chain onto the tip; the
    /// offending batch was discarded *before* anything was persisted.
    BrokenFeed {
        /// Height of the first non-linking block.
        height: u64,
    },
    /// More consecutive transient feed failures than
    /// [`IngestConfig::max_consecutive_failures`] tolerates.
    FeedGaveUp {
        /// Consecutive failures observed.
        failures: u32,
    },
    /// The ingest thread panicked.
    Panicked,
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Store(e) => write!(f, "ingest store append failed: {e}"),
            IngestError::Chain(e) => write!(f, "ingest chain extension failed: {e}"),
            IngestError::BrokenFeed { height } => {
                write!(f, "feed block {height} does not chain onto the tip")
            }
            IngestError::FeedGaveUp { failures } => {
                write!(f, "feed failed {failures} consecutive times")
            }
            IngestError::Panicked => write!(f, "ingest thread panicked"),
        }
    }
}

impl std::error::Error for IngestError {}

impl From<StoreError> for IngestError {
    fn from(e: StoreError) -> Self {
        IngestError::Store(e)
    }
}

impl From<ChainError> for IngestError {
    fn from(e: ChainError) -> Self {
        IngestError::Chain(e)
    }
}

/// The follow-the-tip ingest pipeline. See the module docs.
pub struct TipIngester;

impl TipIngester {
    /// Spawns the ingest thread: fetch from `feed`, append to `store`,
    /// extend `node`.
    ///
    /// `node`'s block source must observe `store`'s appends — the
    /// intended pairing is a [`lvq_store::DiskBlockSource`] over the
    /// same `Arc<BlockStore>` (what [`lvq_store::open_chain`]
    /// produces). The ingester resumes from the store's persisted
    /// height; it never re-appends or skips a block.
    pub fn spawn<S, T, F>(
        node: Arc<LiveNode<S, T>>,
        store: Arc<BlockStore>,
        feed: F,
        config: IngestConfig,
    ) -> IngestHandle
    where
        S: BlockSource + 'static,
        T: TableSource + 'static,
        F: BlockFeed,
    {
        let shared = Arc::new(IngestShared::default());
        let stop = Arc::new(AtomicBool::new(false));
        let thread_shared = Arc::clone(&shared);
        let thread_stop = Arc::clone(&stop);
        let join = std::thread::spawn(move || {
            let ctx = WorkCtx::unsupervised();
            ingest_loop(
                &node,
                &store,
                feed,
                config,
                &thread_shared,
                &thread_stop,
                &ctx,
            )
        });
        IngestHandle {
            stop,
            shared,
            join: Some(join),
        }
    }

    /// Spawns the ingest pipeline under a [`Supervised`] monitor:
    /// panics and fatal errors restart it with seeded backoff (resuming
    /// from the store's persisted height, the same resume rule as a
    /// process restart), a stalled attempt is abandoned and replaced by
    /// the watchdog, and an exhausted restart budget parks the pipeline
    /// as [`crate::HealthState::Failed`].
    ///
    /// `make_feed` builds a fresh feed per attempt — an abandoned
    /// attempt may still be wedged inside its old feed, so feeds are
    /// never shared across attempts. Wire the returned handle's
    /// [`SupervisedIngest::health`] into a server with
    /// [`crate::NodeServer::watch_health`].
    pub fn spawn_supervised<S, T, F, M>(
        node: Arc<LiveNode<S, T>>,
        store: Arc<BlockStore>,
        make_feed: M,
        config: IngestConfig,
        supervisor: SupervisorConfig,
    ) -> SupervisedIngest
    where
        S: BlockSource + 'static,
        T: TableSource + 'static,
        F: BlockFeed,
        M: Fn() -> F + Send + Sync + 'static,
    {
        let shared = Arc::new(IngestShared::default());
        let health = HealthCell::new();
        let restarts = Arc::new(AtomicU64::new(0));
        let body_shared = Arc::clone(&shared);
        let task = Supervised::spawn(
            INGEST_SPEC,
            supervisor,
            health.clone(),
            restarts,
            move |ctx| {
                let feed = make_feed();
                let stop = Arc::clone(ctx.stop_flag());
                ingest_loop(&node, &store, feed, config, &body_shared, &stop, &ctx)
                    .map_err(|e| e.to_string())
            },
        );
        SupervisedIngest {
            shared,
            health,
            task,
        }
    }
}

/// Controls a supervised ingest pipeline
/// ([`TipIngester::spawn_supervised`]); dropping it stops the
/// supervisor and the current attempt.
#[derive(Debug)]
pub struct SupervisedIngest {
    shared: Arc<IngestShared>,
    health: HealthCell,
    task: Supervised,
}

impl SupervisedIngest {
    /// Live counters (cumulative across restarts — the counters belong
    /// to the pipeline, not to any one attempt).
    pub fn stats(&self) -> IngestStats {
        self.shared.snapshot()
    }

    /// A cloneable counters view for [`crate::NodeServer::attach_ingest`].
    pub fn monitor(&self) -> IngestMonitor {
        IngestMonitor {
            shared: Arc::clone(&self.shared),
        }
    }

    /// The pipeline's health cell, for
    /// [`crate::NodeServer::watch_health`].
    pub fn health(&self) -> &HealthCell {
        &self.health
    }

    /// Restarts the supervisor has performed.
    pub fn restarts(&self) -> u64 {
        self.task.restarts()
    }

    /// Whether the supervisor is still keeping the pipeline alive
    /// (`false` once it gave up or finished a clean stop).
    pub fn is_running(&self) -> bool {
        self.task.is_running()
    }

    /// Stops the pipeline (bounded even if an attempt is wedged) and
    /// returns the final counters.
    pub fn stop(mut self) -> IngestStats {
        self.task.shutdown();
        self.shared.snapshot()
    }
}

/// Controls a running [`TipIngester`]; dropping it stops the thread.
#[derive(Debug)]
pub struct IngestHandle {
    stop: Arc<AtomicBool>,
    shared: Arc<IngestShared>,
    join: Option<JoinHandle<Result<(), IngestError>>>,
}

impl IngestHandle {
    /// Live counters.
    pub fn stats(&self) -> IngestStats {
        self.shared.snapshot()
    }

    /// A cloneable counters view for [`crate::NodeServer::attach_ingest`].
    pub fn monitor(&self) -> IngestMonitor {
        IngestMonitor {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Whether the ingest thread is still running.
    pub fn is_running(&self) -> bool {
        self.join.as_ref().is_some_and(|j| !j.is_finished())
    }

    /// Signals the thread to stop after the in-flight batch, joins it,
    /// and returns the final counters.
    ///
    /// # Errors
    ///
    /// Returns the [`IngestError`] the pipeline died with, if it died
    /// before the stop request.
    pub fn stop(mut self) -> Result<IngestStats, IngestError> {
        self.stop.store(true, Ordering::SeqCst);
        match self.join.take().map(JoinHandle::join) {
            Some(Ok(Ok(()))) | None => Ok(self.shared.snapshot()),
            Some(Ok(Err(e))) => Err(e),
            Some(Err(_)) => Err(IngestError::Panicked),
        }
    }
}

impl Drop for IngestHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

fn ingest_loop<S, T, F>(
    node: &LiveNode<S, T>,
    store: &BlockStore,
    mut feed: F,
    config: IngestConfig,
    shared: &IngestShared,
    stop: &AtomicBool,
    ctx: &WorkCtx,
) -> Result<(), IngestError>
where
    S: BlockSource + 'static,
    T: TableSource + 'static,
    F: BlockFeed,
{
    let min_batch = config.min_batch.max(1);
    let max_batch = config.max_batch.max(min_batch);
    let mut rng = StdRng::seed_from_u64(config.seed);

    // Resume from durability: the store's height is the truth. A chain
    // reassembled from this store is already there; a chain that lags
    // (the store outlived a previous in-memory tip) catches up now.
    let resume = store.len();
    shared.resume_height.store(resume, Ordering::Relaxed);
    shared.tip_height.store(resume, Ordering::Relaxed);
    node.extend_batch(u64::MAX)?;
    node.sync_derived()?;

    // Equivocation mode: a fork tree seeded with the chain's recent
    // headers, and an announcement cursor replacing the height cursor.
    let mut tree = if config.max_reorg_depth > 0 {
        // Startup compaction: journaled fork blocks older than the
        // reorg window can never be re-adopted, so they only cost
        // reopen scans. Dropping them here bounds the sidecar log over
        // a long follow lifetime.
        store.compact_fork_log(config.max_reorg_depth)?;
        Some(seed_tree(node, config.max_reorg_depth)?)
    } else {
        None
    };
    let mut cursor = 1u64;

    let mut batch = min_batch;
    let mut consecutive_failures = 0u32;
    while !stop.load(Ordering::SeqCst) {
        let from = if tree.is_some() {
            cursor
        } else {
            store.len() + 1
        };
        // Heartbeat: entering a fetch/persist round. A hung feed or a
        // wedged append freezes the beat while busy, which is exactly
        // what the supervisor's watchdog looks for.
        ctx.busy();
        let fetched = feed.fetch(from, batch);
        // A stop (or a supervisor abandoning a stalled worker) can
        // land while the feed call was in flight; re-check before
        // persisting anything, so an abandoned ingester never races
        // its replacement's writes.
        if stop.load(Ordering::SeqCst) {
            break;
        }
        match fetched {
            Ok(blocks) if blocks.is_empty() => {
                shared.caught_up.store(true, Ordering::Relaxed);
                consecutive_failures = 0;
                ctx.idle();
                interruptible_sleep(config.poll, stop);
            }
            Ok(blocks) => {
                shared.caught_up.store(false, Ordering::Relaxed);
                consecutive_failures = 0;

                if let Some(tree) = tree.as_mut() {
                    cursor += blocks.len() as u64;
                    absorb_forked(node, store, tree, blocks, shared)?;
                } else {
                    // Validate linkage against the served tip before
                    // the first byte is persisted.
                    let mut prev = node.tip_hash();
                    for (i, block) in blocks.iter().enumerate() {
                        if block.header.prev_block != prev {
                            return Err(IngestError::BrokenFeed {
                                height: from + i as u64,
                            });
                        }
                        prev = block.header.block_hash();
                    }

                    // Durable first, visible second: store, then chain
                    // — and only once the blocks are in the store does
                    // the derived index anchor at the new tip, so the
                    // index can never lead the durable chain.
                    for block in &blocks {
                        store.append(block)?;
                    }
                    node.extend_batch(u64::MAX)?;
                    node.sync_derived()?;
                    shared
                        .blocks_appended
                        .fetch_add(blocks.len() as u64, Ordering::Relaxed);
                }

                shared.batches.fetch_add(1, Ordering::Relaxed);
                shared.tip_height.store(store.len(), Ordering::Relaxed);
                batch = batch.saturating_mul(2).min(max_batch);
            }
            Err(FeedError::Transient { .. }) => {
                shared.caught_up.store(false, Ordering::Relaxed);
                shared.retries.fetch_add(1, Ordering::Relaxed);
                consecutive_failures += 1;
                if let Some(limit) = config.max_consecutive_failures {
                    if consecutive_failures > limit {
                        return Err(IngestError::FeedGaveUp {
                            failures: consecutive_failures,
                        });
                    }
                }
                batch = (batch / 2).max(min_batch);
                let exp = consecutive_failures.saturating_sub(1).min(10);
                let base = config
                    .backoff
                    .saturating_mul(1u32 << exp)
                    .min(config.max_backoff);
                let jitter_us = (base.as_micros() / 2) as u64;
                let jitter = Duration::from_micros(if jitter_us == 0 {
                    0
                } else {
                    rng.gen_range(0..=jitter_us)
                });
                ctx.idle();
                interruptible_sleep(base + jitter, stop);
            }
        }
    }
    Ok(())
}

/// A fork tree whose canonical window holds the chain's most recent
/// headers — enough to classify any fork within the reorg budget.
fn seed_tree<S, T>(node: &LiveNode<S, T>, max_reorg_depth: u64) -> Result<ForkTree, IngestError>
where
    S: BlockSource + 'static,
    T: TableSource + 'static,
{
    let mut tree = ForkTree::new(max_reorg_depth);
    let tip = node.tip_height();
    let lo = tip.saturating_sub(2 * max_reorg_depth + 1);
    node.with_node(|n| {
        for height in lo..=tip {
            tree.advance(height, n.chain().hash_at(height)?);
        }
        Ok::<_, ChainError>(())
    })?;
    Ok(tree)
}

/// One equivocation-mode batch: classify every announced block through
/// the fork tree, appending canonical extensions durable-first,
/// journaling fork blocks to the sidecar log, and reorging when a
/// branch wins the longest-chain rule.
fn absorb_forked<S, T>(
    node: &LiveNode<S, T>,
    store: &BlockStore,
    tree: &mut ForkTree,
    blocks: Vec<Block>,
    shared: &IngestShared,
) -> Result<(), IngestError>
where
    S: BlockSource + 'static,
    T: TableSource + 'static,
{
    for block in blocks {
        let block = Arc::new(block);
        match tree.observe(Arc::clone(&block)) {
            ForkEvent::ExtendsCanonical => {
                store.append(&block)?;
                node.extend_batch(u64::MAX)?;
                tree.advance(node.tip_height(), node.tip_hash());
                shared.blocks_appended.fetch_add(1, Ordering::Relaxed);
            }
            ForkEvent::Stored { branch, best } => {
                let height = tree.branches()[branch].tip_height();
                store.log_fork_block(height, &block)?;
                shared.fork_blocks.fetch_add(1, Ordering::Relaxed);
                if best {
                    reorg_to_branch(node, store, tree, branch, shared)?;
                }
            }
            ForkEvent::Duplicate => {}
            ForkEvent::TooDeep { .. } | ForkEvent::Unknown => {
                shared.dropped_blocks.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    node.sync_derived()?;
    Ok(())
}

/// Switches the live node onto winning branch `idx`: journals the
/// about-to-be-displaced canonical suffix to the fork sidecar (so both
/// sides of the fork survive on disk), reorgs the node under its write
/// lock — which truncates the store to the fork point and re-appends
/// the branch, keeping the store the leading truth — and finally tells
/// the tree the branch is canonical now, keeping the old suffix
/// adoptable in case the network reorgs straight back.
fn reorg_to_branch<S, T>(
    node: &LiveNode<S, T>,
    store: &BlockStore,
    tree: &mut ForkTree,
    idx: usize,
    shared: &IngestShared,
) -> Result<(), IngestError>
where
    S: BlockSource + 'static,
    T: TableSource + 'static,
{
    let branch = tree.branches()[idx].clone();
    let fork_height = branch.fork_height;
    let old_tip = node.tip_height();
    let mut old_suffix = Vec::with_capacity((old_tip - fork_height) as usize);
    node.with_node(|n| {
        for height in fork_height + 1..=old_tip {
            old_suffix.push(n.chain().block(height)?);
        }
        Ok::<_, ChainError>(())
    })?;
    for (i, block) in old_suffix.iter().enumerate() {
        store.log_fork_block(fork_height + 1 + i as u64, block)?;
    }

    node.reorg_to(fork_height, &branch.blocks)?;
    tree.adopt(idx, old_suffix);

    shared.reorgs.fetch_add(1, Ordering::Relaxed);
    shared
        .deepest_reorg
        .fetch_max(old_tip - fork_height, Ordering::Relaxed);
    Ok(())
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use lvq_chain::Address;

    use super::*;
    use crate::testutil::live_fixture;

    fn fast_config() -> IngestConfig {
        IngestConfig {
            min_batch: 2,
            max_batch: 8,
            poll: Duration::from_micros(200),
            backoff: Duration::from_micros(100),
            max_backoff: Duration::from_millis(2),
            ..IngestConfig::default()
        }
    }

    fn wait_for_tip(live: &LiveNode<lvq_store::DiskBlockSource>, tip: u64) {
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
    fn follows_a_progressively_published_feed() {
        let fixture = live_fixture("ingest-follow", 0, 24);
        let feed = MemoryFeed::new(fixture.blocks.clone());
        let publisher = feed.publisher();
        let handle = TipIngester::spawn(
            Arc::clone(&fixture.live),
            Arc::clone(&fixture.store),
            feed,
            fast_config(),
        );

        // Publish in dribs and drabs; the ingester follows each step.
        for step in [3u64, 1, 7, 5, 8] {
            let published = publisher.publish(step);
            wait_for_tip(&fixture.live, published);
        }
        assert_eq!(publisher.published(), 24);
        wait_for_tip(&fixture.live, 24);

        let stats = handle.stop().expect("clean pipeline");
        assert_eq!(stats.blocks_appended, 24);
        assert_eq!(stats.resume_height, 0);
        assert_eq!(stats.tip_height, 24);
        assert!(stats.batches >= 5, "at least one batch per publish step");
        assert_eq!(stats.retries, 0);
        assert_eq!(fixture.store.len(), 24);
        assert_eq!(fixture.store.verify_all().unwrap(), 24);

        // The served chain is byte-identical to ground truth.
        fixture.live.with_node(|node| {
            for (i, block) in fixture.blocks.iter().enumerate() {
                assert_eq!(&*node.chain().block(i as u64 + 1).unwrap(), block);
            }
        });
    }

    #[test]
    fn rides_out_transient_feed_failures() {
        let fixture = live_fixture("ingest-flaky", 0, 20);
        let inner = MemoryFeed::new(fixture.blocks.clone());
        inner.publisher().publish_all();
        let feed = FlakyFeed::new(inner, 0.4, 7);
        let handle = TipIngester::spawn(
            Arc::clone(&fixture.live),
            Arc::clone(&fixture.store),
            feed,
            fast_config(),
        );
        wait_for_tip(&fixture.live, 20);
        let stats = handle.stop().expect("transients are survivable");
        assert_eq!(stats.blocks_appended, 20);
        assert!(stats.retries > 0, "a 40% failure rate must be observed");
        assert_eq!(fixture.store.verify_all().unwrap(), 20);
    }

    #[test]
    fn gives_up_after_the_failure_budget() {
        let fixture = live_fixture("ingest-giveup", 0, 4);
        let feed = FlakyFeed::new(MemoryFeed::new(fixture.blocks.clone()), 1.0, 1);
        let config = IngestConfig {
            max_consecutive_failures: Some(3),
            ..fast_config()
        };
        let handle = TipIngester::spawn(
            Arc::clone(&fixture.live),
            Arc::clone(&fixture.store),
            feed,
            config,
        );
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while handle.is_running() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        match handle.stop() {
            Err(IngestError::FeedGaveUp { failures: 4 }) => {}
            other => panic!("expected FeedGaveUp after 4 failures, got {other:?}"),
        }
        assert_eq!(fixture.store.len(), 0, "nothing was persisted");
    }

    #[test]
    fn rejects_a_feed_that_breaks_the_chain() {
        let fixture = live_fixture("ingest-broken", 3, 10);
        let mut blocks = fixture.blocks.clone();
        // Corrupt the linkage of the first block past the tip.
        blocks[3].header.prev_block = lvq_crypto::Hash256::ZERO;
        let feed = MemoryFeed::new(blocks);
        feed.publisher().publish_all();
        let handle = TipIngester::spawn(
            Arc::clone(&fixture.live),
            Arc::clone(&fixture.store),
            feed,
            fast_config(),
        );
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while handle.is_running() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        match handle.stop() {
            Err(IngestError::BrokenFeed { height: 4 }) => {}
            other => panic!("expected BrokenFeed at height 4, got {other:?}"),
        }
        // The poisoned batch never touched the store or the chain.
        assert_eq!(fixture.store.len(), 3);
        assert_eq!(fixture.live.tip_height(), 3);
    }

    #[test]
    fn adopts_a_longer_fork_and_reorgs_the_served_chain() {
        let fixture = live_fixture("ingest-reorg", 0, 8);
        let rival = crate::testutil::rival_chain(5, 10);

        // Announcement script: the canonical chain 1..=8 first, then a
        // rival branch forked off height 5 overtaking it at height 9.
        let mut script = fixture.blocks.clone();
        script.extend(rival[5..].iter().cloned());
        let feed = MemoryFeed::new(script);
        feed.publisher().publish_all();

        let config = fast_config().with_max_reorg_depth(4);
        let handle = TipIngester::spawn(
            Arc::clone(&fixture.live),
            Arc::clone(&fixture.store),
            feed,
            config,
        );
        // Height 10 only exists on the rival branch, so reaching it
        // proves the reorg happened.
        wait_for_tip(&fixture.live, 10);
        let stats = handle.stop().expect("clean pipeline");

        assert_eq!(stats.reorgs, 1);
        assert_eq!(stats.deepest_reorg, 3, "old tip 8 back to fork height 5");
        // Rival 6..=9 arrived as fork blocks; rival 10 extended the
        // already-reorged canonical chain.
        assert_eq!(stats.fork_blocks, 4);
        assert_eq!(stats.blocks_appended, 8 + 1);
        assert_eq!(stats.dropped_blocks, 0);
        assert_eq!(stats.tip_height, 10);

        // The store is the reorged chain, every record intact, and the
        // fork sidecar holds both sides: rival 6..=9 (journaled on
        // arrival) plus the displaced canonical 6..=8.
        assert_eq!(fixture.store.len(), 10);
        assert_eq!(fixture.store.verify_all().unwrap(), 10);
        let fork_log = fixture.store.fork_log().unwrap();
        assert_eq!(fork_log.len(), 4 + 3);

        // The served chain is byte-identical to the rival ground truth.
        assert_eq!(fixture.live.tip_hash(), rival[9].header.block_hash());
        fixture.live.with_node(|node| {
            for (i, block) in rival.iter().enumerate() {
                assert_eq!(&*node.chain().block(i as u64 + 1).unwrap(), block);
            }
            assert_eq!(node.chain().history_of(&Address::new("1Rival")).len(), 5);
            assert_eq!(node.chain().history_of(&Address::new("1Miner")).len(), 5);
            node.chain().validate().expect("post-reorg chain validates");
        });
    }

    #[test]
    fn reorgs_back_when_the_old_branch_overtakes_again() {
        let fixture = live_fixture("ingest-reorg-back", 0, 9);
        let rival = crate::testutil::rival_chain(5, 8);

        // Canonical 1..=7 arrives, the rival (forked off 5) overtakes
        // at 8, then the original chain's 8..=9 win the tip back.
        let mut script: Vec<Block> = fixture.blocks[..7].to_vec();
        script.extend(rival[5..].iter().cloned());
        script.extend(fixture.blocks[7..].iter().cloned());
        let feed = MemoryFeed::new(script);
        feed.publisher().publish_all();

        let config = fast_config().with_max_reorg_depth(4);
        let handle = TipIngester::spawn(
            Arc::clone(&fixture.live),
            Arc::clone(&fixture.store),
            feed,
            config,
        );
        wait_for_tip(&fixture.live, 9);
        let stats = handle.stop().expect("clean pipeline");

        assert_eq!(stats.reorgs, 2, "there and back again");
        assert_eq!(stats.tip_height, 9);
        assert_eq!(fixture.store.verify_all().unwrap(), 9);
        assert_eq!(
            fixture.live.tip_hash(),
            fixture.blocks[8].header.block_hash(),
            "the original chain won in the end"
        );
        fixture.live.with_node(|node| {
            assert!(node.chain().history_of(&Address::new("1Rival")).is_empty());
            assert_eq!(node.chain().history_of(&Address::new("1Miner")).len(), 9);
            node.chain().validate().expect("post-reorg chain validates");
        });
    }

    #[test]
    fn resumes_from_the_persisted_height_after_a_stop() {
        let fixture = live_fixture("ingest-resume", 0, 30);
        let feed = MemoryFeed::new(fixture.blocks.clone());
        let publisher = feed.publisher();
        publisher.publish(17);
        let handle = TipIngester::spawn(
            Arc::clone(&fixture.live),
            Arc::clone(&fixture.store),
            feed.clone(),
            fast_config(),
        );
        wait_for_tip(&fixture.live, 17);
        let stats = handle.stop().expect("clean stop mid-stream");
        assert_eq!(stats.blocks_appended, 17);

        // "Restart": let every handle on the store go (the last drop
        // syncs the index), then reopen from disk, reassemble the
        // chain, and spawn a fresh ingester over the same feed.
        let crate::testutil::LiveFixture {
            scratch,
            live,
            store,
            blocks,
            ..
        } = fixture;
        drop(live);
        drop(store);
        let (chain, report) =
            lvq_store::open_chain(scratch.path(), lvq_store::StoreConfig::default()).unwrap();
        assert!(report.is_clean(), "clean stop leaves a clean store");
        assert_eq!(
            chain.tip_height(),
            17,
            "reassembled at the persisted height"
        );
        let store = Arc::clone(chain.source().store());
        let live = Arc::new(LiveNode::new(crate::FullNode::new(chain).unwrap()));
        publisher.publish_all();
        let handle = TipIngester::spawn(Arc::clone(&live), store.clone(), feed, fast_config());
        wait_for_tip(&live, 30);
        let stats = handle.stop().expect("clean pipeline");

        // Resumed exactly where durability left off: 13 new blocks, no
        // duplicates, no gaps, every record intact.
        assert_eq!(stats.resume_height, 17);
        assert_eq!(stats.blocks_appended, 13);
        assert_eq!(store.len(), 30);
        assert_eq!(store.verify_all().unwrap(), 30);
        live.with_node(|node| {
            for (i, block) in blocks.iter().enumerate() {
                assert_eq!(&*node.chain().block(i as u64 + 1).unwrap(), block);
            }
            let history = node.chain().history_of(&Address::new("1Miner"));
            assert_eq!(history.len(), 30);
        });
    }
}

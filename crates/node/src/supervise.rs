//! Self-healing task supervision: panic isolation, seeded-backoff
//! restart, and a stall watchdog for the long-lived node threads.
//!
//! A [`Supervised`] task wraps a worker body in [`catch_unwind`] and a
//! monitor thread. When the body panics or returns an error, the
//! monitor restarts it after the crate's seeded decorrelated-jitter
//! [`Backoff`] — deterministic for a given [`SupervisorConfig::seed`],
//! so restart storms replay exactly in tests. When the body stops
//! heartbeating through its [`WorkCtx`] while marked busy, the watchdog
//! *abandons* the attempt (its [`WorkCtx::live`] flips false, so a
//! wedged thread that eventually wakes finds itself fenced off and exits
//! instead of racing its replacement) and spawns a fresh one.
//!
//! Every health transition lands in a [`HealthCell`]:
//! [`HealthState::Healthy`] until the first restart, then
//! [`HealthState::Degraded`] with a static reason, and — once the
//! restart budget is exhausted — the sticky [`HealthState::Failed`].
//! Cells are cheap cloneable handles, so the server aggregates the
//! worst state across its proof workers, its request handlers, and an
//! attached ingest pipeline into one [`crate::ServerStats::health`].
//!
//! Supervision is internal policy: restart timing decides only *when*
//! a subsystem is back, never what it serves, so [`SupervisorConfig`]
//! is crate-private and production code runs on its defaults.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::retry::Backoff;

/// How a supervised subsystem is doing, worst observation wins.
///
/// The reasons are `&'static str` so the state stays `Copy` and can
/// ride inside [`crate::ServerStats`] snapshots without allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HealthState {
    /// Running normally; no restarts, no stalls, no request panics.
    #[default]
    Healthy,
    /// Something recoverable happened (a restart, a stall, a panicked
    /// request) and the supervisor papered over it. The process keeps
    /// serving, but an operator should look.
    Degraded {
        /// What degraded, e.g. `"proof worker restarted"`.
        reason: &'static str,
    },
    /// A subsystem exhausted its restart budget and stays down. Sticky:
    /// nothing clears `Failed` short of a process restart.
    Failed {
        /// What gave up, e.g. `"ingest pipeline died repeatedly"`.
        reason: &'static str,
    },
}

impl HealthState {
    /// Severity for worst-wins aggregation.
    fn severity(self) -> u8 {
        match self {
            HealthState::Healthy => 0,
            HealthState::Degraded { .. } => 1,
            HealthState::Failed { .. } => 2,
        }
    }

    /// The worse of two observations (`self` wins ties, so the first
    /// reason reported at a severity sticks).
    pub fn merge(self, other: HealthState) -> HealthState {
        if other.severity() > self.severity() {
            other
        } else {
            self
        }
    }

    /// The reason string, when one is attached.
    pub fn reason(self) -> Option<&'static str> {
        match self {
            HealthState::Healthy => None,
            HealthState::Degraded { reason } | HealthState::Failed { reason } => Some(reason),
        }
    }
}

impl std::fmt::Display for HealthState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HealthState::Healthy => f.write_str("healthy"),
            HealthState::Degraded { reason } => write!(f, "degraded ({reason})"),
            HealthState::Failed { reason } => write!(f, "FAILED ({reason})"),
        }
    }
}

/// A shared, cloneable cell holding one subsystem's [`HealthState`].
///
/// Transitions only ever go up in severity ([`HealthCell::degrade`],
/// [`HealthCell::fail`]); [`HealthCell::resolve`] steps `Degraded`
/// back down once the subsystem proves itself again, but `Failed` is
/// sticky forever.
#[derive(Debug, Clone, Default)]
pub struct HealthCell {
    state: Arc<Mutex<HealthState>>,
}

impl HealthCell {
    /// A fresh `Healthy` cell.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current state.
    pub fn get(&self) -> HealthState {
        *self.state.lock().expect("health cell never poisoned")
    }

    /// Reports a recoverable incident. `Healthy` becomes `Degraded`;
    /// an existing `Degraded` keeps its first reason; `Failed` is
    /// untouched.
    pub fn degrade(&self, reason: &'static str) {
        let mut state = self.state.lock().expect("health cell never poisoned");
        if *state == HealthState::Healthy {
            *state = HealthState::Degraded { reason };
        }
    }

    /// Reports an unrecoverable failure; wins over everything and
    /// never clears.
    pub fn fail(&self, reason: &'static str) {
        let mut state = self.state.lock().expect("health cell never poisoned");
        if !matches!(*state, HealthState::Failed { .. }) {
            *state = HealthState::Failed { reason };
        }
    }

    /// Clears `Degraded` back to `Healthy` (a restarted subsystem has
    /// been running cleanly again); `Failed` stays.
    pub fn resolve(&self) {
        let mut state = self.state.lock().expect("health cell never poisoned");
        if matches!(*state, HealthState::Degraded { .. }) {
            *state = HealthState::Healthy;
        }
    }
}

/// Static description of one supervised task: its name and the health
/// reasons its incidents report. All `&'static str` so health
/// snapshots stay `Copy`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TaskSpec {
    /// Thread name.
    pub name: &'static str,
    /// `Degraded` reason after a panic/error restart.
    pub restart_reason: &'static str,
    /// `Degraded` reason after the watchdog abandoned a stalled
    /// attempt.
    pub stall_reason: &'static str,
    /// `Failed` reason once the restart budget is exhausted.
    pub fail_reason: &'static str,
}

/// Timing of a [`Supervised`] task. Production code uses the
/// defaults (the server varies only the seed, per worker); unit tests
/// shrink the intervals with a struct literal.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SupervisorConfig {
    /// Restarts tolerated before the task is declared
    /// [`HealthState::Failed`] and left down.
    pub max_restarts: u32,
    /// Lower bound of every restart backoff.
    pub backoff_base: Duration,
    /// Upper bound of every restart backoff.
    pub backoff_cap: Duration,
    /// Watchdog limit: an attempt that is marked busy but produces no
    /// heartbeat for this long is abandoned and replaced. `None`
    /// disables the watchdog.
    pub stall_timeout: Option<Duration>,
    /// A restarted attempt that runs this long without incident clears
    /// `Degraded` back to `Healthy`.
    pub recovered_after: Duration,
    /// On [`Supervised::shutdown`], how long to wait for a still-busy
    /// attempt before abandoning it (bounds shutdown even when a body
    /// is wedged).
    pub stop_deadline: Duration,
    /// Seed for the deterministic backoff jitter.
    pub seed: u64,
}

impl Default for SupervisorConfig {
    /// 5 restarts, 10 ms–2 s backoff, 30 s watchdog, 500 ms to
    /// re-earn `Healthy`, 5 s stop deadline.
    fn default() -> Self {
        SupervisorConfig {
            max_restarts: 5,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_secs(2),
            stall_timeout: Some(Duration::from_secs(30)),
            recovered_after: Duration::from_millis(500),
            stop_deadline: Duration::from_secs(5),
            seed: 0,
        }
    }
}

/// Heartbeat shared between one attempt and its watchdog.
///
/// The attempt bumps `ticks` whenever it makes progress and flags
/// whether it is inside real work (`busy`) or parked waiting for input
/// (`idle`). The watchdog only counts staleness against *busy*
/// attempts — a worker parked on an empty queue is healthy, a worker
/// twelve minutes into one proof is not.
#[derive(Debug, Default)]
pub(crate) struct Beat {
    ticks: AtomicU64,
    busy: AtomicBool,
}

impl Beat {
    fn tick(&self) {
        self.ticks.fetch_add(1, Ordering::Relaxed);
    }
}

/// The handle a supervised body uses to cooperate with its monitor:
/// liveness checks, heartbeats, and the per-attempt stop flag.
///
/// Each attempt gets a *fresh* context. When the watchdog abandons a
/// stalled attempt, only that attempt's flag flips — the wedged thread
/// observes [`WorkCtx::live`] `== false` when it finally wakes and
/// bows out instead of writing over its replacement's work.
#[derive(Debug, Clone)]
pub(crate) struct WorkCtx {
    stop: Arc<AtomicBool>,
    beat: Arc<Beat>,
}

impl WorkCtx {
    /// A free-standing context that is always live and watched by
    /// nobody — for running a supervised-style body unsupervised.
    pub fn unsupervised() -> Self {
        WorkCtx {
            stop: Arc::new(AtomicBool::new(false)),
            beat: Arc::new(Beat::default()),
        }
    }

    /// Whether this attempt should keep going. `false` once the task
    /// is shutting down *or* the watchdog abandoned this attempt.
    pub fn live(&self) -> bool {
        !self.stop.load(Ordering::SeqCst)
    }

    /// The raw stop flag, for loops that take an
    /// [`AtomicBool`] directly.
    pub fn stop_flag(&self) -> &Arc<AtomicBool> {
        &self.stop
    }

    /// Heartbeat: the attempt is entering (or progressing through)
    /// real work. Call at least once per unit of work so the watchdog
    /// can tell a long queue from a wedged thread.
    pub fn busy(&self) {
        self.beat.busy.store(true, Ordering::Relaxed);
        self.beat.tick();
    }

    /// Heartbeat: the attempt is parked waiting for input; staleness
    /// no longer counts against it.
    pub fn idle(&self) {
        self.beat.busy.store(false, Ordering::Relaxed);
        self.beat.tick();
    }
}

/// Why one attempt ended, as seen by the monitor.
enum AttemptEnd {
    /// The body returned `Ok` — a clean, voluntary exit (normally only
    /// after its stop flag was raised). The task is done; no restart.
    Clean,
    /// The body returned an error or panicked.
    Crashed,
    /// The watchdog abandoned the attempt: busy with no heartbeat for
    /// longer than [`SupervisorConfig::stall_timeout`].
    Stalled,
}

/// Sleeps `total`, waking early when `stop` is raised.
pub(crate) fn interruptible_sleep(total: Duration, stop: &AtomicBool) {
    let mut remaining = total;
    let chunk = Duration::from_millis(5);
    while !remaining.is_zero() && !stop.load(Ordering::SeqCst) {
        let step = remaining.min(chunk);
        std::thread::sleep(step);
        remaining = remaining.saturating_sub(step);
    }
}

/// How often the monitor thread polls its attempt.
const MONITOR_POLL: Duration = Duration::from_millis(5);

/// A long-lived task kept alive by a monitor thread: panic isolation,
/// seeded-backoff restarts, stall watchdog, bounded shutdown. See the
/// module docs.
#[derive(Debug)]
pub(crate) struct Supervised {
    stop: Arc<AtomicBool>,
    restarts: Arc<AtomicU64>,
    monitor: Option<JoinHandle<()>>,
}

impl Supervised {
    /// Spawns `body` under supervision.
    ///
    /// `body` is called once per attempt with a fresh [`WorkCtx`]; it
    /// must check [`WorkCtx::live`] regularly and return `Ok(())` when
    /// told to stop. `Err(reason)` and panics both trigger a restart
    /// (until the budget runs out); `restarts` is incremented on every
    /// restart so callers can aggregate a counter across a pool.
    pub fn spawn<F>(
        spec: TaskSpec,
        config: SupervisorConfig,
        health: HealthCell,
        restarts: Arc<AtomicU64>,
        body: F,
    ) -> Supervised
    where
        F: Fn(WorkCtx) -> Result<(), String> + Send + Sync + 'static,
    {
        let stop = Arc::new(AtomicBool::new(false));
        let body = Arc::new(body);
        let monitor = {
            let stop = Arc::clone(&stop);
            let restarts = Arc::clone(&restarts);
            std::thread::Builder::new()
                .name(format!("{}-monitor", spec.name))
                .spawn(move || monitor_loop(spec, config, &health, &restarts, &stop, &body))
                .expect("spawning a monitor thread")
        };
        Supervised {
            stop,
            restarts,
            monitor: Some(monitor),
        }
    }

    /// Restarts performed so far (shared counter handed to
    /// [`Supervised::spawn`]).
    pub fn restarts(&self) -> u64 {
        self.restarts.load(Ordering::Relaxed)
    }

    /// Whether the monitor (and therefore the task) is still running.
    pub fn is_running(&self) -> bool {
        self.monitor.as_ref().is_some_and(|m| !m.is_finished())
    }

    /// Signals stop and joins the monitor. The current attempt gets
    /// [`SupervisorConfig::stop_deadline`] to drain; a wedged attempt
    /// is abandoned so shutdown always terminates.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(monitor) = self.monitor.take() {
            let _ = monitor.join();
        }
    }
}

impl Drop for Supervised {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn monitor_loop<F>(
    spec: TaskSpec,
    config: SupervisorConfig,
    health: &HealthCell,
    restarts: &AtomicU64,
    stop: &AtomicBool,
    body: &Arc<F>,
) where
    F: Fn(WorkCtx) -> Result<(), String> + Send + Sync + 'static,
{
    let mut restart = 0u32;
    let mut backoff = Backoff::new(config.backoff_base, config.backoff_cap, config.seed);
    loop {
        let ctx = WorkCtx {
            stop: Arc::new(AtomicBool::new(stop.load(Ordering::SeqCst))),
            beat: Arc::new(Beat::default()),
        };
        if !ctx.live() {
            return;
        }
        // Run the attempt on its own thread so the monitor can watch
        // it from outside; catch_unwind turns a panic into a result.
        // AssertUnwindSafe is sound here: the body only communicates
        // through atomics, channels, and mutexes designed to survive a
        // dead peer, and a panicked attempt's partial state dies with
        // the attempt.
        let attempt = {
            let body = Arc::clone(body);
            let ctx = ctx.clone();
            std::thread::Builder::new()
                .name(spec.name.to_string())
                .spawn(move || catch_unwind(AssertUnwindSafe(|| body(ctx))))
                .expect("spawning an attempt thread")
        };
        let started = Instant::now();
        let mut last_ticks = 0u64;
        let mut last_change = Instant::now();
        let mut recovered = false;
        let end = loop {
            if attempt.is_finished() {
                break match attempt.join() {
                    Ok(Ok(Ok(()))) => AttemptEnd::Clean,
                    Ok(Ok(Err(_reason))) => AttemptEnd::Crashed,
                    Ok(Err(_)) | Err(_) => AttemptEnd::Crashed,
                };
            }
            if stop.load(Ordering::SeqCst) {
                // Shutdown: give the attempt its drain window, then
                // abandon it (live() is already false).
                ctx.stop.store(true, Ordering::SeqCst);
                let deadline = Instant::now() + config.stop_deadline;
                while !attempt.is_finished() && Instant::now() < deadline {
                    std::thread::sleep(MONITOR_POLL);
                }
                if attempt.is_finished() {
                    let _ = attempt.join();
                }
                return;
            }
            // Stall watchdog: busy with a frozen heartbeat too long.
            let ticks = ctx.beat.ticks.load(Ordering::Relaxed);
            if ticks != last_ticks {
                last_ticks = ticks;
                last_change = Instant::now();
            } else if let Some(limit) = config.stall_timeout {
                if ctx.beat.busy.load(Ordering::Relaxed) && last_change.elapsed() > limit {
                    break AttemptEnd::Stalled;
                }
            }
            // A restarted attempt that has run cleanly long enough
            // (and shown a heartbeat) re-earns Healthy, and the next
            // crash backs off from the base again.
            if restart > 0 && !recovered && ticks > 0 && started.elapsed() >= config.recovered_after
            {
                recovered = true;
                health.resolve();
                backoff.reset();
            }
            std::thread::sleep(MONITOR_POLL);
        };
        match end {
            AttemptEnd::Clean => return,
            AttemptEnd::Crashed | AttemptEnd::Stalled => {
                if let AttemptEnd::Stalled = end {
                    // Fence the wedged thread off before replacing it:
                    // when it wakes it sees live() == false and exits
                    // instead of racing the new attempt. The thread
                    // itself is leaked — a hung join would hang the
                    // supervisor too.
                    ctx.stop.store(true, Ordering::SeqCst);
                }
                restart += 1;
                restarts.fetch_add(1, Ordering::Relaxed);
                if restart > config.max_restarts {
                    health.fail(spec.fail_reason);
                    return;
                }
                health.degrade(match end {
                    AttemptEnd::Stalled => spec.stall_reason,
                    _ => spec.restart_reason,
                });
                interruptible_sleep(backoff.next_delay(), stop);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> TaskSpec {
        TaskSpec {
            name: "test-task",
            restart_reason: "test task restarted",
            stall_reason: "test task stalled",
            fail_reason: "test task died repeatedly",
        }
    }

    fn fast_config() -> SupervisorConfig {
        SupervisorConfig {
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(5),
            recovered_after: Duration::from_millis(30),
            stop_deadline: Duration::from_millis(500),
            ..SupervisorConfig::default()
        }
    }

    /// Polls until `pred` holds or the deadline passes.
    fn wait_for(pred: impl Fn() -> bool, what: &str) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !pred() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn health_cell_transitions_and_stickiness() {
        let cell = HealthCell::new();
        assert_eq!(cell.get(), HealthState::Healthy);
        cell.degrade("a");
        cell.degrade("b");
        assert_eq!(cell.get(), HealthState::Degraded { reason: "a" });
        cell.resolve();
        assert_eq!(cell.get(), HealthState::Healthy);
        cell.fail("dead");
        cell.degrade("c");
        cell.resolve();
        assert_eq!(cell.get(), HealthState::Failed { reason: "dead" });
    }

    #[test]
    fn merge_takes_the_worst_and_first_reason_wins_ties() {
        let h = HealthState::Healthy;
        let d1 = HealthState::Degraded { reason: "one" };
        let d2 = HealthState::Degraded { reason: "two" };
        let f = HealthState::Failed { reason: "gone" };
        assert_eq!(h.merge(d1), d1);
        assert_eq!(d1.merge(d2), d1);
        assert_eq!(d1.merge(f), f);
        assert_eq!(f.merge(d1), f);
        assert_eq!(format!("{d1}"), "degraded (one)");
    }

    #[test]
    fn panicking_body_is_restarted_and_health_recovers() {
        let cell = HealthCell::new();
        let restarts = Arc::new(AtomicU64::new(0));
        let calls = Arc::new(AtomicU64::new(0));
        let body_calls = Arc::clone(&calls);
        let mut task = Supervised::spawn(
            spec(),
            fast_config(),
            cell.clone(),
            Arc::clone(&restarts),
            move |ctx| {
                if body_calls.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("injected panic");
                }
                while ctx.live() {
                    ctx.idle();
                    std::thread::sleep(Duration::from_millis(2));
                }
                Ok(())
            },
        );
        wait_for(|| restarts.load(Ordering::SeqCst) == 1, "the restart");
        // The second attempt heartbeats cleanly, so Degraded clears.
        wait_for(|| cell.get() == HealthState::Healthy, "recovery");
        assert!(task.is_running());
        task.shutdown();
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        assert_eq!(task.restarts(), 1);
    }

    #[test]
    fn exhausted_restart_budget_fails_sticky() {
        let cell = HealthCell::new();
        let restarts = Arc::new(AtomicU64::new(0));
        let mut task = Supervised::spawn(
            spec(),
            SupervisorConfig {
                max_restarts: 2,
                ..fast_config()
            },
            cell.clone(),
            Arc::clone(&restarts),
            |_ctx| Err("always broken".to_string()),
        );
        wait_for(|| !task.is_running(), "the monitor to give up");
        assert_eq!(
            cell.get(),
            HealthState::Failed {
                reason: "test task died repeatedly"
            }
        );
        assert_eq!(task.restarts(), 3); // budget of 2 + the one that tripped it
        task.shutdown();
    }

    #[test]
    fn stalled_busy_attempt_is_abandoned_and_replaced() {
        let cell = HealthCell::new();
        let restarts = Arc::new(AtomicU64::new(0));
        let attempts = Arc::new(AtomicU64::new(0));
        let body_attempts = Arc::clone(&attempts);
        let abandoned_live = Arc::new(AtomicBool::new(true));
        let body_abandoned = Arc::clone(&abandoned_live);
        let mut task = Supervised::spawn(
            spec(),
            SupervisorConfig {
                stall_timeout: Some(Duration::from_millis(40)),
                ..fast_config()
            },
            cell.clone(),
            Arc::clone(&restarts),
            move |ctx| {
                if body_attempts.fetch_add(1, Ordering::SeqCst) == 0 {
                    // Wedge: mark busy, then stop heartbeating.
                    ctx.busy();
                    std::thread::sleep(Duration::from_millis(300));
                    // The watchdog must have fenced this attempt off.
                    body_abandoned.store(ctx.live(), Ordering::SeqCst);
                    return Ok(());
                }
                while ctx.live() {
                    ctx.idle();
                    std::thread::sleep(Duration::from_millis(2));
                }
                Ok(())
            },
        );
        wait_for(|| restarts.load(Ordering::SeqCst) == 1, "the stall restart");
        wait_for(
            || attempts.load(Ordering::SeqCst) == 2,
            "the replacement attempt",
        );
        // Wait out the wedged first attempt, then check it saw the fence.
        std::thread::sleep(Duration::from_millis(350));
        assert!(
            !abandoned_live.load(Ordering::SeqCst),
            "the abandoned attempt still believed it was live"
        );
        task.shutdown();
    }

    #[test]
    fn shutdown_is_bounded_even_with_a_wedged_body() {
        let cell = HealthCell::new();
        let restarts = Arc::new(AtomicU64::new(0));
        let mut task = Supervised::spawn(
            spec(),
            SupervisorConfig {
                stop_deadline: Duration::from_millis(50),
                ..fast_config()
            },
            cell,
            restarts,
            |ctx| {
                ctx.busy();
                // Ignores live() entirely: the worst-behaved body.
                std::thread::sleep(Duration::from_secs(30));
                let _ = ctx;
                Ok(())
            },
        );
        std::thread::sleep(Duration::from_millis(20));
        let start = Instant::now();
        task.shutdown();
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "shutdown hung on a wedged attempt"
        );
    }
}

//! Worker-pool tests under the readiness loop: a saturated
//! [`NodeServer`] must shed load with [`Message::Busy`] — never hang a
//! client, never close its connection, never emit a torn frame — and
//! its [`ServerStats`] books must agree with what clients observed. A
//! proof parked in one worker must not hold up other connections, and
//! hundreds of idle connections must stay open while others are served.

use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use proptest::prelude::*;

use lvq::codec::{decode_exact, Encodable};
use lvq::node::frame::{read_frame, write_frame, MAX_FRAME_LEN};
use lvq::node::{envelope, Handled, HelloInfo, Message, NodeError, ServeNode, WireErrorCode};
use lvq::prelude::*;

/// The probe address every test chain plants, with four transactions.
const PROBE: &str = "1PoolProbe";

/// A [`FullNode`] behind a gate: a gated request blocks inside the
/// proof worker until [`Gate::release`], so a test can pin workers busy
/// and fill the dispatch queue deterministically instead of racing a
/// microsecond proof.
struct GatedNode {
    inner: FullNode,
    gate: Arc<Gate>,
    /// Gate only requests whose bytes contain this marker; `None` gates
    /// every request.
    marker: Option<&'static [u8]>,
}

struct Gate {
    released: Mutex<bool>,
    cvar: Condvar,
    /// Requests that have entered a proof worker (gauge of occupancy).
    entered: AtomicUsize,
}

impl Gate {
    fn new() -> Arc<Gate> {
        Arc::new(Gate {
            released: Mutex::new(false),
            cvar: Condvar::new(),
            entered: AtomicUsize::new(0),
        })
    }

    fn release(&self) {
        *self.released.lock().unwrap() = true;
        self.cvar.notify_all();
    }
}

impl ServeNode for GatedNode {
    fn handle_classified(&self, request: &[u8]) -> Handled {
        let gated = self
            .marker
            .is_none_or(|m| request.windows(m.len()).any(|w| w == m));
        if gated {
            self.gate.entered.fetch_add(1, Ordering::SeqCst);
            let mut open = self.gate.released.lock().unwrap();
            while !*open {
                open = self.gate.cvar.wait(open).unwrap();
            }
        }
        self.inner.handle_classified(request)
    }
}

/// A small chain with [`PROBE`] planted: its node, the scheme, and the
/// probe's ground-truth history.
fn test_node() -> (FullNode, SchemeConfig, Vec<(u64, Transaction)>) {
    let config = SchemeConfig::new(Scheme::Lvq, BloomParams::new(512, 2).unwrap(), 8).unwrap();
    let workload = WorkloadBuilder::new(config.chain_params())
        .blocks(8)
        .traffic(TrafficModel::tiny())
        .seed(3)
        .probe(PROBE, 4, 4)
        .build()
        .unwrap();
    let full = FullNode::new(workload.chain).unwrap();
    let truth = full.chain().history_of(&Address::new(PROBE));
    (full, config, truth)
}

/// Syncs a light node over a fresh connection and runs `queries`
/// verified [`PROBE`] queries, each checked against `truth`.
fn verified_session(
    addr: SocketAddr,
    config: SchemeConfig,
    truth: &[(u64, Transaction)],
    queries: usize,
) {
    let mut tcp = TcpTransport::connect(addr).unwrap();
    let mut light = LightNode::sync_from(&mut tcp, config).unwrap();
    for _ in 0..queries {
        let history = light
            .run(&QuerySpec::address(Address::new(PROBE)), &mut tcp)
            .unwrap()
            .into_single();
        assert_eq!(history.transactions, truth);
    }
}

fn pool_server(workers: usize, queue: usize) -> (NodeServer<GatedNode>, Arc<Gate>, SchemeConfig) {
    let (inner, config, _) = test_node();
    let gate = Gate::new();
    let node = GatedNode {
        inner,
        gate: Arc::clone(&gate),
        marker: None,
    };
    let server_config = ServerConfig::default()
        .with_workers(workers)
        .with_accept_queue(queue);
    let server = NodeServer::bind(Arc::new(node), "127.0.0.1:0", server_config).unwrap();
    (server, gate, config)
}

/// Polls `cond` until it holds or two seconds elapse.
fn wait_for(what: &str, cond: impl FnMut() -> bool) {
    wait_within(what, Duration::from_secs(2), cond);
}

/// Polls `cond` until it holds or `limit` elapses.
fn wait_within(what: &str, limit: Duration, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + limit;
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Saturation: with every proof worker blocked inside a gated
    /// request and the dispatch queue full behind them, each further
    /// request receives exactly one well-formed `Busy` frame on a
    /// connection that *stays open* — and once the gate lifts, the
    /// queued requests are served and the shed clients succeed on the
    /// same socket. At the end, the server's request total equals the
    /// exchanges the clients observed succeeding, and its busy total
    /// the sheds.
    #[test]
    fn saturated_pool_sheds_busy_and_recovers(
        workers in 1usize..=3,
        queue in 1usize..=3,
        overflow in 1usize..=4,
    ) {
        let (server, gate, config) = pool_server(workers, queue);
        let addr = server.local_addr();
        let get_headers = Message::GetHeaders.encode();
        let mut served_exchanges = 0u64;

        let get_headers = get_headers.as_slice();
        let replies = std::thread::scope(|scope| -> Result<Vec<Vec<u8>>, NodeError> {
            // Occupy every worker, one at a time so each request has
            // transited the (possibly single-slot) dispatch queue into
            // a worker before the next arrives. `entered` confirms the
            // request is inside a worker, not waiting in the queue.
            let mut held = Vec::new();
            for occupied in 1..=workers {
                held.push(scope.spawn(move || -> Result<Vec<u8>, NodeError> {
                    let mut t = TcpTransport::connect(addr)?;
                    Ok(t.exchange(get_headers)?.0)
                }));
                wait_for("a worker to be occupied", || {
                    gate.entered.load(Ordering::SeqCst) == occupied
                });
            }

            // Fill the dispatch queue behind the blocked workers.
            let queued: Vec<_> = (0..queue)
                .map(|_| {
                    scope.spawn(move || -> Result<Vec<u8>, NodeError> {
                        let mut t = TcpTransport::connect(addr)?;
                        Ok(t.exchange(get_headers)?.0)
                    })
                })
                .collect();
            // `dispatched` counts hand-offs to the pool; with all
            // workers pinned at the gate, everything past the first
            // `workers` hand-offs is sitting in the dispatch queue.
            wait_for("dispatch queue to fill", || {
                server.stats().dispatched == (workers + queue) as u64
            });

            // Every further request is shed with one structured Busy
            // frame — and the connection stays open for later retries.
            let mut shed: Vec<TcpTransport> = Vec::new();
            for _ in 0..overflow {
                let mut t = TcpTransport::connect(addr).unwrap();
                let (reply, _) = t.exchange(get_headers).unwrap();
                assert!(matches!(
                    decode_exact::<Message>(&reply).unwrap(),
                    Message::Busy
                ));
                shed.push(t);
            }
            wait_for("sheds to be counted", || {
                server.stats().busy == overflow as u64
            });

            // Lift the gate: the held and queued requests complete.
            gate.release();
            let mut replies = Vec::new();
            for handle in held.into_iter().chain(queued) {
                replies.push(handle.join().expect("client thread")?);
            }

            // The shed connections were never closed: the same sockets
            // now get real answers.
            for t in &mut shed {
                replies.push(t.exchange(get_headers)?.0);
            }
            Ok(replies)
        });
        let replies = replies.expect("every gated client is eventually served");
        for reply in replies {
            prop_assert!(matches!(
                decode_exact::<Message>(&reply).unwrap(),
                Message::Headers(_)
            ));
            served_exchanges += 1;
        }

        // And an honest end-to-end session still verifies.
        let mut tcp = TcpTransport::connect(addr).unwrap();
        let mut light = LightNode::sync_from(&mut tcp, config).unwrap();
        let history = light
            .run(&QuerySpec::address(Address::new(PROBE)), &mut tcp)
            .unwrap()
            .into_single();
        prop_assert_eq!(history.transactions.len(), 4);
        served_exchanges += 2;
        drop(tcp);

        let stats = server.shutdown();
        prop_assert_eq!(stats.requests, served_exchanges);
        prop_assert_eq!(stats.busy, overflow as u64);
        prop_assert_eq!(stats.errors, 0);
        prop_assert_eq!(stats.connections, (workers + queue + overflow + 1) as u64);
        prop_assert_eq!(stats.workers, workers as u64);
    }
}

#[test]
fn zero_deadline_turns_every_response_into_a_deadline_error() {
    let config = SchemeConfig::new(Scheme::Lvq, BloomParams::new(512, 2).unwrap(), 8).unwrap();
    let workload = WorkloadBuilder::new(config.chain_params())
        .blocks(8)
        .traffic(TrafficModel::tiny())
        .seed(3)
        .build()
        .unwrap();
    let full = Arc::new(FullNode::new(workload.chain).unwrap());
    let server_config = ServerConfig::default().with_request_deadline(Some(Duration::ZERO));
    let server = NodeServer::bind(full, "127.0.0.1:0", server_config).unwrap();

    // No response can beat a zero deadline, so the client receives a
    // small structured DeadlineExceeded error instead of the payload.
    let mut tcp = TcpTransport::connect(server.local_addr()).unwrap();
    match LightNode::sync_from(&mut tcp, config) {
        Err(NodeError::Server(e)) => assert_eq!(e.code, WireErrorCode::DeadlineExceeded),
        other => panic!("expected a deadline refusal, got {other:?}"),
    }
    drop(tcp);

    let stats = server.shutdown();
    assert_eq!(stats.deadline_misses, 1);
    assert_eq!(stats.requests, 0);
    assert_eq!(stats.errors, 1);
}

/// Head-of-line isolation: a v2 request parked inside one of two proof
/// workers must not hold up another connection. While its gate is
/// still closed, a second connection syncs and completes verified
/// queries that match ground truth; once the gate lifts, the parked
/// reply arrives under its own request id.
#[test]
fn parked_proof_does_not_block_other_connections() {
    const PARKED: &str = "1PoolParked";
    const PARKED_ID: u64 = 7;
    let (inner, config, truth) = test_node();
    let gate = Gate::new();
    let node = GatedNode {
        inner,
        gate: Arc::clone(&gate),
        marker: Some(PARKED.as_bytes()),
    };
    let server_config = ServerConfig::default().with_workers(2);
    let server = NodeServer::bind(Arc::new(node), "127.0.0.1:0", server_config).unwrap();
    let addr = server.local_addr();

    let mut parked = TcpStream::connect(addr).unwrap();
    let hello = Message::Hello(HelloInfo {
        max_in_flight: 1,
        features: 0,
    });
    write_frame(&mut parked, &envelope::encode_v2(&hello, 0)).unwrap();
    let ack = read_frame(&mut parked, MAX_FRAME_LEN).unwrap();
    assert!(matches!(envelope::unwrap_v2(&ack), Some((0, _))));
    let request = Message::QueryRequest {
        address: Address::new(PARKED),
        range: None,
    };
    write_frame(&mut parked, &envelope::encode_v2(&request, PARKED_ID)).unwrap();
    wait_for("the parked request to occupy a worker", || {
        gate.entered.load(Ordering::SeqCst) == 1
    });

    // The other connection runs on its own thread so that a server
    // which does block it fails this test instead of hanging it.
    let (done, served) = mpsc::channel();
    let client = std::thread::spawn(move || {
        verified_session(addr, config, &truth, 4);
        done.send(()).unwrap();
    });
    let outcome = served.recv_timeout(Duration::from_secs(10));
    gate.release();
    if let Err(panic) = client.join() {
        std::panic::resume_unwind(panic);
    }
    assert!(
        outcome.is_ok(),
        "a proof parked in one worker held up another connection"
    );

    let reply = read_frame(&mut parked, MAX_FRAME_LEN).unwrap();
    let (id, v1) = envelope::unwrap_v2(&reply).expect("a v2 reply");
    assert_eq!(id, PARKED_ID);
    assert!(matches!(
        decode_exact::<Message>(&v1).unwrap(),
        Message::QueryResponse(_)
    ));
    drop(parked);

    let stats = server.shutdown();
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.by_kind.queries, 5);
}

/// Open connections: one readiness loop holds hundreds of idle
/// connections and keeps serving verified sessions through the crowd
/// without closing any of them. Both ends of every connection are
/// descriptors in this process, so the crowd is sized to the soft
/// `RLIMIT_NOFILE`, leaving room for the harness.
#[test]
fn idle_crowd_stays_open_while_sessions_are_served() {
    const TARGET: u64 = 512;
    const HEADROOM: u64 = 256;
    let soft = mio::rlimit::raise_nofile(2 * TARGET + HEADROOM)
        .or_else(|_| mio::rlimit::nofile().map(|(soft, _)| soft))
        .unwrap();
    let opened = TARGET.min(soft.saturating_sub(HEADROOM) / 2);
    assert!(opened >= 64, "RLIMIT_NOFILE {soft} is too small to test");

    let (full, config, truth) = test_node();
    let server = NodeServer::bind(Arc::new(full), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let mut crowd = Vec::with_capacity(opened as usize);
    for i in 0..opened {
        crowd.push(TcpStream::connect(addr).unwrap());
        // Pace the dial so the kernel's accept backlog never overflows.
        if i % 128 == 127 {
            wait_within(
                "the loop to accept a batch",
                Duration::from_secs(10),
                || server.stats().connections > i,
            );
        }
    }
    wait_within("every connection to open", Duration::from_secs(10), || {
        server.stats().connections_open >= opened
    });

    verified_session(addr, config, &truth, 6);
    let open = server.stats().connections_open;
    assert!(open >= opened, "the crowd fell to {open} of {opened}");

    drop(crowd);
    let stats = server.shutdown();
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.busy, 0);
}

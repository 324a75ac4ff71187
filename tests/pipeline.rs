//! Protocol-negotiation and pipelining edge tests: v1↔v2 byte
//! identity, the typed refusal from a v1-only peer, duplicate and
//! unknown request ids, and out-of-order response reassembly — over
//! both the in-process [`FullNode`] and a real [`NodeServer`] socket.

use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use proptest::prelude::*;

use lvq::codec::{decode_exact, Encodable};
use lvq::node::frame::{read_frame, write_frame, MAX_FRAME_LEN};
use lvq::node::{
    envelope, Handled, HelloInfo, Message, NodeError, ServeNode, WireError, WireErrorCode,
    PROTOCOL_VERSION,
};
use lvq::prelude::*;

/// A small chain with two four-transaction probe addresses.
fn test_node() -> (FullNode, SchemeConfig) {
    let config = SchemeConfig::new(Scheme::Lvq, BloomParams::new(512, 2).unwrap(), 8).unwrap();
    let workload = WorkloadBuilder::new(config.chain_params())
        .blocks(8)
        .traffic(TrafficModel::tiny())
        .seed(5)
        .probe("1Slow", 4, 4)
        .probe("1Quick", 4, 4)
        .build()
        .unwrap();
    (FullNode::new(workload.chain).unwrap(), config)
}

fn shared_node() -> &'static FullNode {
    static NODE: OnceLock<FullNode> = OnceLock::new();
    NODE.get_or_init(|| test_node().0)
}

/// Any well-formed v1 request a light client can send. Addresses mix
/// the workload's real probes with misses.
fn address_strategy() -> impl Strategy<Value = Address> {
    (0u32..6).prop_map(|n| match n {
        0 => Address::new("1Slow"),
        1 => Address::new("1Quick"),
        n => Address::new(format!("1Miss{n}").as_str()),
    })
}

fn request_strategy() -> impl Strategy<Value = Message> {
    prop_oneof![
        Just(Message::GetHeaders),
        (0u64..40).prop_map(|height| Message::GetHeadersFrom {
            height,
            tip_hash: Hash256::ZERO,
        }),
        address_strategy().prop_map(|address| Message::QueryRequest {
            address,
            range: None
        }),
        (address_strategy(), 1u64..8, 0u64..8).prop_map(|(address, lo, span)| {
            Message::QueryRequest {
                address,
                range: Some((lo, lo + span)),
            }
        }),
        proptest::collection::vec(address_strategy(), 1..4).prop_map(|addresses| {
            Message::BatchQueryRequest {
                addresses,
                range: None,
            }
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole identity: serving a request through the v2
    /// envelope produces byte-for-byte the v1 response under the same
    /// id — the envelope is a pure splice, never a re-encode.
    #[test]
    fn v2_exchange_is_v1_byte_identical_modulo_id(
        request in request_strategy(),
        id in 1u64..u64::MAX,
    ) {
        let full = shared_node();
        let v1 = request.encode();
        let v1_reply = full.handle(&v1).unwrap();
        let v2_reply = full.handle(&envelope::wrap_v2(&v1, id)).unwrap();
        prop_assert_eq!(v2_reply, envelope::wrap_v2(&v1_reply, id));
    }
}

/// Over a real socket: a v1 client and a negotiated v2 client receive
/// identical payload bytes from the same [`NodeServer`], with the v2
/// exchange metering exactly the envelope overhead on top.
#[test]
fn v1_and_v2_wire_exchanges_are_byte_identical() {
    let (full, _) = test_node();
    let full = Arc::new(full);
    let server =
        NodeServer::bind(Arc::clone(&full), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let mut v1 = TcpTransport::connect(addr).unwrap();
    let mut v2 = PipelinedTcpTransport::negotiate(addr, TcpOptions::default(), 8).unwrap();
    assert_eq!(v2.granted(), 8);

    let requests = [
        Message::GetHeaders,
        Message::QueryRequest {
            address: Address::new("1Quick"),
            range: None,
        },
        Message::BatchQueryRequest {
            addresses: vec![Address::new("1Quick"), Address::new("1Slow")],
            range: Some((1, 8)),
        },
    ];
    let overhead = (envelope::V2_HEAD - 1) as u64;
    for request in requests {
        let encoded = request.encode();
        let (v1_reply, v1_traffic) = v1.exchange(&encoded).unwrap();
        let (v2_reply, v2_traffic) = v2.exchange(&encoded).unwrap();
        // The server over TCP serves the very bytes the in-process
        // node produces, and v2 carries the same payload as v1.
        assert_eq!(v1_reply, full.handle(&encoded).unwrap());
        assert_eq!(v2_reply, v1_reply);
        assert_eq!(
            v2_traffic.request_bytes,
            v1_traffic.request_bytes + overhead
        );
        assert_eq!(
            v2_traffic.response_bytes,
            v1_traffic.response_bytes + overhead
        );
    }
    drop(v1);
    drop(v2);
    let stats = server.shutdown();
    assert_eq!(stats.errors, 0);
}

/// A v2 client dialing a v1-only peer (emulated with a raw frame loop
/// that refuses the version byte exactly as the old server did) gets
/// the peer's refusal back as a typed, non-retryable error — promptly,
/// and without a second protocol path on the client.
#[test]
fn v1_only_peer_refusal_is_a_typed_error() {
    let (full, _) = test_node();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        while let Ok(payload) = read_frame(&mut stream, MAX_FRAME_LEN) {
            let reply = if payload.first() == Some(&PROTOCOL_VERSION) {
                full.handle(&payload).expect("well-formed v1 request")
            } else {
                // What a v1 server answers to an unknown version byte.
                Message::Error(WireError::with_detail(
                    WireErrorCode::UnsupportedVersion,
                    u64::from(payload.first().copied().unwrap_or(0)),
                ))
                .encode()
            };
            write_frame(&mut stream, &reply).unwrap();
        }
    });

    let options = TcpOptions::new().with_read_timeout(Some(Duration::from_secs(5)));
    let err = PipelinedTcpTransport::negotiate(addr, options, 8).unwrap_err();
    let NodeError::Server(refusal) = &err else {
        panic!("expected the peer's refusal, got {err:?}")
    };
    assert_eq!(refusal.code, WireErrorCode::UnsupportedVersion);
    assert!(!err.retryable(), "a version refusal never heals on retry");
    // The failed negotiation dropped the connection, so the peer's
    // frame loop ends instead of hanging on a half-open socket.
    server.join().unwrap();
}

/// Reusing an in-flight request id is refused with a structured
/// [`WireErrorCode::DuplicateRequestId`] under that id — the original
/// request still completes normally.
#[test]
fn duplicate_request_id_is_refused_with_a_structured_error() {
    let (full, _) = test_node();
    let server = NodeServer::bind(Arc::new(full), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();

    let hello = envelope::encode_v2(
        &Message::Hello(HelloInfo {
            max_in_flight: 4,
            features: 0,
        }),
        0,
    );
    write_frame(&mut stream, &hello).unwrap();
    let ack = read_frame(&mut stream, MAX_FRAME_LEN).unwrap();
    let (ack_id, ack_v1) = envelope::unwrap_v2(&ack).unwrap();
    assert_eq!(ack_id, 0);
    assert!(matches!(
        decode_exact::<Message>(&ack_v1).unwrap(),
        Message::HelloAck(_)
    ));

    // Both frames under id 7 in one write, so the second is parsed
    // while the first is still in flight.
    let request = envelope::wrap_v2(&Message::GetHeaders.encode(), 7);
    let mut burst = Vec::new();
    for _ in 0..2 {
        burst.extend_from_slice(&u32::try_from(request.len()).unwrap().to_le_bytes());
        burst.extend_from_slice(&request);
    }
    stream.write_all(&burst).unwrap();

    let mut replies = Vec::new();
    for _ in 0..2 {
        let reply = read_frame(&mut stream, MAX_FRAME_LEN).unwrap();
        let (id, v1) = envelope::unwrap_v2(&reply).unwrap();
        assert_eq!(id, 7);
        replies.push(decode_exact::<Message>(&v1).unwrap());
    }
    assert!(replies.iter().any(|m| matches!(m, Message::Headers(_))));
    assert!(replies.iter().any(|m| matches!(
        m,
        Message::Error(e) if e.code == WireErrorCode::DuplicateRequestId && e.detail == 7
    )));
    drop(stream);

    let stats = server.shutdown();
    assert_eq!(stats.requests, 1);
    assert_eq!(stats.errors, 1);
}

/// A response carrying an id the client never submitted surfaces as
/// [`NodeError::UnknownRequestId`] — a corrupt reply stream is never
/// silently matched to some other outstanding request.
#[test]
fn unknown_request_id_is_surfaced_to_the_client() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        // Ack the handshake honestly…
        let _hello = read_frame(&mut stream, MAX_FRAME_LEN).unwrap();
        let ack = envelope::encode_v2(
            &Message::HelloAck(HelloInfo {
                max_in_flight: 4,
                features: 0,
            }),
            0,
        );
        write_frame(&mut stream, &ack).unwrap();
        // …then answer the first request under a fabricated id.
        let _request = read_frame(&mut stream, MAX_FRAME_LEN).unwrap();
        let reply = envelope::wrap_v2(&Message::Busy.encode(), 999);
        write_frame(&mut stream, &reply).unwrap();
    });

    let mut v2 = PipelinedTcpTransport::negotiate(addr, TcpOptions::default(), 4).unwrap();
    v2.submit(&Message::GetHeaders.encode()).unwrap();
    match v2.recv() {
        Err(NodeError::UnknownRequestId { id: 999 }) => {}
        other => panic!("expected an unknown-id fault, got {other:?}"),
    }
    drop(v2);
    server.join().unwrap();
}

/// A [`FullNode`] that stalls any request mentioning the `1Slow`
/// probe, forcing its response to finish after later requests.
struct SlowNode {
    inner: FullNode,
}

impl ServeNode for SlowNode {
    fn handle_classified(&self, request: &[u8]) -> Handled {
        if request.windows(5).any(|w| w == b"1Slow") {
            std::thread::sleep(Duration::from_millis(200));
        }
        self.inner.handle_classified(request)
    }
}

/// Out-of-order completion end to end: a slow proof submitted first
/// comes back last on the wire, and [`LightNode::run_pipelined`]
/// still returns verified results in spec order — with a window
/// smaller than the spec list, so the submit-as-you-drain loop and the
/// id-based reassembly are both exercised.
#[test]
fn out_of_order_responses_are_reassembled_in_spec_order() {
    let (full, config) = test_node();
    let node = Arc::new(SlowNode { inner: full });
    let server_config = ServerConfig::default().with_workers(2);
    let server = NodeServer::bind(node, "127.0.0.1:0", server_config).unwrap();
    let addr = server.local_addr();

    let mut v2 = PipelinedTcpTransport::negotiate(addr, TcpOptions::default(), 2).unwrap();
    assert_eq!(v2.granted(), 2);

    // Raw arrival order: the slow request goes in first, comes out
    // last.
    let slow = Message::QueryRequest {
        address: Address::new("1Slow"),
        range: None,
    }
    .encode();
    let quick = Message::QueryRequest {
        address: Address::new("1Quick"),
        range: None,
    }
    .encode();
    let slow_id = v2.submit(&slow).unwrap();
    let quick_id = v2.submit(&quick).unwrap();
    assert_eq!(v2.in_flight(), 2);
    let (first, _, _) = v2.recv().unwrap();
    let (second, _, _) = v2.recv().unwrap();
    assert_eq!(
        first, quick_id,
        "the quick proof must overtake the slow one"
    );
    assert_eq!(second, slow_id);

    // The high-level client reassembles into spec order regardless:
    // five specs of every shape through a window of two, the slow one
    // first.
    let mut light = LightNode::sync_from(&mut v2, config).unwrap();
    let specs = [
        QuerySpec::address(Address::new("1Slow")),
        QuerySpec::address(Address::new("1Quick")),
        QuerySpec::addresses(vec![Address::new("1Quick"), Address::new("1Miss2")]),
        QuerySpec::address(Address::new("1Quick")).range(3, 7),
        QuerySpec::address(Address::new("1Miss3")),
    ];
    let exchanges_before = light.exchanges();
    let runs = light.run_pipelined(&specs, &mut v2).unwrap();
    assert_eq!(runs.len(), specs.len());
    assert_eq!(light.exchanges() - exchanges_before, specs.len() as u64);

    // Each pipelined run verifies to exactly what the blocking API
    // produces, and its traffic is the blocking bytes plus the envelope
    // overhead in each direction.
    let mut v1 = TcpTransport::connect(addr).unwrap();
    let overhead = (envelope::V2_HEAD - 1) as u64;
    for (spec, run) in specs.iter().zip(&runs) {
        let blocking = light.run(spec, &mut v1).unwrap();
        assert_eq!(run.histories, blocking.histories);
        assert_eq!(
            run.traffic.request_bytes,
            blocking.traffic.request_bytes + overhead
        );
        assert_eq!(
            run.traffic.response_bytes,
            blocking.traffic.response_bytes + overhead
        );
    }
    assert_eq!(runs[0].histories[0].transactions.len(), 4);
    drop(v1);
    drop(v2);

    let stats = server.shutdown();
    assert_eq!(stats.errors, 0);
    assert!(stats.pipelined_depth_highwater >= 2);
}

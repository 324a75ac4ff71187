//! Transport-layer tests: the in-process [`LocalTransport`] and the
//! framed-TCP [`TcpTransport`] must be observationally identical —
//! byte-for-byte equal responses and byte-for-byte equal [`Traffic`]
//! accounting — and a [`NodeServer`] must survive adversarial clients.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use lvq::codec::{decode_exact, Encodable};
use lvq::node::{
    Handled, Message, RequestKind, ResyncOutcome, WireError, WireErrorCode, PROTOCOL_VERSION,
};
use lvq::prelude::*;

fn workload_for(scheme: Scheme, segment_len: u64, blocks: u64, seed: u64) -> Workload {
    let config = SchemeConfig::new(scheme, BloomParams::new(512, 2).unwrap(), segment_len).unwrap();
    WorkloadBuilder::new(config.chain_params())
        .blocks(blocks)
        .traffic(TrafficModel::tiny())
        .seed(seed)
        .probe("1WireProbe", 6, 4.min(blocks))
        .build()
        .unwrap()
}

fn scheme_strategy() -> impl Strategy<Value = Scheme> {
    prop_oneof![
        Just(Scheme::Strawman),
        Just(Scheme::LvqWithoutBmt),
        Just(Scheme::LvqWithoutSmt),
        Just(Scheme::Lvq),
    ]
}

/// Polls `cond` until it holds or two seconds elapse.
fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(2);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The same request bytes through a `LocalTransport` and through a
    /// `TcpTransport`-to-`NodeServer` pair must produce byte-identical
    /// response payloads and identical `Traffic` — the frame prefix is
    /// wire overhead, never measurement.
    #[test]
    fn tcp_and_local_transports_are_byte_identical(
        scheme in scheme_strategy(),
        blocks in 4u64..32,
        seg_exp in 1u32..5,
        seed in 0u64..1_000,
    ) {
        let segment_len = 1u64 << seg_exp;
        let workload = workload_for(scheme, segment_len, blocks, seed);
        let addresses: Vec<Address> =
            vec![Address::new("1WireProbe"), Address::new("1Nobody")];

        let full = Arc::new(FullNode::new(workload.chain).unwrap());
        let server =
            NodeServer::bind(Arc::clone(&full), "127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut tcp = TcpTransport::connect(server.local_addr()).unwrap();
        let mut local = LocalTransport::new(full.as_ref());

        let lo = 1 + seed % blocks;
        let hi = (lo + segment_len).min(blocks);
        let requests = vec![
            Message::GetHeaders,
            Message::QueryRequest { address: addresses[0].clone(), range: None },
            Message::QueryRequest { address: addresses[1].clone(), range: Some((lo, hi)) },
            Message::BatchQueryRequest { addresses: addresses.clone(), range: None },
            Message::BatchQueryRequest { addresses: addresses.clone(), range: Some((lo, hi)) },
        ];
        for request in &requests {
            let bytes = request.encode();
            let (tcp_reply, tcp_traffic) = tcp.exchange(&bytes).unwrap();
            let (local_reply, local_traffic) = local.exchange(&bytes).unwrap();
            prop_assert_eq!(&tcp_reply, &local_reply);
            prop_assert_eq!(tcp_traffic, local_traffic);
            prop_assert_eq!(tcp_traffic.request_bytes, bytes.len() as u64);
            prop_assert_eq!(tcp_traffic.response_bytes, tcp_reply.len() as u64);
        }
        prop_assert_eq!(tcp.cumulative_traffic(), local.cumulative_traffic());
        prop_assert_eq!(tcp.exchanges(), requests.len() as u64);
        prop_assert_eq!(tcp.exchanges(), local.exchanges());

        let stats = server.shutdown();
        prop_assert_eq!(stats.requests, requests.len() as u64);
        prop_assert_eq!(stats.errors, 0);
        prop_assert_eq!(stats.request_bytes, tcp.cumulative_traffic().request_bytes);
        prop_assert_eq!(stats.response_bytes, tcp.cumulative_traffic().response_bytes);
    }

    /// A full verified light-node session behaves identically over both
    /// transports: same histories, same measured traffic.
    #[test]
    fn light_sessions_agree_across_transports(
        scheme in scheme_strategy(),
        blocks in 4u64..24,
        seed in 0u64..1_000,
    ) {
        let workload = workload_for(scheme, 8, blocks, seed);
        let config = SchemeConfig::new(scheme, BloomParams::new(512, 2).unwrap(), 8).unwrap();
        let address = Address::new("1WireProbe");

        let full = Arc::new(FullNode::new(workload.chain).unwrap());
        let server =
            NodeServer::bind(Arc::clone(&full), "127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut tcp = TcpTransport::connect(server.local_addr()).unwrap();
        let mut local = LocalTransport::new(full.as_ref());

        let mut light_tcp = LightNode::sync_from(&mut tcp, config).unwrap();
        let mut light_local = LightNode::sync_from(&mut local, config).unwrap();
        let spec = QuerySpec::address(address);
        let over_tcp = light_tcp.run(&spec, &mut tcp).unwrap();
        let over_local = light_local.run(&spec, &mut local).unwrap();
        prop_assert_eq!(over_tcp.histories, over_local.histories);
        prop_assert_eq!(over_tcp.traffic, over_local.traffic);
        prop_assert_eq!(
            light_tcp.cumulative_traffic(),
            light_local.cumulative_traffic()
        );
    }
}

/// Spins up a small server for the adversarial tests.
fn adversarial_server() -> (NodeServer, SchemeConfig, Address) {
    let config = SchemeConfig::new(Scheme::Lvq, BloomParams::new(512, 2).unwrap(), 8).unwrap();
    let workload = workload_for(Scheme::Lvq, 8, 16, 7);
    let full = Arc::new(FullNode::new(workload.chain).unwrap());
    let server = NodeServer::bind(full, "127.0.0.1:0", ServerConfig::default()).unwrap();
    (server, config, Address::new("1WireProbe"))
}

/// After the adversary is done, an honest client must still be served.
fn assert_still_serving(server: &NodeServer, config: SchemeConfig, address: &Address) {
    let mut tcp = TcpTransport::connect(server.local_addr()).unwrap();
    let mut light = LightNode::sync_from(&mut tcp, config).unwrap();
    let history = light
        .run(&QuerySpec::address(address.clone()), &mut tcp)
        .unwrap()
        .into_single();
    assert_eq!(history.transactions.len(), 6);
}

/// Reads one length-prefixed frame and decodes it as a [`Message`].
fn read_message(stream: &mut TcpStream) -> Message {
    let mut header = [0u8; 4];
    stream.read_exact(&mut header).unwrap();
    let mut payload = vec![0u8; u32::from_le_bytes(header) as usize];
    stream.read_exact(&mut payload).unwrap();
    decode_exact::<Message>(&payload).unwrap()
}

#[test]
fn garbage_payload_gets_a_structured_error_and_the_connection_survives() {
    let (server, config, address) = adversarial_server();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // A well-formed frame whose payload names the right protocol
    // version but an unknown message tag.
    stream.write_all(&5u32.to_le_bytes()).unwrap();
    stream
        .write_all(&[PROTOCOL_VERSION, 0xEE, b'h', b'i', 0x01])
        .unwrap();
    // The server answers with a structured refusal on the SAME
    // connection instead of dropping it...
    assert_eq!(
        read_message(&mut stream),
        Message::Error(WireError::with_detail(WireErrorCode::UnknownTag, 0xEE))
    );
    // ...which still works for real requests afterwards.
    let get_headers = Message::GetHeaders.encode();
    stream
        .write_all(&u32::try_from(get_headers.len()).unwrap().to_le_bytes())
        .unwrap();
    stream.write_all(&get_headers).unwrap();
    assert!(matches!(read_message(&mut stream), Message::Headers(_)));
    drop(stream);
    wait_for("decode error to be counted", || server.stats().errors == 1);
    assert_still_serving(&server, config, &address);
}

#[test]
fn future_protocol_version_is_refused_not_dropped() {
    let (server, config, address) = adversarial_server();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // A client from the future: a perfectly formed request whose
    // version byte says 255.
    let mut payload = Message::GetHeaders.encode();
    payload[0] = 255;
    stream
        .write_all(&u32::try_from(payload.len()).unwrap().to_le_bytes())
        .unwrap();
    stream.write_all(&payload).unwrap();
    assert_eq!(
        read_message(&mut stream),
        Message::Error(WireError::with_detail(
            WireErrorCode::UnsupportedVersion,
            255
        ))
    );
    drop(stream);
    wait_for("version error to be counted", || server.stats().errors == 1);
    assert_still_serving(&server, config, &address);
    let stats = server.shutdown();
    assert_eq!(stats.errors, 1);
    assert_eq!(stats.by_kind.invalid, 1);
}

#[test]
fn oversized_frame_is_rejected_before_allocation() {
    let (server, config, address) = adversarial_server();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // Announce a frame just over the server's limit and keep the
    // connection open: the rejection must come from the header alone.
    stream.write_all(&u32::MAX.to_le_bytes()).unwrap();
    let mut sink = Vec::new();
    let _ = stream.read_to_end(&mut sink);
    assert!(sink.is_empty());
    wait_for("oversized frame to be counted", || {
        server.stats().errors == 1
    });
    assert_still_serving(&server, config, &address);
}

#[test]
fn truncated_frame_is_a_mid_request_disconnect() {
    let (server, config, address) = adversarial_server();
    {
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        // Promise 100 bytes, deliver 10, vanish.
        stream.write_all(&100u32.to_le_bytes()).unwrap();
        stream.write_all(&[0u8; 10]).unwrap();
    }
    wait_for("disconnect to be counted", || server.stats().errors == 1);
    assert_still_serving(&server, config, &address);
}

#[test]
fn clean_disconnect_is_not_an_error() {
    let (server, config, address) = adversarial_server();
    drop(TcpStream::connect(server.local_addr()).unwrap());
    wait_for("connection to be accepted", || {
        server.stats().connections == 1
    });
    // Give the worker time to observe EOF; a clean close between
    // requests is the normal end of a session, not a fault.
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(server.stats().errors, 0);
    assert_still_serving(&server, config, &address);
    let stats = server.shutdown();
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.connections, 2);
}

#[test]
fn several_adversaries_cannot_starve_honest_clients() {
    let (server, config, address) = adversarial_server();
    for round in 0..3u32 {
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        match round % 3 {
            // Frame-level faults: the server can only drop the
            // connection (a length-prefixed stream cannot resync).
            0 => stream.write_all(&u32::MAX.to_le_bytes()).unwrap(),
            1 => {
                stream.write_all(&64u32.to_le_bytes()).unwrap();
                stream.write_all(&[7u8; 8]).unwrap();
            }
            // Payload-level fault: a one-byte payload whose version
            // byte is garbage earns a structured refusal, which the
            // adversary politely reads before vanishing (so the close
            // is a clean EOF, not a write race).
            _ => {
                stream.write_all(&1u32.to_le_bytes()).unwrap();
                stream.write_all(&[0xEE]).unwrap();
                assert!(matches!(read_message(&mut stream), Message::Error(_)));
            }
        }
        drop(stream);
        assert_still_serving(&server, config, &address);
    }
    wait_for("all three faults to be counted", || {
        server.stats().errors == 3
    });
    let stats = server.shutdown();
    assert_eq!(stats.errors, 3);
    // Three honest sessions, each a header sync plus one query; the
    // adversaries never got a single request through.
    assert_eq!(stats.requests, 3 * 2);
    assert_eq!(stats.by_kind.invalid, 1);
}

/// A node whose every answer is one 24 MiB blob — more than the
/// kernel's socket buffers swallow, so most of it waits in the
/// server's write queue for the reader.
struct BlobNode;

const BLOB_LEN: usize = 24 << 20;

impl ServeNode for BlobNode {
    fn handle_classified(&self, _request: &[u8]) -> Handled {
        Handled {
            kind: RequestKind::Query,
            bytes: vec![0xB1; BLOB_LEN],
            error: None,
        }
    }
}

/// Connects to a fresh [`BlobNode`] server, asks for the blob, and
/// reads its frame header plus `upfront` payload bytes.
fn blob_reader(upfront: usize) -> (NodeServer<BlobNode>, TcpStream) {
    let server =
        NodeServer::bind(Arc::new(BlobNode), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.write_all(&1u32.to_le_bytes()).unwrap();
    stream.write_all(&[PROTOCOL_VERSION]).unwrap();
    let mut head = vec![0u8; 4 + upfront];
    stream.read_exact(&mut head).unwrap();
    assert_eq!(head[..4], (BLOB_LEN as u32).to_le_bytes());
    (server, stream)
}

/// The write-stall limit grows with what is still queued for the peer:
/// an honest reader that sits out half a second in the middle of a
/// multi-MB reply — a client thread that lost its core to a dozen
/// others — is not a dead peer, whatever the 200 ms base limit says.
#[test]
fn slow_reader_of_a_large_reply_is_not_evicted() {
    let (server, mut stream) = blob_reader(1 << 20);
    std::thread::sleep(Duration::from_millis(500));
    let mut rest = vec![0u8; BLOB_LEN - (1 << 20)];
    stream
        .read_exact(&mut rest)
        .expect("the server kept the connection through the pause");
    assert!(rest.iter().all(|b| *b == 0xB1));
    let stats = server.shutdown();
    assert_eq!((stats.requests, stats.errors), (1, 0));
}

/// …and a reader that never comes back is still dropped, counted as a
/// fault, and its queue freed — within the time its backlog would take
/// at the floor drain rate, not never.
#[test]
fn reader_that_never_drains_is_evicted() {
    let (server, stream) = blob_reader(0);
    let started = Instant::now();
    while server.stats().errors == 0 {
        assert!(
            started.elapsed() < Duration::from_secs(20),
            "a peer that reads nothing was never dropped"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    // 200 ms plus at most 24 MiB at 4 MiB/s; never *before* the base limit.
    assert!(started.elapsed() > Duration::from_millis(200));
    assert!(started.elapsed() < Duration::from_millis(200 + 6000 + 2000));
    assert_eq!(server.stats().connections_open, 0);
    drop(stream);
    let stats = server.shutdown();
    assert_eq!((stats.requests, stats.errors), (1, 1));
}

/// A v1 request that arrives behind a reply larger than the socket
/// buffers waits, unparsed, until that reply has drained — and must be
/// served then, not dropped later as a peer stalled mid-frame.
#[test]
fn v1_request_parked_behind_a_large_reply_is_served() {
    let server =
        NodeServer::bind(Arc::new(BlobNode), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut two_frames = Vec::new();
    for _ in 0..2 {
        two_frames.extend_from_slice(&1u32.to_le_bytes());
        two_frames.push(PROTOCOL_VERSION);
    }
    stream.write_all(&two_frames).unwrap();
    // Let the first reply fill the socket buffers, so its tail drains
    // through writable events.
    std::thread::sleep(Duration::from_millis(50));
    let mut blob = vec![0u8; BLOB_LEN];
    for reply in 0..2 {
        let mut header = [0u8; 4];
        stream
            .read_exact(&mut header)
            .unwrap_or_else(|e| panic!("reply {reply}: {e}"));
        assert_eq!(header, (BLOB_LEN as u32).to_le_bytes());
        stream.read_exact(&mut blob).unwrap();
    }
    drop(stream);
    let stats = server.shutdown();
    assert_eq!((stats.requests, stats.errors), (2, 0));
}

/// A chain of coinbase-only blocks up to `blocks`; equal prefixes give
/// equal headers, so a longer chain is a true extension of a shorter
/// one.
fn miner_chain(config: SchemeConfig, blocks: u32) -> Chain {
    let mut builder = ChainBuilder::new(config.chain_params()).unwrap();
    for h in 1..=blocks {
        builder
            .push_block(vec![Transaction::coinbase(Address::new("1Miner"), 50, h)])
            .unwrap();
    }
    builder.finish()
}

#[test]
fn incremental_sync_follows_a_growing_chain_over_tcp() {
    let config = SchemeConfig::new(Scheme::Lvq, BloomParams::new(512, 2).unwrap(), 4).unwrap();
    let miner = Address::new("1Miner");

    // Day one: the chain is 8 blocks long.
    let full = Arc::new(FullNode::new(miner_chain(config, 8)).unwrap());
    let server = NodeServer::bind(full, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut tcp = TcpTransport::connect(server.local_addr()).unwrap();
    let mut light = LightNode::sync_from(&mut tcp, config).unwrap();
    assert_eq!(light.client().tip_height(), 8);
    drop(tcp);
    server.shutdown();

    // Day two: the same chain has grown to 12 blocks; the light node
    // fetches only the 4 headers it is missing.
    let grown = Arc::new(FullNode::new(miner_chain(config, 12)).unwrap());
    let server = NodeServer::bind(grown, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut tcp = TcpTransport::connect(server.local_addr()).unwrap();
    assert_eq!(light.sync_new(&mut tcp).unwrap(), ResyncOutcome::Synced(4));
    assert_eq!(light.client().tip_height(), 12);
    // Caught up: a second incremental sync fetches nothing — the peer
    // has nothing above our tip, which the typed outcome reports as
    // `PeerBehind` (at or behind us).
    assert_eq!(light.sync_new(&mut tcp).unwrap(), ResyncOutcome::PeerBehind);

    // The freshly appended headers verify queries over the new blocks.
    let history = light
        .run(&QuerySpec::address(miner), &mut tcp)
        .unwrap()
        .into_single();
    assert_eq!(history.transactions.len(), 12);

    drop(tcp);
    let stats = server.shutdown();
    assert_eq!(stats.by_kind.get_headers_from, 2);
    assert_eq!(stats.errors, 0);
}

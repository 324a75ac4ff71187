//! Chaos-facing integration tests: soundness under random fault
//! injection, and batch continuity across a real server restart.
//!
//! The property worth any amount of CPU: a light node under a hostile
//! transport may *fail*, but a run that completes is *truthful*. The
//! reconnect test then shows the flip side — with a self-healing
//! transport, a server restart in the middle of a batch costs nothing
//! but a re-dial, and the final answers are identical to a fault-free
//! run's.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use lvq_bloom::BloomParams;
use lvq_chain::{Address, ChainBuilder, Transaction};
use lvq_core::{Scheme, SchemeConfig};
use lvq_crypto::Hash256;
use lvq_node::{
    FaultPlan, FaultyTransport, FullNode, LightNode, LocalTransport, NodeServer, QueryRun,
    QuerySpec, ReconnectingTcpTransport, Retrier, RetryPolicy, ServerConfig,
};

/// A 12-block LVQ chain with three addresses of different shapes: the
/// ubiquitous miner, a sparse receiver, and an address the chain never
/// saw (the completeness-sensitive case).
fn full_node() -> FullNode {
    let config = SchemeConfig::new(Scheme::Lvq, BloomParams::new(64, 2).unwrap(), 4).unwrap();
    let mut builder = ChainBuilder::new(config.chain_params()).unwrap();
    for h in 1..=12u32 {
        let mut txs = vec![Transaction::coinbase(Address::new("1Miner"), 50, h)];
        if h % 3 == 0 {
            txs.push(Transaction::coinbase(Address::new("1Sparse"), 7, 100 + h));
        }
        builder.push_block(txs).unwrap();
    }
    FullNode::new(builder.finish()).unwrap()
}

fn probe_addresses() -> Vec<Address> {
    vec![
        Address::new("1Miner"),
        Address::new("1Sparse"),
        Address::new("1Absent"),
    ]
}

/// Ground truth straight from the chain's own index.
fn truth_of(full: &FullNode, address: &Address) -> Vec<(u64, Hash256)> {
    full.chain()
        .history_of(address)
        .into_iter()
        .map(|(height, tx)| (height, tx.txid()))
        .collect()
}

fn digest(run: &QueryRun) -> Vec<(u64, Hash256)> {
    run.histories[0]
        .transactions
        .iter()
        .map(|(height, tx)| (*height, tx.txid()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    /// For ANY fault seed and any composite corruption rate, a query
    /// that completes equals the chain's ground truth. Errors — retry
    /// exhaustion, a replayed stale frame that fails verification —
    /// are acceptable outcomes; a wrong answer never is.
    #[test]
    fn completed_runs_are_truthful_under_chaos(
        seed in any::<u64>(),
        rate_pct in 5u32..45,
    ) {
        let rate = f64::from(rate_pct) / 100.0;
        let full = full_node();
        let config = full.config();
        let expected: Vec<_> = probe_addresses()
            .iter()
            .map(|a| truth_of(&full, a))
            .collect();

        let mut chaotic = FaultyTransport::new(
            LocalTransport::new(&full),
            FaultPlan::composite(rate),
            seed,
        );
        // Microsecond backoffs: the property needs the retry *logic*,
        // not the wall-clock courtesy.
        let policy = RetryPolicy::new(8)
            .backoff(Duration::from_micros(50), Duration::from_micros(500));
        let mut retrier = Retrier::new(policy, seed ^ 0x5EED);

        // Syncing under chaos may legitimately fail; only a lie is
        // forbidden, and a lie at sync time would surface as a wrong
        // answer below.
        let Ok(mut light) = retrier.run(|_| LightNode::sync_from(&mut chaotic, config)) else {
            return;
        };
        for (address, expect) in probe_addresses().iter().zip(&expected) {
            let spec = QuerySpec::address(address.clone());
            // Failing loudly is sound — every fault either breaks the
            // frame (decode error), breaks the proof (verification
            // error), or delays the answer; none may ever *change* it.
            if let Ok(run) = light.run_with_retry(&spec, &mut chaotic, &mut retrier) {
                prop_assert_eq!(
                    &digest(&run),
                    expect,
                    "completed run must match ground truth (seed {}, rate {})",
                    seed,
                    rate
                );
            }
        }
    }

    /// The batched path holds the same line: a completed multi-address
    /// run matches ground truth for every target at once.
    #[test]
    fn completed_batches_are_truthful_under_chaos(
        seed in any::<u64>(),
        rate_pct in 5u32..35,
    ) {
        let rate = f64::from(rate_pct) / 100.0;
        let full = full_node();
        let config = full.config();
        let expected: Vec<_> = probe_addresses()
            .iter()
            .map(|a| truth_of(&full, a))
            .collect();

        let mut chaotic = FaultyTransport::new(
            LocalTransport::new(&full),
            FaultPlan::composite(rate),
            seed,
        );
        let policy = RetryPolicy::new(8)
            .backoff(Duration::from_micros(50), Duration::from_micros(500));
        let mut retrier = Retrier::new(policy, seed ^ 0xBA7C);

        let Ok(mut light) = retrier.run(|_| LightNode::sync_from(&mut chaotic, config)) else {
            return;
        };
        let spec = QuerySpec::addresses(probe_addresses());
        if let Ok(run) = light.run_with_retry(&spec, &mut chaotic, &mut retrier) {
            for (history, expect) in run.histories.iter().zip(&expected) {
                let got: Vec<(u64, Hash256)> = history
                    .transactions
                    .iter()
                    .map(|(height, tx)| (*height, tx.txid()))
                    .collect();
                prop_assert_eq!(&got, expect, "batched run must match ground truth");
            }
        }
    }
}

/// Binds to `addr`, retrying while the OS releases the port the
/// previous server held.
fn rebind(full: Arc<FullNode>, addr: &str) -> NodeServer {
    for _ in 0..200 {
        match NodeServer::bind(Arc::clone(&full), addr, ServerConfig::default()) {
            Ok(server) => return server,
            Err(_) => std::thread::sleep(Duration::from_millis(25)),
        }
    }
    panic!("port never became available for the restarted server");
}

/// Kill the server halfway through a batch of queries, restart it on
/// the same port, and keep going on the SAME transport: the client
/// re-dials, the batch completes, and every answer is identical to a
/// fault-free run over a local pipe.
#[test]
fn batch_survives_a_server_restart_byte_for_byte() {
    let full = Arc::new(full_node());
    let config = full.config();
    let addresses = probe_addresses();

    // Fault-free baseline over the in-process wire.
    let mut clean_peer = LocalTransport::new(full.as_ref());
    let mut clean_light = LightNode::sync_from(&mut clean_peer, config).unwrap();
    let baseline: Vec<QueryRun> = addresses
        .iter()
        .map(|a| {
            clean_light
                .run(&QuerySpec::address(a.clone()), &mut clean_peer)
                .unwrap()
        })
        .collect();

    let server = NodeServer::bind(Arc::clone(&full), "127.0.0.1:0", ServerConfig::default())
        .expect("loopback bind");
    let addr = server.local_addr().to_string();

    let mut transport = ReconnectingTcpTransport::connect(&addr).unwrap();
    let mut light = LightNode::sync_from(&mut transport, config).unwrap();

    // First half of the batch against the original server.
    let mut runs = vec![light
        .run(&QuerySpec::address(addresses[0].clone()), &mut transport)
        .unwrap()];

    // Restart: the client hangs up first (as the active closer it
    // absorbs TIME_WAIT, leaving the port rebindable), the worker
    // reaps the EOF, the server goes down and comes back on the very
    // same address.
    transport.disconnect();
    std::thread::sleep(Duration::from_millis(500));
    let stats = server.shutdown();
    assert_eq!(stats.errors, 0, "clean first half");
    let server = rebind(Arc::clone(&full), &addr);

    // Second half: the same transport value re-dials lazily and the
    // batch just continues.
    for address in &addresses[1..] {
        runs.push(
            light
                .run(&QuerySpec::address(address.clone()), &mut transport)
                .unwrap(),
        );
    }
    assert_eq!(
        transport.reconnects(),
        1,
        "exactly one re-dial bridges the restart"
    );

    // Byte-identical to the fault-free run: same histories, same
    // balances, same completeness — and even the same payload traffic,
    // because the re-dial itself costs no application bytes.
    for (run, clean) in runs.iter().zip(&baseline) {
        assert_eq!(run.histories, clean.histories);
        assert_eq!(run.traffic, clean.traffic);
    }

    drop(transport);
    std::thread::sleep(Duration::from_millis(300));
    let stats = server.shutdown();
    assert_eq!(stats.errors, 0, "clean second half");
}

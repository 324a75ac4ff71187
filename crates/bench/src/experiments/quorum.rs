//! Extra experiment: quorum queries over live servers (`repro quorum`).
//!
//! Paper Challenge 3: a **strawman** full node can silently withhold
//! transactions, because Merkle branches prove correctness but not
//! completeness. This experiment stands up three live
//! [`NodeServer`]s over loopback TCP — two honest, one running a
//! `CensoringNode` that drops a transaction from every
//! multi-transaction Merkle-branch fragment — and demonstrates both
//! halves of the claim with [`query_quorum`] over one batched spec:
//!
//! 1. **Alone, censorship is invisible** — the censor's batch response
//!    verifies as correct even though transactions are missing;
//! 2. **A quorum exposes it** — the union over all peers restores the
//!    ground truth for every probe address, the censoring peer is
//!    flagged by index, and no honest peer is falsely accused.
//!
//! The censor runs behind the same worker-pool server as the honest
//! peers (via the [`ServeNode`] trait), so the TCP path — framing,
//! versioned envelope, pooling — is identical for all three.

use std::sync::Arc;

use lvq_chain::Address;
use lvq_codec::{decode_exact, Encodable};
use lvq_core::{BatchQueryResponse, BlockFragment, LightClient, QueryResponse, Scheme};
use lvq_node::{
    query_quorum, FullNode, Handled, Message, NodeServer, QuerySpec, RequestKind, RetryPolicy,
    ServeNode, ServerConfig, TcpTransport, Traffic,
};

use crate::report::{bytes, Table};
use crate::scale::Scale;
use crate::workloads::{build_workload, built_probes, WorkloadSpec};

/// Peers in the quorum.
const PEERS: usize = 3;

/// Index of the censoring peer in the quorum sweep order.
const CENSOR: usize = 1;

/// A strawman full node that drops one transaction from every
/// multi-transaction Merkle-branch fragment before answering — the
/// minimal censorship a lone light client cannot detect (the entry
/// count and filter hashes are pinned by the headers, so only a
/// fragment that still holds at least one branch survives
/// verification).
struct CensoringNode {
    inner: Arc<FullNode>,
}

impl CensoringNode {
    fn censor_fragment(fragment: &mut BlockFragment) {
        if let BlockFragment::MerkleBranches(txs) = fragment {
            if txs.len() > 1 {
                txs.pop();
            }
        }
    }
}

impl ServeNode for CensoringNode {
    fn handle_classified(&self, request: &[u8]) -> Handled {
        let mut handled = self.inner.handle_classified(request);
        if handled.error.is_some() {
            return handled;
        }
        match handled.kind {
            RequestKind::Query => {
                if let Ok(Message::QueryResponse(mut response)) = decode_exact(&handled.bytes) {
                    if let QueryResponse::PerBlock(per_block) = response.as_mut() {
                        for entry in &mut per_block.entries {
                            Self::censor_fragment(&mut entry.fragment);
                        }
                    }
                    handled.bytes = Message::QueryResponse(response).encode();
                }
            }
            RequestKind::BatchQuery => {
                if let Ok(Message::BatchQueryResponse(mut response)) = decode_exact(&handled.bytes)
                {
                    if let BatchQueryResponse::PerBlock(per_block) = response.as_mut() {
                        for entry in &mut per_block.entries {
                            for fragment in &mut entry.fragments {
                                Self::censor_fragment(fragment);
                            }
                        }
                    }
                    handled.bytes = Message::BatchQueryResponse(response).encode();
                }
            }
            _ => {}
        }
        handled
    }
}

/// The experiment data.
#[derive(Debug, Clone)]
pub struct Quorum {
    /// Peers queried (honest plus censor).
    pub peers: usize,
    /// Index of the censoring peer.
    pub censor: usize,
    /// Transactions missing from the lone censor's verified answer —
    /// withheld yet undetected (Challenge 3).
    pub alone_missing: u64,
    /// Ground-truth transactions over all probe addresses.
    pub truth_total: u64,
    /// Peers flagged as withholding by the quorum.
    pub withholding_peers: Vec<usize>,
    /// Total traffic of the three-peer quorum round, tip-census probes
    /// included.
    pub traffic: Traffic,
}

/// Runs the experiment under the strawman at the Fig. 12 configuration.
///
/// # Panics
///
/// Panics if the censor goes undetected in the quorum, if any honest
/// peer is falsely accused, or if the merged histories disagree with
/// the chain's ground truth — each would mean the quorum logic (or the
/// TCP path under it) is broken.
pub fn run(scale: Scale, seed: u64) -> Quorum {
    let spec = WorkloadSpec {
        seed,
        ..WorkloadSpec::paper_default(Scheme::Strawman, scale)
    };
    let workload = build_workload(spec);
    let addresses: Vec<Address> = built_probes(&workload)
        .into_iter()
        .map(|(_, address)| address)
        .collect();
    let truth: Vec<usize> = addresses
        .iter()
        .map(|a| workload.chain.history_of(a).len())
        .collect();
    let truth_total: u64 = truth.iter().map(|&n| n as u64).sum();

    let full = Arc::new(FullNode::new(workload.chain).expect("known scheme"));
    let client = LightClient::new(full.config(), full.chain().headers());
    let censor_node = Arc::new(CensoringNode {
        inner: Arc::clone(&full),
    });

    let honest_a = NodeServer::bind(Arc::clone(&full), "127.0.0.1:0", ServerConfig::default())
        .expect("loopback bind");
    let censor_srv = NodeServer::bind(censor_node, "127.0.0.1:0", ServerConfig::default())
        .expect("loopback bind");
    let honest_b = NodeServer::bind(Arc::clone(&full), "127.0.0.1:0", ServerConfig::default())
        .expect("loopback bind");

    let mut ta = TcpTransport::connect(honest_a.local_addr()).expect("server is listening");
    let mut tc = TcpTransport::connect(censor_srv.local_addr()).expect("server is listening");
    let mut tb = TcpTransport::connect(honest_b.local_addr()).expect("server is listening");

    // Phase 1 — the censor alone: verifies cleanly, yet transactions
    // are missing and nothing flags the peer.
    let spec = QuerySpec::addresses(addresses.clone());
    let policy = RetryPolicy::none();
    let alone =
        query_quorum(&client, &mut [&mut tc], &spec, &policy, seed).expect("alone verifies");
    let alone_total: u64 = alone
        .histories
        .iter()
        .map(|h| h.transactions.len() as u64)
        .sum();
    assert!(
        alone_total < truth_total,
        "the censor must actually withhold something ({alone_total} of {truth_total})"
    );
    assert!(
        alone.withholding_peers.is_empty() && !alone.is_degraded(),
        "withholding must be undetectable without a second peer"
    );

    // Phase 2 — quorum of three, censor in the middle.
    let outcome = query_quorum(
        &client,
        &mut [&mut ta, &mut tc, &mut tb],
        &spec,
        &policy,
        seed,
    )
    .expect("quorum with honest peers verifies");
    for ((history, expected), address) in outcome.histories.iter().zip(&truth).zip(&addresses) {
        assert_eq!(
            history.transactions.len(),
            *expected,
            "union must restore ground truth for {address}"
        );
    }
    assert_eq!(
        outcome.withholding_peers,
        vec![CENSOR],
        "exactly the censor is flagged, with zero false accusations"
    );
    assert!(!outcome.is_degraded(), "every peer served");

    drop((ta, tb, tc));
    for stats in [
        honest_a.shutdown(),
        censor_srv.shutdown(),
        honest_b.shutdown(),
    ] {
        assert_eq!(stats.errors, 0, "clean TCP run on every peer");
    }

    Quorum {
        peers: PEERS,
        censor: CENSOR,
        alone_missing: truth_total - alone_total,
        truth_total,
        withholding_peers: outcome.withholding_peers,
        traffic: outcome.traffic,
    }
}

impl std::fmt::Display for Quorum {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Quorum vs. withholding — strawman, {} live TCP peers, six Table III probes",
            self.peers
        )?;
        let mut table = Table::new(&["Measurement", "Value"]);
        table.row(vec![
            "censor alone".to_string(),
            format!(
                "verifies; {} of {} transactions silently missing",
                self.alone_missing, self.truth_total
            ),
        ]);
        table.row(vec![
            "quorum union".to_string(),
            format!("all {} transactions restored", self.truth_total),
        ]);
        table.row(vec![
            "flagged peers".to_string(),
            format!(
                "{:?} (censor is peer {}); {} false accusations",
                self.withholding_peers,
                self.censor,
                self.withholding_peers.len().saturating_sub(1)
            ),
        ]);
        table.row(vec![
            "quorum traffic".to_string(),
            format!(
                "{} requests, {} responses",
                bytes(self.traffic.request_bytes),
                bytes(self.traffic.response_bytes)
            ),
        ]);
        write!(f, "{table}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorum_over_tcp_flags_the_censor_only() {
        let result = run(Scale::Small, 11);
        assert_eq!(result.peers, PEERS);
        assert!(result.alone_missing > 0);
        assert_eq!(result.withholding_peers, vec![CENSOR]);
        assert!(result.traffic.response_bytes > 0);
    }
}

//! Querying several full nodes and cross-checking their answers.
//!
//! For the LVQ schemes a single verified response is already complete,
//! so a quorum adds only availability. For the **strawman**, whose
//! existence fragments cannot prove completeness (paper Challenge 3),
//! a quorum genuinely helps: every verified response is *correct*, so
//! the union over peers is correct too and strictly closer to complete
//! — and any peer whose answer is a strict subset of the union is
//! provably withholding transactions.
//!
//! Peers are addressed as [`crate::Transport`]s, so a quorum can mix
//! in-process nodes ([`crate::LocalTransport`]) and remote ones
//! ([`crate::TcpTransport`]) freely.

use lvq_chain::{balance_of, Address, Transaction};
use lvq_chain::{BlockSource, TableSource};
use lvq_codec::{decode_exact, Encodable};
use lvq_core::{Completeness, LightClient, VerifiedHistory};
use lvq_crypto::Hash256;

use crate::full::FullNode;
use crate::light::{LightNode, QuerySpec};
use crate::live::LiveNode;
use crate::message::{Message, NodeError};
use crate::pipe::Traffic;
use crate::retry::{ResyncOutcome, Retrier, RetryPolicy};
use crate::transport::Transport;

/// Anything that can answer encoded requests in-process — a
/// [`FullNode`] or [`LiveNode`] over any storage backend, or a test
/// double wrapping one (e.g. a censoring adversary). Wrap it in a
/// [`crate::LocalTransport`] to use it where a [`Transport`] is
/// expected.
pub trait QueryPeer {
    /// Handles one encoded request, returning the encoded response.
    ///
    /// # Errors
    ///
    /// Implementations return a [`NodeError`] for malformed requests or
    /// internal failures.
    fn handle_request(&self, request: &[u8]) -> Result<Vec<u8>, NodeError>;
}

impl<S: BlockSource, T: TableSource> QueryPeer for FullNode<S, T> {
    fn handle_request(&self, request: &[u8]) -> Result<Vec<u8>, NodeError> {
        self.handle(request)
    }
}

impl<S: BlockSource, T: TableSource> QueryPeer for &FullNode<S, T> {
    fn handle_request(&self, request: &[u8]) -> Result<Vec<u8>, NodeError> {
        self.handle(request)
    }
}

impl<S: BlockSource, T: TableSource> QueryPeer for LiveNode<S, T> {
    fn handle_request(&self, request: &[u8]) -> Result<Vec<u8>, NodeError> {
        self.with_node(|node| node.handle(request))
    }
}

impl<S: BlockSource, T: TableSource> QueryPeer for &LiveNode<S, T> {
    fn handle_request(&self, request: &[u8]) -> Result<Vec<u8>, NodeError> {
        self.with_node(|node| node.handle(request))
    }
}

impl<F: Fn(&[u8]) -> Result<Vec<u8>, NodeError>> QueryPeer for F {
    fn handle_request(&self, request: &[u8]) -> Result<Vec<u8>, NodeError> {
        self(request)
    }
}

/// How one peer fared across a whole quorum query, retries included.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PeerOutcome {
    /// The peer produced a verifiable response (possibly after
    /// transient retries).
    Served,
    /// Every attempt failed transiently — the peer is down or
    /// unreachable, not provably misbehaving.
    Unreachable(NodeError),
    /// The peer answered and the answer was rejected (verification
    /// failure, refusal) — fatal, never retried.
    Rejected(NodeError),
}

/// Per-peer health across one quorum query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerHealth {
    /// Attempts made against this peer (at least 1).
    pub attempts: u64,
    /// Attempts beyond the first — how hard the retry policy worked.
    pub retries: u64,
    /// How the peer's participation ended.
    pub outcome: PeerOutcome,
}

impl PeerHealth {
    /// Whether this peer ended up contributing a verified answer.
    pub fn served(&self) -> bool {
        self.outcome == PeerOutcome::Served
    }
}

/// What a fault-tolerant quorum query established: merged histories
/// plus per-peer health, instead of aborting when some peers die.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuorumReport {
    /// One merged verified history per [`QuerySpec`] target, in spec
    /// order (union over all serving peers' proven transactions).
    pub histories: Vec<VerifiedHistory>,
    /// Total traffic across all peers, retries included.
    pub traffic: Traffic,
    /// One health record per peer, in peer order.
    pub peers: Vec<PeerHealth>,
    /// Indices of peers whose verified answer was a strict subset of
    /// the merged one for at least one address (sorted, deduplicated).
    pub withholding_peers: Vec<usize>,
    /// Indices of peers whose header chain diverges from the client's
    /// prefix — they are serving a competing fork, so their proofs
    /// anchor in headers the client does not hold (see [`tip_census`]).
    pub fork_peers: Vec<usize>,
}

impl QuorumReport {
    /// How many peers contributed a verified answer.
    pub fn served(&self) -> usize {
        self.peers.iter().filter(|p| p.served()).count()
    }

    /// Whether the quorum degraded — answered, but with at least one
    /// peer lost to failures.
    pub fn is_degraded(&self) -> bool {
        self.served() < self.peers.len()
    }
}

/// Queries every peer for `spec` under a retry policy and merges the
/// verified answers, degrading gracefully when peers die.
///
/// Each peer gets its own [`Retrier`] (jitter stream derived from
/// `seed` and the peer index, so a run is reproducible): transient
/// failures — [`NodeError::Busy`], disconnects, timeouts — are retried
/// up to the policy's caps, while fatal ones (a verification failure
/// above all) take the peer out of the quorum on the spot. The outcome
/// is a [`QuorumReport`] with per-peer health instead of an
/// all-or-nothing answer: k-of-n peers lost mid-query still yields the
/// merged history of the n−k that served.
///
/// # Errors
///
/// Returns the last peer error only if *no* peer produced a
/// verifiable response.
pub fn query_quorum(
    client: &LightClient,
    peers: &mut [&mut dyn Transport],
    spec: &QuerySpec,
    policy: &RetryPolicy,
    seed: u64,
) -> Result<QuorumReport, NodeError> {
    let request = spec.to_message().encode();
    let mut traffic = Traffic::default();
    let mut health = Vec::with_capacity(peers.len());
    let mut verified_batches: Vec<(usize, Vec<VerifiedHistory>)> = Vec::new();
    let mut last_error = None;

    for (index, peer) in peers.iter_mut().enumerate() {
        // Each peer draws its own jitter stream: peers back off
        // independently, and the whole sweep replays bit-for-bit under
        // the same seed.
        let mut retrier =
            Retrier::new(*policy, seed ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9));
        let verified = retrier.run(|_attempt| {
            let (reply, t) = peer.exchange(&request)?;
            traffic.request_bytes += t.request_bytes;
            traffic.response_bytes += t.response_bytes;
            spec.verify_reply(client, &reply)
        });
        let stats = retrier.stats();
        let outcome = match verified {
            Ok(histories) => {
                verified_batches.push((index, histories));
                PeerOutcome::Served
            }
            Err(err) => {
                last_error = Some(err.clone());
                if err.retryable() {
                    PeerOutcome::Unreachable(err)
                } else {
                    PeerOutcome::Rejected(err)
                }
            }
        };
        health.push(PeerHealth {
            attempts: stats.attempts,
            retries: stats.retries,
            outcome,
        });
    }

    if verified_batches.is_empty() {
        return Err(last_error.expect("no histories implies at least one error"));
    }

    let mut histories = Vec::with_capacity(spec.targets().len());
    let mut withholding = std::collections::BTreeSet::new();
    for (k, address) in spec.targets().iter().enumerate() {
        let per_peer: Vec<(usize, VerifiedHistory)> = verified_batches
            .iter()
            .map(|(index, batch)| (*index, batch[k].clone()))
            .collect();
        let (merged, withholders) = merge_histories(address, &per_peer);
        histories.push(merged);
        withholding.extend(withholders);
    }

    // Tip census: one cheap probe per peer tells forks apart from mere
    // lag. A fork peer's proofs fail verification like any garbage
    // peer's would; the census is what upgrades "rejected" to "on a
    // competing branch", which the caller can act on (see
    // [`converge_on_majority`]).
    let fork_peers = tip_census(client, peers, &mut traffic)
        .into_iter()
        .enumerate()
        .filter(|(_, relation)| *relation == TipRelation::Diverged)
        .map(|(index, _)| index)
        .collect();

    Ok(QuorumReport {
        histories,
        traffic,
        peers: health,
        withholding_peers: withholding.into_iter().collect(),
        fork_peers,
    })
}

/// How one peer's header chain relates to the client's at census time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TipRelation {
    /// The peer holds the client's tip header and serves `tip_height`
    /// (≥ the client's tip) on the same branch.
    SameBranch {
        /// The peer's tip height.
        tip_height: u64,
    },
    /// The peer's chain is shorter but agrees with the client's prefix
    /// at the peer's own tip — lagging, not forked.
    Behind {
        /// The peer's tip height.
        tip_height: u64,
    },
    /// The peer's headers diverge from the client's prefix: it is
    /// serving a competing fork.
    Diverged,
    /// The peer could not be probed (transport failure or a reply the
    /// census does not understand).
    Unreachable,
}

/// Classifies every peer's chain against the client's headers with at
/// most two [`Message::GetHeadersFrom`] probes each: one pinned at the
/// client's tip, and — when the peer reports itself behind — a second
/// pinned at the *peer's* tip, which tells a lagging same-branch peer
/// apart from a shorter competing fork. Probe failures degrade to
/// [`TipRelation::Unreachable`]; the census never fails as a whole.
pub fn tip_census(
    client: &LightClient,
    peers: &mut [&mut dyn Transport],
    traffic: &mut Traffic,
) -> Vec<TipRelation> {
    let tip = client.tip_height();
    peers
        .iter_mut()
        .map(|peer| {
            match probe_at(client, &mut **peer, tip, traffic) {
                Some(Message::Headers(tail)) => TipRelation::SameBranch {
                    tip_height: tip + tail.len() as u64,
                },
                Some(Message::HeadersDiverged { .. }) => TipRelation::Diverged,
                Some(Message::PeerBehind { tip_height }) => {
                    match probe_at(client, &mut **peer, tip_height, traffic) {
                        Some(Message::HeadersDiverged { .. }) => TipRelation::Diverged,
                        // Height 0 (the implicit genesis anchor) always
                        // agrees, so a `Headers` reply here is the
                        // common case; anything odd stays `Behind`.
                        Some(_) => TipRelation::Behind { tip_height },
                        None => TipRelation::Unreachable,
                    }
                }
                _ => TipRelation::Unreachable,
            }
        })
        .collect()
}

/// One census probe: "here is my header hash at `height` — do you
/// agree?". Returns `None` when the peer cannot answer.
fn probe_at(
    client: &LightClient,
    peer: &mut dyn Transport,
    height: u64,
    traffic: &mut Traffic,
) -> Option<Message> {
    let tip_hash = client.hash_at(height)?;
    let request = Message::GetHeadersFrom { height, tip_hash }.encode();
    let (reply, t) = peer.exchange(&request).ok()?;
    traffic.request_bytes += t.request_bytes;
    traffic.response_bytes += t.response_bytes;
    decode_exact::<Message>(&reply).ok()
}

/// What [`converge_on_majority`] did to the client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MajorityConvergence {
    /// The census the decision was made from, in peer order.
    pub relations: Vec<TipRelation>,
    /// Index of the peer the client synced from, `None` when every
    /// peer was behind or unreachable (the client is already ahead).
    pub synced_from: Option<usize>,
    /// What the sync found (always [`ResyncOutcome::PeerBehind`] when
    /// `synced_from` is `None`).
    pub outcome: ResyncOutcome,
}

impl MajorityConvergence {
    /// Whether the client switched branches to follow the majority.
    pub fn switched(&self) -> bool {
        matches!(self.outcome, ResyncOutcome::Diverged { .. })
    }
}

/// Makes the client converge on the majority tip across `peers`.
///
/// Runs a [`tip_census`], then votes on the client's own branch: peers
/// at or above the client's tip on the same chain endorse it, peers on
/// a competing fork oppose it, and lagging or unreachable peers
/// abstain (a shorter agreeing chain says nothing about events above
/// its tip). When fork peers form a strict majority the client resyncs
/// from one of them — [`LightNode::sync_new`] walks back to the fork
/// point within the client's reorg budget and adopts the majority
/// branch. Otherwise the client catches up from the tallest
/// same-branch peer, if any is ahead.
///
/// # Errors
///
/// Propagates the chosen peer's sync failure — notably
/// [`NodeError::ReorgTooDeep`] when the majority branch forks below
/// the client's budget. The census itself never fails.
pub fn converge_on_majority(
    light: &mut LightNode,
    peers: &mut [&mut dyn Transport],
) -> Result<MajorityConvergence, NodeError> {
    let mut traffic = Traffic::default();
    let relations = tip_census(light.client(), peers, &mut traffic);

    let endorse: Vec<usize> = relations
        .iter()
        .enumerate()
        .filter(|(_, r)| matches!(r, TipRelation::SameBranch { .. }))
        .map(|(i, _)| i)
        .collect();
    let oppose: Vec<usize> = relations
        .iter()
        .enumerate()
        .filter(|(_, r)| **r == TipRelation::Diverged)
        .map(|(i, _)| i)
        .collect();

    let synced_from = if oppose.len() > endorse.len() {
        oppose.first().copied()
    } else {
        // Tallest agreeing peer, skipped when none is ahead of us.
        endorse
            .into_iter()
            .max_by_key(|&i| match relations[i] {
                TipRelation::SameBranch { tip_height } => tip_height,
                _ => 0,
            })
            .filter(|&i| match relations[i] {
                TipRelation::SameBranch { tip_height } => tip_height > light.client().tip_height(),
                _ => false,
            })
    };

    let outcome = match synced_from {
        Some(index) => light.sync_new(&mut *peers[index])?,
        None => ResyncOutcome::PeerBehind,
    };
    Ok(MajorityConvergence {
        relations,
        synced_from,
        outcome,
    })
}

/// Unions verified histories for one address by `(height, txid)` —
/// each constituent is verified correct, so every element of the union
/// is on-chain. Returns the merged history plus the indices of peers
/// whose answer was a strict subset of it.
fn merge_histories(
    address: &Address,
    histories: &[(usize, VerifiedHistory)],
) -> (VerifiedHistory, Vec<usize>) {
    let mut merged: Vec<(u64, Transaction)> = Vec::new();
    let mut seen: std::collections::BTreeSet<(u64, Hash256)> = Default::default();
    let mut completeness = Completeness::CorrectnessOnly;
    for (_, history) in histories {
        if history.completeness == Completeness::Complete {
            completeness = Completeness::Complete;
        }
        for (height, tx) in &history.transactions {
            if seen.insert((*height, tx.txid())) {
                merged.push((*height, tx.clone()));
            }
        }
    }
    merged.sort_by_key(|(h, _)| *h);

    let withholding = histories
        .iter()
        .filter(|(_, h)| h.transactions.len() < merged.len())
        .map(|(i, _)| *i)
        .collect();

    let balance = balance_of(address, merged.iter().map(|(_, t)| t));
    (
        VerifiedHistory {
            transactions: merged,
            balance,
            completeness,
        },
        withholding,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::LocalTransport;
    use lvq_bloom::BloomParams;
    use lvq_chain::{ChainBuilder, Transaction};
    use lvq_core::{QueryResponse, Scheme, SchemeConfig};

    fn full_node(scheme: Scheme) -> FullNode {
        let config = SchemeConfig::new(scheme, BloomParams::new(64, 2).unwrap(), 8).unwrap();
        let mut builder = ChainBuilder::new(config.chain_params()).unwrap();
        for h in 1..=8u32 {
            let mut txs = vec![Transaction::coinbase(Address::new("1Miner"), 50, h)];
            if h % 2 == 0 {
                // Two distinct transactions for the victim, so a
                // censoring peer has something it can silently drop.
                txs.push(Transaction::coinbase(Address::new("1Victim"), 10, 100 + h));
                txs.push(Transaction::coinbase(Address::new("1Victim"), 5, 200 + h));
            }
            builder.push_block(txs).unwrap();
        }
        FullNode::new(builder.finish()).unwrap()
    }

    /// A strawman peer that drops one Merkle-branch transaction from
    /// every response — undetectable in isolation (Challenge 3).
    fn censoring(full: &FullNode) -> impl Fn(&[u8]) -> Result<Vec<u8>, NodeError> + '_ {
        move |request: &[u8]| {
            let reply = full.handle(request)?;
            let Message::QueryResponse(mut response) = decode_exact::<Message>(&reply)? else {
                return Ok(reply);
            };
            if let QueryResponse::PerBlock(per_block) = response.as_mut() {
                for entry in &mut per_block.entries {
                    if let lvq_core::BlockFragment::MerkleBranches(txs) = &mut entry.fragment {
                        if txs.len() > 1 {
                            txs.pop();
                        }
                    }
                }
            }
            Ok(Message::QueryResponse(response).encode())
        }
    }

    /// Like [`censoring`], but for batched responses: drops one
    /// Merkle-branch transaction from every multi-transaction fragment
    /// section.
    fn censoring_batch(full: &FullNode) -> impl Fn(&[u8]) -> Result<Vec<u8>, NodeError> + '_ {
        move |request: &[u8]| {
            let reply = full.handle(request)?;
            let Message::BatchQueryResponse(mut response) = decode_exact::<Message>(&reply)? else {
                return Ok(reply);
            };
            if let lvq_core::BatchQueryResponse::PerBlock(per_block) = response.as_mut() {
                for entry in &mut per_block.entries {
                    for fragment in &mut entry.fragments {
                        if let lvq_core::BlockFragment::MerkleBranches(txs) = fragment {
                            if txs.len() > 1 {
                                txs.pop();
                            }
                        }
                    }
                }
            }
            Ok(Message::BatchQueryResponse(response).encode())
        }
    }

    /// One quorum sweep with no retries — the shape the single-address
    /// and batch tests below share.
    fn quorum_once(
        client: &LightClient,
        peers: &mut [&mut dyn Transport],
        spec: &QuerySpec,
    ) -> Result<QuorumReport, NodeError> {
        query_quorum(client, peers, spec, &RetryPolicy::none(), 0)
    }

    #[test]
    fn quorum_of_honest_peers_agrees() {
        let a = full_node(Scheme::Lvq);
        let b = full_node(Scheme::Lvq);
        let client = LightClient::new(a.config(), a.chain().headers());
        let mut ta = LocalTransport::new(&a);
        let mut tb = LocalTransport::new(&b);
        let spec = QuerySpec::address(Address::new("1Victim"));
        let report = quorum_once(&client, &mut [&mut ta, &mut tb], &spec).unwrap();
        assert_eq!(report.histories[0].transactions.len(), 8);
        assert!(report.withholding_peers.is_empty());
        assert!(!report.is_degraded());
        assert!(report.fork_peers.is_empty());
        assert_eq!(report.histories[0].completeness, Completeness::Complete);
        // Per-peer accounting survives the quorum sweep: one query and
        // one census probe each.
        assert_eq!(ta.exchanges(), 2);
        assert_eq!(tb.exchanges(), 2);
        assert_eq!(
            report.traffic.total(),
            ta.cumulative_traffic().total() + tb.cumulative_traffic().total()
        );
    }

    #[test]
    fn quorum_exposes_strawman_withholding() {
        let honest = full_node(Scheme::Strawman);
        let client = LightClient::new(honest.config(), honest.chain().headers());
        let spec = QuerySpec::address(Address::new("1Victim"));

        // Alone, the censoring peer gets away with it (Challenge 3):
        // one of the two transactions per even block disappears and the
        // response still verifies as correct.
        let mut censor = LocalTransport::new(censoring(&honest));
        let alone = quorum_once(&client, &mut [&mut censor], &spec).unwrap();
        assert_eq!(alone.histories[0].transactions.len(), 4);
        assert!(alone.withholding_peers.is_empty(), "undetectable alone");

        // Next to an honest peer the union restores the truth and the
        // censor is identified by index.
        let mut honest_t = LocalTransport::new(&honest);
        let both = quorum_once(&client, &mut [&mut censor, &mut honest_t], &spec).unwrap();
        assert_eq!(both.histories[0].transactions.len(), 8);
        assert_eq!(both.withholding_peers, vec![0]);
        // Strawman never claims completeness.
        assert_eq!(
            both.histories[0].completeness,
            Completeness::CorrectnessOnly
        );
    }

    #[test]
    fn quorum_rejects_garbage_peer_but_serves_from_honest() {
        let honest = full_node(Scheme::Lvq);
        let client = LightClient::new(honest.config(), honest.chain().headers());
        let broken_fn = |_req: &[u8]| -> Result<Vec<u8>, NodeError> { Ok(vec![0xFF, 0xFF]) };
        let mut broken = LocalTransport::new(broken_fn);
        let mut honest_t = LocalTransport::new(&honest);
        let spec = QuerySpec::address(Address::new("1Victim"));
        let report = quorum_once(&client, &mut [&mut broken, &mut honest_t], &spec).unwrap();
        // Undecodable bytes read as in-flight corruption (retryable),
        // so with the retry budget spent the peer counts as lost.
        assert!(matches!(
            report.peers[0].outcome,
            PeerOutcome::Unreachable(NodeError::Wire(_))
        ));
        assert!(report.peers[1].served());
        assert_eq!(report.histories[0].transactions.len(), 8);
    }

    #[test]
    fn all_peers_failing_is_an_error() {
        let honest = full_node(Scheme::Lvq);
        let client = LightClient::new(honest.config(), honest.chain().headers());
        let broken_fn = |_req: &[u8]| -> Result<Vec<u8>, NodeError> { Ok(vec![0xFF]) };
        let mut broken = LocalTransport::new(broken_fn);
        let spec = QuerySpec::address(Address::new("1Victim"));
        assert!(quorum_once(&client, &mut [&mut broken], &spec).is_err());
    }

    #[test]
    fn quorum_spec_degrades_gracefully_when_peers_die() {
        use std::cell::Cell;
        use std::time::Duration;

        let honest = full_node(Scheme::Lvq);
        let client = LightClient::new(honest.config(), honest.chain().headers());
        let policy =
            RetryPolicy::new(3).backoff(Duration::from_micros(10), Duration::from_micros(50));

        // Peer 0 is dead for good; peer 1 sheds twice then serves;
        // peer 2 proves from a different chain and is rejected outright.
        let dead = |_req: &[u8]| -> Result<Vec<u8>, NodeError> {
            Err(NodeError::Disconnected {
                context: "test peer down",
            })
        };
        let sheds = Cell::new(2u32);
        let flaky = |req: &[u8]| -> Result<Vec<u8>, NodeError> {
            if sheds.get() > 0 {
                sheds.set(sheds.get() - 1);
                return Ok(Message::Busy.encode());
            }
            honest.handle(req)
        };
        let other_config =
            SchemeConfig::new(Scheme::Lvq, BloomParams::new(64, 2).unwrap(), 8).unwrap();
        let mut builder = ChainBuilder::new(other_config.chain_params()).unwrap();
        for h in 1..=4u32 {
            builder
                .push_block(vec![Transaction::coinbase(Address::new("1Other"), 50, h)])
                .unwrap();
        }
        let liar = FullNode::new(builder.finish()).unwrap();

        let mut t0 = LocalTransport::new(dead);
        let mut t1 = LocalTransport::new(flaky);
        let mut t2 = LocalTransport::new(&liar);
        let spec = QuerySpec::address(Address::new("1Victim"));
        let report = query_quorum(
            &client,
            &mut [&mut t0, &mut t1, &mut t2],
            &spec,
            &policy,
            99,
        )
        .unwrap();

        // One of three peers served — degraded, but answered fully.
        assert_eq!(report.histories[0].transactions.len(), 8);
        assert_eq!(report.served(), 1);
        assert!(report.is_degraded());

        // Per-peer health tells the three stories apart.
        assert!(matches!(
            report.peers[0].outcome,
            PeerOutcome::Unreachable(_)
        ));
        assert_eq!(report.peers[0].attempts, 3, "dead peer exhausts the cap");
        assert!(report.peers[1].served());
        assert_eq!(report.peers[1].retries, 2, "two sheds ridden out");
        assert!(matches!(
            report.peers[2].outcome,
            PeerOutcome::Rejected(NodeError::Verify(_))
        ));
        assert_eq!(report.peers[2].attempts, 1, "fatal errors never retried");

        // Same seed, same report (modulo nothing — it is all data).
        sheds.set(2);
        let mut u0 = LocalTransport::new(dead);
        let mut u1 = LocalTransport::new(flaky);
        let mut u2 = LocalTransport::new(&liar);
        let again = query_quorum(
            &client,
            &mut [&mut u0, &mut u1, &mut u2],
            &spec,
            &policy,
            99,
        )
        .unwrap();
        assert_eq!(report, again);
    }

    #[test]
    fn quorum_spec_fails_only_when_every_peer_does() {
        use std::time::Duration;

        let honest = full_node(Scheme::Lvq);
        let client = LightClient::new(honest.config(), honest.chain().headers());
        let policy =
            RetryPolicy::new(2).backoff(Duration::from_micros(10), Duration::from_micros(20));
        let dead = |_req: &[u8]| -> Result<Vec<u8>, NodeError> {
            Err(NodeError::Disconnected { context: "down" })
        };
        let mut t0 = LocalTransport::new(dead);
        let mut t1 = LocalTransport::new(dead);
        let spec = QuerySpec::address(Address::new("1Victim"));
        assert!(
            query_quorum(&client, &mut [&mut t0, &mut t1], &spec, &policy, 1).is_err(),
            "no serving peer means no answer"
        );

        // A batched spec flows through the same failover machinery.
        let mut honest_t = LocalTransport::new(&honest);
        let mut dead_t = LocalTransport::new(dead);
        let spec = QuerySpec::addresses(vec![Address::new("1Victim"), Address::new("1Miner")]);
        let report = query_quorum(
            &client,
            &mut [&mut dead_t, &mut honest_t],
            &spec,
            &policy,
            1,
        )
        .unwrap();
        assert_eq!(report.histories.len(), 2);
        assert_eq!(report.histories[0].transactions.len(), 8);
        assert_eq!(report.served(), 1);
    }

    /// A node whose chain shares the `1Miner` prefix up to `fork` and
    /// then diverges onto `tag` blocks up to `blocks` — two calls with
    /// the same `fork` build chains that agree exactly on that prefix.
    fn forked_node(scheme: Scheme, fork: u64, blocks: u64, tag: &str) -> FullNode {
        let config = SchemeConfig::new(scheme, BloomParams::new(64, 2).unwrap(), 8).unwrap();
        let mut builder = ChainBuilder::new(config.chain_params()).unwrap();
        for h in 1..=blocks {
            let addr = if h <= fork { "1Miner" } else { tag };
            builder
                .push_block(vec![Transaction::coinbase(
                    Address::new(addr),
                    50,
                    h as u32,
                )])
                .unwrap();
        }
        FullNode::new(builder.finish()).unwrap()
    }

    #[test]
    fn quorum_flags_fork_peers_and_converges_on_the_majority_tip() {
        let canonical = forked_node(Scheme::Lvq, 5, 8, "1Canon");
        let winner_a = forked_node(Scheme::Lvq, 5, 10, "1Winner");
        let winner_b = forked_node(Scheme::Lvq, 5, 10, "1Winner");

        // The client has followed the canonical branch so far.
        let mut sync_t = LocalTransport::new(&canonical);
        let mut light = LightNode::sync_from(&mut sync_t, canonical.config())
            .unwrap()
            .with_max_reorg_depth(4);
        assert_eq!(light.client().tip_height(), 8);

        let mut t0 = LocalTransport::new(&winner_a);
        let mut t1 = LocalTransport::new(&winner_b);
        let mut t2 = LocalTransport::new(&canonical);
        let policy = RetryPolicy::new(1);
        let spec = QuerySpec::address(Address::new("1Miner"));
        let report = query_quorum(
            light.client(),
            &mut [&mut t0, &mut t1, &mut t2],
            &spec,
            &policy,
            7,
        )
        .unwrap();

        // The fork peers' proofs anchor in headers the client does not
        // hold: verification rejects them, and the census upgrades the
        // rejection to "on a competing branch".
        assert_eq!(report.histories[0].transactions.len(), 5);
        assert_eq!(report.served(), 1);
        assert!(matches!(report.peers[0].outcome, PeerOutcome::Rejected(_)));
        assert!(matches!(report.peers[1].outcome, PeerOutcome::Rejected(_)));
        assert_eq!(report.fork_peers, vec![0, 1]);

        // Two of three peers hold the longer fork: the client follows
        // the majority, rolling back to the shared prefix.
        let convergence =
            converge_on_majority(&mut light, &mut [&mut t0, &mut t1, &mut t2]).unwrap();
        assert_eq!(
            convergence.relations,
            vec![
                TipRelation::Diverged,
                TipRelation::Diverged,
                TipRelation::SameBranch { tip_height: 8 },
            ]
        );
        assert_eq!(convergence.synced_from, Some(0));
        assert_eq!(
            convergence.outcome,
            ResyncOutcome::Diverged { fork_height: 5 }
        );
        assert!(convergence.switched());
        assert_eq!(light.client().tip_height(), 10);
        assert_eq!(
            light.client().hash_at(10),
            Some(winner_a.chain().tip_hash()),
            "the client must anchor in the winner's headers"
        );

        // Queries on the adopted branch verify against its history.
        let run = light
            .run(&QuerySpec::address(Address::new("1Winner")), &mut t0)
            .unwrap();
        assert_eq!(run.histories[0].transactions.len(), 5);

        // Convergence is stable: the majority now endorses the
        // client's branch and the lone canonical peer is the fork.
        let again = converge_on_majority(&mut light, &mut [&mut t0, &mut t1, &mut t2]).unwrap();
        assert_eq!(again.synced_from, None);
        assert!(!again.switched());
        assert_eq!(again.relations[2], TipRelation::Diverged);
        assert_eq!(light.client().tip_height(), 10);
    }

    #[test]
    fn batch_quorum_merges_per_address() {
        let honest = full_node(Scheme::Strawman);
        let client = LightClient::new(honest.config(), honest.chain().headers());
        let spec = QuerySpec::addresses(vec![
            Address::new("1Victim"),
            Address::new("1Miner"),
            Address::new("1Ghost"),
        ]);
        let mut honest_t = LocalTransport::new(&honest);
        let report = quorum_once(&client, &mut [&mut honest_t], &spec).unwrap();
        assert_eq!(report.histories.len(), 3);
        assert_eq!(report.histories[0].transactions.len(), 8);
        assert_eq!(report.histories[1].transactions.len(), 8);
        assert!(report.histories[2].transactions.is_empty());
        assert!(!report.is_degraded());
        assert!(report.withholding_peers.is_empty());
        // One round trip for the whole batch, plus the census probe.
        assert_eq!(honest_t.exchanges(), 2);
    }

    #[test]
    fn batch_quorum_exposes_withholding_on_any_address() {
        // The censor only drops 1Victim transactions (strawman Merkle
        // branches); the batch also asks for 1Miner. One withheld
        // address is enough to flag the peer.
        let honest = full_node(Scheme::Strawman);
        let client = LightClient::new(honest.config(), honest.chain().headers());
        let spec = QuerySpec::addresses(vec![Address::new("1Victim"), Address::new("1Miner")]);
        let mut censor = LocalTransport::new(censoring_batch(&honest));
        let mut honest_t = LocalTransport::new(&honest);
        let report = quorum_once(&client, &mut [&mut censor, &mut honest_t], &spec).unwrap();
        assert_eq!(report.histories[0].transactions.len(), 8);
        assert_eq!(report.withholding_peers, vec![0]);
        assert!(!report.is_degraded());
    }
}

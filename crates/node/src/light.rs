//! The light node.

use lvq_chain::{Address, BlockHeader};
use lvq_codec::{decode_exact, Encodable};
use lvq_core::{LightClient, SchemeConfig, VerifiedHistory};

use std::collections::HashMap;

use crate::message::{Message, NodeError};
use crate::pipe::Traffic;
use crate::pipelined::{PipelinedTcpTransport, ReqId};
use crate::retry::ResyncOutcome;
use crate::transport::Transport;

/// A declarative description of one verifiable query: which addresses,
/// over which block-height range.
///
/// `QuerySpec` is the single query entry point: build a spec, hand it
/// to [`LightNode::run`] (blocking) or [`LightNode::run_pipelined`]
/// (several specs in flight at once). A single-address spec goes on
/// the wire as [`Message::QueryRequest`] and a multi-address spec as
/// [`Message::BatchQueryRequest`].
///
/// # Examples
///
/// ```
/// use lvq_chain::Address;
/// use lvq_node::QuerySpec;
///
/// let single = QuerySpec::address(Address::new("1Shop"));
/// let windowed = QuerySpec::address(Address::new("1Shop")).range(3, 7);
/// let batch = QuerySpec::addresses(vec![Address::new("1Shop"), Address::new("1Miner")]);
/// assert_eq!(single.targets(), windowed.targets());
/// assert_eq!(batch.targets().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuerySpec {
    targets: Vec<Address>,
    batch: bool,
    range: Option<(u64, u64)>,
}

impl QuerySpec {
    /// A query for the full history of one address.
    pub fn address(address: Address) -> Self {
        QuerySpec {
            targets: vec![address],
            batch: false,
            range: None,
        }
    }

    /// A batched query for the histories of several addresses in one
    /// round trip (must be non-empty; the prover rejects an empty
    /// batch).
    ///
    /// A one-element batch is still a batch on the wire — use
    /// [`QuerySpec::address`] for the single-address message shape.
    pub fn addresses(addresses: impl Into<Vec<Address>>) -> Self {
        QuerySpec {
            targets: addresses.into(),
            batch: true,
            range: None,
        }
    }

    /// Restricts the query to blocks `lo..=hi` (verification rejects
    /// ranges outside `1..=tip`).
    #[must_use]
    pub fn range(mut self, lo: u64, hi: u64) -> Self {
        self.range = Some((lo, hi));
        self
    }

    /// The queried addresses, in response-section order.
    pub fn targets(&self) -> &[Address] {
        &self.targets
    }

    /// The request message this spec encodes to.
    pub(crate) fn to_message(&self) -> Message {
        if self.batch {
            Message::BatchQueryRequest {
                addresses: self.targets.clone(),
                range: self.range,
            }
        } else {
            Message::QueryRequest {
                address: self.targets[0].clone(),
                range: self.range,
            }
        }
    }

    /// Decodes one reply to this spec's request and verifies it with
    /// `client`, surfacing sheds and refusals as their typed
    /// [`NodeError`]s (so a retry policy can classify them) — the one
    /// place a reply becomes verified histories, shared by
    /// [`LightNode::run`], [`LightNode::run_pipelined`] and
    /// [`crate::query_quorum`].
    pub(crate) fn verify_reply(
        &self,
        client: &LightClient,
        reply: &[u8],
    ) -> Result<Vec<VerifiedHistory>, NodeError> {
        match (decode_reply(reply)?, self.batch) {
            (Message::QueryResponse(response), false) => {
                let address = &self.targets[0];
                Ok(vec![match self.range {
                    None => client.verify(address, &response)?,
                    Some((lo, hi)) => client.verify_range(address, lo, hi, &response)?,
                }])
            }
            (Message::BatchQueryResponse(response), true) => Ok(match self.range {
                None => client.verify_batch(&self.targets, &response)?,
                Some((lo, hi)) => client.verify_batch_range(&self.targets, lo, hi, &response)?,
            }),
            _ => Err(NodeError::UnexpectedMessage),
        }
    }
}

/// Decodes a reply, surfacing the server's flow-control and refusal
/// messages as the matching [`NodeError`]s.
fn decode_reply(reply: &[u8]) -> Result<Message, NodeError> {
    match decode_exact::<Message>(reply)? {
        Message::Busy => Err(NodeError::Busy),
        Message::Error(e) => Err(NodeError::Server(e)),
        message => Ok(message),
    }
}

/// What one [`LightNode::run`] produced: one verified history per
/// queried address, plus the bytes that crossed the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryRun {
    /// One verified history per [`QuerySpec`] target, in spec order.
    pub histories: Vec<VerifiedHistory>,
    /// Bytes that crossed the wire for this run.
    pub traffic: Traffic,
}

impl QueryRun {
    /// The only history of a single-address run.
    ///
    /// # Panics
    ///
    /// Panics if the run answered a multi-address spec.
    pub fn into_single(mut self) -> VerifiedHistory {
        assert_eq!(
            self.histories.len(),
            1,
            "into_single on a {}-address run",
            self.histories.len()
        );
        self.histories.pop().expect("length checked above")
    }
}

/// A light node: headers only, plus the verification engine.
///
/// Every networked operation takes a [`Transport`] — the same light
/// node can query an in-process [`crate::LocalTransport`] or a remote
/// [`crate::TcpTransport`] interchangeably, and the byte accounting is
/// identical either way.
///
/// # Examples
///
/// See the [crate-level example](crate).
#[derive(Debug)]
pub struct LightNode {
    client: LightClient,
    cumulative: Traffic,
    exchanges: u64,
    max_reorg_depth: u64,
}

impl LightNode {
    /// Creates a light node from a configuration and headers obtained
    /// out of band.
    pub fn new(config: SchemeConfig, headers: Vec<lvq_chain::BlockHeader>) -> Self {
        LightNode {
            client: LightClient::new(config, headers),
            cumulative: Traffic::default(),
            exchanges: 0,
            max_reorg_depth: 0,
        }
    }

    /// Sets how many headers below its tip this node is willing to
    /// discard when [`LightNode::sync_new`] finds the peer on a
    /// different fork. The default of 0 never rolls back: any
    /// divergence is refused with [`NodeError::ReorgTooDeep`].
    #[must_use]
    pub fn with_max_reorg_depth(mut self, depth: u64) -> Self {
        self.max_reorg_depth = depth;
        self
    }

    /// The reorg budget set by [`LightNode::with_max_reorg_depth`].
    pub fn max_reorg_depth(&self) -> u64 {
        self.max_reorg_depth
    }

    /// Bootstraps a light node by downloading headers over `transport`
    /// (initial block download, headers only).
    ///
    /// `config` is the light node's **out-of-band trust anchor** — the
    /// scheme, Bloom parameters, and segment length it obtained when
    /// the network was set up, never from the peer it is syncing from.
    /// (Trusting the peer's advertised configuration would let a
    /// malicious full node substitute a weaker scheme — e.g. one whose
    /// headers carry no SMT commitment — and then "prove" histories
    /// that omit transactions.) The downloaded headers are checked to
    /// carry exactly the commitments `config`'s scheme requires.
    ///
    /// # Errors
    ///
    /// Returns a [`NodeError`] if the exchange fails or the reply is
    /// not a header list, and [`NodeError::ConfigMismatch`] if any
    /// header's commitments do not match `config`'s policy.
    pub fn sync_from<T: Transport + ?Sized>(
        transport: &mut T,
        config: SchemeConfig,
    ) -> Result<Self, NodeError> {
        let request = Message::GetHeaders.encode();
        let (reply, traffic) = transport.exchange(&request)?;
        let Message::Headers(headers) = decode_reply(&reply)? else {
            return Err(NodeError::UnexpectedMessage);
        };
        // The served headers must carry exactly the commitments the
        // trusted configuration's scheme requires.
        Self::check_commitment_policy(&headers, 0, config)?;
        let client = LightClient::new(config, headers);
        // SPV sanity: the downloaded headers must form a hash chain.
        client.validate_header_chain()?;
        Ok(LightNode {
            client,
            cumulative: traffic,
            exchanges: 1,
            max_reorg_depth: 0,
        })
    }

    /// The verification engine (e.g. to inspect
    /// [`LightClient::storage_bytes`]).
    pub fn client(&self) -> &LightClient {
        &self.client
    }

    /// Cumulative traffic across all exchanges this node performed
    /// (including its initial header sync), on any transport.
    pub fn cumulative_traffic(&self) -> Traffic {
        self.cumulative
    }

    /// Number of request/response exchanges this node performed.
    pub fn exchanges(&self) -> u64 {
        self.exchanges
    }

    /// Fetches the headers above this node's current tip via
    /// [`Message::GetHeadersFrom`] and appends them — the incremental
    /// sync a long-lived client uses instead of a full re-download.
    ///
    /// Each probe pins the client's own header hash, so a peer whose
    /// chain diverged (a reorg happened, or the peer sits on a fork)
    /// answers [`Message::HeadersDiverged`] instead of a tail that
    /// would graft onto the wrong prefix. The client then walks its
    /// probe downward, at most [`LightNode::max_reorg_depth`] headers
    /// below its tip, until the chains agree; it rolls back to the
    /// agreement height and adopts the peer's replacement headers,
    /// reporting [`ResyncOutcome::Diverged`]. Any proof previously
    /// verified against a discarded header was a proof against an
    /// orphaned block — the caller must re-query.
    ///
    /// # Errors
    ///
    /// As [`LightNode::sync_from`] (transport failures, a wrong reply
    /// kind, [`NodeError::ConfigMismatch`], [`NodeError::Verify`] on a
    /// non-chaining tail), plus [`NodeError::ReorgTooDeep`] when the
    /// peer still diverges at the bottom of the reorg budget.
    pub fn sync_new<T: Transport + ?Sized>(
        &mut self,
        transport: &mut T,
    ) -> Result<ResyncOutcome, NodeError> {
        let tip = self.client.tip_height();
        let floor = tip.saturating_sub(self.max_reorg_depth);
        let mut probe = tip;
        loop {
            let anchor = self.client.hash_at(probe).expect("probe is at most tip");
            let request = Message::GetHeadersFrom {
                height: probe,
                tip_hash: anchor,
            }
            .encode();
            let (reply, _) = self.metered_exchange(transport, &request)?;
            match decode_reply(&reply)? {
                Message::Headers(new_headers) => {
                    Self::check_commitment_policy(&new_headers, probe, self.client.config())?;
                    // Validate the tail's linkage onto the agreed
                    // header *before* discarding anything, so a bad
                    // tail leaves this client untouched.
                    let mut prev = anchor;
                    for (i, header) in new_headers.iter().enumerate() {
                        if header.prev_block != prev {
                            return Err(NodeError::Verify(
                                lvq_core::QueryError::BrokenHeaderChain {
                                    height: probe + i as u64 + 1,
                                },
                            ));
                        }
                        prev = header.block_hash();
                    }
                    let count = new_headers.len() as u64;
                    if probe == tip {
                        self.client.append_headers(new_headers)?;
                        return Ok(if count == 0 {
                            ResyncOutcome::PeerBehind
                        } else {
                            ResyncOutcome::Synced(count)
                        });
                    }
                    if count == 0 {
                        // The peer agreed at the probe but serves
                        // nothing above it (its chain moved between
                        // probes); keep our longer chain.
                        return Ok(ResyncOutcome::PeerBehind);
                    }
                    self.client.rollback_to(probe);
                    self.client.append_headers(new_headers)?;
                    return Ok(ResyncOutcome::Diverged { fork_height: probe });
                }
                Message::PeerBehind { .. } => return Ok(ResyncOutcome::PeerBehind),
                Message::HeadersDiverged { .. } => {
                    if probe == floor {
                        return Err(NodeError::ReorgTooDeep {
                            floor,
                            max_depth: self.max_reorg_depth,
                        });
                    }
                    probe -= 1;
                }
                _ => return Err(NodeError::UnexpectedMessage),
            }
        }
    }

    /// Runs one query described by `spec` and verifies the response.
    ///
    /// This is the single query entry point: a single-address spec
    /// ([`QuerySpec::address`]) exchanges a [`Message::QueryRequest`],
    /// a batched spec ([`QuerySpec::addresses`]) a
    /// [`Message::BatchQueryRequest`].
    ///
    /// # Errors
    ///
    /// Returns [`NodeError::Verify`] if the response fails verification
    /// — the caller should treat the full node as faulty or malicious;
    /// [`NodeError::Busy`] / [`NodeError::Server`] if the peer shed or
    /// refused the request; and other [`NodeError`] variants for
    /// transport-level problems. An empty batch spec and ranges outside
    /// `1..=tip` are rejected.
    pub fn run<T: Transport + ?Sized>(
        &mut self,
        spec: &QuerySpec,
        transport: &mut T,
    ) -> Result<QueryRun, NodeError> {
        let request = spec.to_message().encode();
        let (reply, traffic) = self.metered_exchange(transport, &request)?;
        let histories = spec.verify_reply(&self.client, &reply)?;
        Ok(QueryRun { histories, traffic })
    }

    /// Runs several queries over a negotiated protocol-v2 connection,
    /// keeping up to the granted window in flight at once.
    ///
    /// The requests are the same bytes [`LightNode::run`] would send
    /// one at a time; responses are matched back by request id, so the
    /// server may answer them in any order — a slow proof on one spec
    /// does not stall verification of the others. The returned runs
    /// are in `specs` order regardless of arrival order.
    ///
    /// # Errors
    ///
    /// As [`LightNode::run`], for whichever spec fails first (by
    /// arrival). On error the remaining in-flight requests are
    /// abandoned: the connection state is unknown and the transport
    /// should be dropped.
    pub fn run_pipelined(
        &mut self,
        specs: &[QuerySpec],
        transport: &mut PipelinedTcpTransport,
    ) -> Result<Vec<QueryRun>, NodeError> {
        let window = (transport.granted() as usize)
            .saturating_sub(transport.in_flight())
            .max(1);
        let mut runs: Vec<Option<QueryRun>> = specs.iter().map(|_| None).collect();
        let mut by_id: HashMap<ReqId, usize> = HashMap::new();
        let mut next = 0;
        let mut done = 0;
        while done < specs.len() {
            while next < specs.len() && by_id.len() < window {
                let id = transport.submit(&specs[next].to_message().encode())?;
                by_id.insert(id, next);
                next += 1;
            }
            let (id, reply, traffic) = transport.recv()?;
            self.cumulative.request_bytes += traffic.request_bytes;
            self.cumulative.response_bytes += traffic.response_bytes;
            self.exchanges += 1;
            let index = by_id
                .remove(&id)
                .ok_or(NodeError::UnknownRequestId { id })?;
            let histories = specs[index].verify_reply(&self.client, &reply)?;
            runs[index] = Some(QueryRun { histories, traffic });
            done += 1;
        }
        Ok(runs
            .into_iter()
            .map(|run| run.expect("every spec was answered"))
            .collect())
    }

    /// Runs one query under a retry policy: transient failures (a shed
    /// [`NodeError::Busy`], a dropped connection, a timeout, a server
    /// deadline miss) are retried with the retrier's seeded backoff;
    /// fatal errors — above all verification failures — are returned
    /// immediately and never replayed against the same peer.
    ///
    /// Replaying is sound because every request this node sends is a
    /// pure read; see [`NodeError::retryable`] for the full taxonomy.
    /// After a connection-shaped transient (disconnect, timeout, I/O)
    /// the node re-checks the peer's tip with [`LightNode::sync_new`]
    /// before retrying, so a peer that restarted with a longer chain
    /// still produces proofs this node can verify. Each re-check's
    /// typed outcome ([`crate::ResyncOutcome`]: synced N headers,
    /// peer-behind, or failed) is recorded in the retrier's
    /// [`crate::RetryStats`] — a failed re-check never fails the
    /// operation on its own, but it is no longer silent either.
    ///
    /// # Errors
    ///
    /// As [`LightNode::run`], except that a transient error surfaces
    /// only once the retrier's attempt cap is spent.
    pub fn run_with_retry<T: Transport + ?Sized>(
        &mut self,
        spec: &QuerySpec,
        transport: &mut T,
        retrier: &mut crate::retry::Retrier,
    ) -> Result<QueryRun, NodeError> {
        let mut resync = false;
        retrier.run_ctx(|_attempt, stats| {
            if std::mem::take(&mut resync) {
                stats.record_resync(match self.sync_new(transport) {
                    Ok(outcome) => outcome,
                    Err(_) => ResyncOutcome::Failed,
                });
            }
            let outcome = self.run(spec, transport);
            if matches!(
                outcome,
                Err(NodeError::Disconnected { .. })
                    | Err(NodeError::Timeout { .. })
                    | Err(NodeError::Io { .. })
            ) {
                resync = true;
            }
            outcome
        })
    }

    /// Checks that `headers` (starting at chain height `offset + 1`)
    /// carry exactly the commitments the trusted configuration's scheme
    /// requires.
    fn check_commitment_policy(
        headers: &[BlockHeader],
        offset: u64,
        config: SchemeConfig,
    ) -> Result<(), NodeError> {
        let policy = config.scheme().policy();
        for (i, header) in headers.iter().enumerate() {
            let c = &header.commitments;
            if c.bf_hash.is_some() != policy.bf_hash
                || c.bmt_root.is_some() != policy.bmt
                || c.smt_commitment.is_some() != policy.smt
            {
                return Err(NodeError::ConfigMismatch {
                    height: offset + i as u64 + 1,
                });
            }
        }
        Ok(())
    }

    /// One exchange, folded into this node's cumulative accounting.
    fn metered_exchange<T: Transport + ?Sized>(
        &mut self,
        transport: &mut T,
        request: &[u8],
    ) -> Result<(Vec<u8>, Traffic), NodeError> {
        let (reply, traffic) = transport.exchange(request)?;
        self.cumulative.request_bytes += traffic.request_bytes;
        self.cumulative.response_bytes += traffic.response_bytes;
        self.exchanges += 1;
        Ok((reply, traffic))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::full::{FullNode, RequestKind};
    use crate::message::{WireError, WireErrorCode};
    use crate::transport::LocalTransport;
    use lvq_bloom::BloomParams;
    use lvq_chain::{ChainBuilder, Transaction, TxInput, TxOutPoint, TxOutput};
    use lvq_core::{Completeness, Scheme};
    use lvq_crypto::Hash256;

    fn transfer(from: &str, to: &str, value: u64, salt: u32) -> Transaction {
        Transaction {
            version: 1,
            inputs: vec![TxInput {
                prev_out: TxOutPoint {
                    txid: Hash256::hash(&salt.to_le_bytes()),
                    vout: 0,
                },
                address: Address::new(from),
                value,
            }],
            outputs: vec![TxOutput {
                address: Address::new(to),
                value,
            }],
            lock_time: 0,
        }
    }

    fn config_for(scheme: Scheme) -> SchemeConfig {
        SchemeConfig::new(scheme, BloomParams::new(64, 2).unwrap(), 8).unwrap()
    }

    fn full_node(scheme: Scheme, blocks: u64) -> FullNode {
        let config = config_for(scheme);
        let mut builder = ChainBuilder::new(config.chain_params()).unwrap();
        for h in 1..=blocks {
            let mut txs = vec![Transaction::coinbase(Address::new("1Miner"), 50, h as u32)];
            if h % 2 == 0 {
                txs.push(transfer("1Payer", "1Shop", h, h as u32));
            }
            builder.push_block(txs).unwrap();
        }
        FullNode::new(builder.finish()).unwrap()
    }

    fn query<T: Transport + ?Sized>(
        light: &mut LightNode,
        peer: &mut T,
        name: &str,
    ) -> Result<QueryRun, NodeError> {
        light.run(&QuerySpec::address(Address::new(name)), peer)
    }

    #[test]
    fn end_to_end_all_schemes() {
        for scheme in Scheme::ALL {
            let full = full_node(scheme, 10);
            let mut peer = LocalTransport::new(&full);
            let mut light = LightNode::sync_from(&mut peer, config_for(scheme)).unwrap();
            let run = query(&mut light, &mut peer, "1Shop").unwrap();
            let history = &run.histories[0];
            assert_eq!(
                history.transactions.len(),
                5,
                "scheme {scheme}: heights 2,4,6,8,10"
            );
            assert_eq!(history.balance.net(), (2 + 4 + 6 + 8 + 10) as i128);
            assert!(run.traffic.response_bytes > 0);
            let expected = if scheme == Scheme::Strawman {
                Completeness::CorrectnessOnly
            } else {
                Completeness::Complete
            };
            assert_eq!(history.completeness, expected, "scheme {scheme}");
        }
    }

    #[test]
    fn absent_address_yields_empty_complete_history() {
        for scheme in Scheme::ALL {
            let full = full_node(scheme, 10);
            let mut peer = LocalTransport::new(&full);
            let mut light = LightNode::sync_from(&mut peer, config_for(scheme)).unwrap();
            let history = query(&mut light, &mut peer, "1Ghost")
                .unwrap()
                .into_single();
            assert!(history.transactions.is_empty(), "scheme {scheme}");
            assert_eq!(history.balance.net(), 0);
        }
    }

    #[test]
    fn traffic_accumulates_across_queries_and_transports() {
        let full = full_node(Scheme::Lvq, 8);
        let mut peer = LocalTransport::new(&full);
        let mut light = LightNode::sync_from(&mut peer, config_for(Scheme::Lvq)).unwrap();
        let t0 = light.cumulative_traffic();
        assert!(t0.response_bytes > 0, "header sync is metered");
        query(&mut light, &mut peer, "1Shop").unwrap();
        // A second transport to the same node: the light node's own
        // accounting spans transports.
        let mut other = LocalTransport::new(&full);
        query(&mut light, &mut other, "1Miner").unwrap();
        let t1 = light.cumulative_traffic();
        assert!(t1.total() > t0.total());
        assert_eq!(light.exchanges(), 3);
        // And the per-transport view splits the same totals.
        assert_eq!(
            peer.cumulative_traffic().total() + other.cumulative_traffic().total(),
            t1.total()
        );
    }

    #[test]
    fn light_node_stores_headers_only() {
        let full = full_node(Scheme::Lvq, 8);
        let mut peer = LocalTransport::new(&full);
        let light = LightNode::sync_from(&mut peer, config_for(Scheme::Lvq)).unwrap();
        // The light node stores exactly the header bytes the chain's
        // own headers occupy — derived, not hard-coded, so changes to
        // the header layout don't silently break this test.
        let expected: u64 = full
            .chain()
            .headers()
            .iter()
            .map(|h| h.storage_len() as u64)
            .sum();
        assert_eq!(light.client().storage_bytes(), expected);
        // And that is much less than storing the blocks themselves.
        let chain_bytes: u64 = (1..=8)
            .map(|h| full.chain().block(h).unwrap().encoded_len() as u64)
            .sum();
        assert!(light.client().storage_bytes() < chain_bytes);
    }

    #[test]
    fn range_queries_verify_per_scheme() {
        for scheme in Scheme::ALL {
            let full = full_node(scheme, 10);
            let mut peer = LocalTransport::new(&full);
            let mut light = LightNode::sync_from(&mut peer, config_for(scheme)).unwrap();
            // "1Shop" receives in blocks 2,4,6,8,10; range 3..=7 covers 4,6.
            let run = light
                .run(
                    &QuerySpec::address(Address::new("1Shop")).range(3, 7),
                    &mut peer,
                )
                .unwrap();
            let heights: Vec<u64> = run.histories[0]
                .transactions
                .iter()
                .map(|(h, _)| *h)
                .collect();
            assert_eq!(heights, vec![4, 6], "scheme {scheme}");
            // A range query moves fewer bytes than the full query.
            let full_run = query(&mut light, &mut peer, "1Shop").unwrap();
            assert!(run.traffic.response_bytes <= full_run.traffic.response_bytes);
        }
    }

    #[test]
    fn invalid_range_rejected() {
        let full = full_node(Scheme::Lvq, 4);
        let mut peer = LocalTransport::new(&full);
        let mut light = LightNode::sync_from(&mut peer, config_for(Scheme::Lvq)).unwrap();
        for (lo, hi) in [(0u64, 2u64), (3, 2), (1, 9)] {
            assert!(
                light
                    .run(
                        &QuerySpec::address(Address::new("1Shop")).range(lo, hi),
                        &mut peer,
                    )
                    .is_err(),
                "range {lo}..={hi}"
            );
            assert!(
                light
                    .run(
                        &QuerySpec::addresses(vec![Address::new("1Shop")]).range(lo, hi),
                        &mut peer,
                    )
                    .is_err(),
                "batch range {lo}..={hi}"
            );
        }
    }

    #[test]
    fn batch_query_matches_singles_across_schemes() {
        for scheme in Scheme::ALL {
            let full = full_node(scheme, 10);
            let mut peer = LocalTransport::new(&full);
            let mut light = LightNode::sync_from(&mut peer, config_for(scheme)).unwrap();
            let addresses = [
                Address::new("1Shop"),
                Address::new("1Miner"),
                Address::new("1Ghost"),
            ];
            let batch = light
                .run(&QuerySpec::addresses(addresses.clone()), &mut peer)
                .unwrap();
            assert_eq!(batch.histories.len(), addresses.len());
            for (address, history) in addresses.iter().zip(&batch.histories) {
                let single = query(&mut light, &mut peer, address.as_str())
                    .unwrap()
                    .into_single();
                assert_eq!(history, &single, "scheme {scheme}, address {address}");
            }
        }
    }

    #[test]
    fn batch_range_matches_single_ranges_across_schemes() {
        for scheme in Scheme::ALL {
            let full = full_node(scheme, 10);
            let mut peer = LocalTransport::new(&full);
            let mut light = LightNode::sync_from(&mut peer, config_for(scheme)).unwrap();
            let addresses = [Address::new("1Shop"), Address::new("1Miner")];
            let (lo, hi) = (3u64, 7u64);
            let batch = light
                .run(
                    &QuerySpec::addresses(addresses.clone()).range(lo, hi),
                    &mut peer,
                )
                .unwrap();
            for (address, history) in addresses.iter().zip(&batch.histories) {
                let single = light
                    .run(
                        &QuerySpec::address(address.clone()).range(lo, hi),
                        &mut peer,
                    )
                    .unwrap()
                    .into_single();
                assert_eq!(history, &single, "scheme {scheme}, address {address}");
            }
        }
    }

    #[test]
    fn batch_moves_fewer_bytes_than_singles_under_lvq() {
        let full = full_node(Scheme::Lvq, 10);
        let mut peer = LocalTransport::new(&full);
        let mut light = LightNode::sync_from(&mut peer, config_for(Scheme::Lvq)).unwrap();
        let addresses: Vec<Address> =
            ["1Shop", "1Miner", "1Payer", "1GhostA", "1GhostB", "1GhostC"]
                .iter()
                .map(|s| Address::new(*s))
                .collect();
        let batch = light
            .run(&QuerySpec::addresses(addresses.clone()), &mut peer)
            .unwrap();
        let singles: u64 = addresses
            .iter()
            .map(|a| {
                query(&mut light, &mut peer, a.as_str())
                    .unwrap()
                    .traffic
                    .response_bytes
            })
            .sum();
        assert!(
            batch.traffic.response_bytes < singles,
            "batch of {} must beat {} singles on the wire ({} vs {})",
            addresses.len(),
            addresses.len(),
            batch.traffic.response_bytes,
            singles
        );
    }

    #[test]
    fn repeat_descents_hit_the_span_filter_cache() {
        let full = full_node(Scheme::Lvq, 10);
        let mut peer = LocalTransport::new(&full);
        let mut light = LightNode::sync_from(&mut peer, config_for(Scheme::Lvq)).unwrap();
        query(&mut light, &mut peer, "1Shop").unwrap();
        light
            .run(
                &QuerySpec::addresses(vec![Address::new("1Shop"), Address::new("1Miner")]),
                &mut peer,
            )
            .unwrap();
        // The span-filter cache saw traffic, and repeat descents hit it.
        let cache = full.chain().cache_stats();
        assert!(cache.filters.misses > 0);
        assert!(cache.filters.hits > 0);
    }

    #[test]
    fn mismatched_config_rejected() {
        // A full node on a weaker scheme (no SMT commitments in its
        // headers) cannot pass itself off to an LVQ-configured light
        // node: the out-of-band trust anchor catches it at sync time.
        let strawman_full = full_node(Scheme::Strawman, 6);
        assert!(matches!(
            LightNode::sync_from(
                &mut LocalTransport::new(&strawman_full),
                config_for(Scheme::Lvq)
            )
            .unwrap_err(),
            NodeError::ConfigMismatch { height: 1 }
        ));
        // And in the other direction: unexpected commitments are just
        // as much of a mismatch as missing ones.
        let lvq_full = full_node(Scheme::Lvq, 6);
        assert!(matches!(
            LightNode::sync_from(
                &mut LocalTransport::new(&lvq_full),
                config_for(Scheme::Strawman)
            )
            .unwrap_err(),
            NodeError::ConfigMismatch { height: 1 }
        ));
    }

    #[test]
    fn garbage_request_answered_with_structured_error() {
        let full = full_node(Scheme::Lvq, 2);
        // Byte 0xFF reads as an unsupported protocol version; the node
        // answers with a structured refusal instead of failing.
        let handled = full.handle_classified(&[0xFF, 0x00]);
        assert_eq!(handled.kind, RequestKind::Invalid);
        assert_eq!(handled.error, Some(WireErrorCode::UnsupportedVersion));
        assert_eq!(
            decode_exact::<Message>(&handled.bytes).unwrap(),
            Message::Error(WireError::with_detail(
                WireErrorCode::UnsupportedVersion,
                0xFF
            ))
        );
        // A response-kind message is not a valid request either.
        let msg = Message::Headers(Vec::new()).encode();
        let handled = full.handle_classified(&msg);
        assert_eq!(handled.error, Some(WireErrorCode::UnexpectedKind));
        // The compat wrapper hands back the same refusal bytes in `Ok`.
        assert_eq!(full.handle(&msg).unwrap(), handled.bytes);
    }

    #[test]
    fn light_node_surfaces_server_refusals_and_busy() {
        let full = full_node(Scheme::Lvq, 4);
        let mut peer = LocalTransport::new(&full);
        let mut light = LightNode::sync_from(&mut peer, config_for(Scheme::Lvq)).unwrap();
        // An empty batch is a well-formed request the prover refuses.
        assert_eq!(
            light
                .run(&QuerySpec::addresses(Vec::new()), &mut peer)
                .unwrap_err(),
            NodeError::Server(WireError::new(WireErrorCode::Unanswerable))
        );
        // A peer that sheds load surfaces as `NodeError::Busy`.
        let busy = |_req: &[u8]| -> Result<Vec<u8>, NodeError> { Ok(Message::Busy.encode()) };
        let mut shed = LocalTransport::new(busy);
        assert_eq!(
            light
                .run(&QuerySpec::address(Address::new("1Shop")), &mut shed)
                .unwrap_err(),
            NodeError::Busy
        );
    }

    #[test]
    fn run_with_retry_rides_out_transient_busy() {
        use crate::retry::{Retrier, RetryPolicy};
        use std::cell::Cell;
        use std::time::Duration;

        let full = full_node(Scheme::Lvq, 8);
        // A peer that sheds the first two query requests and then
        // behaves — exactly a saturated worker pool draining.
        let sheds = Cell::new(2u32);
        let flaky = |req: &[u8]| -> Result<Vec<u8>, NodeError> {
            let is_query = matches!(
                decode_exact::<Message>(req),
                Ok(Message::QueryRequest { .. } | Message::BatchQueryRequest { .. })
            );
            if is_query && sheds.get() > 0 {
                sheds.set(sheds.get() - 1);
                return Ok(Message::Busy.encode());
            }
            full.handle(req)
        };
        let mut peer = LocalTransport::new(flaky);
        let mut light = LightNode::sync_from(&mut peer, config_for(Scheme::Lvq)).unwrap();
        let policy =
            RetryPolicy::new(5).backoff(Duration::from_micros(10), Duration::from_micros(50));
        let mut retrier = Retrier::new(policy, 11);
        let spec = QuerySpec::address(Address::new("1Shop"));
        let run = light
            .run_with_retry(&spec, &mut peer, &mut retrier)
            .unwrap();
        assert_eq!(run.histories[0].transactions.len(), 4);
        assert_eq!(retrier.stats().attempts, 3, "two sheds, one success");

        // The same history a fault-free peer serves.
        let mut clean_peer = LocalTransport::new(&full);
        let mut clean = LightNode::sync_from(&mut clean_peer, config_for(Scheme::Lvq)).unwrap();
        assert_eq!(
            run.histories,
            clean.run(&spec, &mut clean_peer).unwrap().histories
        );

        // And a fatal error still short-circuits: a peer proving from
        // a different chain fails verification and is never retried.
        let liar = full_node(Scheme::Lvq, 4);
        let mut lying_peer = LocalTransport::new(&liar);
        let mut retrier = Retrier::new(policy, 12);
        assert!(light
            .run_with_retry(&spec, &mut lying_peer, &mut retrier)
            .is_err());
        assert_eq!(retrier.stats().attempts, 1);
        assert_eq!(retrier.stats().fatal, 1);
    }

    #[test]
    fn run_with_retry_records_typed_resync_outcomes() {
        use crate::retry::{ResyncOutcome, Retrier, RetryPolicy};
        use std::cell::Cell;
        use std::time::Duration;

        let config = config_for(Scheme::Lvq);
        let build = |blocks: u64| {
            let mut builder = ChainBuilder::new(config.chain_params()).unwrap();
            for h in 1..=blocks {
                builder
                    .push_block(vec![Transaction::coinbase(
                        Address::new("1Miner"),
                        50,
                        h as u32,
                    )])
                    .unwrap();
            }
            FullNode::new(builder.finish()).unwrap()
        };
        let short = build(6);
        let grown = build(10);
        let policy =
            RetryPolicy::new(5).backoff(Duration::from_micros(10), Duration::from_micros(50));
        let spec = QuerySpec::address(Address::new("1Miner"));

        let mut light = LightNode::sync_from(&mut LocalTransport::new(&short), config).unwrap();
        assert_eq!(light.client().tip_height(), 6);

        // The grown peer drops the first query; the retry's tip
        // re-check must surface the four new headers, typed.
        let drops = Cell::new(1u32);
        let flaky = |req: &[u8]| -> Result<Vec<u8>, NodeError> {
            let is_query = matches!(
                decode_exact::<Message>(req),
                Ok(Message::QueryRequest { .. } | Message::BatchQueryRequest { .. })
            );
            if is_query && drops.get() > 0 {
                drops.set(drops.get() - 1);
                return Err(NodeError::Disconnected { context: "test" });
            }
            grown.handle(req)
        };
        let mut peer = LocalTransport::new(flaky);
        let mut retrier = Retrier::new(policy, 21);
        let run = light
            .run_with_retry(&spec, &mut peer, &mut retrier)
            .unwrap();
        assert_eq!(run.histories[0].transactions.len(), 10);
        let stats = retrier.stats();
        assert_eq!(stats.resyncs, 1);
        assert_eq!(stats.resync_headers, 4);
        assert_eq!(stats.last_resync, Some(ResyncOutcome::Synced(4)));

        // Already at the peer's tip: the next re-check is peer-behind.
        drops.set(1);
        let mut retrier = Retrier::new(policy, 22);
        light
            .run_with_retry(&spec, &mut peer, &mut retrier)
            .unwrap();
        assert_eq!(retrier.stats().resyncs_peer_behind, 1);
        assert_eq!(retrier.stats().last_resync, Some(ResyncOutcome::PeerBehind));

        // A re-check that itself fails is recorded — not silent, and
        // not fatal: the operation still succeeds once the peer heals.
        let failures = Cell::new(2u32); // first query, then the re-check
        let flaky2 = |req: &[u8]| -> Result<Vec<u8>, NodeError> {
            if failures.get() > 0 {
                failures.set(failures.get() - 1);
                return Err(NodeError::Disconnected { context: "test" });
            }
            grown.handle(req)
        };
        let mut peer2 = LocalTransport::new(flaky2);
        let mut retrier = Retrier::new(policy, 23);
        let run = light
            .run_with_retry(&spec, &mut peer2, &mut retrier)
            .unwrap();
        assert_eq!(run.histories[0].transactions.len(), 10);
        let stats = retrier.stats();
        assert_eq!(stats.resyncs, 1);
        assert_eq!(stats.resyncs_failed, 1);
        assert_eq!(stats.last_resync, Some(ResyncOutcome::Failed));
    }

    #[test]
    fn sync_new_appends_only_the_missing_headers() {
        let config = config_for(Scheme::Lvq);
        let mut builder = ChainBuilder::new(config.chain_params()).unwrap();
        for h in 1..=6u64 {
            builder
                .push_block(vec![Transaction::coinbase(
                    Address::new("1Miner"),
                    50,
                    h as u32,
                )])
                .unwrap();
        }
        let short = FullNode::new(builder.finish()).unwrap();
        let mut peer = LocalTransport::new(&short);
        let mut light = LightNode::sync_from(&mut peer, config).unwrap();
        assert_eq!(light.client().tip_height(), 6);

        // The chain grows by four blocks; resume from the same prefix
        // so the first six headers stay identical.
        let mut builder = ChainBuilder::new(config.chain_params()).unwrap();
        for h in 1..=10u64 {
            builder
                .push_block(vec![Transaction::coinbase(
                    Address::new("1Miner"),
                    50,
                    h as u32,
                )])
                .unwrap();
        }
        let grown = FullNode::new(builder.finish()).unwrap();
        let mut grown_peer = LocalTransport::new(&grown);
        let synced_before = light.cumulative_traffic();
        assert_eq!(
            light.sync_new(&mut grown_peer).unwrap(),
            ResyncOutcome::Synced(4)
        );
        assert_eq!(light.client().tip_height(), 10);
        // Only the four new headers crossed the wire — far less than a
        // full re-sync.
        let incremental = light.cumulative_traffic().response_bytes - synced_before.response_bytes;
        let full_sync = LightNode::sync_from(&mut LocalTransport::new(&grown), config)
            .unwrap()
            .cumulative_traffic()
            .response_bytes;
        assert!(incremental < full_sync / 2);
        // Already at the tip: a no-op.
        assert_eq!(
            light.sync_new(&mut grown_peer).unwrap(),
            ResyncOutcome::PeerBehind
        );
        // And the grown history verifies end to end.
        let run = light
            .run(&QuerySpec::address(Address::new("1Miner")), &mut grown_peer)
            .unwrap();
        assert_eq!(run.histories[0].transactions.len(), 10);
    }

    #[test]
    fn sync_new_refuses_a_diverged_peer_without_a_reorg_budget() {
        let config = config_for(Scheme::Lvq);
        let full_a = full_node(Scheme::Lvq, 6);
        let mut peer_a = LocalTransport::new(&full_a);
        let mut light = LightNode::sync_from(&mut peer_a, config).unwrap();
        // A different chain of the same scheme: it shares no header
        // with ours, so every probe answers HeadersDiverged.
        let mut builder = ChainBuilder::new(config.chain_params()).unwrap();
        for h in 1..=9u64 {
            builder
                .push_block(vec![Transaction::coinbase(
                    Address::new("1Other"),
                    50,
                    h as u32,
                )])
                .unwrap();
        }
        let full_b = FullNode::new(builder.finish()).unwrap();
        // Default budget 0: the first divergence is already too deep.
        assert_eq!(
            light
                .sync_new(&mut LocalTransport::new(&full_b))
                .unwrap_err(),
            NodeError::ReorgTooDeep {
                floor: 6,
                max_depth: 0
            }
        );
        assert_eq!(light.client().tip_height(), 6);
        // A budget that still bottoms out above the (non-existent)
        // fork point refuses too — the walk stops at the floor, and
        // nothing was discarded.
        let mut light = light.with_max_reorg_depth(3);
        assert_eq!(
            light
                .sync_new(&mut LocalTransport::new(&full_b))
                .unwrap_err(),
            NodeError::ReorgTooDeep {
                floor: 3,
                max_depth: 3
            }
        );
        assert_eq!(light.client().tip_height(), 6);
    }

    #[test]
    fn sync_new_follows_a_reorg_within_budget() {
        let config = config_for(Scheme::Lvq);
        // Canonical and fork share heights 1..=5, then diverge; the
        // fork is longer (the winner after a reorg).
        let build = |total: u64, fork_tag: &str| {
            let mut builder = ChainBuilder::new(config.chain_params()).unwrap();
            for h in 1..=total {
                let tag = if h <= 5 { "1Miner" } else { fork_tag };
                builder
                    .push_block(vec![Transaction::coinbase(Address::new(tag), 50, h as u32)])
                    .unwrap();
            }
            FullNode::new(builder.finish()).unwrap()
        };
        let canonical = build(8, "1Miner");
        let winner = build(10, "1Winner");

        let mut light = LightNode::sync_from(&mut LocalTransport::new(&canonical), config)
            .unwrap()
            .with_max_reorg_depth(4);
        assert_eq!(light.client().tip_height(), 8);

        // The peer reorged: probes at 8, 7, 6 diverge, height 5 agrees.
        let mut winner_peer = LocalTransport::new(&winner);
        assert_eq!(
            light.sync_new(&mut winner_peer).unwrap(),
            ResyncOutcome::Diverged { fork_height: 5 }
        );
        assert_eq!(light.client().tip_height(), 10);
        // The adopted headers are exactly the winner's, and proofs
        // against the new chain verify end to end.
        assert_eq!(
            light.client().hash_at(10),
            Some(winner.chain().header(10).unwrap().block_hash())
        );
        let run = light
            .run(
                &QuerySpec::address(Address::new("1Winner")),
                &mut winner_peer,
            )
            .unwrap();
        assert_eq!(run.histories[0].transactions.len(), 5);

        // The displaced canonical peer is now simply behind: its tip
        // (8) is below the client's (10), so the client keeps the
        // longer chain instead of reorging back to a shorter one.
        assert_eq!(
            light
                .sync_new(&mut LocalTransport::new(&canonical))
                .unwrap(),
            ResyncOutcome::PeerBehind
        );
        assert_eq!(light.client().tip_height(), 10);
    }
}

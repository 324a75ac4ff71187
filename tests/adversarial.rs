//! Security tests (paper §VI): every forgery a malicious full node can
//! attempt against a light client must be rejected. Each test mutates an
//! honest response in one specific way and checks the verifier's
//! verdict — including the one *documented gap*: the strawman cannot
//! detect omitted transactions (Challenge 3).

use lvq::core::{
    BlockFragment, ExistenceProof, QueryError, QueryResponse, SegmentedResponse, TxWithBranch,
};
use lvq::merkle::bmt::BmtProofNode;
use lvq::merkle::{BmtProof, SmtProofKind};
use lvq::prelude::*;

/// A workload where `Addr4`-class probes give blocks with multiple
/// matching transactions.
fn workload_for(scheme: Scheme) -> Workload {
    let config = SchemeConfig::new(scheme, BloomParams::new(640, 2).unwrap(), 16).unwrap();
    WorkloadBuilder::new(config.chain_params())
        .blocks(32)
        .traffic(TrafficModel::tiny())
        .seed(1234)
        .probe("1VictimAddress", 8, 4) // multiple txs in some blocks
        .build()
        .unwrap()
}

struct Scenario {
    workload: Workload,
    address: Address,
    response: QueryResponse,
    client: LightClient,
}

fn scenario(scheme: Scheme) -> Scenario {
    let workload = workload_for(scheme);
    let address = workload.probes[0].address.clone();
    let prover = Prover::from_chain(&workload.chain).unwrap();
    let (response, _) = prover.respond(&address).unwrap();
    let client = LightClient::new(prover.config(), workload.chain.headers());
    // Sanity: the honest response verifies.
    client.verify(&address, &response).unwrap();
    Scenario {
        workload,
        address,
        response,
        client,
    }
}

fn as_segmented(response: &mut QueryResponse) -> &mut SegmentedResponse {
    match response {
        QueryResponse::Segmented(s) => s,
        QueryResponse::PerBlock(_) => panic!("expected a segmented response"),
    }
}

/// Finds the first existence fragment in a segmented response.
fn first_existence(segmented: &mut SegmentedResponse) -> &mut ExistenceProof {
    for bundle in &mut segmented.segments {
        for (_, fragment) in &mut bundle.fragments {
            if let BlockFragment::Existence(proof) = fragment {
                return proof;
            }
        }
    }
    panic!("no existence fragment in response");
}

// --- (a) omitting a matching transaction -----------------------------

#[test]
fn lvq_rejects_omitted_transaction() {
    let mut s = scenario(Scheme::Lvq);
    let existence = first_existence(as_segmented(&mut s.response));
    existence.transactions.pop();
    let err = s.client.verify(&s.address, &s.response).unwrap_err();
    assert!(
        matches!(err, QueryError::CountMismatch { .. }),
        "smt count pins the transaction count: {err}"
    );
}

#[test]
fn strawman_cannot_detect_omission_but_flags_it() {
    // The documented gap (Challenge 3): the strawman accepts the
    // censored history — but the client reports CorrectnessOnly, so a
    // caller knows the balance cannot be trusted.
    let mut s = scenario(Scheme::Strawman);
    let QueryResponse::PerBlock(per_block) = &mut s.response else {
        panic!("strawman responses are per-block");
    };
    let censored = per_block
        .entries
        .iter_mut()
        .find_map(|entry| match &mut entry.fragment {
            BlockFragment::MerkleBranches(txs) if txs.len() > 1 => Some(txs),
            _ => None,
        })
        .expect("victim has a block with several transactions");
    censored.pop();

    let truth = s.workload.chain.history_of(&s.address).len();
    let history = s.client.verify(&s.address, &s.response).unwrap();
    assert_eq!(history.completeness, Completeness::CorrectnessOnly);
    assert!(history.transactions.len() < truth, "omission went through");
}

// --- (b) forging an SMT count ----------------------------------------

#[test]
fn forged_smt_count_rejected() {
    let mut s = scenario(Scheme::Lvq);
    let existence = first_existence(as_segmented(&mut s.response));
    let SmtProofKind::Present(branch) = existence.smt.kind() else {
        panic!("existence proofs carry presence branches");
    };
    let forged_branch = lvq::merkle::SmtBranch::from_parts(
        branch.index(),
        branch.key().to_vec(),
        branch.value() - 1, // claim one fewer appearance
        branch.siblings().to_vec(),
    );
    existence.smt = SmtProof::from_parts(
        existence.smt.leaf_count(),
        SmtProofKind::Present(forged_branch),
    );
    existence.transactions.pop();
    let err = s.client.verify(&s.address, &s.response).unwrap_err();
    assert!(
        matches!(
            err,
            QueryError::Smt {
                source: lvq::merkle::SmtError::CommitmentMismatch,
                ..
            }
        ),
        "hash commitment pins the count: {err}"
    );
}

// --- (c) tampering a BMT node's filter --------------------------------

#[test]
fn tampered_bmt_filter_rejected() {
    let mut s = scenario(Scheme::Lvq);
    let segmented = as_segmented(&mut s.response);
    let bundle = &mut segmented.segments[0];

    fn poison(node: &BmtProofNode) -> BmtProofNode {
        match node {
            BmtProofNode::CleanLeaf { filter } => {
                let mut f = filter.clone();
                f.insert(b"poison");
                BmtProofNode::CleanLeaf { filter: f }
            }
            BmtProofNode::CleanNode {
                filter,
                left_hash,
                right_hash,
            } => {
                let mut f = filter.clone();
                f.insert(b"poison");
                BmtProofNode::CleanNode {
                    filter: f,
                    left_hash: *left_hash,
                    right_hash: *right_hash,
                }
            }
            BmtProofNode::FailedLeaf { filter } => BmtProofNode::FailedLeaf {
                filter: filter.clone(),
            },
            BmtProofNode::Branch { left, right } => BmtProofNode::Branch {
                left: Box::new(poison(left)),
                right: right.clone(),
            },
        }
    }
    bundle.proof = BmtProof::from_root(poison(bundle.proof.root()));
    let err = s.client.verify(&s.address, &s.response).unwrap_err();
    assert!(matches!(err, QueryError::Bmt { .. }), "{err}");
}

// --- (d) claiming a matching block is clean ---------------------------

#[test]
fn hiding_a_failed_leaf_as_clean_rejected() {
    let mut s = scenario(Scheme::Lvq);
    let segmented = as_segmented(&mut s.response);

    fn whitewash(node: &BmtProofNode) -> BmtProofNode {
        match node {
            BmtProofNode::FailedLeaf { filter } => BmtProofNode::CleanLeaf {
                filter: filter.clone(),
            },
            BmtProofNode::Branch { left, right } => BmtProofNode::Branch {
                left: Box::new(whitewash(left)),
                right: Box::new(whitewash(right)),
            },
            other => other.clone(),
        }
    }
    for bundle in &mut segmented.segments {
        bundle.proof = BmtProof::from_root(whitewash(bundle.proof.root()));
        bundle.fragments.clear();
    }
    let err = s.client.verify(&s.address, &s.response).unwrap_err();
    assert!(
        matches!(
            err,
            QueryError::Bmt {
                source: lvq::merkle::BmtError::NotClean,
                ..
            }
        ),
        "the committed filter itself betrays the lie: {err}"
    );
}

// --- (d, cont.) claiming a clean block is a failed one --------------------

#[test]
fn failed_leaf_over_a_clean_filter_rejected() {
    // The mirror image of (d): a leaf whose committed filter is clean
    // for the address is tagged failed and "resolved" with an honest SMT
    // absence proof. Nothing is hidden, but the response is a second
    // encoding of the same answer; the tag must agree with the filter.
    let mut s = scenario(Scheme::Lvq);
    let segment_len = s.client.config().segment_len();

    /// Re-tags the first clean leaf under `node` (spanning `lo..=hi`)
    /// as failed, returning its height.
    fn retag(node: &mut BmtProofNode, lo: u64, hi: u64) -> Option<u64> {
        match node {
            BmtProofNode::CleanLeaf { filter } => {
                let filter = filter.clone();
                *node = BmtProofNode::FailedLeaf { filter };
                Some(lo)
            }
            BmtProofNode::Branch { left, right } => {
                let mid = lo + (hi - lo) / 2;
                retag(left, lo, mid).or_else(|| retag(right, mid + 1, hi))
            }
            _ => None,
        }
    }

    let segmented = as_segmented(&mut s.response);
    let mut retagged = None;
    for (i, bundle) in segmented.segments.iter_mut().enumerate() {
        let lo = i as u64 * segment_len + 1;
        let mut root = bundle.proof.root().clone();
        if let Some(height) = retag(&mut root, lo, lo + segment_len - 1) {
            bundle.proof = BmtProof::from_root(root);
            let smt = s.workload.chain.address_smt(height).unwrap();
            let absence = BlockFragment::AbsenceSmt(smt.prove(s.address.as_bytes()));
            let at = bundle.fragments.partition_point(|(h, _)| *h < height);
            bundle.fragments.insert(at, (height, absence));
            retagged = Some(height);
            break;
        }
    }
    assert!(retagged.is_some(), "the honest proof has a clean leaf");
    let err = s.client.verify(&s.address, &s.response).unwrap_err();
    assert!(
        matches!(
            err,
            QueryError::Bmt {
                source: lvq::merkle::BmtError::MalformedProof { .. },
                ..
            }
        ),
        "{err}"
    );
}

// --- (e) dropping a block's fragment -----------------------------------

#[test]
fn dropped_fragment_rejected() {
    let mut s = scenario(Scheme::Lvq);
    let segmented = as_segmented(&mut s.response);
    let bundle = segmented
        .segments
        .iter_mut()
        .find(|b| !b.fragments.is_empty())
        .expect("victim appears somewhere");
    bundle.fragments.remove(0);
    let err = s.client.verify(&s.address, &s.response).unwrap_err();
    assert_eq!(err, QueryError::FragmentSetMismatch);
}

#[test]
fn per_block_empty_for_matching_block_rejected() {
    let mut s = scenario(Scheme::LvqWithoutBmt);
    let QueryResponse::PerBlock(per_block) = &mut s.response else {
        panic!("per-block scheme");
    };
    let entry = per_block
        .entries
        .iter_mut()
        .find(|e| matches!(e.fragment, BlockFragment::Existence(_)))
        .expect("victim appears somewhere");
    entry.fragment = BlockFragment::Empty;
    let err = s.client.verify(&s.address, &s.response).unwrap_err();
    assert!(matches!(err, QueryError::UnexpectedFragment { .. }));
}

// --- (f) truncating the response ---------------------------------------

#[test]
fn truncated_segments_rejected() {
    let mut s = scenario(Scheme::Lvq);
    as_segmented(&mut s.response).segments.pop();
    let err = s.client.verify(&s.address, &s.response).unwrap_err();
    assert_eq!(err, QueryError::SegmentMismatch);
}

#[test]
fn truncated_per_block_entries_rejected() {
    let mut s = scenario(Scheme::Strawman);
    let QueryResponse::PerBlock(per_block) = &mut s.response else {
        panic!("per-block scheme");
    };
    per_block.entries.pop();
    let err = s.client.verify(&s.address, &s.response).unwrap_err();
    assert!(matches!(err, QueryError::WrongEntryCount { .. }));
}

// --- (g) replacing existence with absence ------------------------------

#[test]
fn absence_proof_for_present_address_rejected() {
    let mut s = scenario(Scheme::Lvq);
    // Build a *valid* presence SMT proof and mislabel it as absence: the
    // verifier must notice the proof itself shows presence.
    let heights = s.workload.probes[0].block_heights.clone();
    let block = s.workload.chain.block(heights[0]).unwrap();
    let smt = block.address_smt().unwrap();
    let presence = smt.prove(s.address.as_bytes());

    let segmented = as_segmented(&mut s.response);
    'outer: for bundle in &mut segmented.segments {
        for (height, fragment) in &mut bundle.fragments {
            if *height == heights[0] {
                *fragment = BlockFragment::AbsenceSmt(presence.clone());
                break 'outer;
            }
        }
    }
    let err = s.client.verify(&s.address, &s.response).unwrap_err();
    assert!(
        matches!(
            err,
            QueryError::UnexpectedFragment { .. } | QueryError::Smt { .. }
        ),
        "{err}"
    );
}

// --- (h) substituting another block ------------------------------------

#[test]
fn integral_block_from_wrong_height_rejected() {
    let mut s = scenario(Scheme::LvqWithoutSmt);
    let segmented = as_segmented(&mut s.response);
    // Replace some integral block with the block from height 1.
    let substitute = (*s.workload.chain.block(1).unwrap()).clone();
    let mut replaced = false;
    for bundle in &mut segmented.segments {
        for (height, fragment) in &mut bundle.fragments {
            if *height != 1 && matches!(fragment, BlockFragment::IntegralBlock(_)) {
                *fragment = BlockFragment::IntegralBlock(Box::new(substitute.clone()));
                replaced = true;
            }
        }
    }
    assert!(replaced, "no-SMT responses carry integral blocks");
    let err = s.client.verify(&s.address, &s.response).unwrap_err();
    assert!(matches!(err, QueryError::BlockHeaderMismatch { .. }));
}

// --- (i) padding a count with a duplicated transaction ------------------

#[test]
fn duplicated_transaction_rejected() {
    let mut s = scenario(Scheme::Lvq);
    let existence = first_existence(as_segmented(&mut s.response));
    if existence.transactions.len() < 2 {
        // Fall back: duplicate the only transaction and bump nothing —
        // count check fires first, which is also a rejection.
        existence
            .transactions
            .push(existence.transactions[0].clone());
        let err = s.client.verify(&s.address, &s.response).unwrap_err();
        assert!(matches!(
            err,
            QueryError::CountMismatch { .. } | QueryError::DuplicateTransaction { .. }
        ));
        return;
    }
    // Replace the second transaction with a copy of the first: the
    // count matches but the Merkle slots collide.
    existence.transactions[1] = existence.transactions[0].clone();
    let err = s.client.verify(&s.address, &s.response).unwrap_err();
    assert!(
        matches!(err, QueryError::DuplicateTransaction { .. }),
        "{err}"
    );
}

// --- (i, cont.) padding a count through an aliased Merkle slot ----------

#[test]
fn index_above_branch_depth_rejected() {
    // Prove one transaction twice in place of another: the copy's
    // index differs only in a bit above the branch depth, which the
    // root computation never reads, so its slot looks distinct.
    let mut s = scenario(Scheme::Lvq);
    let segmented = as_segmented(&mut s.response);
    let existence = segmented
        .segments
        .iter_mut()
        .flat_map(|bundle| bundle.fragments.iter_mut())
        .find_map(|(_, fragment)| match fragment {
            BlockFragment::Existence(proof) if proof.transactions.len() > 1 => Some(proof),
            _ => None,
        })
        .expect("victim has a block with several transactions");
    let copy = existence.transactions[0].clone();
    let siblings = copy.branch.siblings().to_vec();
    let aliased = copy.branch.leaf_index() + (1 << siblings.len());
    existence.transactions[1] = TxWithBranch {
        transaction: copy.transaction,
        branch: MerkleBranch::from_parts(aliased, siblings),
    };
    let err = s.client.verify(&s.address, &s.response).unwrap_err();
    assert!(
        matches!(err, QueryError::InvalidMerkleBranch { .. }),
        "{err}"
    );
}

#[test]
fn duplicated_last_leaf_rejected() {
    // Bitcoin's odd-level duplication (CVE-2012-2459): in a block of
    // three transactions, the last one's branch also verifies at index
    // 3, inside the branch depth. Proving it there in place of the
    // victim's other transaction keeps the count and the slots apart.
    let config = SchemeConfig::new(Scheme::Lvq, BloomParams::new(640, 2).unwrap(), 4).unwrap();
    let victim = Address::new("1VictimAddress");
    let mut builder = ChainBuilder::new(config.chain_params()).unwrap();
    for h in 1..=4u32 {
        let mut txs = vec![Transaction::coinbase(Address::new("1Miner"), 50, h)];
        if h == 3 {
            txs.push(Transaction::coinbase(victim.clone(), 10, 300));
            txs.push(Transaction::coinbase(victim.clone(), 20, 301));
        }
        builder.push_block(txs).unwrap();
    }
    let chain = builder.finish();
    let (mut response, _) = Prover::from_chain(&chain)
        .unwrap()
        .respond(&victim)
        .unwrap();
    let client = LightClient::new(config, chain.headers());
    assert_eq!(
        client
            .verify(&victim, &response)
            .unwrap()
            .transactions
            .len(),
        2
    );

    let existence = first_existence(as_segmented(&mut response));
    let last = existence.transactions[1].clone();
    assert_eq!(last.branch.leaf_index(), 2);
    let alias = MerkleBranch::from_parts(3, last.branch.siblings().to_vec());
    assert!(alias.verify(
        &last.transaction.txid(),
        &chain.header(3).unwrap().merkle_root
    ));
    existence.transactions[0] = TxWithBranch {
        transaction: last.transaction,
        branch: alias,
    };
    let err = client.verify(&victim, &response).unwrap_err();
    assert!(
        matches!(err, QueryError::DuplicateTransaction { height: 3 }),
        "{err}"
    );
}

// --- (j) cross-address response replay ----------------------------------

#[test]
fn response_for_another_address_rejected() {
    let s = scenario(Scheme::Lvq);
    let prover = Prover::from_chain(&s.workload.chain).unwrap();
    let (other_response, _) = prover.respond(&Address::new("1SomebodyElse")).unwrap();
    // The victim address *is* on chain; a response proving the history
    // of an absent address cannot satisfy the victim's bit positions.
    let err = s.client.verify(&s.address, &other_response).unwrap_err();
    assert!(matches!(
        err,
        QueryError::Bmt { .. } | QueryError::FragmentSetMismatch | QueryError::Smt { .. }
    ));
}

// --- (k) batch forgeries ------------------------------------------------

struct BatchScenario {
    addresses: Vec<Address>,
    response: lvq::core::BatchQueryResponse,
    client: LightClient,
}

fn batch_scenario() -> BatchScenario {
    let workload = workload_for(Scheme::Lvq);
    let addresses = vec![
        workload.probes[0].address.clone(),
        Address::new("1SecondVictim"), // absent: empty sections
    ];
    let prover = Prover::from_chain(&workload.chain).unwrap();
    let (response, _) = prover.respond_batch(&addresses).unwrap();
    let client = LightClient::new(prover.config(), workload.chain.headers());
    // Sanity: the honest batch verifies.
    client.verify_batch(&addresses, &response).unwrap();
    BatchScenario {
        addresses,
        response,
        client,
    }
}

fn as_batch_segmented(
    response: &mut lvq::core::BatchQueryResponse,
) -> &mut lvq::core::BatchSegmentedResponse {
    match response {
        lvq::core::BatchQueryResponse::Segmented(s) => s,
        lvq::core::BatchQueryResponse::PerBlock(_) => panic!("expected a segmented batch"),
    }
}

#[test]
fn batch_dropped_address_section_rejected() {
    // Serving one fewer fragment section than there are addresses must
    // fail before any per-address interpretation happens.
    let mut s = batch_scenario();
    as_batch_segmented(&mut s.response).segments[0]
        .sections
        .pop();
    let err = s
        .client
        .verify_batch(&s.addresses, &s.response)
        .unwrap_err();
    assert!(
        matches!(err, QueryError::SectionCountMismatch { .. }),
        "{err}"
    );
}

#[test]
fn batch_emptied_address_section_rejected() {
    // Keeping the section count but censoring one address's fragments:
    // the shared proof's failed leaves for that address go unanswered.
    let mut s = batch_scenario();
    let segmented = as_batch_segmented(&mut s.response);
    let section = segmented
        .segments
        .iter_mut()
        .flat_map(|b| b.sections.iter_mut())
        .find(|section| !section.is_empty())
        .expect("victim appears somewhere");
    section.clear();
    let err = s
        .client
        .verify_batch(&s.addresses, &s.response)
        .unwrap_err();
    assert_eq!(err, QueryError::FragmentSetMismatch);
}

#[test]
fn batch_cross_address_splice_rejected() {
    // Swapping two addresses' sections inside a bundle: the absent
    // address suddenly "owns" fragments while the present one has none.
    // Both sides of the swap violate the proof's per-address coverage.
    let mut s = batch_scenario();
    let segmented = as_batch_segmented(&mut s.response);
    let bundle = segmented
        .segments
        .iter_mut()
        .find(|b| b.sections.iter().any(|section| !section.is_empty()))
        .expect("victim appears somewhere");
    bundle.sections.swap(0, 1);
    let err = s
        .client
        .verify_batch(&s.addresses, &s.response)
        .unwrap_err();
    assert_eq!(err, QueryError::FragmentSetMismatch);
}

#[test]
fn batch_single_response_splice_rejected() {
    // Splicing a *single-address* proof bundle for one address into the
    // batch (replacing the shared batch proof wholesale) cannot work:
    // the batch verifier re-derives every address's coverage from the
    // batch proof itself, and a single-address descent does not carry
    // the other addresses' evidence.
    let s = batch_scenario();
    let workload = workload_for(Scheme::Lvq);
    let prover = Prover::from_chain(&workload.chain).unwrap();
    // An honest batch for [absent, victim] — i.e. the right addresses in
    // the wrong order — must not verify for [victim, absent].
    let reversed: Vec<Address> = s.addresses.iter().rev().cloned().collect();
    let (reversed_response, _) = prover.respond_batch(&reversed).unwrap();
    let err = s
        .client
        .verify_batch(&s.addresses, &reversed_response)
        .unwrap_err();
    assert!(
        matches!(
            err,
            QueryError::FragmentSetMismatch | QueryError::Bmt { .. } | QueryError::Smt { .. }
        ),
        "{err}"
    );
}

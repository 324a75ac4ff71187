//! One module per regenerated table/figure, plus four invariant
//! experiments (`chaos`, `quorum`, `reorg`, `crashloop`) that
//! hard-assert what a serving node must never do under faults, forks
//! and crashes.

pub mod bf_sweep;
pub mod chaos;
pub mod crashloop;
pub mod fig12;
pub mod fig16;
pub mod k_sweep;
pub mod quorum;
pub mod reorg;
pub mod storage;
pub mod tables;

use lvq_chain::Address;
use lvq_core::{Completeness, LightClient, Prover, ProverStats, QueryResponse, Scheme};
use lvq_workload::Workload;

/// Runs one verified query: the prover answers, the light client checks
/// the answer against headers only, and the ground truth (the chain's
/// own index) must agree.
///
/// Every experiment routes its measurements through this function, so a
/// full experiment run doubles as a large end-to-end correctness check.
///
/// # Panics
///
/// Panics if verification fails or the verified history disagrees with
/// the chain — either would mean the reproduction is broken.
pub fn verified_query(workload: &Workload, address: &Address) -> (QueryResponse, ProverStats) {
    let prover = Prover::from_chain(&workload.chain).expect("chain built for a known scheme");
    let (response, stats) = prover.respond(address).expect("honest prover never fails");

    let client = LightClient::new(prover.config(), workload.chain.headers());
    let history = client
        .verify(address, &response)
        .expect("honest response must verify");

    let truth = workload.chain.history_of(address);
    assert_eq!(
        history.transactions.len(),
        truth.len(),
        "verified history must match ground truth"
    );
    if prover.config().scheme() != Scheme::Strawman {
        assert_eq!(history.completeness, Completeness::Complete);
    }
    (response, stats)
}

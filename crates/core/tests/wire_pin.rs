//! The exact wire bytes of query responses, pinned by digest.
//!
//! `golden_figures` pins response *sizes*, so a change that keeps every
//! size but moves bytes (two tags swapped in both the encoder and the
//! decoder, say) cannot show there. This test pins the bytes themselves:
//! for each of the four schemes it digests the encoded `respond` output
//! for a present probe, an absent address and a false-positive (FPM)
//! address, over the whole chain and over a range whose `lo` falls
//! inside a segment, plus one `respond_batch` of the three addresses.
//!
//! Recipe for `PINNED`: the digests are what this test computed on the
//! commit before the single-address response became a re-tagged batch
//! of one (run `cargo test -p lvq-core --test wire_pin`; on a mismatch
//! the failure message prints the computed table in `PINNED`'s form).
//! Regenerate them only with a deliberate wire-format revision, never to
//! make a refactor pass.

use lvq_bloom::{BloomFilter, BloomParams};
use lvq_chain::{Address, Chain};
use lvq_codec::Encodable;
use lvq_core::{Prover, Scheme, SchemeConfig};
use lvq_crypto::Hash256;
use lvq_workload::{TrafficModel, WorkloadBuilder};

const BLOCKS: u64 = 40;
const SEGMENT_LEN: u64 = 16;
/// `lo` inside the first segment, `hi` off the segment grid.
const RANGE: (u64, u64) = (5, 37);

/// One `scheme/address/span digest` line per response, in computed order.
const PINNED: &str = "\
Strawman/present/full bb62eae79093cc4471947243f8d3a187b407679bd6c9dea2b20919fab9b37b98
Strawman/present/range 8c43ff20eda407037af8ed9f99f29c5c3aec7658a69784124c9f3d784e365f54
Strawman/absent/full 1a48c1de7d57064039749bb167dbddd0c6536e07607178e37f93c1889997f5ae
Strawman/absent/range d1e31330f37c19af7cc05bf412ca40a371e37ca47173f8822fb32756030c5274
Strawman/fpm/full 69e3243b718c7f4b6e1168d0583d27ff9a9e89c39e6aa2a49560d9d06a548340
Strawman/fpm/range 5cc5c5c6ecfd22af13e5dea8dcc901a9f74ad7d66aeaaa7848907ec26927307e
Strawman/batch a5a4968897d9fc9abd226bd9d6d985e757cc8c93d4dbf1bf9d8ec1d0e39eb5eb
LvqWithoutBmt/present/full c1d66d4214addf340d75e080ec8b0cd2a3c98f88a3fa0a28094594ab57d5ddf4
LvqWithoutBmt/present/range 66f051509db60ad35b878829eb330c6bc37076c138165694b62b40e8d8aabdc1
LvqWithoutBmt/absent/full 1a48c1de7d57064039749bb167dbddd0c6536e07607178e37f93c1889997f5ae
LvqWithoutBmt/absent/range d1e31330f37c19af7cc05bf412ca40a371e37ca47173f8822fb32756030c5274
LvqWithoutBmt/fpm/full ab50f5df1efd5f1f0d743362beba427ada4aa3ca2b80e0541adef6e28dfce8a0
LvqWithoutBmt/fpm/range eebd02c478c5ec3bd32e1f19bac4b2fd0c33c937dba9d0ee5ceae09bf5486c97
LvqWithoutBmt/batch b4ed29dc8cbd4b78648a0bdd4040f3154f5bb93a4e3a99288df24597eba6bc28
LvqWithoutSmt/present/full e6400a889658828ea9cb9019fca60f6a5db4612d6ee85e5963716aa6c879789e
LvqWithoutSmt/present/range b7a1eca95390d539c12e916fe0d79f5e643c716d89e524253f3e5d7b47a20a21
LvqWithoutSmt/absent/full c1d82d47bf50ab606f4ef1ef39118cb81514b95709589d0521e14f54840ca368
LvqWithoutSmt/absent/range da682a8663e5aaa5526f43857cdf10bc317efb0087cb488d522e90817c5c5b8c
LvqWithoutSmt/fpm/full 6df8bc9e52f067afa55dcf8543fdec9ddab8b3b7a5cc89d80aa5d2823f97ab90
LvqWithoutSmt/fpm/range 0e4a17a829e92e60e7ddf8d791162c7fb22e5ecb75562c9c36cbe71f37ca7058
LvqWithoutSmt/batch 12a226a1c81d821266d1f485eea041a6e87d8b629823a4a7f33204dea7e20304
Lvq/present/full 4ae8819ffb2e2b6ee913b12f0b30108c0808b571ae3bf2341dc62aa5b918c32d
Lvq/present/range 8822e893eaed5f5f1c96dbf0170a68b7ec019a73d4348b153b482aa81026ebed
Lvq/absent/full c1d82d47bf50ab606f4ef1ef39118cb81514b95709589d0521e14f54840ca368
Lvq/absent/range da682a8663e5aaa5526f43857cdf10bc317efb0087cb488d522e90817c5c5b8c
Lvq/fpm/full dac33622a1d5dda58787314f5c674bcb6714dd5d5df1f874016939d5682563f6
Lvq/fpm/range 9aaaeefc935ce9490a2d2350e011fba6521a24431c9e962148d9743117f6a068
Lvq/batch 75d8b0690ccc8ab969f323877ba0edb30df14568adb365c7659bfa14f57a5798
";

fn workload_chain(scheme: Scheme) -> (SchemeConfig, Chain, Address) {
    let config = SchemeConfig::new(scheme, BloomParams::new(256, 2).unwrap(), SEGMENT_LEN).unwrap();
    let workload = WorkloadBuilder::new(config.chain_params())
        .blocks(BLOCKS)
        .traffic(TrafficModel::tiny())
        .seed(4711)
        .probe("1PinnedProbe", 6, 3)
        .build()
        .unwrap();
    let probe = workload.probes[0].address.clone();
    (config, workload.chain, probe)
}

/// The first candidate absent from the chain whose positions a leaf
/// filter inside `RANGE` matches: the prover must resolve a block for
/// it that holds none of its transactions.
fn fpm_address(config: SchemeConfig, chain: &Chain) -> Option<Address> {
    (0..20_000)
        .map(|i| Address::new(format!("1Fpm{i}")))
        .find(|a| {
            let positions = BloomFilter::bit_positions(config.bloom(), a.as_bytes());
            chain.history_of(a).is_empty()
                && (RANGE.0..=RANGE.1).any(|h| {
                    !chain
                        .leaf_filter(h)
                        .unwrap()
                        .check_positions(&positions)
                        .is_clean()
                })
        })
}

fn digest(bytes: &[u8]) -> String {
    Hash256::hash(bytes).to_string()
}

fn computed() -> String {
    let mut out = String::new();
    for scheme in Scheme::ALL {
        let (config, chain, probe) = workload_chain(scheme);
        let prover = Prover::new(&chain, config).unwrap();
        let fpm = fpm_address(config, &chain).expect("the workload has an FPM address");
        let addresses = [
            ("present", probe),
            ("absent", Address::new("1NeverOnChain")),
            ("fpm", fpm),
        ];
        for (kind, address) in &addresses {
            let (full, _) = prover.respond(address).unwrap();
            out += &format!("{scheme:?}/{kind}/full {}\n", digest(&full.encode()));
            let (range, _) = prover.respond_range(address, RANGE.0, RANGE.1).unwrap();
            out += &format!("{scheme:?}/{kind}/range {}\n", digest(&range.encode()));
        }
        let batch: Vec<Address> = addresses.into_iter().map(|(_, a)| a).collect();
        let (response, _) = prover.respond_batch(&batch).unwrap();
        out += &format!("{scheme:?}/batch {}\n", digest(&response.encode()));
    }
    out
}

#[test]
fn response_bytes_match_the_pinned_digests() {
    let computed = computed();
    assert!(
        computed == PINNED,
        "response bytes moved; computed table:\n{computed}"
    );
}

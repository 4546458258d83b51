//! Equivalence suite for the hop-major multi-tensor collectives.
//!
//! `Endpoint::ring_reduce_scatter_many` / `ring_all_reduce_many` post one
//! frame per tensor per ring hop before receiving any, with one RNG stream
//! per tensor. Each tensor's result must be bit-identical to the per-tensor
//! in-proc oracle (`ring_reduce_scatter_ranked` / `ring_all_reduce_ranked`)
//! run with that tensor's streams — values, chunk ownership and the next
//! draw of every stream — and the payload counters must equal the summed
//! analytic `comm::codec_wire_bytes`, with exactly one frame per tensor per
//! hop. Property-tested over every wire codec, worlds 1–4, 1–8 tensors of
//! ragged lengths (including 0 and lengths below the world size) and both
//! quantize policies; the socket fabric's buffered outbox runs the same
//! schedule in a fixed case.

use proptest::prelude::*;
use snip_pipeline::collective::{
    chunk_bounds, ring_all_reduce_ranked, ring_reduce_scatter_ranked, CollectiveResult,
    QuantizePolicy, Wire,
};
use snip_pipeline::comm::codec_wire_bytes;
use snip_pipeline::transport::proc::socket_pair_mesh;
use snip_pipeline::transport::{run_ranks, Endpoint, RankChunk, TransportStats};
use snip_tensor::rng::Rng;

/// Every wire codec; 16-wide scale groups leave ragged tails on most of
/// the generated chunk lengths.
fn all_wires() -> Vec<Wire> {
    vec![
        Wire::exact(),
        Wire::bf16(),
        Wire::fp8(16),
        Wire::int8(16),
        Wire::fp4(16),
        Wire::mxfp4(),
        Wire::rht_fp4(16, 9),
        Wire::outlier_fp4(16, 0.05),
    ]
}

const POLICIES: [QuantizePolicy; 2] = [QuantizePolicy::EveryHop, QuantizePolicy::FinalOnly];

/// One collective's inputs: `grads[t][r]` is rank `r`'s copy of tensor
/// `t`, `streams[t][r]` the RNG stream rank `r` uses for tensor `t`.
struct Case {
    world: usize,
    lens: Vec<usize>,
    grads: Vec<Vec<Vec<f32>>>,
    streams: Vec<Vec<Rng>>,
}

impl Case {
    fn new(world: usize, lens: Vec<usize>, seed: u64) -> Self {
        let mut g = Rng::seed_from(seed);
        let grads = lens
            .iter()
            .map(|&n| {
                (0..world)
                    .map(|_| (0..n).map(|_| g.next_f32() * 4.0 - 2.0).collect())
                    .collect()
            })
            .collect();
        let streams = (0..lens.len())
            .map(|t| {
                (0..world)
                    .map(|r| Rng::seed_from(seed ^ ((t * world + r) as u64 + 1) << 20))
                    .collect()
            })
            .collect();
        Case {
            world,
            lens,
            grads,
            streams,
        }
    }

    /// Rank `r`'s tensors laid end to end, and its per-tensor streams.
    fn rank_inputs(&self, r: usize) -> (Vec<f32>, Vec<Rng>) {
        let flat = self
            .grads
            .iter()
            .flat_map(|g| g[r].iter().copied())
            .collect();
        let rngs = self.streams.iter().map(|s| s[r].clone()).collect();
        (flat, rngs)
    }

    /// The per-tensor oracle runs, plus each stream's next draw afterwards
    /// (`draws[t][r]`).
    fn oracle(
        &self,
        wire: &Wire,
        policy: QuantizePolicy,
        all_reduce: bool,
    ) -> (Vec<CollectiveResult>, Vec<Vec<u64>>) {
        let mut results = Vec::new();
        let mut draws = Vec::new();
        for (grads, streams) in self.grads.iter().zip(&self.streams) {
            let mut rngs = streams.clone();
            results.push(if all_reduce {
                ring_all_reduce_ranked(grads, wire, policy, &mut rngs)
            } else {
                ring_reduce_scatter_ranked(grads, wire, policy, &mut rngs)
            });
            draws.push(rngs.iter_mut().map(Rng::next_u64).collect());
        }
        (results, draws)
    }

    /// Payload bytes a reduce-scatter moves, from the analytic accounting:
    /// every chunk of every tensor crosses `world − 1` links.
    fn analytic_rs_bytes(&self, wire: &Wire, policy: QuantizePolicy) -> u64 {
        let per_pass: u64 = self
            .lens
            .iter()
            .flat_map(|&n| chunk_bounds(n, self.world))
            .map(|(lo, hi)| match wire.codec() {
                Some(codec) if policy == QuantizePolicy::EveryHop => {
                    codec_wire_bytes(codec, 1, hi - lo, wire.bits())
                }
                _ => 4 * (hi - lo) as u64,
            })
            .sum();
        (self.world as u64 - 1) * per_pass
    }
}

fn assert_bits_equal(a: &[f32], b: &[f32], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: element {i}: {x} vs {y}");
    }
}

/// Every rank sent exactly `frames` frames, all to its ring successor, and
/// both ends of every link agree.
fn assert_ring_frames(stats: &TransportStats, frames: u64, ctx: &str) {
    let world = stats.world();
    for src in 0..world {
        let sent: u64 = (0..world).map(|dst| stats.link_frames(src, dst)).sum();
        assert_eq!(sent, frames, "{ctx}: rank {src} frames sent");
        if world > 1 {
            assert_eq!(
                stats.link_frames(src, (src + 1) % world),
                frames,
                "{ctx}: rank {src} sends only to its successor"
            );
        }
    }
    assert!(stats.two_sided(), "{ctx}: two-sided counters");
}

fn check_reduce_scatter(case: &Case, wire: &Wire, policy: QuantizePolicy) {
    let ctx = format!(
        "{} {policy:?} world {} lens {:?}",
        wire.label(),
        case.world,
        case.lens
    );
    let (oracle, draws) = case.oracle(wire, policy, false);
    let (outs, stats) = run_ranks(case.world, |ep| {
        let (mut flat, mut rngs) = case.rank_inputs(ep.rank());
        let chunks = ep
            .ring_reduce_scatter_many(&mut flat, &case.lens, wire, policy, &mut rngs)
            .expect("reduce-scatter");
        let next: Vec<u64> = rngs.iter_mut().map(Rng::next_u64).collect();
        (chunks, next)
    });
    for (r, (chunks, next)) in outs.iter().enumerate() {
        assert_eq!(chunks.len(), case.lens.len(), "{ctx}: one chunk per tensor");
        for (t, chunk) in chunks.iter().enumerate() {
            let at = format!("{ctx} rank {r} tensor {t}");
            assert_eq!((chunk.lo, chunk.hi), oracle[t].owned[r], "{at}: ownership");
            assert_bits_equal(&chunk.data, &oracle[t].per_rank[r], &at);
            assert_eq!(next[t], draws[t][r], "{at}: stream diverged");
        }
    }
    let oracle_bytes: u64 = oracle.iter().map(|o| o.bytes_on_wire).sum();
    assert_eq!(
        stats.total_payload_bytes(),
        oracle_bytes,
        "{ctx}: vs oracle"
    );
    assert_eq!(
        stats.total_payload_bytes(),
        case.analytic_rs_bytes(wire, policy),
        "{ctx}: vs codec_wire_bytes"
    );
    let hops = case.world as u64 - 1;
    assert_ring_frames(&stats, case.lens.len() as u64 * hops, &ctx);
}

fn check_all_reduce(case: &Case, wire: &Wire, policy: QuantizePolicy) {
    let ctx = format!(
        "{} {policy:?} world {} lens {:?}",
        wire.label(),
        case.world,
        case.lens
    );
    let (oracle, draws) = case.oracle(wire, policy, true);
    let (outs, stats) = run_ranks(case.world, |ep| {
        let (mut flat, mut rngs) = case.rank_inputs(ep.rank());
        ep.ring_all_reduce_many(&mut flat, &case.lens, wire, policy, &mut rngs)
            .expect("all-reduce");
        let next: Vec<u64> = rngs.iter_mut().map(Rng::next_u64).collect();
        (flat, next)
    });
    for (r, (flat, next)) in outs.iter().enumerate() {
        let mut off = 0;
        for (t, &n) in case.lens.iter().enumerate() {
            let at = format!("{ctx} rank {r} tensor {t}");
            assert_bits_equal(&flat[off..off + n], &oracle[t].per_rank[r], &at);
            assert_eq!(next[t], draws[t][r], "{at}: stream diverged");
            off += n;
        }
    }
    let oracle_bytes: u64 = oracle.iter().map(|o| o.bytes_on_wire).sum();
    assert_eq!(
        stats.total_payload_bytes(),
        oracle_bytes,
        "{ctx}: vs oracle"
    );
    assert_eq!(
        stats.total_payload_bytes(),
        2 * case.analytic_rs_bytes(wire, policy),
        "{ctx}: vs codec_wire_bytes"
    );
    let hops = 2 * (case.world as u64 - 1);
    assert_ring_frames(&stats, case.lens.len() as u64 * hops, &ctx);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn many_tensor_collectives_match_the_per_tensor_oracle(
        world in 1usize..5,
        lens in prop::collection::vec(0usize..40, 1..9),
        wire_idx in 0usize..8,
        policy_idx in 0usize..2,
        seed in 0u64..1_000_000,
    ) {
        let case = Case::new(world, lens, seed);
        let wire = all_wires()[wire_idx];
        check_reduce_scatter(&case, &wire, POLICIES[policy_idx]);
        check_all_reduce(&case, &wire, POLICIES[policy_idx]);
    }
}

/// The edge lengths explicitly, for every wire and policy: empty tensors,
/// tensors shorter than the world (empty chunks), a single element, and a
/// length with a ragged scale-group tail.
#[test]
fn edge_lengths_match_the_per_tensor_oracle() {
    for world in 1usize..=4 {
        let lens = vec![0, 1, world - 1, 0, 37, world + 1];
        let case = Case::new(world, lens, 0xED6E + world as u64);
        for wire in all_wires() {
            for policy in POLICIES {
                check_reduce_scatter(&case, &wire, policy);
                check_all_reduce(&case, &wire, policy);
            }
        }
    }
}

/// The single-tensor `ring_*` methods are the one-tensor case of the same
/// schedule: identical chunks, vectors and streams.
#[test]
fn single_tensor_methods_are_the_one_tensor_case() {
    let case = Case::new(3, vec![29], 0x5111);
    let wire = Wire::fp4(16);
    for policy in POLICIES {
        let (outs, _) = run_ranks(3, |ep| {
            let (grad, rngs) = case.rank_inputs(ep.rank());
            let mut single = rngs[0].clone();
            let chunk = ep
                .ring_reduce_scatter(&grad, &wire, policy, &mut single)
                .expect("reduce-scatter");
            let full = ep
                .ring_all_gather(&chunk, grad.len(), &wire, policy, &mut single)
                .expect("all-gather");
            let mut many = grad.clone();
            let mut streams = rngs;
            ep.ring_all_reduce_many(&mut many, &[grad.len()], &wire, policy, &mut streams)
                .expect("all-reduce");
            (chunk, full, single.next_u64(), many, streams[0].next_u64())
        });
        for (r, (chunk, full, single_draw, many, many_draw)) in outs.iter().enumerate() {
            let ctx = format!("{policy:?} rank {r}");
            let RankChunk { lo, hi, .. } = chunk;
            assert_bits_equal(&full[*lo..*hi], &chunk.data, &ctx);
            assert_bits_equal(full, many, &ctx);
            assert_eq!(single_draw, many_draw, "{ctx}: streams");
        }
    }
}

/// The socket fabric queues a hop's frames in per-link outboxes and writes
/// them before blocking on a receive: the same schedule over
/// `socket_pair_mesh` reproduces the threaded results, streams and
/// counters exactly.
#[test]
fn socket_outboxes_run_the_same_schedule() {
    let world = 3;
    let case = Case::new(world, vec![40, 0, 2, 17, 33, 5], 0x50C4);
    for wire in [Wire::exact(), Wire::fp8(16), Wire::fp4(16)] {
        let policy = QuantizePolicy::EveryHop;
        let (oracle, draws) = case.oracle(&wire, policy, true);
        let fabrics = socket_pair_mesh(world).expect("socket mesh");
        let outs: Vec<(Vec<f32>, Vec<u64>, TransportStats)> = std::thread::scope(|scope| {
            let handles: Vec<_> = fabrics
                .into_iter()
                .map(|fabric| {
                    let (case, wire) = (&case, &wire);
                    scope.spawn(move || {
                        let mut ep = Endpoint::new(fabric);
                        let (mut flat, mut rngs) = case.rank_inputs(ep.rank());
                        ep.ring_all_reduce_many(&mut flat, &case.lens, wire, policy, &mut rngs)
                            .expect("socket all-reduce");
                        let next = rngs.iter_mut().map(Rng::next_u64).collect();
                        (flat, next, ep.stats())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rank thread"))
                .collect()
        });
        let mut payload = 0;
        for (r, (flat, next, stats)) in outs.iter().enumerate() {
            let mut off = 0;
            for (t, &n) in case.lens.iter().enumerate() {
                let at = format!("{} rank {r} tensor {t}", wire.label());
                assert_bits_equal(&flat[off..off + n], &oracle[t].per_rank[r], &at);
                assert_eq!(next[t], draws[t][r], "{at}: stream diverged");
                off += n;
            }
            // Each endpoint counts its own side: its tx row and rx column.
            let succ = (r + 1) % world;
            let frames = case.lens.len() as u64 * 2 * (world as u64 - 1);
            assert_eq!(stats.link_frames(r, succ), frames, "{}", wire.label());
            payload += stats.link_payload_bytes(r, succ);
        }
        assert_eq!(
            payload,
            2 * case.analytic_rs_bytes(&wire, policy),
            "{}: socket payload vs codec_wire_bytes",
            wire.label()
        );
    }
}

//! The logarithmic collective algorithms must be *observationally
//! equivalent* to the retained linear/naive baselines: same bytes on every
//! rank, for every communicator size from 1 to 16 — in particular the
//! non-power-of-two sizes where recursive doubling hands over to Bruck and
//! binomial trees go ragged.
//!
//! The naive variants (`bcast_naive`, `reduce_naive`, `allgather_naive`,
//! `alltoall_linear`, `barrier_naive`) are always compiled, so both sides
//! run in the same process on the same data.

use kamping_mpi::Universe;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

const SIZES: [usize; 10] = [1, 2, 3, 4, 5, 7, 8, 13, 16, 64];

fn rank_bytes(seed: u64, rank: usize, len: usize) -> Vec<u8> {
    let mut rng = SmallRng::seed_from_u64(seed ^ (rank as u64) << 32);
    (0..len).map(|_| rng.next_u32() as u8).collect()
}

#[test]
fn bcast_tree_matches_naive() {
    for p in SIZES {
        for len in [0usize, 1, 31, 32, 33, 1000] {
            let data = rank_bytes(0xB0, 0, len);
            let outs = Universe::run(p, |comm| {
                let root = p / 2;
                let seed = if comm.rank() == root {
                    data.clone()
                } else {
                    Vec::new()
                };
                let mut tree = seed.clone();
                comm.bcast(&mut tree, root).unwrap();
                let mut naive = seed;
                comm.bcast_naive(&mut naive, root).unwrap();
                assert_eq!(tree, naive, "p={p} len={len} rank={}", comm.rank());
                tree
            });
            for o in outs {
                assert_eq!(o, data, "p={p} len={len}");
            }
        }
    }
}

#[test]
fn reduce_tree_matches_naive() {
    let sum: kamping_mpi::ByteOp<'_> = &|acc: &mut [u8], x: &[u8]| {
        for (a, b) in acc.chunks_exact_mut(8).zip(x.chunks_exact(8)) {
            let s = u64::from_le_bytes(a.try_into().unwrap())
                .wrapping_add(u64::from_le_bytes(b.try_into().unwrap()));
            a.copy_from_slice(&s.to_le_bytes());
        }
    };
    for p in SIZES {
        for elems in [1usize, 4, 17] {
            let outs = Universe::run(p, |comm| {
                let mine: Vec<u8> = (0..elems)
                    .flat_map(|e| ((comm.rank() * 1000 + e) as u64).to_le_bytes())
                    .collect();
                let mut tree = mine.clone();
                comm.reduce(&mut tree, sum, 8, 0).unwrap();
                let mut naive = mine;
                comm.reduce_naive(&mut naive, sum, 8, 0).unwrap();
                if comm.rank() == 0 {
                    assert_eq!(tree, naive, "p={p} elems={elems}");
                }
                tree
            });
            // Independent sequential reference at the root.
            let want: Vec<u8> = (0..elems)
                .flat_map(|e| {
                    (0..p)
                        .map(|r| (r * 1000 + e) as u64)
                        .fold(0u64, u64::wrapping_add)
                        .to_le_bytes()
                })
                .collect();
            assert_eq!(outs[0], want, "p={p} elems={elems}");
        }
    }
}

#[test]
fn allgather_log_matches_naive() {
    for p in SIZES {
        for len in [0usize, 1, 9, 257] {
            let outs = Universe::run(p, |comm| {
                let mine = rank_bytes(0xA6, comm.rank(), len);
                let log = comm.allgather(&mine).unwrap();
                let naive = comm.allgather_naive(&mine).unwrap();
                assert_eq!(log, naive, "p={p} len={len} rank={}", comm.rank());
                log
            });
            let want: Vec<u8> = (0..p).flat_map(|r| rank_bytes(0xA6, r, len)).collect();
            for o in outs {
                assert_eq!(o, want, "p={p} len={len}");
            }
        }
    }
}

#[test]
fn allgatherv_log_matches_naive_ragged_counts() {
    for p in SIZES {
        let counts: Vec<usize> = (0..p).map(|r| (r * 5 + 3) % 7).collect();
        let outs = Universe::run(p, |comm| {
            let mine = rank_bytes(0xA7, comm.rank(), counts[comm.rank()]);
            let log = comm.allgatherv(&mine, &counts).unwrap();
            let naive = comm.allgatherv_naive(&mine, &counts).unwrap();
            assert_eq!(log, naive, "p={p} rank={}", comm.rank());
            log
        });
        let want: Vec<u8> = (0..p)
            .flat_map(|r| rank_bytes(0xA7, r, counts[r]))
            .collect();
        for o in outs {
            assert_eq!(o, want, "p={p}");
        }
    }
}

#[test]
fn alltoall_bruck_matches_linear() {
    for p in SIZES {
        // Below and above the Bruck dispatch threshold, plus zero blocks.
        for block in [0usize, 1, 8, 300] {
            let outs = Universe::run(p, |comm| {
                let mut rng = SmallRng::seed_from_u64(0xA2A ^ comm.rank() as u64);
                let send: Vec<u8> = (0..p * block).map(|_| rng.next_u32() as u8).collect();
                let bruck = comm.alltoall_bruck(&send).unwrap();
                let linear = comm.alltoall_linear(&send).unwrap();
                assert_eq!(bruck, linear, "p={p} block={block} rank={}", comm.rank());
                let auto = comm.alltoall(&send).unwrap();
                assert_eq!(auto, linear, "p={p} block={block} rank={}", comm.rank());
                auto
            });
            // Cross-rank reference: rank d's slot s == rank s's slot d.
            for (d, out) in outs.iter().enumerate() {
                for s in 0..p {
                    let mut rng = SmallRng::seed_from_u64(0xA2A ^ s as u64);
                    let sent: Vec<u8> = (0..p * block).map(|_| rng.next_u32() as u8).collect();
                    assert_eq!(
                        &out[s * block..(s + 1) * block],
                        &sent[d * block..(d + 1) * block],
                        "p={p} block={block} {s}->{d}"
                    );
                }
            }
        }
    }
}

#[test]
fn barriers_synchronize_for_all_sizes() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    for p in SIZES {
        let before = AtomicUsize::new(0);
        Universe::run(p, |comm| {
            before.fetch_add(1, Ordering::SeqCst);
            comm.barrier().unwrap();
            assert_eq!(before.load(Ordering::SeqCst), p, "dissemination p={p}");
            comm.barrier_naive().unwrap();
            before.fetch_add(1, Ordering::SeqCst);
            comm.barrier().unwrap();
            assert_eq!(before.load(Ordering::SeqCst), 2 * p, "naive p={p}");
        });
    }
}

#[test]
fn hier_strategy_matches_naive_at_p64() {
    // Force the two-level (node-leader + intra-node) algorithms on a
    // synthetic 4-host topology and check them against the naive
    // baselines at a production-ish rank count.
    use kamping_mpi::CollStrategy;
    let sum: kamping_mpi::ByteOp<'_> = &|acc: &mut [u8], x: &[u8]| {
        for (a, b) in acc.chunks_exact_mut(8).zip(x.chunks_exact(8)) {
            let s = u64::from_le_bytes(a.try_into().unwrap())
                .wrapping_add(u64::from_le_bytes(b.try_into().unwrap()));
            a.copy_from_slice(&s.to_le_bytes());
        }
    };
    let p = 64;
    for root in [0usize, 17, 63] {
        let data = rank_bytes(0xB1 ^ root as u64, 0, 777);
        let outs = Universe::run(p, |comm| {
            comm.set_fake_hosts(4);
            comm.set_coll_strategy(CollStrategy::Hier);
            // bcast
            let mut tree = if comm.rank() == root {
                data.clone()
            } else {
                Vec::new()
            };
            comm.bcast(&mut tree, root).unwrap();
            let mut naive = if comm.rank() == root {
                data.clone()
            } else {
                Vec::new()
            };
            comm.bcast_naive(&mut naive, root).unwrap();
            assert_eq!(tree, naive, "bcast root={root} rank={}", comm.rank());
            // reduce + allreduce
            let mine: Vec<u8> = (0..9)
                .flat_map(|e| ((comm.rank() * 1000 + e) as u64).to_le_bytes())
                .collect();
            let mut red = mine.clone();
            comm.reduce(&mut red, sum, 8, root).unwrap();
            let mut red_naive = mine.clone();
            comm.reduce_naive(&mut red_naive, sum, 8, root).unwrap();
            if comm.rank() == root {
                assert_eq!(red, red_naive, "reduce root={root}");
            }
            let mut all = mine.clone();
            comm.allreduce(&mut all, sum, 8).unwrap();
            let mut all_naive = red_naive;
            comm.bcast_naive(&mut all_naive, root).unwrap();
            assert_eq!(all, all_naive, "allreduce root={root} rank={}", comm.rank());
            tree
        });
        for o in outs {
            assert_eq!(o, data, "root={root}");
        }
    }
}

#[test]
fn rabenseifner_auto_kicks_in_and_matches_at_p64() {
    // A >=32 KiB payload at p=64 on one host takes the Rabenseifner
    // reduce-scatter + allgather path under Auto; equivalence vs naive.
    let sum: kamping_mpi::ByteOp<'_> = &|acc: &mut [u8], x: &[u8]| {
        for (a, b) in acc.chunks_exact_mut(8).zip(x.chunks_exact(8)) {
            let s = u64::from_le_bytes(a.try_into().unwrap())
                .wrapping_add(u64::from_le_bytes(b.try_into().unwrap()));
            a.copy_from_slice(&s.to_le_bytes());
        }
    };
    let p = 64;
    let elems = 8 * 1024; // 64 KiB
    Universe::run(p, |comm| {
        let mine: Vec<u8> = (0..elems)
            .flat_map(|e| ((comm.rank() * 1_000_003 + e) as u64).to_le_bytes())
            .collect();
        let mut fast = mine.clone();
        comm.allreduce(&mut fast, sum, 8).unwrap();
        let mut naive = mine;
        comm.reduce_naive(&mut naive, sum, 8, 0).unwrap();
        comm.bcast_naive(&mut naive, 0).unwrap();
        assert_eq!(fast, naive, "rank={}", comm.rank());
    });
}

#[test]
fn mixed_sequence_stays_consistent_across_algorithms() {
    // Interleaving tree and naive collectives on one communicator must not
    // desynchronize the collective sequence numbers.
    for p in [3usize, 5, 8] {
        Universe::run(p, |comm| {
            let mut rng = SmallRng::seed_from_u64(99 + comm.rank() as u64);
            for round in 0..10 {
                let mine = vec![rng.gen_range(0u32..=255) as u8; round % 4 + 1];
                let a = comm.allgather(&mine).unwrap();
                let b = comm.allgather_naive(&mine).unwrap();
                assert_eq!(a, b, "p={p} round={round}");
                comm.barrier_naive().unwrap();
                let c = comm.allgather(&mine).unwrap();
                assert_eq!(a, c, "p={p} round={round}");
            }
        });
    }
}

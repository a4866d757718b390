//! Typed reductions against a sequential fold, across every collective
//! strategy.
//!
//! The matrix: `allreduce`, `reduce`, `scan`, `exscan`, `iallreduce_vec`
//! and `ireduce_vec`, × p ∈ {1, 2, 3, 5, 8}, × {Flat, Hier over two fake
//! hosts, Auto (Rabenseifner at p ≥ 4)}, × three element types: `u64`
//! sum, `f64` max, and a 12-byte struct. The struct's size is not a power
//! of two, so Rabenseifner's chunk offsets and the buffers' element
//! boundaries are not aligned for it. The second half checks, under the
//! same strategies, that a raw per-element closure is still called with
//! exactly `elem_size` bytes per call.

use std::fmt::Debug;
use std::ops::Range;
use std::sync::Arc;

use kamping::collectives::reduce::ops;
use kamping::impl_pod;
use kamping::prelude::*;
use kamping::types::{pod_as_bytes, pod_from_bytes, pod_value_as_bytes};
use kamping_mpi::hier::RABENSEIFNER_MIN_BYTES;
use kamping_mpi::{CollStrategy, RawComm};

const PS: [usize; 5] = [1, 2, 3, 5, 8];

/// Elements per rank: odd, so chunks split unevenly, and at least
/// `RABENSEIFNER_MIN_BYTES` for the 8-byte types, so `Auto` takes
/// Rabenseifner at p ≥ 4.
const N: usize = 4099;
const _: () = assert!(N * 8 >= RABENSEIFNER_MIN_BYTES);

#[derive(Clone, Copy, Debug, PartialEq)]
enum Strategy {
    Flat,
    Hier,
    Auto,
}

const STRATEGIES: [Strategy; 3] = [Strategy::Flat, Strategy::Hier, Strategy::Auto];

impl Strategy {
    fn apply(self, comm: &RawComm) {
        match self {
            Strategy::Flat => comm.set_coll_strategy(CollStrategy::Flat),
            Strategy::Hier => {
                comm.set_coll_strategy(CollStrategy::Hier);
                comm.set_fake_hosts(2);
            }
            Strategy::Auto => comm.set_coll_strategy(CollStrategy::Auto),
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
#[repr(C)]
struct Triple {
    a: u32,
    b: u32,
    c: u32,
}
impl_pod!(Triple: u32, u32, u32);

/// Componentwise wrapping sum, maximum and xor: associative and
/// commutative, so every tree shape folds to the same value.
fn triple_op(x: Triple, y: Triple) -> Triple {
    Triple {
        a: x.a.wrapping_add(y.a),
        b: x.b.max(y.b),
        c: x.c ^ y.c,
    }
}

fn mix(rank: usize, i: usize) -> u64 {
    ((rank * N + i) as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(17)
}

fn u64_input(rank: usize) -> Vec<u64> {
    (0..N).map(|i| mix(rank, i)).collect()
}

fn f64_input(rank: usize) -> Vec<f64> {
    (0..N)
        .map(|i| (mix(rank, i) % 2_000_003) as f64 / 7.0 - 100_000.0)
        .collect()
}

fn triple_input(rank: usize) -> Vec<Triple> {
    (0..N)
        .map(|i| {
            let m = mix(rank, i);
            Triple {
                a: m as u32,
                b: (m >> 32) as u32,
                c: (m >> 16) as u32,
            }
        })
        .collect()
}

/// The sequential oracle: `op` folded over the inputs of `ranks` in rank
/// order, `None` for no ranks.
fn fold<T: Copy>(
    ranks: Range<usize>,
    input: fn(usize) -> Vec<T>,
    op: impl Fn(T, T) -> T,
) -> Option<Vec<T>> {
    ranks
        .map(input)
        .reduce(|acc, v| acc.into_iter().zip(v).map(|(x, y)| op(x, y)).collect())
}

/// Runs the six typed reductions at `p` ranks under `strategy` and checks
/// each result against [`fold`].
fn check_typed<T, F>(name: &str, p: usize, strategy: Strategy, input: fn(usize) -> Vec<T>, op: F)
where
    T: PodType + PartialEq + Debug,
    F: Fn(T, T) -> T + Copy + Send + Sync + 'static,
{
    let root = p / 2;
    kamping::run(p, |comm| {
        strategy.apply(comm.raw());
        let r = comm.rank();
        let mine = input(r);
        let total = fold(0..p, input, op).unwrap();
        let at = |what: &str| format!("{what} {name} p={p} {strategy:?} rank {r}");

        let got = comm
            .allreduce(send_buf(&mine))
            .op(op)
            .call()
            .unwrap()
            .into_recv_buf();
        assert!(got == total, "{}", at("allreduce"));

        let got = comm
            .reduce(send_buf(&mine))
            .op(op)
            .root(root)
            .call()
            .unwrap()
            .into_recv_buf();
        if r == root {
            assert!(got == total, "{}", at("reduce"));
        } else {
            assert!(got.is_empty(), "{}", at("reduce"));
        }

        let got = comm
            .scan(send_buf(&mine))
            .op(op)
            .call()
            .unwrap()
            .into_recv_buf();
        assert!(got == fold(0..r + 1, input, op).unwrap(), "{}", at("scan"));

        let got = comm
            .exscan(send_buf(&mine))
            .op(op)
            .call()
            .unwrap()
            .into_recv_buf();
        assert!(
            got == fold(0..r, input, op).unwrap_or_default(),
            "{}",
            at("exscan")
        );

        let got = comm
            .iallreduce_vec(mine.clone(), op)
            .unwrap()
            .wait()
            .unwrap();
        assert!(got == total, "{}", at("iallreduce_vec"));

        let got = comm
            .ireduce_vec(mine.clone(), op, root)
            .unwrap()
            .wait()
            .unwrap();
        if r == root {
            assert!(got == total, "{}", at("ireduce_vec"));
        } else {
            assert!(got.is_empty(), "{}", at("ireduce_vec"));
        }
    });
}

#[test]
fn u64_sum_matches_sequential_fold() {
    for p in PS {
        for s in STRATEGIES {
            check_typed("u64 sum", p, s, u64_input, u64::wrapping_add);
        }
    }
}

#[test]
fn f64_max_matches_sequential_fold() {
    for p in PS {
        for s in STRATEGIES {
            check_typed("f64 max", p, s, f64_input, ops::max());
        }
    }
}

#[test]
fn twelve_byte_struct_matches_sequential_fold() {
    assert_eq!(Triple::SIZE, 12);
    for p in PS {
        for s in STRATEGIES {
            check_typed("Triple", p, s, triple_input, triple_op);
        }
    }
}

/// A raw per-element closure, like the benchmark's byte adder: decodes
/// exactly one 12-byte element from each side, or panics.
fn raw_triple(acc: &mut [u8], rhs: &[u8]) {
    let x: Triple = pod_from_bytes(acc).expect("12 bytes");
    let y: Triple = pod_from_bytes(rhs).expect("12 bytes");
    acc.copy_from_slice(pod_value_as_bytes(&triple_op(x, y)));
}

#[test]
fn raw_per_element_closures_see_one_element_per_call() {
    let bytes = |v: Option<Vec<Triple>>| v.map(|v| pod_as_bytes(&v).to_vec());
    for p in PS {
        for s in STRATEGIES {
            let root = p / 2;
            kamping_mpi::Universe::run(p, |comm: RawComm| {
                s.apply(&comm);
                let r = comm.rank();
                let mine = pod_as_bytes(&triple_input(r)).to_vec();
                let total = bytes(fold(0..p, triple_input, triple_op)).unwrap();
                let at = |what: &str| format!("raw {what} p={p} {s:?} rank {r}");

                let mut buf = mine.clone();
                comm.allreduce(&mut buf, &raw_triple, 12).unwrap();
                assert!(buf == total, "{}", at("allreduce"));

                let mut buf = mine.clone();
                comm.reduce(&mut buf, &raw_triple, 12, root).unwrap();
                if r == root {
                    assert!(buf == total, "{}", at("reduce"));
                }

                let mut buf = mine.clone();
                comm.scan(&mut buf, &raw_triple, 12).unwrap();
                let want = bytes(fold(0..r + 1, triple_input, triple_op));
                assert!(Some(buf) == want, "{}", at("scan"));

                let got = comm.exscan(&mine, &raw_triple, 12).unwrap();
                assert!(
                    got == bytes(fold(0..r, triple_input, triple_op)),
                    "{}",
                    at("exscan")
                );

                let mut buf = mine.clone();
                comm.allreduce_rabenseifner(&mut buf, &raw_triple, 12)
                    .unwrap();
                assert!(buf == total, "{}", at("allreduce_rabenseifner"));

                let got = comm
                    .iallreduce(mine.clone(), Arc::new(raw_triple), 12)
                    .unwrap()
                    .wait();
                assert!(got.unwrap() == total, "{}", at("iallreduce"));

                let got = comm
                    .ireduce(mine.clone(), Arc::new(raw_triple), 12, root)
                    .unwrap()
                    .wait();
                if r == root {
                    assert!(got.unwrap() == total, "{}", at("ireduce"));
                }
            });
        }
    }
}

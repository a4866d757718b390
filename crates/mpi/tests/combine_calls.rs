//! The reduction operator runs once per incoming buffer: every reduction
//! hands its [`Combine`] a whole received buffer (or, in Rabenseifner's
//! reduce-scatter, a whole received chunk) in one call — never one element
//! at a time. A counting operator records the byte length of every call on
//! every rank, and the results are checked against the sum.

use std::sync::{Arc, Mutex};

use kamping_mpi::hier::RABENSEIFNER_MIN_BYTES;
use kamping_mpi::{CollStrategy, Combine, OwnedByteOp, RawComm, Universe};

const P: usize = 8;
/// 64 KiB of `u64`s: large enough for `Auto` to pick Rabenseifner.
const N: usize = 8192;
const BYTES: usize = N * 8;
const _: () = assert!(BYTES >= RABENSEIFNER_MIN_BYTES);
/// The `naive` feature sends every allreduce through the flat binomial
/// reduce and every reduce through the linear one, whatever the strategy.
const NAIVE: bool = cfg!(feature = "naive");

/// Wrapping `u64` sum that logs the byte length of each call.
#[derive(Default)]
struct Counting {
    lens: Mutex<Vec<usize>>,
}

impl Combine for Counting {
    fn combine(&self, acc: &mut [u8], rhs: &[u8], elem_size: usize) {
        assert_eq!(elem_size, 8);
        assert_eq!(acc.len(), rhs.len());
        self.lens.lock().unwrap().push(acc.len());
        for (a, r) in acc.chunks_exact_mut(8).zip(rhs.chunks_exact(8)) {
            let x = u64::from_le_bytes((&*a).try_into().unwrap());
            let y = u64::from_le_bytes(r.try_into().unwrap());
            a.copy_from_slice(&x.wrapping_add(y).to_le_bytes());
        }
    }
}

impl Counting {
    fn lens(&self) -> Vec<usize> {
        self.lens.lock().unwrap().clone()
    }
}

fn input(rank: usize) -> Vec<u8> {
    (0..N)
        .flat_map(|i| ((rank * N + i) as u64).to_le_bytes())
        .collect()
}

/// Elementwise sum of the inputs of `ranks`.
fn sum_of(ranks: std::ops::Range<usize>) -> Vec<u8> {
    (0..N)
        .flat_map(|i| {
            ranks
                .clone()
                .map(|r| (r * N + i) as u64)
                .sum::<u64>()
                .to_le_bytes()
        })
        .collect()
}

/// Buffers rank `rel` (root-relative) folds in a binomial reduce over `p`
/// ranks: one per child `rel + 2^i` with `2^i` below `rel`'s lowest set bit.
fn binomial_children(rel: usize, p: usize) -> usize {
    let mut n = 0;
    let mut mask = 1;
    while mask < p && rel & mask == 0 {
        if rel + mask < p {
            n += 1;
        }
        mask <<= 1;
    }
    n
}

fn allreduce_call_lens(strategy: CollStrategy, fake_hosts: Option<usize>) -> Vec<Vec<usize>> {
    Universe::run(P, |comm: RawComm| {
        comm.set_coll_strategy(strategy);
        if let Some(k) = fake_hosts {
            comm.set_fake_hosts(k);
        }
        let op = Counting::default();
        let mut buf = input(comm.rank());
        comm.allreduce(&mut buf, &op, 8).unwrap();
        assert!(buf == sum_of(0..P), "rank {}: wrong sum", comm.rank());
        op.lens()
    })
}

#[test]
fn flat_allreduce_calls_the_operator_once_per_child_buffer() {
    let lens = allreduce_call_lens(CollStrategy::Flat, None);
    assert_eq!(lens[0], vec![BYTES; 3]);
    for (r, l) in lens.iter().enumerate() {
        assert_eq!(*l, vec![BYTES; binomial_children(r, P)], "rank {r}");
    }
}

#[test]
fn hier_allreduce_calls_the_operator_once_per_received_buffer() {
    // Two fake hosts of four ranks: each leader folds its two intra-host
    // children, then its one exchange with the other leader; rank 2 of
    // each host folds rank 3.
    let lens = allreduce_call_lens(CollStrategy::Hier, Some(2));
    let calls: Vec<usize> = lens.iter().map(Vec::len).collect();
    let want = if NAIVE {
        (0..P).map(|r| binomial_children(r, P)).collect()
    } else {
        vec![3, 0, 1, 0, 3, 0, 1, 0]
    };
    assert_eq!(calls, want);
    assert!(lens.iter().flatten().all(|&l| l == BYTES));
}

#[test]
fn rabenseifner_allreduce_calls_the_operator_once_per_received_chunk() {
    // Recursive halving at p = 8: three exchanges of a half, a quarter
    // and an eighth of the buffer.
    let lens = allreduce_call_lens(CollStrategy::Auto, None);
    for (r, l) in lens.iter().enumerate() {
        let want = if NAIVE {
            vec![BYTES; binomial_children(r, P)]
        } else {
            vec![BYTES / 2, BYTES / 4, BYTES / 8]
        };
        assert_eq!(*l, want, "rank {r}");
    }
}

#[test]
fn nonblocking_reductions_call_the_operator_once_per_child_buffer() {
    let root = 3;
    let lens = Universe::run(P, |comm: RawComm| {
        let r = comm.rank();
        let all = Arc::new(Counting::default());
        let op: OwnedByteOp = all.clone();
        let got = comm.iallreduce(input(r), op, 8).unwrap().wait().unwrap();
        assert!(got == sum_of(0..P), "iallreduce rank {r}: wrong sum");

        let rooted = Arc::new(Counting::default());
        let op: OwnedByteOp = rooted.clone();
        let got = comm.ireduce(input(r), op, 8, root).unwrap().wait().unwrap();
        if r == root {
            assert!(got == sum_of(0..P), "ireduce: wrong sum");
        }
        (all.lens(), rooted.lens())
    });
    assert_eq!(lens[0].0, vec![BYTES; 3]);
    for (r, (all, rooted)) in lens.iter().enumerate() {
        assert_eq!(
            *all,
            vec![BYTES; binomial_children(r, P)],
            "iallreduce rank {r}"
        );
        let rel = (r + P - root) % P;
        assert_eq!(
            *rooted,
            vec![BYTES; binomial_children(rel, P)],
            "ireduce rank {r}"
        );
    }
}

#[test]
fn reduce_and_prefix_reductions_call_the_operator_once_per_received_buffer() {
    let root = 5;
    let lens = Universe::run(P, |comm: RawComm| {
        comm.set_coll_strategy(CollStrategy::Flat);
        let r = comm.rank();
        let reduce = Counting::default();
        let mut buf = input(r);
        comm.reduce(&mut buf, &reduce, 8, root).unwrap();
        if r == root {
            assert!(buf == sum_of(0..P), "reduce: wrong sum");
        }

        let scan = Counting::default();
        let mut buf = input(r);
        comm.scan(&mut buf, &scan, 8).unwrap();
        assert!(buf == sum_of(0..r + 1), "scan rank {r}: wrong prefix");

        let exscan = Counting::default();
        let got = comm.exscan(&input(r), &exscan, 8).unwrap();
        assert!(
            got == (r > 0).then(|| sum_of(0..r)),
            "exscan rank {r}: wrong prefix"
        );
        (reduce.lens(), scan.lens(), exscan.lens())
    });
    for (r, (reduce, scan, exscan)) in lens.iter().enumerate() {
        let folds = match (NAIVE, r == root) {
            (true, true) => P - 1,
            (true, false) => 0,
            (false, _) => binomial_children((r + P - root) % P, P),
        };
        assert_eq!(*reduce, vec![BYTES; folds], "reduce rank {r}");
        // The chain: each rank after 0 folds its predecessor's prefix once;
        // exscan's inclusive prefix is only built by ranks that forward it.
        assert_eq!(*scan, vec![BYTES; usize::from(r > 0)], "scan rank {r}");
        assert_eq!(
            *exscan,
            vec![BYTES; usize::from(r > 0 && r + 1 < P)],
            "exscan rank {r}"
        );
    }
}

//! `samplesort`: the paper's Fig. 8 kernel. N seeded random `u64` per
//! rank, sorted by `sample_sort_kamping` and `sample_sort_plain` in
//! alternating order. A sort's time is the slower rank's. After the clock
//! has stopped, each output is checked to be globally sorted with the key
//! multiset preserved (allreduced count and checksum).

use std::time::{Duration, Instant};

use kamping::prelude::*;
use kamping_sort::sample_sort::{sample_sort_kamping, sample_sort_plain};

use crate::rec::Rec;
use crate::reference::{self, Link};
use crate::stats::{mix, spin, Report, Samples, SplitMix, Tally};
use crate::{Cfg, Spin};

const P: usize = 2;
const N: usize = 1_000_000;
const WARMUP_PAIRS: usize = 1;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Variant {
    Kamping,
    Plain,
    /// A kamping sort followed by the per-layer probes (the traced path).
    Traced,
    /// The std reference: the same sample sort with `std` only, keys
    /// swapped through a `reference::Link`.
    Std,
}

impl Variant {
    fn name(self) -> &'static str {
        match self {
            Variant::Kamping => "kamping",
            Variant::Plain => "plain",
            Variant::Traced => "traced",
            Variant::Std => "std",
        }
    }
}

fn input(seed: u64, rank: usize) -> Vec<u64> {
    SplitMix::new(seed, 1000 + rank as u64).vec(N)
}

/// Order-independent fingerprint of a key multiset: (count, sum of
/// hashes, xor of hashes).
fn fingerprint(keys: &[u64]) -> [u64; 3] {
    keys.iter().fold([keys.len() as u64, 0, 0], |[n, s, x], &k| {
        let h = mix(k);
        [n, s.wrapping_add(h), x ^ h]
    })
}

struct Rank<'a> {
    comm: &'a Communicator,
    link: &'a Link,
    seed: u64,
    /// The round the sorts belong to: the sampling seed of the sample
    /// sorts, so that each round draws other splitters and the medians
    /// average over the splitters' imbalance instead of fixing one per run.
    round: u64,
    input: Vec<u64>,
    /// Both ranks' keys, for the single-threaded baseline (rank 0, traced).
    all: Vec<u64>,
    want: [u64; 3],
    data: Vec<u64>,
    rec: Rec,
    tally: Tally,
    /// Injected spin per kamping and per plain sort (sensitivity check).
    spin_ns: f64,
    plain_spin_ns: f64,
}

impl Rank<'_> {
    /// Global fingerprint of everyone's `keys`.
    fn global_fingerprint(&self, keys: &[u64]) -> KResult<[u64; 3]> {
        let [n, s, x] = fingerprint(keys);
        Ok([
            self.comm.allreduce_single(n, |a, b| a + b)?,
            self.comm.allreduce_single(s, u64::wrapping_add)?,
            self.comm.allreduce_single(x, |a, b| a ^ b)?,
        ])
    }

    /// Sorted locally and across the rank boundary, multiset preserved.
    fn verify(&self) -> KResult<bool> {
        let local = self.data.windows(2).all(|w| w[0] <= w[1]);
        let ends = [
            self.data.first().copied().unwrap_or(u64::MAX),
            self.data.last().copied().unwrap_or(0),
            self.data.is_empty() as u64,
        ];
        let all = self.comm.allgather_vec(&ends)?;
        // Non-empty ranks in order: each one's last key is at most the
        // next one's first.
        let bounds: Vec<(u64, u64)> =
            all.chunks_exact(3).filter(|c| c[2] == 0).map(|c| (c[0], c[1])).collect();
        let across = bounds.windows(2).all(|w| w[0].1 <= w[1].0);
        let local_all = self.comm.allreduce_single(local as u64, |a, b| a & b)? == 1;
        Ok(local_all && across && self.global_fingerprint(&self.data)? == self.want)
    }

    /// One sort of `v`; the slower rank's time is recorded on rank 0.
    fn sort(&mut self, v: Variant, record: bool) {
        self.data.clear();
        self.data.extend_from_slice(&self.input);
        let _ = self.comm.barrier();
        let t0 = Instant::now();
        let r: KResult<()> = match v {
            Variant::Kamping | Variant::Traced => {
                spin(self.spin_ns);
                sample_sort_kamping(self.comm, &mut self.data, self.seed ^ mix(self.round))
            }
            Variant::Plain => {
                spin(self.plain_spin_ns);
                sample_sort_plain(self.comm.raw(), &mut self.data, self.seed ^ mix(self.round));
                Ok(())
            }
            Variant::Std => {
                let me = self.comm.rank();
                reference::sample_sort(self.link, me, &mut self.data, self.round as usize);
                Ok(())
            }
        };
        let dt = t0.elapsed().as_secs_f64() * 1e6;
        let slowest = self.comm.allreduce_single(dt, f64::max);
        let ok = r.and_then(|_| self.verify());
        self.tally.check(v.name(), ok);
        if record && self.comm.rank() == 0 {
            if let Ok(us) = slowest {
                self.rec.add(v.name(), us);
            }
        }
        if v == Variant::Traced {
            self.probes(record);
        }
    }

    /// Every variant in rotated order, until rank 0 has seen `budget` pass.
    fn rounds(&mut self, order: &[Variant], budget: Duration) {
        let t0 = Instant::now();
        let mut n = 0;
        while crate::go_on(self.comm, t0.elapsed() < budget, &mut self.tally) {
            self.round += 1;
            for k in 0..order.len() {
                self.sort(order[(k + n) % order.len()], true);
            }
            n += 1;
        }
    }

    /// `sort_unstable` of one rank's input, and of all 2·N keys, on rank 0
    /// alone while rank 1 waits at the barrier.
    fn probes(&mut self, record: bool) {
        if self.comm.rank() == 0 {
            self.data.clear();
            self.data.extend_from_slice(&self.input);
            let t0 = Instant::now();
            self.data.sort_unstable();
            let t1 = t0.elapsed();
            let mut all = self.all.clone();
            let t2 = Instant::now();
            all.sort_unstable();
            let t3 = t2.elapsed();
            let ok = all.windows(2).all(|w| w[0] <= w[1]) && fingerprint(&all) == self.want;
            self.tally.check("single-thread sort", Ok::<bool, ()>(ok));
            if record {
                self.rec.us("local_sort", t1);
                self.rec.us("single_thread", t3);
            }
        }
        let _ = self.comm.barrier();
    }
}

fn rank<'a>(comm: &'a Communicator, link: &'a Link, cfg: &Cfg, traced: bool) -> Rank<'a> {
    let me = comm.rank();
    let keys = input(cfg.seed, me);
    let mut r = Rank {
        comm,
        link,
        seed: cfg.seed,
        round: 0,
        all: if traced && me == 0 {
            (0..P).flat_map(|q| input(cfg.seed, q)).collect()
        } else {
            Vec::new()
        },
        want: [0; 3],
        data: Vec::with_capacity(2 * N),
        input: keys,
        rec: Rec::default(),
        tally: Tally::default(),
        spin_ns: 0.0,
        plain_spin_ns: 0.0,
    };
    match r.global_fingerprint(&r.input) {
        Ok(w) => r.want = w,
        Err(e) => r.tally.check::<KampingError>("fingerprint", Err(e)),
    }
    r
}

struct RankOut {
    rec: Rec,
    tally: Tally,
    setup_s: f64,
}

fn universe(cfg: &Cfg, t_start: Instant, budget: Option<Duration>, traced: bool) -> Vec<RankOut> {
    let link = Link::default();
    kamping::run(P, |comm| {
        let mut r = rank(&comm, &link, cfg, traced);
        let order: &[Variant] = if traced {
            &[Variant::Kamping, Variant::Plain, Variant::Traced]
        } else {
            &[Variant::Kamping, Variant::Plain, Variant::Std]
        };
        for _ in 0..WARMUP_PAIRS {
            for &v in order {
                r.sort(v, true);
            }
        }
        r.rec = Rec::default();
        let _ = comm.barrier();
        let setup_s = t_start.elapsed().as_secs_f64();
        if let Some(budget) = budget {
            if cfg.spin != Spin::None {
                // The spin is a share of the op's steady median, taken from
                // a tenth of the run ahead of the measured part.
                r.rounds(order, budget / 10);
                let (kamping, plain) = (r.rec.median("kamping"), r.rec.median("plain"));
                r.spin_ns = crate::shared_spin_ns(&comm, cfg, kamping, false);
                r.plain_spin_ns = crate::shared_spin_ns(&comm, cfg, plain, true);
                r.rec = Rec::default();
            }
            r.rounds(order, budget);
        }
        RankOut { rec: r.rec, tally: r.tally, setup_s }
    })
}

/// `f` of two variants' sorts of each round, which share their splitters,
/// and the median over the rounds.
fn paired(a: &Samples, b: &Samples, f: impl Fn(f64, f64) -> f64) -> f64 {
    Samples(a.0.iter().zip(&b.0).map(|(&x, &y)| f(x, y)).collect()).median()
}

/// The untraced run: the end-to-end metrics.
pub fn run(cfg: &Cfg) -> Report {
    let mut setups = crate::setups(cfg, |t| universe(cfg, t, None, false)[0].setup_s);
    let outs = universe(cfg, Instant::now(), Some(cfg.budget), false);
    setups.push(outs[0].setup_s);
    let mut rep = Report::default();
    for o in &outs {
        rep.count(o.tally);
    }
    let rec = &outs[0].rec;
    let (kamping, plain) = (rec.get("kamping"), rec.get("plain"));
    let n = kamping.len();
    let scale = reference::SORT_US / rec.median("std");
    let mkeys = (P * N) as f64 / kamping.median();
    let ratio = paired(&kamping, &plain, |k, p| k / p);
    crate::put_e2e(
        &mut rep,
        crate::E2e {
            setups: &setups,
            op: &kamping,
            op_what: "sample_sort_kamping, slower rank",
            scale,
            scale_what: "std sample sort",
            bulk_mib_s: mkeys * 8e6 / (1 << 20) as f64 / scale,
            bulk_n: n,
            bulk_what: "key bytes sorted per second, median sort, scaled",
            typed_over_plain: ratio,
            ratio_n: n,
            ratio_what: "sample_sort_kamping / sample_sort_plain, median over rounds",
        },
    );
    rep.note("sort_mkeys_s", mkeys, "Mkeys/s", n, "2N keys / median sample_sort_kamping");
    rep.note("sort_kamping_over_plain", ratio, "ratio", n, "median over rounds, same run");
    rep.note("sort_plain_us", plain.median(), "us", plain.len(), "sample_sort_plain, median");
    let what = "std sample sort, slower rank, median";
    rep.note("std_sort_us", rec.median("std"), "us", rec.get("std").len(), what);
    rep
}

/// The traced run: the sort part of the layer ledger.
pub fn ledger(cfg: &Cfg, budget: Duration) -> Report {
    let outs = universe(cfg, Instant::now(), Some(budget), true);
    let mut rep = Report::default();
    for o in &outs {
        rep.count(o.tally);
    }
    let rec = &outs[0].rec;
    let (kamping, plain, traced) = (rec.get("kamping"), rec.get("plain"), rec.get("traced"));
    rep.put(
        "binding.sort_added_ms",
        paired(&kamping, &plain, |k, p| k - p) / 1e3,
        "ms",
        kamping.len(),
        "kamping - plain sort, median over rounds",
    );
    let local = rec.get("local_sort");
    rep.put(
        "sort.local_sort_ms",
        local.median() / 1e3,
        "ms",
        local.len(),
        "sort_unstable of one rank's N keys",
    );
    let single = rec.get("single_thread");
    rep.put(
        "sort.single_thread_ms",
        single.median() / 1e3,
        "ms",
        single.len(),
        "sort_unstable of all 2N keys",
    );
    rep.put(
        "trace.overhead_pct",
        (paired(&traced, &kamping, |t, k| t / k) - 1.0) * 100.0,
        "%",
        traced.len(),
        "kamping sort followed by probes vs plain kamping sort",
    );
    rep
}

/// One op for the profile counts: a kamping sort.
pub fn profiled(cfg: &Cfg, ops: usize) -> (kamping_mpi::ProfileSnapshot, Tally) {
    let link = Link::default();
    let (outs, snap) = kamping::run_profiled(P, |comm| {
        let mut r = rank(&comm, &link, cfg, false);
        // The fingerprint exchange of set-up is part of every run, so the
        // zero-op baseline subtracts it.
        for _ in 0..ops {
            r.data.clear();
            r.data.extend_from_slice(&r.input);
            let res = sample_sort_kamping(r.comm, &mut r.data, r.seed).map(|_| true);
            r.tally.check("sort", res);
        }
        r.tally
    });
    (snap, crate::sum_tallies(&outs))
}

//! `coll`: rounds of the collective mix at p = 2.
//!
//! One round is `allgatherv` with inferred counts next to its known-counts
//! twin, `alltoallv` with counts given, a 64 KiB `u64` `allreduce`, a
//! 1 KiB `bcast`, and a 64 KiB `iallreduce` overlapped with a fixed
//! compute phase. Typed rounds alternate with a plain twin that issues the
//! same operations through `RawComm`. Every result is compared with a
//! sequential oracle computed from the seed, after the clock has stopped.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use kamping::prelude::*;
use kamping::types::pod_as_bytes;
use kamping_mpi::coll::excl_prefix_sum;

use crate::rec::Rec;
use crate::reference::{self, Link};
use crate::stats::{compute, spin, Report, Samples, SplitMix, Tally};
use crate::{Cfg, Spin};

const P: usize = 2;
/// Distinct seeded input sets; rounds cycle through them.
const VARIANTS: usize = 8;
const REDUCE_ELEMS: usize = 8192;
const BCAST_ELEMS: usize = 128;
/// The compute phase an `iallreduce` overlaps (xorshift steps).
const COMPUTE_STEPS: u64 = 40_000;
const WARMUP_ROUNDS: usize = 16;
/// Rounds per twin in one block.
const BLOCK: usize = 4;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Twin {
    /// Typed kamping calls, timed as a whole round.
    Typed,
    /// Typed, with a span around each call (the traced path).
    Spanned,
    /// The same operations through `RawComm`, timed as a whole round.
    Raw,
    /// `RawComm`, with a span around each call.
    RawSpanned,
    /// The std reference.
    Std,
}

impl Twin {
    fn name(self) -> &'static str {
        match self {
            Twin::Typed => "typed",
            Twin::Spanned => "spanned",
            Twin::Raw | Twin::RawSpanned => "raw",
            Twin::Std => "std",
        }
    }
}

/// One rank's inputs for one variant, with the oracle's answers.
struct Inputs {
    agv: Vec<u64>,
    agv_counts: Vec<usize>,
    agv_want: Vec<u64>,
    a2a: Vec<u64>,
    a2a_send: Vec<usize>,
    a2a_recv: Vec<usize>,
    a2a_want: Vec<u64>,
    red: Vec<u64>,
    red_want: Vec<u64>,
    root: usize,
    bc_want: Vec<u64>,
    ired: Vec<u64>,
    ired_want: Vec<u64>,
}

fn stream(v: usize, r: usize, what: u64) -> u64 {
    ((v * P + r) as u64) << 8 | what
}

impl Inputs {
    /// Generates every rank's inputs of variant `v` and keeps `me`'s, with
    /// the expected results computed sequentially.
    fn new(seed: u64, v: usize, me: usize) -> Self {
        let agv_all: Vec<Vec<u64>> = (0..P)
            .map(|r| {
                let mut g = SplitMix::new(seed, stream(v, r, 1));
                let n = 16 + g.below(497) as usize;
                g.vec(n)
            })
            .collect();
        // blocks[s][d]: what rank s sends to rank d.
        let blocks: Vec<Vec<Vec<u64>>> = (0..P)
            .map(|s| {
                (0..P)
                    .map(|d| {
                        let mut g = SplitMix::new(seed, stream(v, s, 2 + d as u64 * 16));
                        let n = g.below(257) as usize;
                        g.vec(n)
                    })
                    .collect()
            })
            .collect();
        let red_all: Vec<Vec<u64>> =
            (0..P).map(|r| SplitMix::new(seed, stream(v, r, 3)).vec(REDUCE_ELEMS)).collect();
        let ired_all: Vec<Vec<u64>> =
            (0..P).map(|r| SplitMix::new(seed, stream(v, r, 4)).vec(REDUCE_ELEMS)).collect();
        let sum = |all: &[Vec<u64>]| -> Vec<u64> {
            (0..REDUCE_ELEMS).map(|i| all.iter().fold(0u64, |a, x| a.wrapping_add(x[i]))).collect()
        };
        let root = v % P;
        Self {
            agv: agv_all[me].clone(),
            agv_counts: agv_all.iter().map(Vec::len).collect(),
            agv_want: agv_all.concat(),
            a2a: blocks[me].concat(),
            a2a_send: blocks[me].iter().map(Vec::len).collect(),
            a2a_recv: (0..P).map(|s| blocks[s][me].len()).collect(),
            a2a_want: (0..P).flat_map(|s| blocks[s][me].clone()).collect(),
            red: red_all[me].clone(),
            red_want: sum(&red_all),
            root,
            bc_want: SplitMix::new(seed, stream(v, root, 5)).vec(BCAST_ELEMS),
            ired: ired_all[me].clone(),
            ired_want: sum(&ired_all),
        }
    }
}

fn add(a: u64, b: u64) -> u64 {
    a.wrapping_add(b)
}

fn add_bytes(acc: &mut [u8], x: &[u8]) {
    let a = u64::from_le_bytes(acc.try_into().expect("8 bytes"));
    let b = u64::from_le_bytes(x.try_into().expect("8 bytes"));
    acc.copy_from_slice(&a.wrapping_add(b).to_le_bytes());
}

fn bytes(counts: &[usize]) -> Vec<usize> {
    counts.iter().map(|c| c * 8).collect()
}

/// Per-call clock for one round; inert unless the round is spanned.
struct Clock {
    on: bool,
    last: Instant,
    spans: Vec<(&'static str, Duration)>,
}

impl Clock {
    fn new(on: bool) -> Self {
        Self { on, last: Instant::now(), spans: Vec::new() }
    }

    fn lap(&mut self, name: &'static str) {
        if self.on {
            let now = Instant::now();
            self.spans.push((name, now - self.last));
            self.last = now;
        }
    }
}

struct Rank<'a> {
    comm: &'a Communicator,
    link: &'a Link,
    inputs: Vec<Inputs>,
    rounds: usize,
    rec: Rec,
    tally: Tally,
    /// Injected spin per typed and per `RawComm` round (sensitivity check).
    spin_ns: f64,
    raw_spin_ns: f64,
}

impl Rank<'_> {
    /// One round of `twin`, timed on rank 0.
    fn round(&mut self, twin: Twin, record: bool) {
        let inp = &self.inputs[self.rounds % VARIANTS];
        self.rounds += 1;
        let me = self.comm.rank();
        let mut bc: Vec<u64> = if me == inp.root { inp.bc_want.clone() } else { Vec::new() };
        let mut clock = Clock::new(matches!(twin, Twin::Spanned | Twin::RawSpanned));
        let t0 = Instant::now();
        clock.last = t0;
        let checks = match twin {
            Twin::Typed | Twin::Spanned => {
                spin(self.spin_ns);
                typed_round(self.comm, inp, &mut bc, &mut clock)
            }
            Twin::Raw | Twin::RawSpanned => {
                spin(self.raw_spin_ns);
                raw_round(self.comm, inp, &mut clock)
            }
            Twin::Std => {
                std_round(self.link, me, inp);
                Vec::new()
            }
        };
        let dt = t0.elapsed();
        for (what, ok) in checks {
            self.tally.check(what, ok);
        }
        if record && me == 0 {
            let name = twin.name();
            self.rec.us(&format!("{name}.round"), dt);
            for (op, d) in clock.spans {
                self.rec.us(&format!("{name}.{op}"), d);
            }
        }
    }

    /// Blocks of `BLOCK` rounds of each twin in rotated order, until rank 0
    /// has seen `budget` pass.
    fn rounds(&mut self, twins: &[Twin], budget: Duration) {
        let t0 = Instant::now();
        let mut n = 0;
        while crate::go_on(self.comm, t0.elapsed() < budget, &mut self.tally) {
            for k in 0..twins.len() {
                let twin = twins[(k + n) % twins.len()];
                for _ in 0..BLOCK {
                    self.round(twin, true);
                }
            }
            n += 1;
        }
    }
}

type Checks = Vec<(&'static str, KResult<bool>)>;

/// The typed round. Results are compared after the last call returns.
fn typed_round(comm: &Communicator, inp: &Inputs, bc: &mut Vec<u64>, clock: &mut Clock) -> Checks {
    let inferred = comm.allgatherv_vec(&inp.agv);
    clock.lap("allgatherv_inferred");
    let known = comm
        .allgatherv(send_buf(&inp.agv))
        .recv_counts(&inp.agv_counts)
        .call()
        .map(|r| r.into_recv_buf());
    clock.lap("allgatherv");
    let a2a = comm
        .alltoallv(send_buf(&inp.a2a), send_counts(&inp.a2a_send))
        .recv_counts(&inp.a2a_recv)
        .call()
        .map(|r| r.into_recv_buf());
    clock.lap("alltoallv");
    let red = comm.allreduce(send_buf(&inp.red)).op(add).call().map(|r| r.into_recv_buf());
    clock.lap("allreduce");
    let bcast = comm.bcast(send_recv_buf(bc)).root(inp.root).call();
    clock.lap("bcast");
    let ired = comm.iallreduce_vec(inp.ired.clone(), add);
    compute(COMPUTE_STEPS);
    clock.lap("icompute");
    let ired = ired.and_then(|req| req.wait());
    clock.lap("iwait");
    vec![
        ("allgatherv_vec", inferred.map(|v| v == inp.agv_want)),
        ("allgatherv", known.map(|v| v == inp.agv_want)),
        ("alltoallv", a2a.map(|v| v == inp.a2a_want)),
        ("allreduce", red.map(|v| v == inp.red_want)),
        ("bcast", bcast.map(|_| *bc == inp.bc_want)),
        ("iallreduce", ired.map(|v| v == inp.ired_want)),
    ]
}

/// The plain twin: the same operations through `RawComm`, counts
/// exchanged and displacements computed by hand, results left as bytes.
fn raw_round(comm: &Communicator, inp: &Inputs, clock: &mut Clock) -> Checks {
    let raw = comm.raw();
    let mine = pod_as_bytes(&inp.agv);
    let inferred = raw.allgather(&(mine.len() as u64).to_le_bytes()).and_then(|c| {
        let counts: Vec<usize> = c
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().expect("8 bytes")) as usize)
            .collect();
        raw.allgatherv(mine, &counts)
    });
    clock.lap("allgatherv_inferred");
    let known = raw.allgatherv(mine, &bytes(&inp.agv_counts));
    clock.lap("allgatherv");
    let (sc, rc) = (bytes(&inp.a2a_send), bytes(&inp.a2a_recv));
    let a2a = raw.alltoallv(
        pod_as_bytes(&inp.a2a),
        &sc,
        &excl_prefix_sum(&sc),
        &rc,
        &excl_prefix_sum(&rc),
    );
    clock.lap("alltoallv");
    let mut red = pod_as_bytes(&inp.red).to_vec();
    let red_ok = raw.allreduce(&mut red, &add_bytes, 8);
    clock.lap("allreduce");
    let at_root = if comm.rank() == inp.root { pod_as_bytes(&inp.bc_want) } else { &[] };
    let bcast = raw.bcast_from(at_root, inp.root);
    clock.lap("bcast");
    let ired = raw.iallreduce(pod_as_bytes(&inp.ired).to_vec(), Arc::new(add_bytes), 8);
    compute(COMPUTE_STEPS);
    clock.lap("icompute");
    let ired = ired.and_then(|mut req| req.wait());
    clock.lap("iwait");
    let is = |want: &[u64]| pod_as_bytes(want).to_vec();
    vec![
        ("raw allgatherv inferred", inferred.map(|v| v == is(&inp.agv_want)).map_err(Into::into)),
        ("raw allgatherv", known.map(|v| v == is(&inp.agv_want)).map_err(Into::into)),
        ("raw alltoallv", a2a.map(|v| v == is(&inp.a2a_want)).map_err(Into::into)),
        ("raw allreduce", red_ok.map(|_| red == is(&inp.red_want)).map_err(Into::into)),
        (
            "raw bcast",
            bcast
                .map(|b| b.as_deref().unwrap_or(at_root) == pod_as_bytes(&inp.bc_want))
                .map_err(Into::into),
        ),
        ("raw iallreduce", ired.map(|v| v == is(&inp.ired_want)).map_err(Into::into)),
    ]
}

/// The std reference round: the same bytes moved between the two rank
/// threads through a `reference::Link`, the reductions added by hand.
fn std_round(link: &Link, me: usize, inp: &Inputs) {
    let swap = |bytes: &[u8]| {
        link.send(me, bytes);
        link.recv(me)
    };
    let add_all = |mine: &[u64], theirs: Vec<u8>| -> Vec<u64> {
        let theirs =
            theirs.chunks_exact(8).map(|w| u64::from_le_bytes(w.try_into().expect("8 bytes")));
        mine.iter().zip(theirs).map(|(&a, b)| add(a, b)).collect()
    };
    // Both allgatherv calls of the typed round move the same bytes.
    for _ in 0..2 {
        let theirs = swap(pod_as_bytes(&inp.agv));
        let mine = pod_as_bytes(&inp.agv);
        black_box(if me == 0 { [mine, &theirs].concat() } else { [&theirs, mine].concat() });
    }
    let to_other = if me == 0 { inp.a2a_send[0]..inp.a2a.len() } else { 0..inp.a2a_send[0] };
    let theirs = swap(pod_as_bytes(&inp.a2a[to_other]));
    let own = if me == 0 { &inp.a2a[..inp.a2a_send[0]] } else { &inp.a2a[inp.a2a_send[0]..] };
    let own = pod_as_bytes(own);
    black_box(if me == 0 { [own, &theirs].concat() } else { [&theirs, own].concat() });
    let theirs = swap(pod_as_bytes(&inp.red));
    black_box(add_all(&inp.red, theirs));
    if me == inp.root {
        link.send(me, pod_as_bytes(&inp.bc_want));
    } else {
        black_box(link.recv(me));
    }
    link.send(me, pod_as_bytes(&inp.ired));
    compute(COMPUTE_STEPS);
    black_box(add_all(&inp.ired, link.recv(me)));
}

struct RankOut {
    rec: Rec,
    tally: Tally,
    setup_s: f64,
}

fn rank<'a>(comm: &'a Communicator, link: &'a Link, cfg: &Cfg) -> Rank<'a> {
    Rank {
        comm,
        link,
        inputs: (0..VARIANTS).map(|v| Inputs::new(cfg.seed, v, comm.rank())).collect(),
        rounds: 0,
        rec: Rec::default(),
        tally: Tally::default(),
        spin_ns: 0.0,
        raw_spin_ns: 0.0,
    }
}

fn universe(cfg: &Cfg, t_start: Instant, budget: Option<Duration>, traced: bool) -> Vec<RankOut> {
    let link = Link::default();
    kamping::run(P, |comm| {
        let mut r = rank(&comm, &link, cfg);
        let twins: &[Twin] = if traced {
            &[Twin::Typed, Twin::Spanned, Twin::RawSpanned]
        } else {
            &[Twin::Typed, Twin::Spanned, Twin::Raw, Twin::Std]
        };
        for _ in 0..WARMUP_ROUNDS {
            for &t in twins {
                r.round(t, true);
            }
        }
        r.rec = Rec::default();
        let _ = comm.barrier();
        let setup_s = t_start.elapsed().as_secs_f64();
        if let Some(budget) = budget {
            if cfg.spin != Spin::None {
                // The spin is a share of the op's steady median, taken from
                // a tenth of the run ahead of the measured part.
                r.rounds(twins, budget / 10);
                let (typed, raw) = (r.rec.median("typed.round"), r.rec.median("raw.round"));
                r.spin_ns = crate::shared_spin_ns(&comm, cfg, typed, false);
                r.raw_spin_ns = crate::shared_spin_ns(&comm, cfg, raw, true);
                r.rec = Rec::default();
            }
            r.rounds(twins, budget);
        }
        RankOut { rec: r.rec, tally: r.tally, setup_s }
    })
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
    let (typed, raw, reference) =
        (rec.get("typed.round"), rec.get("raw.round"), rec.get("std.round"));
    let scale = reference::COLL_ROUND_US / reference.median();
    let allreduce = rec.get("spanned.allreduce");
    let allreduce_mib_s =
        (REDUCE_ELEMS * 8) as f64 / (1 << 20) as f64 / (allreduce.median() * 1e-6);
    crate::put_e2e(
        &mut rep,
        crate::E2e {
            setups: &setups,
            op: &typed,
            op_what: "typed collective round",
            scale,
            scale_what: "std reference round",
            bulk_mib_s: allreduce_mib_s / scale,
            bulk_n: allreduce.len(),
            bulk_what: "typed 64 KiB allreduce, payload over median call time, scaled",
            typed_over_plain: 1.0 + (typed.median() - raw.median()) / reference.median(),
            ratio_n: typed.len(),
            ratio_what: "1 + (typed - RawComm) / std reference round, medians",
        },
    );
    rep.note("coll_round_us", typed.median(), "us", typed.len(), "typed collective round, median");
    let p99 = typed.quantile(0.99);
    rep.note("coll_round_p99_us", p99, "us", typed.len(), "typed collective round, p99");
    rep.note("raw_round_us", raw.median(), "us", raw.len(), "RawComm collective round, median");
    let what = "std reference round, median";
    rep.note("std_round_us", reference.median(), "us", reference.len(), what);
    rep
}

/// The traced run: the collective part of the layer ledger.
pub fn ledger(cfg: &Cfg, budget: Duration) -> Report {
    let outs = universe(cfg, Instant::now(), Some(budget), true);
    let mut rep = Report::default();
    for o in &outs {
        rep.count(o.tally);
    }
    let rec = &outs[0].rec;
    let diffs = |a: &str, b: &str| {
        let (a, b) = (rec.get(a), rec.get(b));
        Samples(a.0.iter().zip(&b.0).map(|(x, y)| x - y).collect())
    };
    let inf = diffs("spanned.allgatherv_inferred", "spanned.allgatherv");
    rep.put(
        "binding.counts_inference_us",
        inf.median(),
        "us",
        inf.len(),
        "allgatherv_vec - allgatherv with counts, same round",
    );
    for op in ["allgatherv", "alltoallv", "allreduce", "bcast"] {
        let s = rec.get(&format!("raw.{op}"));
        rep.put(&format!("coll.op_us.{op}"), s.median(), "us", s.len(), "RawComm call");
    }
    let wait = rec.get("spanned.iwait");
    rep.put(
        "icoll.wait_us",
        wait.median(),
        "us",
        wait.len(),
        "CollRequest::wait after the compute phase",
    );
    let overlap = Samples(
        wait.0
            .iter()
            .zip(&rec.get("spanned.allreduce").0)
            .map(|(w, b)| (1.0 - w / b) * 100.0)
            .collect(),
    );
    rep.put(
        "icoll.overlap_pct",
        overlap.median(),
        "%",
        overlap.len(),
        "1 - wait / blocking allreduce, same round",
    );
    let (typed, spanned) = (rec.get("typed.round"), rec.get("spanned.round"));
    rep.put(
        "trace.overhead_pct",
        (spanned.median() / typed.median() - 1.0) * 100.0,
        "%",
        spanned.len(),
        "spanned vs plain typed round",
    );
    rep
}

/// One op for the profile counts: a typed round.
pub fn profiled(cfg: &Cfg, ops: usize) -> (kamping_mpi::ProfileSnapshot, Tally) {
    let link = Link::default();
    let (outs, snap) = kamping::run_profiled(P, |comm| {
        let mut r = rank(&comm, &link, cfg);
        for _ in 0..ops {
            r.round(Twin::Typed, false);
        }
        r.tally
    });
    (snap, crate::sum_tallies(&outs))
}

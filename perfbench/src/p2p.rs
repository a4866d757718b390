//! `p2p`: ping-pong at 64 B, 16 KiB and 1 MiB with one message in flight,
//! then a one-way 64 KiB stream.
//!
//! Twins of the ping-pong run interleaved in blocks: the typed kamping
//! calls, the same exchange through `RawComm`, and the std reference. The
//! traced run adds a bare two-thread `Mailbox` post/take twin that skips
//! every layer above the transport, a typed twin with a span around each
//! call, and the `Payload` copy and `bytes_to_pods` decode probes. Rank 0
//! times everything; rank 1 echoes.

use std::sync::Arc;
use std::time::{Duration, Instant};

use kamping::prelude::*;
use kamping::types::{bytes_to_pods, pod_as_bytes};
use kamping_mpi::trace::TraceCtx;
use kamping_mpi::transport::{Envelope, Hub, Mailbox, MatchKey, Payload};
use kamping_mpi::{MpiResult, Tag};

use crate::rec::Rec;
use crate::reference::{self, Link};
use crate::stats::{spin, Report, SplitMix, Tally};
use crate::{Cfg, Spin};

/// Message sizes of the ping-pong ladder: label, bytes, iterations per
/// block.
const SIZES: [(&str, usize, usize); 3] =
    [("64b", 64, 64), ("16k", 16 << 10, 32), ("1m", 1 << 20, 4)];
/// Distinct seeded messages per size; echoes are checked against the
/// one sent, so a stale echo is caught.
const VARIANTS: usize = 4;
const STREAM_MSG: usize = 64 << 10;
const STREAM_BATCH: usize = 64;
const MIB: f64 = (1 << 20) as f64;

const TAG: Tag = 7;
const ACK: Tag = 8;
const WARMUP_ROUNDS: usize = 2;
const PROBE_REPS: usize = 4;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Twin {
    /// Typed kamping `send` + `recv`.
    Typed,
    /// Typed, with a span around each call (the traced path).
    Spanned,
    /// `RawComm::send` + `RawComm::recv`.
    Raw,
    /// `Mailbox::post` + `Mailbox::take_blocking`.
    Bare,
    /// The std reference.
    Std,
}

impl Twin {
    fn name(self) -> &'static str {
        match self {
            Twin::Typed => "typed",
            Twin::Spanned => "spanned",
            Twin::Raw => "raw",
            Twin::Bare => "bare",
            Twin::Std => "std",
        }
    }
}

/// The bare transport twin: two mailboxes shared by the two rank threads,
/// with nothing of the communicator layer around them.
struct Bare {
    mb: [Mailbox; 2],
}

impl Bare {
    fn new() -> Self {
        let hub = Arc::new(Hub::new());
        let trace = TraceCtx::disabled(2);
        Self {
            mb: [Mailbox::new(0, 2, hub.clone(), trace.clone()), Mailbox::new(1, 2, hub, trace)],
        }
    }

    fn post(&self, from: usize, tag: Tag, bytes: &[u8]) {
        self.mb[1 - from].post(Envelope {
            src: from,
            tag,
            ctx: 0,
            payload: Payload::from_slice(bytes),
            ack: None,
        });
    }

    fn take(&self, me: usize, tag: Tag) -> MpiResult<Vec<u8>> {
        let key = MatchKey { src: 1 - me, tag, ctx: 0 };
        self.mb[me].take_blocking(key, &|| None).map(|d| d.payload.into_vec())
    }
}

/// Seeded messages: `[size][variant]`, plus the stream's messages.
struct Inputs {
    msgs: Vec<Vec<Vec<u64>>>,
    stream: Vec<Vec<u64>>,
}

impl Inputs {
    fn new(seed: u64) -> Self {
        let msgs = SIZES
            .iter()
            .enumerate()
            .map(|(si, &(_, bytes, _))| {
                (0..VARIANTS)
                    .map(|v| SplitMix::new(seed, (si * VARIANTS + v) as u64).vec(bytes / 8))
                    .collect()
            })
            .collect();
        let stream = (0..VARIANTS)
            .map(|v| SplitMix::new(seed, 100 + v as u64).vec(STREAM_MSG / 8))
            .collect();
        Self { msgs, stream }
    }
}

/// What one rank brings back from the universe.
struct RankOut {
    rec: Rec,
    tally: Tally,
    depth_max: usize,
    setup_s: f64,
}

/// The state of the twins that bypass the communicator, shared by both
/// rank threads.
#[derive(Default)]
struct Side {
    /// Present in traced runs only.
    bare: Option<Bare>,
    link: Link,
}

struct Rank<'a> {
    comm: &'a Communicator,
    side: &'a Side,
    inp: Inputs,
    /// Messages sent so far per size, picks the variant.
    sent: [usize; 3],
    rec: Rec,
    tally: Tally,
    depth_max: usize,
    /// Injected spin per typed and per `RawComm` round trip, by size
    /// (sensitivity check).
    spin_ns: [f64; 3],
    raw_spin_ns: [f64; 3],
}

impl<'a> Rank<'a> {
    fn new(comm: &'a Communicator, side: &'a Side, seed: u64) -> Self {
        Self {
            comm,
            side,
            inp: Inputs::new(seed),
            sent: [0; 3],
            rec: Rec::default(),
            tally: Tally::default(),
            depth_max: 0,
            spin_ns: [0.0; 3],
            raw_spin_ns: [0.0; 3],
        }
    }

    fn me(&self) -> usize {
        self.comm.rank()
    }

    fn bare(&self) -> &'a Bare {
        self.side.bare.as_ref().expect("the bare twin runs in traced runs only")
    }

    /// One block of `iters` round trips of `twin` at size index `si`.
    fn pingpong(&mut self, twin: Twin, si: usize, iters: usize, record: bool) {
        let (label, _, _) = SIZES[si];
        for _ in 0..iters {
            let v = self.sent[si] % VARIANTS;
            self.sent[si] += 1;
            if self.me() == 1 {
                self.echo(twin);
                continue;
            }
            let comm = self.comm;
            let msg = &self.inp.msgs[si][v];
            let bytes = pod_as_bytes(msg);
            let t0 = Instant::now();
            let (ok, t_send): (KResult<bool>, Instant) = match twin {
                Twin::Typed | Twin::Spanned => {
                    spin(self.spin_ns[si]);
                    let sent = comm.send(send_buf(msg), destination(1)).call();
                    let t_send = Instant::now();
                    let got = sent.and_then(|_| comm.recv::<u64>(source(1)).call());
                    (got.map(|(g, _)| g == *msg), t_send)
                }
                Twin::Raw => {
                    spin(self.raw_spin_ns[si]);
                    let raw = comm.raw();
                    let sent = raw.send(1, TAG, bytes);
                    let t_send = Instant::now();
                    let got = sent.and_then(|_| raw.recv(1, TAG));
                    (got.map(|(g, _)| g == bytes).map_err(Into::into), t_send)
                }
                Twin::Bare => {
                    self.bare().post(0, TAG, bytes);
                    let t_send = Instant::now();
                    let got = self.bare().take(0, TAG);
                    (got.map(|g| g == bytes).map_err(Into::into), t_send)
                }
                Twin::Std => {
                    self.side.link.send(0, bytes);
                    let t_send = Instant::now();
                    (Ok(self.side.link.recv(0) == bytes), t_send)
                }
            };
            let t1 = Instant::now();
            self.tally.check(twin.name(), ok);
            if record {
                self.rec.us(&format!("{}.{label}", twin.name()), t1 - t0);
                if twin == Twin::Spanned {
                    self.rec.us(&format!("span.send.{label}"), t_send - t0);
                    self.rec.us(&format!("span.recv.{label}"), t1 - t_send);
                }
            }
        }
    }

    /// Rank 1's half of a round trip: receive, send the same data back.
    fn echo(&mut self, twin: Twin) {
        let comm = self.comm;
        let ok: KResult<bool> = match twin {
            Twin::Typed | Twin::Spanned => {
                let got = comm.recv::<u64>(source(0)).call();
                let back = got.as_ref().map(|(g, _)| g.as_slice()).unwrap_or(&[]);
                comm.send(send_buf(back), destination(0)).call().and(got.map(|_| true))
            }
            Twin::Raw => {
                let raw = comm.raw();
                let got = raw.recv(0, TAG);
                let back = got.as_ref().map(|(g, _)| g.as_slice()).unwrap_or(&[]);
                raw.send(0, TAG, back).and(got.map(|_| true)).map_err(Into::into)
            }
            Twin::Bare => {
                let got = self.bare().take(1, TAG);
                self.bare().post(1, TAG, got.as_deref().unwrap_or(&[]));
                got.map(|_| true).map_err(Into::into)
            }
            Twin::Std => {
                let got = self.side.link.recv(1);
                self.side.link.send(1, &got);
                Ok(true)
            }
        };
        self.tally.check("echo", ok);
    }

    /// One batch of the one-way 64 KiB stream of `twin` (typed, bare or
    /// std), clocked on rank 0 from the first send to the receiver's
    /// acknowledgement.
    fn stream(&mut self, twin: Twin, record: bool) {
        let comm = self.comm;
        let link = &self.side.link;
        if self.me() == 0 {
            let t0 = Instant::now();
            for j in 0..STREAM_BATCH {
                let msg = &self.inp.stream[j % VARIANTS];
                match twin {
                    Twin::Bare => self.bare().post(0, TAG, pod_as_bytes(msg)),
                    Twin::Std => link.send(0, pod_as_bytes(msg)),
                    _ => {
                        let r = comm.send(send_buf(msg), destination(1)).call();
                        self.tally.check("stream send", r.map(|_| true));
                    }
                }
            }
            let ack: MpiResult<()> = match twin {
                Twin::Bare => self.bare().take(0, ACK).map(|_| ()),
                Twin::Std => {
                    link.recv(0);
                    Ok(())
                }
                _ => comm.raw().recv(1, ACK).map(|_| ()),
            };
            let dt = t0.elapsed().as_secs_f64();
            self.tally.check("stream ack", ack.map(|_| true));
            if record {
                let key = format!("{}.stream", twin.name());
                self.rec.add(&key, (STREAM_BATCH * STREAM_MSG) as f64 / MIB / dt);
            }
            return;
        }
        // Kept until the clock has stopped, then checked by content.
        let mut typed: Vec<KResult<Vec<u64>>> = Vec::with_capacity(STREAM_BATCH);
        let mut bytes: Vec<MpiResult<Vec<u8>>> = Vec::with_capacity(STREAM_BATCH);
        for _ in 0..STREAM_BATCH {
            match twin {
                Twin::Bare => {
                    bytes.push(self.bare().take(1, TAG));
                    self.depth_max = self.depth_max.max(self.bare().mb[1].len() + 1);
                }
                Twin::Std => bytes.push(Ok(link.recv(1))),
                _ => typed.push(comm.recv::<u64>(source(0)).call().map(|(g, _)| g)),
            }
        }
        let ack: MpiResult<()> = match twin {
            Twin::Bare => {
                self.bare().post(1, ACK, &[1]);
                Ok(())
            }
            Twin::Std => {
                link.send(1, &[1]);
                Ok(())
            }
            _ => comm.raw().send(0, ACK, &[1]),
        };
        self.tally.check("stream ack", ack.map(|_| true));
        for (j, g) in typed.into_iter().enumerate() {
            let want = &self.inp.stream[j % VARIANTS];
            self.tally.check("stream", g.map(|g| g == *want));
        }
        for (j, g) in bytes.into_iter().enumerate() {
            let want = pod_as_bytes(&self.inp.stream[j % VARIANTS]);
            self.tally.check("stream", g.map(|g| g == want));
        }
    }

    /// Rounds until rank 0 has seen `budget` pass.
    fn rounds(&mut self, twins: &[Twin], budget: Duration) {
        let t0 = Instant::now();
        let mut n = 0;
        while crate::go_on(self.comm, t0.elapsed() < budget, &mut self.tally) {
            self.round(twins, n, true);
            n += 1;
        }
    }

    /// One round: every twin in rotated order at every size, then a stream
    /// batch per stream twin.
    fn round(&mut self, twins: &[Twin], n: usize, record: bool) {
        for (si, &(_, _, iters)) in SIZES.iter().enumerate() {
            for k in 0..twins.len() {
                self.pingpong(twins[(k + n) % twins.len()], si, iters, record);
            }
        }
        for &twin in twins {
            if matches!(twin, Twin::Typed | Twin::Bare | Twin::Std) {
                self.stream(twin, record);
            }
        }
        if self.side.bare.is_some() && self.me() == 0 && record {
            self.probes();
        }
    }

    /// The copy and decode costs of 1 MiB, timed on rank 0 alone. Each
    /// is repeated so that the allocator reaches its steady state, as it
    /// does in the ping-pong.
    fn probes(&mut self) {
        let want = &self.inp.msgs[2][0];
        let bytes = pod_as_bytes(want);
        for _ in 0..PROBE_REPS {
            let t0 = Instant::now();
            let p = Payload::from_slice(bytes);
            let dt = t0.elapsed();
            self.tally.check("copy probe", Ok::<bool, ()>(p.as_slice() == bytes));
            drop(p);
            self.rec.us("probe.copy_1m", dt);
        }
        for _ in 0..PROBE_REPS {
            let t0 = Instant::now();
            let d = bytes_to_pods::<u64>(bytes);
            let dt = t0.elapsed();
            self.tally.check("decode probe", d.map(|d| d == *want));
            self.rec.us("probe.decode_1m", dt);
        }
    }
}

/// Spawns one universe: set-up (inputs, warm-up) and, if `budget` is
/// given, the measured rounds.
fn universe(cfg: &Cfg, t_start: Instant, budget: Option<Duration>, traced: bool) -> Vec<RankOut> {
    let side = Side { bare: traced.then(Bare::new), link: Link::default() };
    kamping::run(2, |comm| {
        let mut r = Rank::new(&comm, &side, cfg.seed);
        let twins: &[Twin] = if traced {
            &[Twin::Typed, Twin::Spanned, Twin::Raw, Twin::Bare]
        } else {
            &[Twin::Typed, Twin::Raw, Twin::Std]
        };
        for n in 0..WARMUP_ROUNDS {
            r.round(twins, n, n + 1 == WARMUP_ROUNDS);
        }
        r.rec = Rec::default();
        let _ = comm.barrier();
        let setup_s = t_start.elapsed().as_secs_f64();
        if let Some(budget) = budget {
            if cfg.spin != Spin::None {
                // The spin is a share of the op's steady median, taken from
                // a tenth of the run ahead of the measured part.
                r.rounds(twins, budget / 10);
                for (si, &(label, _, _)) in SIZES.iter().enumerate() {
                    let (typed, raw) = (format!("typed.{label}"), format!("raw.{label}"));
                    r.spin_ns[si] = crate::spin_ns(cfg, r.rec.median(&typed), false);
                    r.raw_spin_ns[si] = crate::spin_ns(cfg, r.rec.median(&raw), true);
                }
                r.rec = Rec::default();
            }
            r.rounds(twins, budget);
        }
        RankOut { rec: r.rec, tally: r.tally, depth_max: r.depth_max, setup_s }
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
    let (s64, st, std_st) = (rec.get("typed.64b"), rec.get("typed.stream"), rec.get("std.stream"));
    let stream_scale = reference::P2P_STREAM_MIB_S / std_st.median();
    crate::put_e2e(
        &mut rep,
        crate::E2e {
            setups: &setups,
            op: &s64,
            op_what: "typed 64 B round trip",
            scale: reference::P2P_RTT_64B_US / rec.median("std.64b"),
            scale_what: "std 64 B round trip",
            bulk_mib_s: st.median() * stream_scale,
            bulk_n: st.len(),
            bulk_what: "one-way typed 64 KiB stream, median batch, scaled by the std stream",
            typed_over_plain: 1.0
                + (rec.median("typed.1m") - rec.median("raw.1m")) / rec.median("std.1m"),
            ratio_n: rec.get("typed.1m").len(),
            ratio_what: "1 + (typed - RawComm) / std 1 MiB round trip, medians",
        },
    );
    rep.note("rtt_64b_p99_us", s64.quantile(0.99), "us", s64.len(), "typed 64 B round trip, p99");
    for (label, _, _) in SIZES {
        for (twin, prefix, what) in
            [("typed", "", "typed"), ("raw", "raw_", "RawComm"), ("std", "std_", "std reference")]
        {
            let s = rec.get(&format!("{twin}.{label}"));
            let what = format!("{what} round trip, median");
            rep.note(&format!("{prefix}rtt_{label}_us"), s.median(), "us", s.len(), &what);
        }
    }
    rep.note("stream_mib_s", st.median(), "MiB/s", st.len(), "one-way typed 64 KiB stream");
    rep.note("std_stream_mib_s", std_st.median(), "MiB/s", std_st.len(), "std reference stream");
    rep
}

/// The traced run: the p2p part of the layer ledger.
pub fn ledger(cfg: &Cfg, budget: Duration) -> Report {
    let outs = universe(cfg, Instant::now(), Some(budget), true);
    let mut rep = Report::default();
    for o in &outs {
        rep.count(o.tally);
    }
    let rec = &outs[0].rec;
    let mut sum_err: f64 = 0.0;
    for (label, _, _) in SIZES {
        let m = |t: &str| rec.get(&format!("{t}.{label}"));
        let (typed, spanned, raw, bare) = (m("typed"), m("spanned"), m("raw"), m("bare"));
        let n = typed.len();
        let binding = typed.median() - raw.median();
        let rawcomm = raw.median() - bare.median();
        rep.put(&format!("binding.added_us.{label}"), binding, "us", n, "typed - RawComm RTT");
        rep.put(&format!("rawcomm.added_us.{label}"), rawcomm, "us", n, "RawComm - bare RTT");
        let what = "bare Mailbox post/take round trip";
        rep.put(&format!("transport.rtt_us.{label}"), bare.median(), "us", bare.len(), what);
        // The three layers telescope to the typed median; the spanned twin
        // is timed in blocks of its own, so this is a drift check.
        let sum = bare.median() + rawcomm + binding;
        sum_err = sum_err.max((sum - spanned.median()).abs() / spanned.median() * 100.0);
        let (send, recv) = (m("span.send"), m("span.recv"));
        rep.note(&format!("span.send_us.{label}"), send.median(), "us", n, "typed send call");
        rep.note(&format!("span.recv_us.{label}"), recv.median(), "us", n, "typed recv call");
    }
    let n = rec.get("spanned.64b").len();
    rep.put("ledger.sum_err_pct", sum_err, "%", n, "layers vs spanned typed RTT, worst size");
    let overhead = (rec.median("spanned.64b") / rec.median("typed.64b") - 1.0) * 100.0;
    rep.put("trace.overhead_pct", overhead, "%", n, "spanned vs plain typed 64 B round trip");
    let dec = rec.get("probe.decode_1m");
    let what = "bytes_to_pods::<u64> of 1 MiB";
    rep.put("binding.decode_us_per_mib", dec.median(), "us", dec.len(), what);
    let cp = rec.get("probe.copy_1m");
    let what = "Payload::from_slice of 1 MiB";
    rep.put("transport.copy_us_per_mib", cp.median(), "us", cp.len(), what);
    let st = rec.get("bare.stream");
    rep.put("transport.stream_mib_s", st.median(), "MiB/s", st.len(), "bare Mailbox 64 KiB stream");
    let what = "high-water of Mailbox::len seen by the stream receiver";
    rep.put("transport.lane_depth_max", outs[1].depth_max as f64, "count", st.len(), what);
    rep
}

/// One op for the profile counts: a typed round trip at every size.
pub fn profiled(cfg: &Cfg, ops: usize) -> (kamping_mpi::ProfileSnapshot, Tally) {
    let side = Side::default();
    let (outs, snap) = kamping::run_profiled(2, |comm| {
        let mut r = Rank::new(&comm, &side, cfg.seed);
        for _ in 0..ops {
            for si in 0..SIZES.len() {
                r.pingpong(Twin::Typed, si, 1, false);
            }
        }
        r.tally
    });
    (snap, crate::sum_tallies(&outs))
}

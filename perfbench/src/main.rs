//! The layer-ledger benchmark of kamping-rs: typed kamping calls vs the
//! same operations through `RawComm` vs the bare shm transport, on three
//! workloads at p = 2 rank threads of one process.
//!
//! ```text
//! perfbench --workload p2p|coll|samplesort --seed N --seconds S --trace 0|1 [--spin typed|all]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ledger. The last line of standard output is one JSON object; the lines
//! before it name every metric with its unit and sample count.
//! `--spin typed` busy-waits `SPIN_SHARE` of the typed operation's median
//! inside every timed typed call, `--spin all` also that share of the
//! plain twin's median inside every timed `RawComm` call: the injected
//! slowdowns of the sensitivity check. They touch benchmark code only.

mod coll;
mod p2p;
mod rec;
mod reference;
mod sort;
mod stats;

use std::time::{Duration, Instant};

use kamping::Communicator;
use kamping_mpi::Tag;
use stats::{Report, Samples, Tally};

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 15;

/// The sensitivity check's spin per timed call, as a share of the twin's
/// median over a tenth of the run spent ahead of the measured part.
pub const SPIN_SHARE: f64 = 0.2;

/// The end-to-end metrics every untraced run reports.
const END_TO_END: [&str; 5] =
    ["setup_s", "op_us", "bulk_mib_s", "typed_over_plain", "peak_rss_mib"];

/// The per-layer metrics every traced run reports.
const PER_LAYER: [&str; 27] = [
    "binding.added_us.64b",
    "binding.added_us.16k",
    "binding.added_us.1m",
    "binding.decode_us_per_mib",
    "binding.counts_inference_us",
    "binding.sort_added_ms",
    "rawcomm.added_us.64b",
    "rawcomm.added_us.16k",
    "rawcomm.added_us.1m",
    "transport.rtt_us.64b",
    "transport.rtt_us.16k",
    "transport.rtt_us.1m",
    "transport.copy_us_per_mib",
    "transport.stream_mib_s",
    "transport.lane_depth_max",
    "coll.op_us.allgatherv",
    "coll.op_us.alltoallv",
    "coll.op_us.allreduce",
    "coll.op_us.bcast",
    "icoll.wait_us",
    "icoll.overlap_pct",
    "profile.msgs_per_op",
    "profile.bytes_per_op",
    "sort.local_sort_ms",
    "sort.single_thread_ms",
    "trace.overhead_pct",
    "ledger.sum_err_pct",
];

/// Which twins the sensitivity check slows down.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Spin {
    None,
    /// The typed calls only.
    Typed,
    /// The typed and the `RawComm` calls.
    All,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    P2p,
    Coll,
    Samplesort,
}

pub struct Cfg {
    pub workload: Workload,
    pub seed: u64,
    /// Measured time of an untraced run (set-ups come on top).
    pub budget: Duration,
    pub traced: bool,
    pub spin: Spin,
    /// When `main` started: the first set-up is timed from here.
    pub t_main: Instant,
}

fn parse(t_main: Instant) -> Result<Cfg, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = Cfg {
        workload: Workload::P2p,
        seed: 0,
        budget: Duration::from_secs(10),
        traced: false,
        spin: Spin::None,
        t_main,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {val:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(match val.as_str() {
                    "p2p" => Workload::P2p,
                    "coll" => Workload::Coll,
                    "samplesort" => Workload::Samplesort,
                    _ => return Err(format!("unknown workload {val:?}")),
                })
            }
            "--seed" => cfg.seed = val.parse().map_err(|_| bad())?,
            "--seconds" => {
                cfg.budget = Duration::from_secs_f64(val.parse::<f64>().map_err(|_| bad())?)
            }
            "--trace" => {
                cfg.traced = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {val:?}")),
                }
            }
            "--spin" => {
                cfg.spin = match val.as_str() {
                    "none" => Spin::None,
                    "typed" => Spin::Typed,
                    "all" => Spin::All,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    Ok(cfg)
}

/// Set-up times of `SETUPS - 1` universes that only set up; the first is
/// timed from process start. The measuring universe adds the last one.
pub fn setups(cfg: &Cfg, setup_only: impl Fn(Instant) -> f64) -> Samples {
    Samples(
        (0..SETUPS - 1)
            .map(|i| setup_only(if i == 0 { cfg.t_main } else { Instant::now() }))
            .collect(),
    )
}

/// Rank 0 decides whether another round runs and tells rank 1, over
/// plain point-to-point so that no collective code runs in `p2p`.
pub fn go_on(comm: &Communicator, go: bool, tally: &mut Tally) -> bool {
    const CTRL: Tag = 9;
    let raw = comm.raw();
    if comm.rank() == 0 {
        tally.check("ctrl", raw.send(1, CTRL, &[go as u8]).map(|_| true));
        go
    } else {
        let r = raw.recv(0, CTRL);
        let go = r.as_ref().is_ok_and(|(b, _)| b.first() == Some(&1));
        tally.check("ctrl", r.map(|_| true));
        go
    }
}

/// Whether `--spin` slows the typed or (`plain`) the `RawComm` twin.
fn spins(cfg: &Cfg, plain: bool) -> bool {
    match cfg.spin {
        Spin::None => false,
        Spin::Typed => !plain,
        Spin::All => true,
    }
}

/// The sensitivity check's spin per timed call of a twin whose median is
/// `median_us`; 0 when `--spin` leaves that twin alone.
pub fn spin_ns(cfg: &Cfg, median_us: f64, plain: bool) -> f64 {
    if spins(cfg, plain) {
        median_us * 1e3 * SPIN_SHARE
    } else {
        0.0
    }
}

/// `spin_ns` from rank 0's median, the same on every rank.
pub fn shared_spin_ns(comm: &Communicator, cfg: &Cfg, median_us: f64, plain: bool) -> f64 {
    if !spins(cfg, plain) {
        return 0.0;
    }
    comm.bcast_single(spin_ns(cfg, median_us, plain), 0).unwrap_or(0.0)
}

/// A workload's end-to-end view. Op times are multiplied by `scale`, the
/// nominal over the measured median of the workload's std reference (see
/// `reference`), so that the host's drift cancels; `bulk_mib_s` comes
/// scaled. The unscaled values are printed as well. `setup_s` is not
/// scaled: the references time no set-up work.
pub struct E2e<'a> {
    pub setups: &'a Samples,
    pub op: &'a Samples,
    pub op_what: &'a str,
    pub scale: f64,
    pub scale_what: &'a str,
    pub bulk_mib_s: f64,
    pub bulk_n: usize,
    pub bulk_what: &'a str,
    pub typed_over_plain: f64,
    pub ratio_n: usize,
    pub ratio_what: &'a str,
}

pub fn put_e2e(rep: &mut Report, e: E2e) {
    let (s, n, what) = (e.scale, e.op.len(), e.op_what);
    let (setup, n_setup) = (e.setups.median(), e.setups.len());
    let setup_what = "universe spawn + inputs + warm-up, median of the run's set-ups";
    rep.put("setup_s", setup, "s", n_setup, setup_what);
    rep.put("op_us", e.op.median() * s, "us", n, &format!("{what}, median, scaled"));
    rep.put("bulk_mib_s", e.bulk_mib_s, "MiB/s", e.bulk_n, e.bulk_what);
    rep.put("typed_over_plain", e.typed_over_plain, "ratio", e.ratio_n, e.ratio_what);
    rep.note("scale", s, "ratio", n, &format!("nominal / measured median {}", e.scale_what));
    rep.note("op_us_unscaled", e.op.median(), "us", n, &format!("{what}, median"));
    rep.note("op_p90_us", e.op.quantile(0.9), "us", n, &format!("{what}, p90"));
}

pub fn sum_tallies(ts: &[Tally]) -> Tally {
    let mut sum = Tally::default();
    for t in ts {
        sum.add(*t);
    }
    sum
}

/// Message and byte counts per workload op from the profiling counters,
/// with the op run twice: the counts must repeat exactly.
fn profile_counts(cfg: &Cfg, rep: &mut Report) -> bool {
    let (ops, what) = match cfg.workload {
        Workload::P2p => (8, "per typed round trip ladder (64 B + 16 KiB + 1 MiB)"),
        Workload::Coll => (8, "per typed collective round"),
        Workload::Samplesort => (2, "per sample_sort_kamping"),
    };
    let once = |k: usize| {
        let (snap, tally) = match cfg.workload {
            Workload::P2p => p2p::profiled(cfg, k),
            Workload::Coll => coll::profiled(cfg, k),
            Workload::Samplesort => sort::profiled(cfg, k),
        };
        let msgs: u64 = snap.ranks.iter().map(|r| r.messages_sent).sum();
        let bytes: u64 = snap.ranks.iter().map(|r| r.bytes_sent).sum();
        (snap, msgs, bytes, tally)
    };
    let (_, m0, b0, t0) = once(0);
    let (snap_a, ma, ba, ta) = once(ops);
    let (snap_b, _, _, tb) = once(ops);
    for t in [t0, ta, tb] {
        rep.count(t);
    }
    rep.put("profile.msgs_per_op", (ma - m0) as f64 / ops as f64, "count", ops, what);
    rep.put("profile.bytes_per_op", (ba - b0) as f64 / ops as f64, "B", ops, what);
    let same = snap_a == snap_b;
    if !same {
        eprintln!("perfbench: profile counts differ between two runs of one seed");
    }
    same
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Pins glibc's heap trim threshold. With the default, freeing a burst of
/// messages returns the heap top to the kernel, the next burst faults the
/// pages back in, and whether that happens flips from run to run: the
/// 64 KiB stream then reads anywhere from 1.6 to 2.4 GiB/s and the typed /
/// plain collective round from 0.97 to 1.12. Pinned, the pages stay and
/// the layers' own costs show.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_heap() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    // SAFETY: mallopt only adjusts allocator parameters; it runs before
    // any other thread exists.
    unsafe {
        mallopt(M_TRIM_THRESHOLD, 1 << 30);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_heap() {}

fn main() {
    let t_main = Instant::now();
    pin_heap();
    if let Some((k, _)) = std::env::vars().find(|(k, _)| k.starts_with("KAMPING_")) {
        eprintln!("perfbench: refusing to run with {k} set: KAMPING_* variables change the program under test");
        std::process::exit(2);
    }
    let cfg = match parse(t_main) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut rep = Report::default();
    let mut deterministic = true;
    let expected: &[&str] = if cfg.traced {
        // The ledger: every layer's part, each given a third of the time;
        // the workload's own op sets the profile counts and the tracing
        // overhead.
        let third = cfg.budget / 3;
        let mut sections = [
            (Workload::P2p, p2p::ledger(&cfg, third)),
            (Workload::Coll, coll::ledger(&cfg, third)),
            (Workload::Samplesort, sort::ledger(&cfg, third)),
        ];
        for (w, section) in &mut sections {
            if *w != cfg.workload {
                section.metrics.remove("trace.overhead_pct");
            }
        }
        for (_, section) in sections {
            rep.merge(section);
        }
        deterministic = profile_counts(&cfg, &mut rep);
        &PER_LAYER
    } else {
        rep = match cfg.workload {
            Workload::P2p => p2p::run(&cfg),
            Workload::Coll => coll::run(&cfg),
            Workload::Samplesort => sort::run(&cfg),
        };
        rep.put("peak_rss_mib", stats::peak_rss_mib(), "MiB", 1, "VmHWM at exit");
        &END_TO_END
    };

    let mut measured = true;
    for name in expected {
        if !rep.metrics.get(*name).is_some_and(|m| m.value.is_finite()) {
            println!("could not measure {name}: no finite value from this run");
            measured = false;
        }
    }
    let share = rep.failed as f64 / rep.attempted.max(1) as f64;
    rep.note(
        "failed_op_share",
        share,
        "fraction",
        rep.attempted as usize,
        "failed / attempted ops",
    );
    for (section, map) in [("metric", &rep.metrics), ("info", &rep.info)] {
        for (name, m) in map {
            println!(
                "{section:6} {name:32} {:>14.4} {:8} n={:<8} {}",
                m.value, m.unit, m.n, m.what
            );
        }
    }
    let correct = rep.failed == 0 && deterministic && measured;
    let metrics: Vec<String> = expected
        .iter()
        .map(|name| {
            let (value, unit) =
                rep.metrics.get(*name).map_or((f64::NAN, ""), |m| (m.value, m.unit));
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_num(value))
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rep.attempted.max(1),
        rep.failed,
        metrics.join(", ")
    );
}

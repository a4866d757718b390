//! The std-only reference twins: each workload's work done again on the
//! same two rank threads with `std` primitives and nothing of kamping-rs
//! but its zero-copy `pod_as_bytes` view.
//!
//! On a shared host the absolute times drift with the neighbours' load:
//! between two sets of runs fifteen minutes apart the sort median moved
//! 49 → 85 ms while the 64 B round trip moved 11.9 → 9.8 µs. A reference
//! interleaved with the workload sees the same drift, so the end-to-end
//! times are reported scaled by `NOMINAL / reference median` — the time the
//! op would take with the reference at its nominal speed. The nominal
//! values only set the scale: they are the references' medians over a few
//! runs on the host the first baseline was recorded on (2-core Xeon, see
//! README.md).

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

use kamping::types::pod_as_bytes;

/// Nominal medians of the references (µs, or MiB/s for the stream).
pub const P2P_RTT_64B_US: f64 = 14.0;
pub const P2P_STREAM_MIB_S: f64 = 10_800.0;
pub const COLL_ROUND_US: f64 = 150.0;
pub const SORT_US: f64 = 80_000.0;

/// Local samples per rank of the std sample sort: `16 log2(p) + 1` at
/// p = 2, as `kamping_sort` draws.
const SAMPLES: usize = 17;

/// One direction between the two rank threads: a copy in on `push`, the
/// owned buffer out on `pop` — the least a message hand-off costs.
#[derive(Default)]
struct Lane {
    q: Mutex<VecDeque<Vec<u8>>>,
    cv: Condvar,
}

/// Both directions; `lanes[r]` is rank `r`'s inbox.
#[derive(Default)]
pub struct Link {
    lanes: [Lane; 2],
}

impl Link {
    pub fn send(&self, from: usize, bytes: &[u8]) {
        let v = bytes.to_vec();
        let lane = &self.lanes[1 - from];
        lane.q.lock().expect("reference lane poisoned").push_back(v);
        lane.cv.notify_one();
    }

    pub fn recv(&self, me: usize) -> Vec<u8> {
        let lane = &self.lanes[me];
        let mut q = lane.q.lock().expect("reference lane poisoned");
        loop {
            if let Some(v) = q.pop_front() {
                return v;
            }
            q = lane.cv.wait(q).expect("reference lane poisoned");
        }
    }
}

/// The sample sort of two ranks with `std` only, in the steps and
/// exchanges of `sample_sort_plain`: swap sample counts and samples, pick
/// the splitter, sort and partition the local keys, swap bucket counts and
/// buckets, sort what is kept and received. `round` shifts the samples, so
/// that each round draws another splitter.
pub fn sample_sort(link: &Link, me: usize, data: &mut Vec<u64>, round: usize) {
    let swap = |bytes: &[u8]| {
        link.send(me, bytes);
        link.recv(me)
    };
    let decode = |bytes: Vec<u8>| -> Vec<u64> {
        bytes.chunks_exact(8).map(|w| u64::from_ne_bytes(w.try_into().expect("8 bytes"))).collect()
    };
    let n = data.len();
    let samples: Vec<u64> =
        (0..SAMPLES).map(|i| data[(i * n / SAMPLES + round * 7919) % n]).collect();
    swap(&(samples.len() as u64).to_ne_bytes());
    let mut all = decode(swap(pod_as_bytes(&samples)));
    all.extend_from_slice(&samples);
    all.sort_unstable();
    let split = all[all.len() / 2];
    data.sort_unstable();
    let mid = data.partition_point(|&k| k <= split);
    let (low, high) = data.split_at(mid);
    let (keep, give) = if me == 0 { (low, high) } else { (high, low) };
    swap(&(give.len() as u64).to_ne_bytes());
    let got = decode(swap(pod_as_bytes(give)));
    let mut out = Vec::with_capacity(keep.len() + got.len());
    out.extend_from_slice(keep);
    out.extend_from_slice(&got);
    out.sort_unstable();
    *data = out;
}

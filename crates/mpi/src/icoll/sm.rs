//! The collective state machines: each is the blocking algorithm from
//! [`crate::coll`] with every blocking receive replaced by a resumable
//! transition. Because sends are eager on every backend, the only blocking
//! points of the originals *are* the receives — so each machine posts
//! whatever the blocking code would have sent up to its first receive, and
//! `step` consumes arrived envelopes and posts the follow-up sends until
//! the next receive is dry.
//!
//! All machines work on bytes and communicator-local ranks; argument
//! validation happens before construction (in the `RawComm` entry points),
//! so constructors only stage state and post initial sends.

use crate::coll::combine;
use crate::error::{MpiError, MpiResult};
use crate::tag::Tag;
use crate::transport::Payload;

use super::{CollSm, OwnedByteOp, StepCx};

/// Dissemination barrier (the trivial schedule: ⌈log₂ p⌉ zero-byte
/// rounds). Round `i` signals rank `r + 2^i` and waits for `r − 2^i`; all
/// step sizes are distinct modulo `p`, so one tag serves every round.
pub(crate) struct IbarrierSm {
    p: usize,
    r: usize,
    tag: Tag,
    /// Current round's step size; `>= p` once complete.
    step: usize,
}

impl IbarrierSm {
    pub(crate) fn start(cx: &StepCx<'_>, tag: Tag) -> Self {
        let (p, r) = (cx.group.len(), cx.rank);
        if p > 1 {
            cx.post((r + 1) % p, tag, Payload::from_slice(&[]));
        }
        Self { p, r, tag, step: 1 }
    }
}

impl CollSm for IbarrierSm {
    fn step(&mut self, cx: &StepCx<'_>) -> MpiResult<Option<Vec<u8>>> {
        while self.step < self.p {
            let src = (self.r + self.p - self.step) % self.p;
            if cx.try_take(src, self.tag).is_none() {
                return Ok(None);
            }
            self.step <<= 1;
            if self.step < self.p {
                cx.post(
                    (self.r + self.step) % self.p,
                    self.tag,
                    Payload::from_slice(&[]),
                );
            }
        }
        Ok(Some(Vec::new()))
    }

    fn waiting_on(&self, out: &mut Vec<usize>) {
        if self.step < self.p {
            out.push((self.r + self.p - self.step) % self.p);
        }
    }
}

/// Posts `data` to this node's binomial-tree children: every bit below
/// `from_bit` that keeps `relative + bit` inside the tree. Zero-copy:
/// every envelope clones the payload (an `Arc` for heap payloads).
fn bcast_fan_out(
    cx: &StepCx<'_>,
    p: usize,
    root: usize,
    relative: usize,
    from_bit: usize,
    data: &Payload,
    tag: Tag,
) {
    let mut m = from_bit;
    while m > 0 {
        if relative + m < p {
            cx.post((relative + m + root) % p, tag, data.clone());
        }
        m >>= 1;
    }
}

/// Binomial-tree broadcast. The root fans out at creation and is complete
/// immediately; a non-root waits on its parent (the lowest set bit of its
/// root-relative rank), then relays to its children.
pub(crate) struct IbcastSm {
    p: usize,
    relative: usize,
    root: usize,
    tag: Tag,
    /// Bit this node receives on (lowest set bit of `relative`); unused at
    /// the root.
    recv_bit: usize,
    data: Option<Payload>,
}

impl IbcastSm {
    pub(crate) fn start(cx: &StepCx<'_>, tag: Tag, root: usize, buf: Vec<u8>) -> Self {
        let p = cx.group.len();
        let relative = (cx.rank + p - root) % p;
        if relative == 0 {
            let mut mask = 1usize;
            while mask < p {
                mask <<= 1;
            }
            let data = Payload::from_vec(buf);
            bcast_fan_out(cx, p, root, relative, mask >> 1, &data, tag);
            Self {
                p,
                relative,
                root,
                tag,
                recv_bit: 0,
                data: Some(data),
            }
        } else {
            // The non-root input buffer is dropped: `wait` returns the
            // broadcast bytes, mirroring `bcast` overwriting `buf`.
            Self {
                p,
                relative,
                root,
                tag,
                recv_bit: relative & relative.wrapping_neg(),
                data: None,
            }
        }
    }
}

impl CollSm for IbcastSm {
    fn step(&mut self, cx: &StepCx<'_>) -> MpiResult<Option<Vec<u8>>> {
        if self.data.is_none() {
            let parent = (self.relative - self.recv_bit + self.root) % self.p;
            let Some(payload) = cx.try_take(parent, self.tag) else {
                return Ok(None);
            };
            bcast_fan_out(
                cx,
                self.p,
                self.root,
                self.relative,
                self.recv_bit >> 1,
                &payload,
                self.tag,
            );
            self.data = Some(payload);
        }
        Ok(Some(self.data.take().expect("data just set").into_vec()))
    }

    fn waiting_on(&self, out: &mut Vec<usize>) {
        if self.data.is_none() {
            out.push((self.relative - self.recv_bit + self.root) % self.p);
        }
    }
}

/// Binomial-tree reduce. Mirrors `reduce_inner`'s mask loop: while bit
/// `mask` of the root-relative rank is clear, fold in the child at
/// `relative + mask`; the first set bit sends the partial to the parent
/// and finishes. Leaves therefore send on the first `step` (no receives),
/// interior nodes fold children in ascending mask order — the same
/// deterministic combine order as the blocking twin.
pub(crate) struct IreduceSm {
    p: usize,
    relative: usize,
    root: usize,
    tag: Tag,
    mask: usize,
    elem: usize,
    op: OwnedByteOp,
    buf: Vec<u8>,
    sent: bool,
}

impl IreduceSm {
    pub(crate) fn new(
        cx: &StepCx<'_>,
        tag: Tag,
        root: usize,
        buf: Vec<u8>,
        op: OwnedByteOp,
        elem: usize,
    ) -> Self {
        let p = cx.group.len();
        Self {
            p,
            relative: (cx.rank + p - root) % p,
            root,
            tag,
            mask: 1,
            elem,
            op,
            buf,
            sent: false,
        }
    }

    fn actual(&self, rel: usize) -> usize {
        (rel + self.root) % self.p
    }
}

impl CollSm for IreduceSm {
    fn step(&mut self, cx: &StepCx<'_>) -> MpiResult<Option<Vec<u8>>> {
        while self.mask < self.p {
            if self.relative & self.mask == 0 {
                let child = self.relative + self.mask;
                if child < self.p {
                    let Some(part) = cx.try_take(self.actual(child), self.tag) else {
                        return Ok(None);
                    };
                    let part = part.as_slice();
                    if part.len() != self.buf.len() {
                        return Err(MpiError::InvalidCounts {
                            what: "reduce buffers differ in length",
                        });
                    }
                    combine(&mut self.buf, part, &*self.op, self.elem);
                }
                self.mask <<= 1;
            } else {
                let parent = self.actual(self.relative - self.mask);
                cx.post(
                    parent,
                    self.tag,
                    Payload::from_vec(std::mem::take(&mut self.buf)),
                );
                self.sent = true;
                return Ok(Some(Vec::new()));
            }
        }
        // Root: the fully-reduced buffer.
        Ok(Some(std::mem::take(&mut self.buf)))
    }

    fn waiting_on(&self, out: &mut Vec<usize>) {
        if !self.sent && self.mask < self.p && self.relative & self.mask == 0 {
            let child = self.relative + self.mask;
            if child < self.p {
                out.push(self.actual(child));
            }
        }
    }
}

enum AllreducePhase {
    Reduce(IreduceSm),
    Bcast(IbcastSm),
}

/// Reduce-to-all: binomial reduce to rank 0 chained into a binomial
/// broadcast, each on its own issue-time tag. A non-root's reduce phase
/// ends as soon as its partial is sent, so it transitions to the (still
/// pending) broadcast receive without any intermediate blocking.
pub(crate) struct IallreduceSm {
    phase: AllreducePhase,
    bcast_tag: Tag,
}

impl IallreduceSm {
    pub(crate) fn new(
        cx: &StepCx<'_>,
        reduce_tag: Tag,
        bcast_tag: Tag,
        buf: Vec<u8>,
        op: OwnedByteOp,
        elem: usize,
    ) -> Self {
        Self {
            phase: AllreducePhase::Reduce(IreduceSm::new(cx, reduce_tag, 0, buf, op, elem)),
            bcast_tag,
        }
    }
}

impl CollSm for IallreduceSm {
    fn step(&mut self, cx: &StepCx<'_>) -> MpiResult<Option<Vec<u8>>> {
        loop {
            match &mut self.phase {
                AllreducePhase::Reduce(r) => {
                    let Some(reduced) = r.step(cx)? else {
                        return Ok(None);
                    };
                    // Rank 0 seeds the broadcast with the reduction result;
                    // everyone else enters it as a plain receiver.
                    self.phase =
                        AllreducePhase::Bcast(IbcastSm::start(cx, self.bcast_tag, 0, reduced));
                }
                AllreducePhase::Bcast(b) => return b.step(cx),
            }
        }
    }

    fn waiting_on(&self, out: &mut Vec<usize>) {
        match &self.phase {
            AllreducePhase::Reduce(r) => r.waiting_on(out),
            AllreducePhase::Bcast(b) => b.waiting_on(out),
        }
    }
}

/// Bruck's allgatherv (descending orientation), one tag for all rounds:
/// in each round send the newest `m = min(cur, p − cur)` blocks to
/// `r + cur` and place the `m` blocks arriving from `r − cur` straight
/// into the output; `cur += m` until all `p` blocks are present.
pub(crate) struct IallgathervSm {
    p: usize,
    r: usize,
    tag: Tag,
    counts: Vec<usize>,
    displs: Vec<usize>,
    total: usize,
    out: Vec<u8>,
    cur: usize,
}

impl IallgathervSm {
    pub(crate) fn start(cx: &StepCx<'_>, tag: Tag, send: Vec<u8>, recv_counts: &[usize]) -> Self {
        let p = cx.group.len();
        let r = cx.rank;
        let displs = crate::coll::excl_prefix_sum(recv_counts);
        let total: usize = recv_counts.iter().sum();
        let mut out = vec![0u8; total];
        out[displs[r]..displs[r] + send.len()].copy_from_slice(&send);
        let sm = Self {
            p,
            r,
            tag,
            counts: recv_counts.to_vec(),
            displs,
            total,
            out,
            cur: 1,
        };
        if p > 1 {
            sm.post_round(cx);
        }
        sm
    }

    /// Byte range of the cyclic ascending run of `m` blocks starting at
    /// rank `a`: one contiguous range, or two if it wraps past rank p−1.
    fn ranges(&self, a: usize, m: usize) -> (std::ops::Range<usize>, std::ops::Range<usize>) {
        if a + m <= self.p {
            let hi = a + m - 1;
            (self.displs[a]..self.displs[hi] + self.counts[hi], 0..0)
        } else {
            let wrap = a + m - self.p; // blocks 0..wrap
            (
                self.displs[a]..self.total,
                0..self.displs[wrap - 1] + self.counts[wrap - 1],
            )
        }
    }

    fn post_round(&self, cx: &StepCx<'_>) {
        let m = self.cur.min(self.p - self.cur);
        let dest = (self.r + self.cur) % self.p;
        // My newest m blocks are ranks r−m+1 ..= r (already in `out`).
        let (s1, s2) = self.ranges((self.r + self.p - m + 1) % self.p, m);
        let mut wire = Vec::with_capacity(s1.len() + s2.len());
        wire.extend_from_slice(&self.out[s1]);
        wire.extend_from_slice(&self.out[s2]);
        cx.post(dest, self.tag, Payload::from_vec(wire));
    }
}

impl CollSm for IallgathervSm {
    fn step(&mut self, cx: &StepCx<'_>) -> MpiResult<Option<Vec<u8>>> {
        while self.cur < self.p {
            let m = self.cur.min(self.p - self.cur);
            let src = (self.r + self.p - self.cur) % self.p;
            let Some(incoming) = cx.try_take(src, self.tag) else {
                return Ok(None);
            };
            let incoming = incoming.as_slice();
            // Incoming: ranks src−m+1 ..= src, placed straight into `out`.
            let (r1, r2) = self.ranges((src + self.p - m + 1) % self.p, m);
            if incoming.len() != r1.len() + r2.len() {
                return Err(MpiError::InvalidCounts {
                    what: "allgather: peer block length mismatch",
                });
            }
            let split = r1.len();
            self.out[r1].copy_from_slice(&incoming[..split]);
            self.out[r2].copy_from_slice(&incoming[split..]);
            self.cur += m;
            if self.cur < self.p {
                self.post_round(cx);
            }
        }
        Ok(Some(std::mem::take(&mut self.out)))
    }

    fn waiting_on(&self, out: &mut Vec<usize>) {
        if self.cur < self.p {
            out.push((self.r + self.p - self.cur) % self.p);
        }
    }
}

/// Bruck's all-to-all for small fixed-size blocks: local rotation at
/// creation, then ⌈log₂ p⌉ combined exchanges (round `k` forwards every
/// slot whose index has bit `k` set), inverse rotation at completion. One
/// issue-time tag per round keeps concurrent schedules collision-free.
pub(crate) struct IalltoallBruckSm {
    p: usize,
    me: usize,
    block: usize,
    tags: Vec<Tag>,
    round: usize,
    k: usize,
    slots: Vec<u8>,
}

impl IalltoallBruckSm {
    pub(crate) fn start(cx: &StepCx<'_>, tags: Vec<Tag>, send: Vec<u8>, block: usize) -> Self {
        let p = cx.group.len();
        let me = cx.rank;
        // Phase 1 — local rotation: slot j holds the block for (me + j) % p.
        let mut slots = vec![0u8; p * block];
        for j in 0..p {
            let dest = (me + j) % p;
            slots[j * block..(j + 1) * block]
                .copy_from_slice(&send[dest * block..(dest + 1) * block]);
        }
        let sm = Self {
            p,
            me,
            block,
            tags,
            round: 0,
            k: 1,
            slots,
        };
        if sm.k < p {
            sm.post_round(cx);
        }
        sm
    }

    fn post_round(&self, cx: &StepCx<'_>) {
        let (k, p, block) = (self.k, self.p, self.block);
        let dest = (self.me + k) % p;
        let moved = (0..p).filter(|j| j & k != 0).count();
        let mut wire = Vec::with_capacity(moved * block);
        for j in (0..p).filter(|j| j & k != 0) {
            wire.extend_from_slice(&self.slots[j * block..(j + 1) * block]);
        }
        cx.post(dest, self.tags[self.round], Payload::from_vec(wire));
    }
}

impl CollSm for IalltoallBruckSm {
    fn step(&mut self, cx: &StepCx<'_>) -> MpiResult<Option<Vec<u8>>> {
        let (p, block) = (self.p, self.block);
        while self.k < p {
            let k = self.k;
            let src = (self.me + p - k) % p;
            let Some(incoming) = cx.try_take(src, self.tags[self.round]) else {
                return Ok(None);
            };
            let incoming = incoming.as_slice();
            let moved = (0..p).filter(|j| j & k != 0).count();
            if incoming.len() != moved * block {
                return Err(MpiError::Internal("bruck: malformed round payload"));
            }
            // Received blocks replace the same slots, in the same order.
            for (i, j) in (0..p).filter(|j| j & k != 0).enumerate() {
                self.slots[j * block..(j + 1) * block]
                    .copy_from_slice(&incoming[i * block..(i + 1) * block]);
            }
            self.k <<= 1;
            self.round += 1;
            if self.k < p {
                self.post_round(cx);
            }
        }
        // Phase 3 — inverse rotation: slot j holds the block from
        // (me − j) % p.
        let mut out = vec![0u8; p * block];
        for j in 0..p {
            let src = (self.me + p - j) % p;
            out[src * block..(src + 1) * block]
                .copy_from_slice(&self.slots[j * block..(j + 1) * block]);
        }
        Ok(Some(out))
    }

    fn waiting_on(&self, out: &mut Vec<usize>) {
        if self.k < self.p {
            out.push((self.me + self.p - self.k) % self.p);
        }
    }
}

/// Linear variable all-to-all: *all* outgoing blocks (including empty
/// ones) are posted at creation — the whole send side is nonblocking — and
/// `step` collects whichever peers' blocks have arrived, in any order.
pub(crate) struct IalltoallvSm {
    tag: Tag,
    recv_counts: Vec<usize>,
    recv_displs: Vec<usize>,
    out: Vec<u8>,
    /// Source ranks whose block has not arrived yet.
    outstanding: Vec<usize>,
}

impl IalltoallvSm {
    pub(crate) fn start(
        cx: &StepCx<'_>,
        tag: Tag,
        send: Vec<u8>,
        send_counts: &[usize],
        send_displs: &[usize],
        recv_counts: &[usize],
        recv_displs: &[usize],
    ) -> MpiResult<Self> {
        let p = cx.group.len();
        let r = cx.rank;
        let check_len = |v: &[usize], what: &'static str| {
            if v.len() != p {
                return Err(MpiError::InvalidCounts { what });
            }
            Ok(())
        };
        check_len(send_counts, "alltoallv send_counts length != comm size")?;
        check_len(send_displs, "alltoallv send_displs length != comm size")?;
        check_len(recv_counts, "alltoallv recv_counts length != comm size")?;
        check_len(recv_displs, "alltoallv recv_displs length != comm size")?;
        for dest in 0..p {
            let (c, d) = (send_counts[dest], send_displs[dest]);
            if d + c > send.len() {
                return Err(MpiError::InvalidCounts {
                    what: "alltoallv send block out of bounds",
                });
            }
        }
        let total: usize = recv_counts
            .iter()
            .zip(recv_displs)
            .map(|(&c, &d)| d + c)
            .max()
            .unwrap_or(0);
        let mut out = vec![0u8; total];
        // Copy the self block locally ...
        {
            let (sc, sd) = (send_counts[r], send_displs[r]);
            let (rc, rd) = (recv_counts[r], recv_displs[r]);
            if sc != rc {
                return Err(MpiError::InvalidCounts {
                    what: "alltoallv self send/recv count mismatch",
                });
            }
            out[rd..rd + rc].copy_from_slice(&send[sd..sd + sc]);
        }
        // ... and post every outgoing block (including empty ones).
        for dest in 0..p {
            if dest == r {
                continue;
            }
            let (c, d) = (send_counts[dest], send_displs[dest]);
            cx.post(dest, tag, Payload::from_slice(&send[d..d + c]));
        }
        Ok(Self {
            tag,
            recv_counts: recv_counts.to_vec(),
            recv_displs: recv_displs.to_vec(),
            out,
            outstanding: (0..p).filter(|&s| s != r).collect(),
        })
    }
}

impl CollSm for IalltoallvSm {
    fn step(&mut self, cx: &StepCx<'_>) -> MpiResult<Option<Vec<u8>>> {
        let mut i = 0;
        while i < self.outstanding.len() {
            let src = self.outstanding[i];
            match cx.try_take(src, self.tag) {
                None => i += 1,
                Some(part) => {
                    let part = part.as_slice();
                    let (c, d) = (self.recv_counts[src], self.recv_displs[src]);
                    if part.len() != c {
                        return Err(MpiError::InvalidCounts {
                            what: "alltoallv: message length != recv_count",
                        });
                    }
                    self.out[d..d + c].copy_from_slice(part);
                    self.outstanding.swap_remove(i);
                }
            }
        }
        if self.outstanding.is_empty() {
            Ok(Some(std::mem::take(&mut self.out)))
        } else {
            Ok(None)
        }
    }

    fn waiting_on(&self, out: &mut Vec<usize>) {
        out.extend_from_slice(&self.outstanding);
    }
}

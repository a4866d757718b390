//! Blocking collectives, implemented over point-to-point transport.
//!
//! Algorithm selection (see DESIGN.md for the full table): dissemination
//! barrier, binomial-tree broadcast and reduce, recursive-doubling
//! allgather for power-of-two sizes and Bruck's allgather otherwise,
//! Bruck's all-to-all for small blocks, linear (rooted) gather/scatter,
//! chain scan. Broadcast fan-out is zero-copy: every envelope of one bcast
//! aliases a single shared allocation. The dense all-to-alls post one
//! envelope per peer — including empty ones — which reproduces the
//! linear-in-`p` startup cost of `MPI_Alltoallv` that §V-A of the paper
//! contrasts with sparse and grid exchanges.
//!
//! Every log-round algorithm keeps its linear counterpart (`bcast_naive`,
//! `barrier_naive`, `reduce_naive`, `allgather_naive`, `alltoall_linear`)
//! publicly callable so benchmarks can A/B them in one process; building
//! with the `naive` cargo feature flips the *default* dispatch to the
//! linear paths (the baseline configuration for the overhead benches).
//!
//! Byte-level API: counts and displacements are in bytes; the typed layer
//! (`kamping`) converts element counts. Variable-size collectives take
//! explicit receive counts, exactly like their C counterparts — computing
//! those counts when the user doesn't know them is the *binding layer's*
//! job (paper §III-A), not the substrate's.

use crate::error::{MpiError, MpiResult};
use crate::profile::Op;
use crate::tag::{coll_tag, Tag, ANY_SOURCE, MAX_USER_TAG};
use crate::transport::{MatchKey, Payload};
use crate::universe::wait_interrupt;
use crate::{ByteOp, RawComm, RawRequest};
use std::collections::HashSet;

/// Per-peer block size (bytes) below which [`RawComm::alltoall`] switches
/// to Bruck's log-round algorithm, mirroring real MPI implementations'
/// small-message strategy.
pub const BRUCK_THRESHOLD_BYTES: usize = 256;

/// Number of tags in the NBX rotation band of
/// [`RawComm::sparse_alltoallv`]. Rotating the tag between rounds keeps a
/// fast rank's next-round message from being matched by a peer still
/// draining the previous round.
pub const SPARSE_TAG_ROTATION: Tag = 4096;

/// First tag of the band reserved for NBX sparse exchanges (the top 4096
/// user tags; applications should stay below this).
pub const SPARSE_TAG_BASE: Tag = MAX_USER_TAG - (SPARSE_TAG_ROTATION - 1);

/// A message received by [`RawComm::sparse_alltoallv`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparseMsg {
    /// Sender's rank.
    pub source: usize,
    /// The payload bytes.
    pub data: Vec<u8>,
}

/// All-to-all backend selected by [`RawComm::alltoallv_strategy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AlltoallAlgo {
    /// Decide from `p` and locality: grid for large or multi-host
    /// communicators, dense otherwise. Sparse is never auto-selected —
    /// its O(degree) win needs a pattern the dense API can't see.
    #[default]
    Auto,
    /// One envelope per peer ([`RawComm::alltoallv`]).
    Dense,
    /// NBX dynamic sparse exchange ([`RawComm::sparse_alltoallv`]).
    Sparse,
    /// Two-hop ⌈√p⌉-grid routing ([`RawComm::grid_alltoallv`]).
    Grid,
}

impl AlltoallAlgo {
    /// Parses the `KAMPING_ALLTOALL` values.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim() {
            "auto" | "" => Some(Self::Auto),
            "dense" => Some(Self::Dense),
            "sparse" => Some(Self::Sparse),
            "grid" => Some(Self::Grid),
            _ => None,
        }
    }
}

/// Cached ⌈√p⌉-grid decomposition of a communicator: this rank's row and
/// column sub-communicators plus its grid coordinates. Built (two splits)
/// on first use by [`RawComm::grid_alltoallv`] and cached on the
/// communicator; cloning shares the underlying sub-communicator state.
#[derive(Clone)]
pub struct GridCache {
    pub(crate) size: usize,
    pub(crate) width: usize,
    pub(crate) my_col: usize,
    pub(crate) row: RawComm,
    pub(crate) col: RawComm,
}

impl GridCache {
    /// Grid width (⌈√p⌉).
    pub fn width(&self) -> usize {
        self.width
    }

    fn row_of(&self, rank: usize) -> usize {
        rank / self.width
    }

    fn col_of(&self, rank: usize) -> usize {
        rank % self.width
    }

    /// Number of ranks in column `col` (the last grid row may be partial).
    fn col_len(&self, col: usize) -> usize {
        if col >= self.size {
            0
        } else {
            (self.size - col).div_ceil(self.width)
        }
    }
}

/// One routed grid message block on the wire: header (final destination,
/// original source, payload byte length; u64 LE each) then the payload.
fn push_block(wire: &mut Vec<u8>, dest: usize, src: usize, payload: &[u8]) {
    wire.extend_from_slice(&(dest as u64).to_le_bytes());
    wire.extend_from_slice(&(src as u64).to_le_bytes());
    wire.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    wire.extend_from_slice(payload);
}

/// Iterates the blocks of a routed grid wire buffer.
fn for_each_block(wire: &[u8], mut f: impl FnMut(usize, usize, &[u8])) -> MpiResult<()> {
    let mut off = 0;
    while off < wire.len() {
        if off + 24 > wire.len() {
            return Err(MpiError::Internal("grid: truncated block header"));
        }
        let dest = u64::from_le_bytes(wire[off..off + 8].try_into().expect("8 bytes")) as usize;
        let src = u64::from_le_bytes(wire[off + 8..off + 16].try_into().expect("8 bytes")) as usize;
        let len =
            u64::from_le_bytes(wire[off + 16..off + 24].try_into().expect("8 bytes")) as usize;
        off += 24;
        if off + len > wire.len() {
            return Err(MpiError::Internal("grid: truncated block payload"));
        }
        f(dest, src, &wire[off..off + len]);
        off += len;
    }
    Ok(())
}

/// Folds one received buffer into `acc` with a single operator call: both
/// buffers are sequences of `elem_size`-byte elements of equal length.
pub(crate) fn combine(acc: &mut [u8], rhs: &[u8], op: ByteOp<'_>, elem_size: usize) {
    debug_assert_eq!(acc.len(), rhs.len());
    debug_assert!(elem_size > 0 && acc.len().is_multiple_of(elem_size));
    op.combine(acc, rhs, elem_size);
}

/// Exclusive prefix sum of `counts`, i.e. canonical displacements.
pub fn excl_prefix_sum(counts: &[usize]) -> Vec<usize> {
    let mut displs = Vec::with_capacity(counts.len());
    let mut acc = 0usize;
    for &c in counts {
        displs.push(acc);
        acc += c;
    }
    displs
}

impl RawComm {
    /// Internal receive on a collective tag (no op-counter recording),
    /// returning the transport payload (zero-copy when uniquely held).
    pub(crate) fn recv_payload_internal(&self, src: usize, tag: Tag) -> MpiResult<Payload> {
        let src_global = self.global_rank(src)?;
        let key = MatchKey {
            src: src_global,
            tag,
            ctx: self.ctx,
        };
        let interrupt = wait_interrupt(&self.state, src_global, self.ctx);
        let d = self
            .state
            .mailbox(self.my_global_rank())
            .take_blocking(key, &interrupt)?;
        Ok(d.payload)
    }

    /// Internal receive on a collective tag (no op-counter recording).
    pub(crate) fn recv_internal(&self, src: usize, tag: Tag) -> MpiResult<Vec<u8>> {
        Ok(self.recv_payload_internal(src, tag)?.into_vec())
    }

    /// Internal send of an already-packed payload on a collective tag (no
    /// op-counter recording). Fan-out senders clone the payload: for shared
    /// payloads that clones an `Arc`, not the bytes.
    pub(crate) fn send_payload_internal(
        &self,
        dest: usize,
        tag: Tag,
        payload: Payload,
    ) -> MpiResult<()> {
        if self.state.is_revoked(self.ctx) {
            return Err(MpiError::Revoked);
        }
        let dest_global = self.global_rank(dest)?;
        self.post_to(dest_global, tag, payload, None);
        Ok(())
    }

    /// Internal send on a collective tag (no op-counter recording).
    pub(crate) fn send_internal(&self, dest: usize, tag: Tag, payload: Vec<u8>) -> MpiResult<()> {
        self.send_payload_internal(dest, tag, Payload::from_vec(payload))
    }

    fn check_len(&self, v: &[usize], what: &'static str) -> MpiResult<()> {
        if v.len() != self.size() {
            return Err(MpiError::InvalidCounts { what });
        }
        Ok(())
    }

    /// Barrier. Dissemination algorithm (⌈log₂ p⌉ rounds) by default; the
    /// `naive` feature flips the default to [`RawComm::barrier_naive`].
    pub fn barrier(&self) -> MpiResult<()> {
        let _op = self.record(Op::Barrier);
        let tag = coll_tag(self.next_coll_seq());
        #[cfg(not(feature = "naive"))]
        return self.barrier_dissemination_inner(tag);
        #[cfg(feature = "naive")]
        return self.barrier_naive_inner(tag);
    }

    /// Dissemination barrier: round `i` signals rank `r + 2^i` and waits
    /// for rank `r - 2^i`; after ⌈log₂ p⌉ rounds every rank transitively
    /// depends on every other.
    fn barrier_dissemination_inner(&self, tag: Tag) -> MpiResult<()> {
        let p = self.size();
        let r = self.rank();
        let mut step = 1;
        while step < p {
            let dest = (r + step) % p;
            let src = (r + p - step) % p;
            self.send_internal(dest, tag, Vec::new())?;
            self.recv_internal(src, tag)?;
            step <<= 1;
        }
        Ok(())
    }

    /// Centralized linear barrier (everyone signals rank 0, rank 0 releases
    /// everyone): the A/B baseline for the dissemination barrier.
    pub fn barrier_naive(&self) -> MpiResult<()> {
        let _op = self.record(Op::Barrier);
        let tag = coll_tag(self.next_coll_seq());
        self.barrier_naive_inner(tag)
    }

    fn barrier_naive_inner(&self, tag: Tag) -> MpiResult<()> {
        let p = self.size();
        if self.rank() == 0 {
            for src in 1..p {
                self.recv_internal(src, tag)?;
            }
            for dest in 1..p {
                self.send_internal(dest, tag, Vec::new())?;
            }
        } else {
            self.send_internal(0, tag, Vec::new())?;
            self.recv_internal(0, tag)?;
        }
        Ok(())
    }

    /// Broadcast: `buf` at `root` is distributed to all ranks, replacing
    /// their `buf` contents. Strategy-selected (DESIGN.md §11): the flat
    /// zero-copy binomial tree on a single host, the two-level pipelined
    /// tree when [`crate::hier::CollStrategy`] resolves to hierarchy; the
    /// `naive` feature flips the default to [`RawComm::bcast_naive`].
    ///
    /// Selection never looks at `buf` — non-root ranks legitimately pass
    /// empty buffers, so only topology and environment (identical on all
    /// ranks) may steer the algorithm.
    pub fn bcast(&self, buf: &mut Vec<u8>, root: usize) -> MpiResult<()> {
        let _op = self.record(Op::Bcast);
        if root >= self.size() {
            return Err(MpiError::InvalidRank {
                rank: root,
                size: self.size(),
            });
        }
        #[cfg(feature = "naive")]
        {
            let tag = coll_tag(self.next_coll_seq());
            return self.bcast_naive_inner(buf, root, tag);
        }
        #[cfg(not(feature = "naive"))]
        {
            if self.use_hier() {
                self.note_strategy(crate::metrics::Counter::StrategyHier);
                let h = self.hier_topo()?;
                let tag = coll_tag(self.next_coll_seq());
                return self.bcast_hier_inner(buf, root, tag, &h);
            }
            self.note_strategy(crate::metrics::Counter::StrategyFlat);
            let tag = coll_tag(self.next_coll_seq());
            self.bcast_inner(buf, root, tag)
        }
    }

    /// Linear broadcast (root posts one copy per rank): the A/B baseline
    /// for the binomial tree.
    pub fn bcast_naive(&self, buf: &mut Vec<u8>, root: usize) -> MpiResult<()> {
        let _op = self.record(Op::Bcast);
        let tag = coll_tag(self.next_coll_seq());
        self.bcast_naive_inner(buf, root, tag)
    }

    fn bcast_naive_inner(&self, buf: &mut Vec<u8>, root: usize, tag: Tag) -> MpiResult<()> {
        let p = self.size();
        if root >= p {
            return Err(MpiError::InvalidRank {
                rank: root,
                size: p,
            });
        }
        if self.rank() == root {
            for dest in 0..p {
                if dest != root {
                    // Deliberately copies per receiver — this is the
                    // baseline the zero-copy tree path is measured against.
                    self.send_internal(dest, tag, buf.clone())?;
                }
            }
        } else {
            *buf = self.recv_internal(root, tag)?;
        }
        Ok(())
    }

    /// Broadcast variant whose root sends from a *borrowed* slice: the
    /// root's data is packed into one shared payload (a single allocation
    /// for the entire fan-out), never copied per child. Returns the
    /// received bytes on non-root ranks and `None` at the root.
    pub fn bcast_from(&self, data_at_root: &[u8], root: usize) -> MpiResult<Option<Vec<u8>>> {
        let _op = self.record(Op::Bcast);
        let tag = coll_tag(self.next_coll_seq());
        let p = self.size();
        if root >= p {
            return Err(MpiError::InvalidRank {
                rank: root,
                size: p,
            });
        }
        if p == 1 {
            return Ok(None);
        }
        if self.rank() == root {
            self.bcast_payload_inner(Some(Payload::from_slice(data_at_root)), root, tag)?;
            Ok(None)
        } else {
            Ok(Some(self.bcast_payload_inner(None, root, tag)?.into_vec()))
        }
    }

    pub(crate) fn bcast_inner(&self, buf: &mut Vec<u8>, root: usize, tag: Tag) -> MpiResult<()> {
        let p = self.size();
        if root >= p {
            return Err(MpiError::InvalidRank {
                rank: root,
                size: p,
            });
        }
        if p == 1 {
            return Ok(());
        }
        let seed = (self.rank() == root).then(|| Payload::from_vec(std::mem::take(buf)));
        *buf = self.bcast_payload_inner(seed, root, tag)?.into_vec();
        Ok(())
    }

    /// Binomial-tree broadcast over [`Payload`]s. The root supplies `seed`;
    /// every rank returns the broadcast payload. Envelopes clone the
    /// payload, so one allocation backs the entire fan-out and the last
    /// holder unwraps it for free.
    fn bcast_payload_inner(
        &self,
        seed: Option<Payload>,
        root: usize,
        tag: Tag,
    ) -> MpiResult<Payload> {
        let p = self.size();
        let relative = (self.rank() + p - root) % p;
        let actual = |rel: usize| (rel + root) % p;
        let mut mask = 1usize;
        let data = if relative == 0 {
            while mask < p {
                mask <<= 1;
            }
            seed.expect("bcast root must seed the payload")
        } else {
            loop {
                if relative & mask != 0 {
                    break self.recv_payload_internal(actual(relative - mask), tag)?;
                }
                mask <<= 1;
            }
        };
        // After the loop, `mask` is the bit we received on (lowest set bit
        // of `relative`), or the first power of two >= p at the root. All
        // lower bits of `relative` are zero, so `relative + m` for each
        // lower bit m enumerates this node's binomial-tree children.
        mask >>= 1;
        while mask > 0 {
            if relative + mask < p {
                self.send_payload_internal(actual(relative + mask), tag, data.clone())?;
            }
            mask >>= 1;
        }
        Ok(data)
    }

    /// Variable-size gather: every rank contributes `send`; `root` receives
    /// the rank-ordered concatenation. `recv_counts` (byte counts per rank)
    /// is required at the root and ignored elsewhere. Returns the
    /// concatenation at the root, `None` elsewhere.
    pub fn gatherv(
        &self,
        send: &[u8],
        recv_counts: Option<&[usize]>,
        root: usize,
    ) -> MpiResult<Option<Vec<u8>>> {
        let _op = self.record(Op::Gatherv);
        let tag = coll_tag(self.next_coll_seq());
        self.gatherv_inner(send, recv_counts, root, tag)
    }

    pub(crate) fn gatherv_inner(
        &self,
        send: &[u8],
        recv_counts: Option<&[usize]>,
        root: usize,
        tag: Tag,
    ) -> MpiResult<Option<Vec<u8>>> {
        let p = self.size();
        if root >= p {
            return Err(MpiError::InvalidRank {
                rank: root,
                size: p,
            });
        }
        if self.rank() != root {
            self.send_internal(root, tag, send.to_vec())?;
            return Ok(None);
        }
        let counts = recv_counts.ok_or(MpiError::InvalidCounts {
            what: "root gatherv needs recv_counts",
        })?;
        self.check_len(counts, "gatherv recv_counts length != comm size")?;
        if counts[root] != send.len() {
            return Err(MpiError::InvalidCounts {
                what: "gatherv: own recv_count != send length",
            });
        }
        let displs = excl_prefix_sum(counts);
        let total: usize = counts.iter().sum();
        let mut out = vec![0u8; total];
        out[displs[root]..displs[root] + send.len()].copy_from_slice(send);
        for src in 0..p {
            if src == root {
                continue;
            }
            let part = self.recv_internal(src, tag)?;
            if part.len() != counts[src] {
                return Err(MpiError::InvalidCounts {
                    what: "gatherv: message length != recv_count",
                });
            }
            out[displs[src]..displs[src] + part.len()].copy_from_slice(&part);
        }
        Ok(Some(out))
    }

    /// Fixed-size gather: like [`gatherv`](Self::gatherv) with all counts
    /// equal to `send.len()`.
    pub fn gather(&self, send: &[u8], root: usize) -> MpiResult<Option<Vec<u8>>> {
        let _op = self.record(Op::Gather);
        let tag = coll_tag(self.next_coll_seq());
        let counts = vec![send.len(); self.size()];
        self.gatherv_inner(send, Some(&counts), root, tag)
    }

    /// Variable-size scatter: `root` provides one byte block per rank;
    /// every rank receives its block.
    pub fn scatterv(&self, parts: Option<&[Vec<u8>]>, root: usize) -> MpiResult<Vec<u8>> {
        let _op = self.record(Op::Scatterv);
        let tag = coll_tag(self.next_coll_seq());
        self.scatterv_inner(parts, root, tag)
    }

    pub(crate) fn scatterv_inner(
        &self,
        parts: Option<&[Vec<u8>]>,
        root: usize,
        tag: Tag,
    ) -> MpiResult<Vec<u8>> {
        let p = self.size();
        if root >= p {
            return Err(MpiError::InvalidRank {
                rank: root,
                size: p,
            });
        }
        if self.rank() == root {
            let parts = parts.ok_or(MpiError::InvalidCounts {
                what: "root scatterv needs parts",
            })?;
            if parts.len() != p {
                return Err(MpiError::InvalidCounts {
                    what: "scatterv parts length != comm size",
                });
            }
            for (dest, part) in parts.iter().enumerate() {
                if dest != root {
                    self.send_internal(dest, tag, part.clone())?;
                }
            }
            Ok(parts[root].clone())
        } else {
            self.recv_internal(root, tag)
        }
    }

    /// Fixed-size scatter (equal block sizes enforced).
    pub fn scatter(&self, parts: Option<&[Vec<u8>]>, root: usize) -> MpiResult<Vec<u8>> {
        let _op = self.record(Op::Scatter);
        if let Some(parts) = parts {
            if parts.windows(2).any(|w| w[0].len() != w[1].len()) {
                return Err(MpiError::InvalidCounts {
                    what: "scatter requires equal block sizes",
                });
            }
        }
        let tag = coll_tag(self.next_coll_seq());
        self.scatterv_inner(parts, root, tag)
    }

    /// Fixed-size allgather: every rank contributes `send` (same length on
    /// every rank); returns the rank-ordered concatenation on every rank.
    ///
    /// Log-round algorithm by default — recursive doubling when `p` is a
    /// power of two, Bruck's allgather otherwise; the `naive` feature flips
    /// the default to [`RawComm::allgather_naive`].
    pub fn allgather(&self, send: &[u8]) -> MpiResult<Vec<u8>> {
        let _op = self.record(Op::Allgather);
        let counts = vec![send.len(); self.size()];
        #[cfg(not(feature = "naive"))]
        return self.allgatherv_log_inner(send, &counts);
        #[cfg(feature = "naive")]
        return self.allgatherv_naive_inner(send, &counts);
    }

    /// Variable-size allgather. `recv_counts[r]` is the byte count rank `r`
    /// contributes — required on every rank, exactly like `MPI_Allgatherv`.
    /// Same algorithm selection as [`RawComm::allgather`].
    pub fn allgatherv(&self, send: &[u8], recv_counts: &[usize]) -> MpiResult<Vec<u8>> {
        let _op = self.record(Op::Allgatherv);
        self.check_allgatherv_args(send, recv_counts)?;
        #[cfg(not(feature = "naive"))]
        return self.allgatherv_log_inner(send, recv_counts);
        #[cfg(feature = "naive")]
        return self.allgatherv_naive_inner(send, recv_counts);
    }

    /// Direct linear allgather (every rank sends its block to every peer):
    /// the textbook O(p) algorithm and the A/B baseline for the log-round
    /// engine.
    pub fn allgather_naive(&self, send: &[u8]) -> MpiResult<Vec<u8>> {
        let _op = self.record(Op::Allgather);
        let counts = vec![send.len(); self.size()];
        self.allgatherv_naive_inner(send, &counts)
    }

    /// Variable-size counterpart of [`RawComm::allgather_naive`].
    pub fn allgatherv_naive(&self, send: &[u8], recv_counts: &[usize]) -> MpiResult<Vec<u8>> {
        let _op = self.record(Op::Allgatherv);
        self.check_allgatherv_args(send, recv_counts)?;
        self.allgatherv_naive_inner(send, recv_counts)
    }

    fn check_allgatherv_args(&self, send: &[u8], recv_counts: &[usize]) -> MpiResult<()> {
        self.check_len(recv_counts, "allgatherv recv_counts length != comm size")?;
        if recv_counts[self.rank()] != send.len() {
            return Err(MpiError::InvalidCounts {
                what: "allgatherv: own recv_count != send length",
            });
        }
        Ok(())
    }

    /// Direct exchange: each rank posts its block to all p − 1 peers, then
    /// receives p − 1 blocks — p(p − 1) envelopes and p − 1 payload copies
    /// per rank, the linear cost the log-round engine amortizes away.
    fn allgatherv_naive_inner(&self, send: &[u8], recv_counts: &[usize]) -> MpiResult<Vec<u8>> {
        let p = self.size();
        let r = self.rank();
        let tag = coll_tag(self.next_coll_seq());
        let displs = excl_prefix_sum(recv_counts);
        let total: usize = recv_counts.iter().sum();
        let mut out = vec![0u8; total];
        out[displs[r]..displs[r] + send.len()].copy_from_slice(send);
        for dest in 0..p {
            if dest != r {
                self.send_internal(dest, tag, send.to_vec())?;
            }
        }
        for src in 0..p {
            if src == r {
                continue;
            }
            let incoming = self.recv_internal(src, tag)?;
            if incoming.len() != recv_counts[src] {
                return Err(MpiError::InvalidCounts {
                    what: "allgather: peer block length mismatch",
                });
            }
            out[displs[src]..displs[src] + incoming.len()].copy_from_slice(&incoming);
        }
        Ok(out)
    }

    /// Log-round allgatherv dispatch. Bruck's allgather handles any `p` in
    /// ⌈log₂ p⌉ rounds and its descending orientation schedules best when
    /// rank-threads share cores, so it is the default; recursive doubling
    /// is kept (and exposed through [`RawComm::allgather`]'s docs and the
    /// benchmarks) as the classical power-of-two alternative. The direct
    /// naive path posts p(p − 1) envelopes instead.
    fn allgatherv_log_inner(&self, send: &[u8], recv_counts: &[usize]) -> MpiResult<Vec<u8>> {
        let p = self.size();
        let tag = coll_tag(self.next_coll_seq());
        if p == 1 {
            return Ok(send.to_vec());
        }
        self.allgatherv_bruck(send, recv_counts, tag)
    }

    /// Recursive-doubling allgather (power-of-two `p` only; exposed for
    /// benchmarks and tests — the default dispatch uses Bruck's algorithm).
    pub fn allgather_rd(&self, send: &[u8]) -> MpiResult<Vec<u8>> {
        let _op = self.record(Op::Allgather);
        let p = self.size();
        if !p.is_power_of_two() {
            return Err(MpiError::InvalidCounts {
                what: "recursive doubling requires power-of-two size",
            });
        }
        let counts = vec![send.len(); p];
        let tag = coll_tag(self.next_coll_seq());
        if p == 1 {
            return Ok(send.to_vec());
        }
        self.allgatherv_recursive_doubling(send, &counts, tag)
    }

    /// Tree-composite allgather: binomial gather + zero-copy binomial
    /// broadcast (exposed for benchmarks, like the other variants).
    pub fn allgather_tree(&self, send: &[u8]) -> MpiResult<Vec<u8>> {
        let _op = self.record(Op::Allgather);
        let counts = vec![send.len(); self.size()];
        self.allgatherv_tree_inner(send, &counts)
    }

    /// Bruck's allgather regardless of `p` (exposed for benchmarks; the
    /// default dispatch prefers recursive doubling when `p` is a power of
    /// two).
    pub fn allgather_bruck(&self, send: &[u8]) -> MpiResult<Vec<u8>> {
        let _op = self.record(Op::Allgather);
        let counts = vec![send.len(); self.size()];
        let tag = coll_tag(self.next_coll_seq());
        self.allgatherv_bruck(send, &counts, tag)
    }

    /// Tree-composite allgatherv: binomial gather to rank 0 followed by the
    /// zero-copy binomial broadcast — 2(p − 1) envelopes at 2⌈log₂ p⌉
    /// depth, and the broadcast fan-out shares one allocation.
    fn allgatherv_tree_inner(&self, send: &[u8], recv_counts: &[usize]) -> MpiResult<Vec<u8>> {
        let p = self.size();
        let r = self.rank();
        let gather_tag = coll_tag(self.next_coll_seq());
        let bcast_tag = coll_tag(self.next_coll_seq());
        if p == 1 {
            return Ok(send.to_vec());
        }
        // Binomial gather: rank r accumulates the contiguous block run of
        // its subtree (ranks r .. r + subtree), then ships it to its parent
        // r − 2^h the first time bit h of r is set.
        let mut held = send.to_vec();
        let mut cnt = 1usize; // ranks held: r .. r + cnt
        let mut mask = 1usize;
        loop {
            if r & mask != 0 {
                self.send_internal(r - mask, gather_tag, held)?;
                held = Vec::new();
                break;
            }
            let child = r + mask;
            if child < p {
                let take = mask.min(p - child);
                let incoming = self.recv_internal(child, gather_tag)?;
                let expect: usize = recv_counts[child..child + take].iter().sum();
                if incoming.len() != expect {
                    return Err(MpiError::InvalidCounts {
                        what: "allgather: peer block length mismatch",
                    });
                }
                held.extend_from_slice(&incoming);
                cnt += take;
            }
            mask <<= 1;
            if mask >= p {
                break;
            }
        }
        debug_assert!(r != 0 || cnt == p);
        // Zero-copy broadcast of the assembled buffer from rank 0.
        let seed = (r == 0).then(|| Payload::from_vec(held));
        Ok(self.bcast_payload_inner(seed, 0, bcast_tag)?.into_vec())
    }

    /// Recursive doubling (power-of-two `p` only): in round `i` rank `r`
    /// exchanges *all data held so far* with partner `r ⊕ 2^i`, so after
    /// round `i` it holds the blocks of its entire 2^(i+1)-aligned rank
    /// group. Blocks are written into their final position directly.
    fn allgatherv_recursive_doubling(
        &self,
        send: &[u8],
        recv_counts: &[usize],
        tag: Tag,
    ) -> MpiResult<Vec<u8>> {
        let p = self.size();
        let r = self.rank();
        let displs = excl_prefix_sum(recv_counts);
        let total: usize = recv_counts.iter().sum();
        let mut out = vec![0u8; total];
        out[displs[r]..displs[r] + send.len()].copy_from_slice(send);
        let mut span = 1usize;
        while span < p {
            let partner = r ^ span;
            // Aligned group starts of my and my partner's current holdings.
            let my_base = r & !(span - 1);
            let partner_base = partner & !(span - 1);
            let my_bytes = |base: usize| {
                let lo = displs[base];
                let hi = displs[base + span - 1] + recv_counts[base + span - 1];
                (lo, hi)
            };
            let (slo, shi) = my_bytes(my_base);
            let (rlo, rhi) = my_bytes(partner_base);
            self.send_internal(partner, tag, out[slo..shi].to_vec())?;
            let incoming = self.recv_internal(partner, tag)?;
            if incoming.len() != rhi - rlo {
                return Err(MpiError::InvalidCounts {
                    what: "allgather: peer block length mismatch",
                });
            }
            out[rlo..rhi].copy_from_slice(&incoming);
            span <<= 1;
        }
        Ok(out)
    }

    /// Bruck's allgather (any `p`), descending orientation: rank `r`
    /// accumulates the cyclic block run `r, r−1, …` — in each round it
    /// sends its newest `m = min(cur, p−cur)` blocks to `r + cur` and
    /// receives the blocks `r−cur, …, r−cur−m+1` from `r − cur`, doubling
    /// `cur` until all `p` blocks are present. ⌈log₂ p⌉ messages per rank
    /// for any `p`.
    ///
    /// Receiving from *lower* ranks matters when rank-threads share cores:
    /// a round-robin scheduler tends to run low ranks first, so the data a
    /// rank blocks on usually already arrived. Blocks are cyclically
    /// contiguous in rank order, so they are built from / placed into the
    /// output with at most two `memcpy`s per round — no final rotation.
    fn allgatherv_bruck(&self, send: &[u8], recv_counts: &[usize], tag: Tag) -> MpiResult<Vec<u8>> {
        let p = self.size();
        let r = self.rank();
        let displs = excl_prefix_sum(recv_counts);
        let total: usize = recv_counts.iter().sum();
        let mut out = vec![0u8; total];
        out[displs[r]..displs[r] + send.len()].copy_from_slice(send);
        // Byte range of the cyclic ascending run of `m` blocks starting at
        // rank `a`: one contiguous range, or two if it wraps past rank p−1.
        let ranges = |a: usize, m: usize| -> (std::ops::Range<usize>, std::ops::Range<usize>) {
            if a + m <= p {
                let hi = a + m - 1;
                (displs[a]..displs[hi] + recv_counts[hi], 0..0)
            } else {
                let wrap = a + m - p; // blocks 0..wrap
                (
                    displs[a]..total,
                    0..displs[wrap - 1] + recv_counts[wrap - 1],
                )
            }
        };
        let mut cur = 1usize;
        while cur < p {
            let m = cur.min(p - cur); // blocks still missing after this round
            let dest = (r + cur) % p;
            let src = (r + p - cur) % p;
            // My newest m blocks are ranks r−m+1 ..= r (already in `out`).
            let (s1, s2) = ranges((r + p - m + 1) % p, m);
            let mut wire = Vec::with_capacity(s1.len() + s2.len());
            wire.extend_from_slice(&out[s1]);
            wire.extend_from_slice(&out[s2]);
            self.send_internal(dest, tag, wire)?;
            let incoming = self.recv_internal(src, tag)?;
            // Incoming: ranks src−m+1 ..= src, placed straight into `out`.
            let (r1, r2) = ranges((src + p - m + 1) % p, m);
            if incoming.len() != r1.len() + r2.len() {
                return Err(MpiError::InvalidCounts {
                    what: "allgather: peer block length mismatch",
                });
            }
            let split = r1.len();
            out[r1].copy_from_slice(&incoming[..split]);
            out[r2].copy_from_slice(&incoming[split..]);
            cur += m;
        }
        Ok(out)
    }

    /// Fixed-size all-to-all: `send` is `p` equal byte blocks; block `i`
    /// goes to rank `i`. Returns the `p` received blocks concatenated in
    /// rank order.
    ///
    /// Like real MPI implementations, small blocks take Bruck's algorithm
    /// (⌈log₂ p⌉ rounds of combined messages instead of p − 1 direct
    /// ones); large blocks use the direct linear exchange. Note that
    /// *`alltoallv` never gets this optimization* — mirroring practice,
    /// and the reason the paper's sparse/grid plugins exist (§V-A).
    pub fn alltoall(&self, send: &[u8]) -> MpiResult<Vec<u8>> {
        let _op = self.record(Op::Alltoall);
        let p = self.size();
        if !send.len().is_multiple_of(p) {
            return Err(MpiError::InvalidCounts {
                what: "alltoall send length not divisible by comm size",
            });
        }
        let block = send.len() / p;
        #[cfg(not(feature = "naive"))]
        if p > 4 && block <= BRUCK_THRESHOLD_BYTES {
            return self.alltoall_bruck_inner(send, block);
        }
        self.alltoall_linear_inner(send, block)
    }

    /// Fixed-size all-to-all via the direct linear exchange regardless of
    /// block size: the A/B baseline for Bruck's algorithm.
    pub fn alltoall_linear(&self, send: &[u8]) -> MpiResult<Vec<u8>> {
        let _op = self.record(Op::Alltoall);
        let p = self.size();
        if !send.len().is_multiple_of(p) {
            return Err(MpiError::InvalidCounts {
                what: "alltoall send length not divisible by comm size",
            });
        }
        self.alltoall_linear_inner(send, send.len() / p)
    }

    fn alltoall_linear_inner(&self, send: &[u8], block: usize) -> MpiResult<Vec<u8>> {
        let counts = vec![block; self.size()];
        let displs = excl_prefix_sum(&counts);
        let tag = coll_tag(self.next_coll_seq());
        self.alltoallv_inner(send, &counts, &displs, &counts, &displs, tag)
    }

    /// Fixed-size all-to-all with Bruck's algorithm, regardless of size
    /// (exposed for tests and benchmarks; `alltoall` dispatches to it
    /// automatically for small blocks).
    pub fn alltoall_bruck(&self, send: &[u8]) -> MpiResult<Vec<u8>> {
        let _op = self.record(Op::Alltoall);
        let p = self.size();
        if !send.len().is_multiple_of(p) {
            return Err(MpiError::InvalidCounts {
                what: "alltoall send length not divisible by comm size",
            });
        }
        self.alltoall_bruck_inner(send, send.len() / p)
    }

    /// Bruck (1997). Invariant: the block that starts in slot `j` of rank
    /// `s` (destined to rank `s + j`) is forwarded exactly on the rounds
    /// matching the set bits of `j`, always staying in slot `j`; the bit
    /// values sum to `j`, so it lands at its destination — which therefore
    /// finds the block *from* rank `me - j` in slot `j`. ⌈log₂ p⌉ combined
    /// messages per rank instead of p − 1 direct ones.
    ///
    /// The slot set exchanged in round `k` (ascending `j` with bit `k`
    /// set) is identical on every rank, so the wire is the bare block
    /// concatenation — no per-block headers, and the slots live in one
    /// flat buffer.
    fn alltoall_bruck_inner(&self, send: &[u8], block: usize) -> MpiResult<Vec<u8>> {
        let p = self.size();
        let me = self.rank();
        // Phase 1 — local rotation: slot j holds the block for (me + j) % p.
        let mut slots = vec![0u8; p * block];
        for j in 0..p {
            let dest = (me + j) % p;
            slots[j * block..(j + 1) * block]
                .copy_from_slice(&send[dest * block..(dest + 1) * block]);
        }
        // Phase 2 — log rounds of combined exchanges.
        let mut k = 1usize;
        while k < p {
            // One sequence number per round keeps tags collision-free and
            // rank-synchronized.
            let tag = coll_tag(self.next_coll_seq());
            let dest = (me + k) % p;
            let src = (me + p - k) % p;
            let moved: usize = (0..p).filter(|j| j & k != 0).count();
            let mut wire = Vec::with_capacity(moved * block);
            for j in (0..p).filter(|j| j & k != 0) {
                wire.extend_from_slice(&slots[j * block..(j + 1) * block]);
            }
            self.send_internal(dest, tag, wire)?;
            let incoming = self.recv_internal(src, tag)?;
            if incoming.len() != moved * block {
                return Err(MpiError::Internal("bruck: malformed round payload"));
            }
            // Received blocks replace the same slots, in the same order.
            for (i, j) in (0..p).filter(|j| j & k != 0).enumerate() {
                slots[j * block..(j + 1) * block]
                    .copy_from_slice(&incoming[i * block..(i + 1) * block]);
            }
            k <<= 1;
        }
        // Phase 3 — inverse rotation: slot j holds the block from
        // (me - j) % p.
        let mut out = vec![0u8; p * block];
        for j in 0..p {
            let src = (me + p - j) % p;
            out[src * block..(src + 1) * block].copy_from_slice(&slots[j * block..(j + 1) * block]);
        }
        Ok(out)
    }

    /// Variable all-to-all with explicit byte counts and displacements, the
    /// full `MPI_Alltoallv` surface. Every peer gets an envelope, including
    /// zero-byte ones — the linear startup cost the sparse/grid plugins
    /// exist to avoid.
    pub fn alltoallv(
        &self,
        send: &[u8],
        send_counts: &[usize],
        send_displs: &[usize],
        recv_counts: &[usize],
        recv_displs: &[usize],
    ) -> MpiResult<Vec<u8>> {
        let _op = self.record(Op::Alltoallv);
        let tag = coll_tag(self.next_coll_seq());
        self.alltoallv_inner(
            send,
            send_counts,
            send_displs,
            recv_counts,
            recv_displs,
            tag,
        )
    }

    pub(crate) fn alltoallv_inner(
        &self,
        send: &[u8],
        send_counts: &[usize],
        send_displs: &[usize],
        recv_counts: &[usize],
        recv_displs: &[usize],
        tag: Tag,
    ) -> MpiResult<Vec<u8>> {
        let p = self.size();
        self.check_len(send_counts, "alltoallv send_counts length != comm size")?;
        self.check_len(send_displs, "alltoallv send_displs length != comm size")?;
        self.check_len(recv_counts, "alltoallv recv_counts length != comm size")?;
        self.check_len(recv_displs, "alltoallv recv_displs length != comm size")?;
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
        // Post every outgoing block (including empty ones) ...
        for dest in 0..p {
            let (c, d) = (send_counts[dest], send_displs[dest]);
            if dest == self.rank() {
                continue;
            }
            self.send_internal(dest, tag, send[d..d + c].to_vec())?;
        }
        // ... copy the self block locally ...
        {
            let (sc, sd) = (send_counts[self.rank()], send_displs[self.rank()]);
            let (rc, rd) = (recv_counts[self.rank()], recv_displs[self.rank()]);
            if sc != rc {
                return Err(MpiError::InvalidCounts {
                    what: "alltoallv self send/recv count mismatch",
                });
            }
            out[rd..rd + rc].copy_from_slice(&send[sd..sd + sc]);
        }
        // ... and collect everyone else's.
        for src in 0..p {
            if src == self.rank() {
                continue;
            }
            let part = self.recv_internal(src, tag)?;
            let (c, d) = (recv_counts[src], recv_displs[src]);
            if part.len() != c {
                return Err(MpiError::InvalidCounts {
                    what: "alltoallv: message length != recv_count",
                });
            }
            out[d..d + c].copy_from_slice(&part);
        }
        Ok(out)
    }

    /// Binomial-tree reduce of equal-length buffers into `root`'s `buf`.
    /// `op` combines `elem_size`-byte elements; the combine order is a
    /// deterministic left-to-right tree over ranks (associative ops reduce
    /// exactly; floating-point results depend on `p` — see the
    /// reproducible-reduce plugin).
    pub fn reduce(
        &self,
        buf: &mut Vec<u8>,
        op: ByteOp<'_>,
        elem_size: usize,
        root: usize,
    ) -> MpiResult<()> {
        let _op = self.record(Op::Reduce);
        #[cfg(feature = "naive")]
        {
            let tag = coll_tag(self.next_coll_seq());
            return self.reduce_naive_inner(buf, op, elem_size, root, tag);
        }
        #[cfg(not(feature = "naive"))]
        {
            if self.use_hier() {
                if root >= self.size() {
                    return Err(MpiError::InvalidRank {
                        rank: root,
                        size: self.size(),
                    });
                }
                if elem_size == 0 || !buf.len().is_multiple_of(elem_size) {
                    return Err(MpiError::InvalidCounts {
                        what: "reduce buffer not a multiple of elem_size",
                    });
                }
                self.note_strategy(crate::metrics::Counter::StrategyHier);
                let h = self.hier_topo()?;
                let tag = coll_tag(self.next_coll_seq());
                return self.reduce_hier_inner(buf, op, elem_size, root, tag, &h);
            }
            self.note_strategy(crate::metrics::Counter::StrategyFlat);
            let tag = coll_tag(self.next_coll_seq());
            self.reduce_inner(buf, op, elem_size, root, tag)
        }
    }

    /// Linear reduce (root receives and folds every rank's buffer in rank
    /// order): the A/B baseline for the binomial tree. The combine order
    /// differs from the tree's, so results match only for associative and
    /// commutative operators — which is also MPI's requirement for
    /// predefined reductions.
    pub fn reduce_naive(
        &self,
        buf: &mut Vec<u8>,
        op: ByteOp<'_>,
        elem_size: usize,
        root: usize,
    ) -> MpiResult<()> {
        let _op = self.record(Op::Reduce);
        let tag = coll_tag(self.next_coll_seq());
        self.reduce_naive_inner(buf, op, elem_size, root, tag)
    }

    fn reduce_naive_inner(
        &self,
        buf: &mut Vec<u8>,
        op: ByteOp<'_>,
        elem_size: usize,
        root: usize,
        tag: Tag,
    ) -> MpiResult<()> {
        let p = self.size();
        if root >= p {
            return Err(MpiError::InvalidRank {
                rank: root,
                size: p,
            });
        }
        if elem_size == 0 || !buf.len().is_multiple_of(elem_size) {
            return Err(MpiError::InvalidCounts {
                what: "reduce buffer not a multiple of elem_size",
            });
        }
        if self.rank() != root {
            return self.send_internal(root, tag, std::mem::take(buf));
        }
        for src in 0..p {
            if src == root {
                continue;
            }
            let part = self.recv_internal(src, tag)?;
            if part.len() != buf.len() {
                return Err(MpiError::InvalidCounts {
                    what: "reduce buffers differ in length",
                });
            }
            combine(buf, &part, op, elem_size);
        }
        Ok(())
    }

    pub(crate) fn reduce_inner(
        &self,
        buf: &mut Vec<u8>,
        op: ByteOp<'_>,
        elem_size: usize,
        root: usize,
        tag: Tag,
    ) -> MpiResult<()> {
        let p = self.size();
        if root >= p {
            return Err(MpiError::InvalidRank {
                rank: root,
                size: p,
            });
        }
        if elem_size == 0 || !buf.len().is_multiple_of(elem_size) {
            return Err(MpiError::InvalidCounts {
                what: "reduce buffer not a multiple of elem_size",
            });
        }
        let relative = (self.rank() + p - root) % p;
        let actual = |rel: usize| (rel + root) % p;
        let mut mask = 1usize;
        while mask < p {
            if relative & mask == 0 {
                let child = relative + mask;
                if child < p {
                    let part = self.recv_internal(actual(child), tag)?;
                    if part.len() != buf.len() {
                        return Err(MpiError::InvalidCounts {
                            what: "reduce buffers differ in length",
                        });
                    }
                    combine(buf, &part, op, elem_size);
                }
            } else {
                self.send_internal(actual(relative - mask), tag, std::mem::take(buf))?;
                break;
            }
            mask <<= 1;
        }
        Ok(())
    }

    /// Reduce-to-all. Strategy-selected (DESIGN.md §11): binomial reduce +
    /// broadcast by default; the two-level algorithm (intra-host reduce,
    /// leader recursive doubling, intra-host pipelined broadcast) on mixed
    /// topologies; [`RawComm::allreduce_rabenseifner`] for large payloads
    /// under `Auto`. The payload-size input to selection is rank-uniform
    /// by the collective's own contract (all buffers equal length).
    pub fn allreduce(&self, buf: &mut Vec<u8>, op: ByteOp<'_>, elem_size: usize) -> MpiResult<()> {
        let _op = self.record(Op::Allreduce);
        #[cfg(not(feature = "naive"))]
        {
            use crate::hier::{CollStrategy, RABENSEIFNER_MIN_BYTES};
            match self.coll_strategy() {
                CollStrategy::Hier => {
                    if elem_size == 0 || !buf.len().is_multiple_of(elem_size) {
                        return Err(MpiError::InvalidCounts {
                            what: "reduce buffer not a multiple of elem_size",
                        });
                    }
                    self.note_strategy(crate::metrics::Counter::StrategyHier);
                    let h = self.hier_topo()?;
                    return self.allreduce_hier(buf, op, elem_size, &h);
                }
                CollStrategy::Auto => {
                    if !self.single_host_view() {
                        let h = self.hier_topo()?;
                        if h.has_fanout() {
                            if elem_size == 0 || !buf.len().is_multiple_of(elem_size) {
                                return Err(MpiError::InvalidCounts {
                                    what: "reduce buffer not a multiple of elem_size",
                                });
                            }
                            self.note_strategy(crate::metrics::Counter::StrategyHier);
                            return self.allreduce_hier(buf, op, elem_size, &h);
                        }
                    }
                    if buf.len() >= RABENSEIFNER_MIN_BYTES && self.size() >= 4 {
                        return self.allreduce_rabenseifner_inner(buf, op, elem_size);
                    }
                }
                CollStrategy::Flat => {}
            }
        }
        self.note_strategy(crate::metrics::Counter::StrategyFlat);
        let reduce_tag = coll_tag(self.next_coll_seq());
        let bcast_tag = coll_tag(self.next_coll_seq());
        self.reduce_inner(buf, op, elem_size, 0, reduce_tag)?;
        self.bcast_inner(buf, 0, bcast_tag)
    }

    /// Reduce-scatter with equal blocks (`MPI_Reduce_scatter_block`): the
    /// elementwise reduction of everyone's buffer is computed and rank `r`
    /// receives its `r`-th block. Buffer length must be `size * block`
    /// bytes; returns this rank's reduced block.
    pub fn reduce_scatter_block(
        &self,
        buf: &[u8],
        op: ByteOp<'_>,
        elem_size: usize,
    ) -> MpiResult<Vec<u8>> {
        let _op = self.record(Op::Reduce);
        let _op = self.record(Op::Scatterv);
        let p = self.size();
        if elem_size == 0 {
            return Err(MpiError::InvalidCounts {
                what: "reduce_scatter_block: elem_size must be nonzero",
            });
        }
        if !buf.len().is_multiple_of(p) || !(buf.len() / p).is_multiple_of(elem_size) {
            return Err(MpiError::InvalidCounts {
                what: "reduce_scatter_block: buffer not divisible into p element blocks",
            });
        }
        let reduce_tag = coll_tag(self.next_coll_seq());
        let scatter_tag = coll_tag(self.next_coll_seq());
        let mut acc = buf.to_vec();
        self.reduce_inner(&mut acc, op, elem_size, 0, reduce_tag)?;
        let parts: Option<Vec<Vec<u8>>> = (self.rank() == 0).then(|| {
            let block = acc.len() / p;
            (0..p)
                .map(|r| acc[r * block..(r + 1) * block].to_vec())
                .collect()
        });
        self.scatterv_inner(parts.as_deref(), 0, scatter_tag)
    }

    /// Combined send + receive that reuses one buffer
    /// (`MPI_Sendrecv_replace`): sends the current contents to `dest`,
    /// replaces them with the message received from `source`.
    pub fn sendrecv_replace(
        &self,
        buf: &mut Vec<u8>,
        dest: usize,
        send_tag: Tag,
        source: usize,
        recv_tag: Tag,
    ) -> MpiResult<crate::Status> {
        let outgoing = std::mem::take(buf);
        let _op = self.record(Op::Send);
        let dest_global = self.global_rank(dest)?;
        if self.state.is_revoked(self.ctx) {
            return Err(MpiError::Revoked);
        }
        self.post_to(dest_global, send_tag, Payload::from_vec(outgoing), None);
        let (incoming, status) = self.recv(source, recv_tag)?;
        *buf = incoming;
        Ok(status)
    }

    /// Inclusive prefix reduction (`MPI_Scan`): rank `r`'s buffer becomes
    /// the elementwise fold of ranks `0..=r`. Chain algorithm.
    pub fn scan(&self, buf: &mut Vec<u8>, op: ByteOp<'_>, elem_size: usize) -> MpiResult<()> {
        let _op = self.record(Op::Scan);
        let tag = coll_tag(self.next_coll_seq());
        if elem_size == 0 || !buf.len().is_multiple_of(elem_size) {
            return Err(MpiError::InvalidCounts {
                what: "scan buffer not a multiple of elem_size",
            });
        }
        let r = self.rank();
        if r > 0 {
            let mut prefix = self.recv_internal(r - 1, tag)?;
            if prefix.len() != buf.len() {
                return Err(MpiError::InvalidCounts {
                    what: "scan buffers differ in length",
                });
            }
            combine(&mut prefix, buf, op, elem_size);
            *buf = prefix;
        }
        if r + 1 < self.size() {
            self.send_internal(r + 1, tag, buf.clone())?;
        }
        Ok(())
    }

    /// Exclusive prefix reduction (`MPI_Exscan`): rank `r` receives the fold
    /// of ranks `0..r`; rank 0 receives `None` (its value is undefined in
    /// MPI).
    pub fn exscan(
        &self,
        buf: &[u8],
        op: ByteOp<'_>,
        elem_size: usize,
    ) -> MpiResult<Option<Vec<u8>>> {
        let _op = self.record(Op::Exscan);
        let tag = coll_tag(self.next_coll_seq());
        if elem_size == 0 || !buf.len().is_multiple_of(elem_size) {
            return Err(MpiError::InvalidCounts {
                what: "exscan buffer not a multiple of elem_size",
            });
        }
        let r = self.rank();
        let prefix = if r > 0 {
            let p = self.recv_internal(r - 1, tag)?;
            if p.len() != buf.len() {
                return Err(MpiError::InvalidCounts {
                    what: "exscan buffers differ in length",
                });
            }
            Some(p)
        } else {
            None
        };
        if r + 1 < self.size() {
            let mut inclusive = match &prefix {
                Some(p) => {
                    let mut acc = p.clone();
                    combine(&mut acc, buf, op, elem_size);
                    acc
                }
                None => buf.to_vec(),
            };
            self.send_internal(r + 1, tag, std::mem::take(&mut inclusive))?;
        }
        Ok(prefix)
    }

    // ----- strategy-selectable all-to-all backends (DESIGN.md §11) -----

    /// Dense `alltoallv` over per-destination byte vectors: `parts[d]`
    /// goes to rank `d`; returns one vector per source rank. Exchanges
    /// counts first (one small `alltoall`), so callers don't need to know
    /// receive sizes — the convenience surface the strategy layer and the
    /// grid phases build on.
    pub fn alltoallv_parts(&self, parts: &[Vec<u8>]) -> MpiResult<Vec<Vec<u8>>> {
        let p = self.size();
        if parts.len() != p {
            return Err(MpiError::InvalidCounts {
                what: "alltoallv_parts length != comm size",
            });
        }
        let send_counts: Vec<usize> = parts.iter().map(Vec::len).collect();
        let count_wire: Vec<u8> = send_counts
            .iter()
            .flat_map(|&c| (c as u64).to_le_bytes())
            .collect();
        let recv_counts: Vec<usize> = self
            .alltoall(&count_wire)?
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")) as usize)
            .collect();
        let send: Vec<u8> = parts.concat();
        let send_displs = excl_prefix_sum(&send_counts);
        let recv_displs = excl_prefix_sum(&recv_counts);
        let flat = self.alltoallv(
            &send,
            &send_counts,
            &send_displs,
            &recv_counts,
            &recv_displs,
        )?;
        Ok(recv_counts
            .iter()
            .zip(&recv_displs)
            .map(|(&c, &d)| flat[d..d + c].to_vec())
            .collect())
    }

    /// Personalized all-to-all routed per [`AlltoallAlgo`]: explicit
    /// algorithm, or `KAMPING_ALLTOALL`, or the auto rule (grid for large
    /// or multi-host communicators, dense otherwise). Input/output shape
    /// matches [`RawComm::alltoallv_parts`]. All ranks must resolve the
    /// same algorithm, which holds because every selection input is
    /// rank-uniform.
    pub fn alltoallv_strategy(
        &self,
        parts: &[Vec<u8>],
        algo: AlltoallAlgo,
    ) -> MpiResult<Vec<Vec<u8>>> {
        let algo = match algo {
            AlltoallAlgo::Auto => self.auto_alltoall_algo(),
            explicit => explicit,
        };
        match algo {
            AlltoallAlgo::Dense => self.alltoallv_parts(parts),
            AlltoallAlgo::Grid => self.grid_alltoallv(parts),
            AlltoallAlgo::Sparse => {
                let p = self.size();
                if parts.len() != p {
                    return Err(MpiError::InvalidCounts {
                        what: "alltoallv_parts length != comm size",
                    });
                }
                let messages: Vec<(usize, Vec<u8>)> = parts
                    .iter()
                    .enumerate()
                    .filter(|(_, m)| !m.is_empty())
                    .map(|(d, m)| (d, m.clone()))
                    .collect();
                let mut out = vec![Vec::new(); p];
                for msg in self.sparse_alltoallv(&messages)? {
                    out[msg.source].extend_from_slice(&msg.data);
                }
                Ok(out)
            }
            AlltoallAlgo::Auto => unreachable!("auto resolved above"),
        }
    }

    /// The `Auto` rule for [`RawComm::alltoallv_strategy`]: honour
    /// `KAMPING_ALLTOALL` if set to a concrete algorithm, else route over
    /// the grid once per-peer startups dominate — large `p`, or moderate
    /// `p` spread across hosts (socket startups cost ~µs, not ~ns).
    fn auto_alltoall_algo(&self) -> AlltoallAlgo {
        if let Some(a) = std::env::var("KAMPING_ALLTOALL")
            .ok()
            .and_then(|v| AlltoallAlgo::parse(&v))
            .filter(|&a| a != AlltoallAlgo::Auto)
        {
            return a;
        }
        let p = self.size();
        if p >= 48 || (p >= 16 && !self.single_host_view()) {
            AlltoallAlgo::Grid
        } else {
            AlltoallAlgo::Dense
        }
    }

    /// NBX dynamic sparse data exchange (Hoefler, Siebert and Lumsdaine,
    /// PPoPP'10): issend every message, probe-receive until own sends
    /// completed, then a non-blocking barrier certifies global quiescence.
    /// O(degree) messages per rank — no term linear in `p`. Collective:
    /// every rank must call it (possibly with no messages).
    ///
    /// Each message carries its index in `messages` as an 8-byte sequence
    /// header; receivers drop duplicate (source, sequence) deliveries, so
    /// a transport that duplicates envelopes (chaos `dup` faults, retrying
    /// links) cannot double-deliver. Results are sorted by (source,
    /// sequence) for determinism.
    pub fn sparse_alltoallv(&self, messages: &[(usize, Vec<u8>)]) -> MpiResult<Vec<SparseMsg>> {
        // Per-round tag: rank-synchronized because the exchange is
        // collective (every rank calls it in the same order).
        let tag = SPARSE_TAG_BASE + (self.next_operation_seq() % SPARSE_TAG_ROTATION);

        // 1. Post all sends in synchronous mode, sequence-stamped.
        let mut send_reqs: Vec<RawRequest> = Vec::with_capacity(messages.len());
        for (seq, (dest, data)) in messages.iter().enumerate() {
            let mut wire = Vec::with_capacity(8 + data.len());
            wire.extend_from_slice(&(seq as u64).to_le_bytes());
            wire.extend_from_slice(data);
            send_reqs.push(self.issend(*dest, tag, wire)?);
        }

        let mut received: Vec<(usize, u64, Vec<u8>)> = Vec::new();
        let mut seen: HashSet<(usize, u64)> = HashSet::new();
        let mut barrier: Option<RawRequest> = None;

        // 2. Probe/receive until the barrier certifies quiescence.
        loop {
            while let Some(status) = self.iprobe(ANY_SOURCE, tag)? {
                let (wire, st) = self.recv(status.source, tag)?;
                if wire.len() < 8 {
                    return Err(MpiError::Internal("sparse: truncated sequence header"));
                }
                let seq = u64::from_le_bytes(wire[..8].try_into().expect("8 bytes"));
                if seen.insert((st.source, seq)) {
                    received.push((st.source, seq, wire[8..].to_vec()));
                }
            }
            match &mut barrier {
                None => {
                    let mut done = true;
                    for r in &mut send_reqs {
                        if !r.is_complete() && r.test()?.is_none() {
                            done = false;
                        }
                    }
                    if done {
                        barrier = Some(self.ibarrier()?);
                    }
                }
                Some(req) => {
                    if req.test()?.is_some() {
                        break;
                    }
                }
            }
            std::thread::yield_now();
        }
        // No draining after barrier completion: synchronous-mode semantics
        // guarantee every message of this round was matched before any
        // rank entered the barrier, and a drain here could steal messages
        // of a *subsequent* round from a fast peer.

        received.sort_unstable_by_key(|&(src, seq, _)| (src, seq));
        Ok(received
            .into_iter()
            .map(|(source, _, data)| SparseMsg { source, data })
            .collect())
    }

    /// This communicator's grid decomposition, built (two splits — a
    /// collective) on first use and cached. Cloned out so no `RefCell`
    /// borrow is held across the collective calls made through it.
    /// Public so binding layers can pre-build the grid at a predictable
    /// point instead of inside the first exchange.
    pub fn grid_cache(&self) -> MpiResult<std::rc::Rc<GridCache>> {
        if let Some(g) = self.grid.borrow().as_ref() {
            return Ok(std::rc::Rc::clone(g));
        }
        let p = self.size();
        let width = (p as f64).sqrt().ceil() as usize;
        let my_row = self.rank() / width;
        let my_col = self.rank() % width;
        let row = self.split(my_row as u64, my_col as u64)?;
        let col = self.split(width as u64 + my_col as u64, my_row as u64)?;
        let g = std::rc::Rc::new(GridCache {
            size: p,
            width,
            my_col,
            row,
            col,
        });
        *self.grid.borrow_mut() = Some(std::rc::Rc::clone(&g));
        Ok(g)
    }

    /// Grid (two-dimensional) all-to-all, after Kalé, Kumar and
    /// Varadarajan: ranks form a virtual ⌈√p⌉-wide grid and every message
    /// travels within the sender's *column* to the destination's row, then
    /// within that *row* to the destination — O(√p) peers per phase
    /// instead of p − 1, trading volume (payloads travel twice, plus
    /// routing headers) for startups. For non-square `p` the last grid row
    /// is partial; messages whose sender column does not reach the
    /// destination's row take a third, within-column cleanup hop.
    ///
    /// `parts[d]` goes to rank `d`; returns one vector per source rank.
    pub fn grid_alltoallv(&self, parts: &[Vec<u8>]) -> MpiResult<Vec<Vec<u8>>> {
        let p = self.size();
        if parts.len() != p {
            return Err(MpiError::InvalidCounts {
                what: "alltoallv_parts length != comm size",
            });
        }
        let g = self.grid_cache()?;
        let me = self.rank();
        let exchange = |comm: &RawComm, outgoing: Vec<Vec<u8>>| -> MpiResult<Vec<u8>> {
            Ok(comm.alltoallv_parts(&outgoing)?.concat())
        };

        // Phase A: within my column, towards the destination's row (or the
        // deepest row my column reaches — phase C finishes the job).
        let mut phase_a: Vec<Vec<u8>> = vec![Vec::new(); g.col.size()];
        for (dest, part) in parts.iter().enumerate() {
            if part.is_empty() {
                continue; // nothing to route; receivers infer zero counts
            }
            let target_row = g.row_of(dest).min(g.col_len(g.my_col) - 1);
            push_block(&mut phase_a[target_row], dest, me, part);
        }
        let after_a = exchange(&g.col, phase_a)?;

        // Phase B: within my row, towards the destination's column.
        let mut phase_b: Vec<Vec<u8>> = vec![Vec::new(); g.row.size()];
        for_each_block(&after_a, |dest, src, payload| {
            push_block(&mut phase_b[g.col_of(dest)], dest, src, payload);
        })?;
        let after_b = exchange(&g.row, phase_b)?;

        // Phase C: within my column, cleanup hop for messages whose sender
        // column was shorter than the destination's row.
        let mut phase_c: Vec<Vec<u8>> = vec![Vec::new(); g.col.size()];
        for_each_block(&after_b, |dest, src, payload| {
            push_block(&mut phase_c[g.row_of(dest)], dest, src, payload);
        })?;
        let after_c = exchange(&g.col, phase_c)?;

        // Collect, grouped by original source.
        let mut out: Vec<Vec<u8>> = vec![Vec::new(); p];
        let mut misrouted = false;
        for_each_block(&after_c, |dest, src, payload| {
            misrouted |= dest != me || src >= p;
            if src < p {
                out[src].extend_from_slice(payload);
            }
        })?;
        if misrouted {
            return Err(MpiError::Internal("grid: block routed to wrong rank"));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Universe;

    fn u64_op() -> impl Fn(&mut [u8], &[u8]) + Sync {
        |acc: &mut [u8], rhs: &[u8]| {
            let a = u64::from_le_bytes(acc.try_into().unwrap());
            let b = u64::from_le_bytes(rhs.try_into().unwrap());
            acc.copy_from_slice(&(a + b).to_le_bytes());
        }
    }

    fn encode(vals: &[u64]) -> Vec<u8> {
        vals.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    fn decode(bytes: &[u8]) -> Vec<u64> {
        bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }

    #[test]
    fn barrier_many_rounds() {
        Universe::run(7, |comm| {
            for _ in 0..10 {
                comm.barrier().unwrap();
            }
        });
    }

    #[test]
    fn bcast_all_roots_all_sizes() {
        for p in [1, 2, 3, 4, 5, 8] {
            Universe::run(p, |comm| {
                for root in 0..comm.size() {
                    let mut buf = if comm.rank() == root {
                        format!("payload-from-{root}").into_bytes()
                    } else {
                        Vec::new()
                    };
                    comm.bcast(&mut buf, root).unwrap();
                    assert_eq!(buf, format!("payload-from-{root}").into_bytes());
                }
            });
        }
    }

    #[test]
    fn gatherv_concatenates_in_rank_order() {
        Universe::run(4, |comm| {
            let send = vec![comm.rank() as u8; comm.rank() + 1];
            let counts: Vec<usize> = (1..=comm.size()).collect();
            let got = comm.gatherv(&send, Some(&counts), 2).unwrap();
            if comm.rank() == 2 {
                assert_eq!(got.unwrap(), vec![0, 1, 1, 2, 2, 2, 3, 3, 3, 3]);
            } else {
                assert!(got.is_none());
            }
        });
    }

    #[test]
    fn scatterv_roundtrips_gatherv() {
        Universe::run(3, |comm| {
            let parts: Option<Vec<Vec<u8>>> =
                (comm.rank() == 1).then(|| (0..3).map(|i| vec![i as u8; i + 2]).collect());
            let mine = comm.scatterv(parts.as_deref(), 1).unwrap();
            assert_eq!(mine, vec![comm.rank() as u8; comm.rank() + 2]);
        });
    }

    #[test]
    fn scatter_rejects_ragged_blocks() {
        Universe::run(2, |comm| {
            if comm.rank() == 0 {
                let parts = vec![vec![1u8], vec![2u8, 3u8]];
                assert!(matches!(
                    comm.scatter(Some(&parts), 0),
                    Err(MpiError::InvalidCounts { .. })
                ));
            }
            // note: collective aborted on root only; other rank skips too
        });
    }

    #[test]
    fn allgather_equal_blocks() {
        Universe::run(5, |comm| {
            let mine = [comm.rank() as u8, 0xAB];
            let all = comm.allgather(&mine).unwrap();
            let want: Vec<u8> = (0..5).flat_map(|r| [r as u8, 0xAB]).collect();
            assert_eq!(all, want);
        });
    }

    #[test]
    fn allgatherv_variable_blocks() {
        Universe::run(4, |comm| {
            let send = vec![comm.rank() as u8; 2 * comm.rank()];
            let counts: Vec<usize> = (0..4).map(|r| 2 * r).collect();
            let all = comm.allgatherv(&send, &counts).unwrap();
            let want: Vec<u8> = (0..4).flat_map(|r| vec![r as u8; 2 * r]).collect();
            assert_eq!(all, want);
        });
    }

    #[test]
    fn allgatherv_validates_own_count() {
        Universe::run(1, |comm| {
            let err = comm.allgatherv(&[1, 2, 3], &[2]).unwrap_err();
            assert!(matches!(err, MpiError::InvalidCounts { .. }));
        });
    }

    #[test]
    fn alltoall_transpose() {
        Universe::run(4, |comm| {
            let me = comm.rank() as u8;
            // block sent to rank d is [me, d]
            let send: Vec<u8> = (0..4).flat_map(|d| [me, d as u8]).collect();
            let recv = comm.alltoall(&send).unwrap();
            let want: Vec<u8> = (0..4).flat_map(|s| [s as u8, me]).collect();
            assert_eq!(recv, want);
        });
    }

    #[test]
    fn alltoallv_irregular() {
        Universe::run(3, |comm| {
            let me = comm.rank();
            // rank r sends (r + d + 1) bytes of value r to rank d
            let send_counts: Vec<usize> = (0..3).map(|d| me + d + 1).collect();
            let send_displs = excl_prefix_sum(&send_counts);
            let send: Vec<u8> = (0..3).flat_map(|d| vec![me as u8; me + d + 1]).collect();
            let recv_counts: Vec<usize> = (0..3).map(|s| s + me + 1).collect();
            let recv_displs = excl_prefix_sum(&recv_counts);
            let out = comm
                .alltoallv(
                    &send,
                    &send_counts,
                    &send_displs,
                    &recv_counts,
                    &recv_displs,
                )
                .unwrap();
            let want: Vec<u8> = (0..3).flat_map(|s| vec![s as u8; s + me + 1]).collect();
            assert_eq!(out, want);
        });
    }

    #[test]
    fn reduce_sums_to_root() {
        Universe::run(6, |comm| {
            let op = u64_op();
            let mut buf = encode(&[comm.rank() as u64, 100]);
            comm.reduce(&mut buf, &op, 8, 3).unwrap();
            if comm.rank() == 3 {
                assert_eq!(decode(&buf), vec![15, 600]);
            }
        });
    }

    #[test]
    fn allreduce_everywhere() {
        for p in [1, 2, 3, 4, 7] {
            Universe::run(p, |comm| {
                let op = u64_op();
                let mut buf = encode(&[1, comm.rank() as u64]);
                comm.allreduce(&mut buf, &op, 8).unwrap();
                let n = comm.size() as u64;
                assert_eq!(decode(&buf), vec![n, n * (n - 1) / 2]);
            });
        }
    }

    #[test]
    fn scan_inclusive_prefix() {
        Universe::run(5, |comm| {
            let op = u64_op();
            let mut buf = encode(&[comm.rank() as u64 + 1]);
            comm.scan(&mut buf, &op, 8).unwrap();
            let r = comm.rank() as u64 + 1;
            assert_eq!(decode(&buf), vec![r * (r + 1) / 2]);
        });
    }

    #[test]
    fn exscan_exclusive_prefix() {
        Universe::run(5, |comm| {
            let op = u64_op();
            let buf = encode(&[comm.rank() as u64 + 1]);
            let got = comm.exscan(&buf, &op, 8).unwrap();
            if comm.rank() == 0 {
                assert!(got.is_none());
            } else {
                let r = comm.rank() as u64;
                assert_eq!(decode(&got.unwrap()), vec![r * (r + 1) / 2]);
            }
        });
    }

    #[test]
    fn bruck_matches_linear_alltoall() {
        for p in [2, 3, 5, 8, 13] {
            Universe::run(p, |comm| {
                let me = comm.rank() as u8;
                let send: Vec<u8> = (0..comm.size()).flat_map(|d| [me, d as u8, 0xEE]).collect();
                let linear = {
                    let counts = vec![3usize; comm.size()];
                    let displs = excl_prefix_sum(&counts);
                    comm.alltoallv(&send, &counts, &displs, &counts, &displs)
                        .unwrap()
                };
                let bruck = comm.alltoall_bruck(&send).unwrap();
                assert_eq!(bruck, linear, "p={p}");
            });
        }
    }

    #[test]
    #[cfg(not(feature = "naive"))]
    fn small_alltoall_uses_log_messages() {
        let p = 16;
        let (_, profile) = Universe::run_profiled(p, |comm| {
            let send = vec![1u8; p]; // 1 byte per peer: Bruck path
            comm.alltoall(&send).unwrap();
        });
        // Bruck: log2(16) = 4 envelopes per rank, vs 15 for linear.
        assert_eq!(profile.max_messages_per_rank(), 4);
    }

    #[test]
    fn large_alltoall_stays_linear() {
        let p = 8;
        let (_, profile) = Universe::run_profiled(p, |comm| {
            let send = vec![1u8; p * 1024]; // 1 KiB per peer: direct path
            comm.alltoall(&send).unwrap();
        });
        assert_eq!(profile.max_messages_per_rank(), (p - 1) as u64);
    }

    #[test]
    fn reduce_scatter_block_distributes_reduction() {
        Universe::run(4, |comm| {
            let op = u64_op();
            // Everyone contributes [r, r, r, r] per-block values 1..: block b
            // value = rank + b.
            let vals: Vec<u64> = (0..4).map(|b| comm.rank() as u64 + b).collect();
            let buf = encode(&vals);
            let got = comm.reduce_scatter_block(&buf, &op, 8).unwrap();
            // Sum over ranks of (r + b) = 6 + 4b; rank r receives block r.
            assert_eq!(decode(&got), vec![6 + 4 * comm.rank() as u64]);
        });
    }

    #[test]
    fn reduce_scatter_block_zero_length_contributions() {
        // Empty buffers are a well-formed degenerate case (zero elements
        // per rank), never a panic: every rank gets an empty block back.
        for p in [1, 8] {
            Universe::run(p, |comm| {
                let op = u64_op();
                let got = comm.reduce_scatter_block(&[], &op, 8).unwrap();
                assert!(got.is_empty(), "p={p}");
            });
        }
    }

    #[test]
    fn reduce_scatter_block_indivisible_counts_are_typed_errors() {
        for p in [1, 8] {
            Universe::run(p, |comm| {
                let op = u64_op();
                // 12 bytes: not p u64-blocks at p=8 (12 % 8 != 0), and at
                // p=1 a 12-byte block is not a whole number of u64s.
                let buf = vec![0u8; 12];
                let err = comm.reduce_scatter_block(&buf, &op, 8).unwrap_err();
                assert!(matches!(err, MpiError::InvalidCounts { .. }), "p={p}");
                // elem_size = 0 must be rejected up front, not divide by it.
                let err = comm.reduce_scatter_block(&[], &op, 0).unwrap_err();
                assert!(matches!(err, MpiError::InvalidCounts { .. }), "p={p}");
            });
        }
    }

    #[test]
    fn allgatherv_all_empty_contributions() {
        // Bruck's rounds must tolerate all-zero counts (wire buffers are
        // empty but the round structure is unchanged).
        for p in [1, 8] {
            Universe::run(p, |comm| {
                let counts = vec![0usize; comm.size()];
                let all = comm.allgatherv(&[], &counts).unwrap();
                assert!(all.is_empty(), "p={p}");
            });
        }
    }

    #[test]
    fn allgatherv_sparse_single_contributor() {
        // Only one rank contributes bytes; every cyclic run Bruck builds
        // is empty on one side of the wrap at some round.
        Universe::run(8, |comm| {
            let mine = if comm.rank() == 5 {
                vec![9u8; 3]
            } else {
                vec![]
            };
            let mut counts = vec![0usize; 8];
            counts[5] = 3;
            let all = comm.allgatherv(&mine, &counts).unwrap();
            assert_eq!(all, vec![9u8; 3]);
        });
    }

    #[test]
    fn sendrecv_replace_rotates_ring() {
        Universe::run(3, |comm| {
            let p = comm.size();
            let mut buf = vec![comm.rank() as u8; 4];
            let right = (comm.rank() + 1) % p;
            let left = (comm.rank() + p - 1) % p;
            let st = comm.sendrecv_replace(&mut buf, right, 5, left, 5).unwrap();
            assert_eq!(buf, vec![left as u8; 4]);
            assert_eq!(st.source, left);
        });
    }

    #[test]
    fn excl_prefix_sum_basic() {
        assert_eq!(excl_prefix_sum(&[3, 1, 4]), vec![0, 3, 4]);
        assert!(excl_prefix_sum(&[]).is_empty());
    }

    #[test]
    fn allgather_log_matches_naive() {
        // Power-of-two sizes take recursive doubling, others Bruck; both
        // must agree with the rooted gather+bcast result.
        for p in [2, 3, 4, 5, 6, 7, 8, 12, 16] {
            Universe::run(p, |comm| {
                let send = vec![comm.rank() as u8; 3];
                let log = comm.allgather(&send).unwrap();
                let naive = comm.allgather_naive(&send).unwrap();
                assert_eq!(log, naive, "p={p}");
            });
        }
    }

    #[test]
    fn allgatherv_log_matches_naive_variable_counts() {
        for p in [2, 3, 5, 8, 11, 16] {
            Universe::run(p, |comm| {
                let counts: Vec<usize> = (0..comm.size()).map(|r| (r * 7) % 5 + 1).collect();
                let send = vec![comm.rank() as u8; counts[comm.rank()]];
                let log = comm.allgatherv(&send, &counts).unwrap();
                let naive = comm.allgatherv_naive(&send, &counts).unwrap();
                assert_eq!(log, naive, "p={p}");
            });
        }
    }

    #[test]
    #[cfg(not(feature = "naive"))]
    fn allgather_uses_log_messages() {
        for (p, rounds) in [(16usize, 4u64), (13, 4), (8, 3), (5, 3)] {
            let (_, profile) = Universe::run_profiled(p, |comm| {
                let send = vec![comm.rank() as u8; 4];
                comm.allgather(&send).unwrap();
            });
            assert_eq!(profile.max_messages_per_rank(), rounds, "p={p}");
        }
    }

    #[test]
    fn naive_allgather_is_direct_exchange() {
        let p = 8;
        let (_, profile) = Universe::run_profiled(p, |comm| {
            comm.allgather_naive(&[comm.rank() as u8]).unwrap();
        });
        // Every rank posts its block to every peer: p(p-1) envelopes.
        assert_eq!(profile.total_messages(), (p as u64) * (p as u64 - 1));
    }

    #[test]
    fn bcast_naive_matches_tree() {
        for p in [2, 5, 9] {
            Universe::run(p, |comm| {
                for root in 0..comm.size() {
                    let seed = |r: usize| vec![r as u8; 40];
                    let mut tree = if comm.rank() == root {
                        seed(root)
                    } else {
                        Vec::new()
                    };
                    let mut naive = tree.clone();
                    comm.bcast(&mut tree, root).unwrap();
                    comm.bcast_naive(&mut naive, root).unwrap();
                    assert_eq!(tree, seed(root));
                    assert_eq!(naive, seed(root));
                }
            });
        }
    }

    #[test]
    fn barrier_naive_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let entered = AtomicUsize::new(0);
        Universe::run(6, |comm| {
            entered.fetch_add(1, Ordering::SeqCst);
            comm.barrier_naive().unwrap();
            assert_eq!(entered.load(Ordering::SeqCst), 6);
        });
    }

    #[test]
    fn reduce_naive_matches_tree() {
        Universe::run(7, |comm| {
            let op = u64_op();
            let mut tree = encode(&[comm.rank() as u64, 5]);
            let mut naive = tree.clone();
            comm.reduce(&mut tree, &op, 8, 2).unwrap();
            comm.reduce_naive(&mut naive, &op, 8, 2).unwrap();
            if comm.rank() == 2 {
                assert_eq!(decode(&tree), vec![21, 35]);
                assert_eq!(tree, naive);
            }
        });
    }

    #[test]
    fn alltoall_linear_matches_bruck() {
        Universe::run(6, |comm| {
            let me = comm.rank() as u8;
            let send: Vec<u8> = (0..comm.size()).flat_map(|d| [me, d as u8]).collect();
            let linear = comm.alltoall_linear(&send).unwrap();
            let bruck = comm.alltoall_bruck(&send).unwrap();
            assert_eq!(linear, bruck);
        });
    }

    #[test]
    fn collectives_count_messages_per_rank() {
        let (_, profile) = Universe::run_profiled(4, |comm| {
            let mut counts = vec![0usize; 4];
            counts.iter_mut().for_each(|c| *c = 8);
            let send = vec![0u8; 8 * 4];
            let displs = excl_prefix_sum(&counts);
            comm.alltoallv(&send, &counts, &displs, &counts, &displs)
                .unwrap();
        });
        // Dense alltoallv: every rank posts p-1 envelopes.
        assert_eq!(profile.max_messages_per_rank(), 3);
        assert_eq!(profile.total_calls(Op::Alltoallv), 4);
    }
}

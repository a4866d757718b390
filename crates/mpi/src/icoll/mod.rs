//! Nonblocking collectives: explicit schedules advanced by the progress
//! machinery.
//!
//! Every i-collective is an explicit state machine ([`CollSm`]) — a schedule
//! of send / receive / local-combine steps derived from the blocking
//! algorithms in [`crate::coll`] (dissemination barrier, binomial
//! bcast/reduce, Bruck allgatherv/alltoall, linear alltoallv). Issuing the
//! operation validates the arguments, posts the schedule's *initial* sends
//! (sends are eager on every backend, so they never block), and registers
//! the machine with the universe's [`Registry`]. From then on the schedule
//! is advanced by whichever thread delivers a collective-tagged envelope to
//! the owner's mailbox:
//!
//! * **shm** — the peer rank-thread that performed the [`Mailbox::post`];
//! * **socket** — the epoll progress engine's routing (its `EngineHooks`
//!   feed decoded frames into `Mailbox::post`);
//! * **shm-xproc** — the ring consumer thread, or a *waiting receiver*
//!   draining its own rings through the mailbox progress poll.
//!
//! All three funnel through one hook: [`Mailbox::set_coll_notifier`] fires
//! after the gate bump of every collective-tagged deposit. The caller never
//! has to poll — compute proceeds while peers' deliveries push the schedule
//! forward — and `wait` parks on the owner's mailbox gate like any blocking
//! receive, stepping the machines on each wakeup.
//!
//! # Ownership
//!
//! Buffers *move into* the operation (paper §III-E) and come back out of
//! [`RawCollRequest::wait`]/[`RawCollRequest::test`]. A dropped incomplete
//! request is adopted by the registry so the schedule still completes —
//! peers depend on this rank's relay sends — and is pruned once settled.
//!
//! # Tags and multiple outstanding collectives
//!
//! Each issue draws one (or, for multi-round Bruck schedules, several)
//! per-communicator collective sequence numbers at issue time. Because MPI
//! requires every rank to issue collectives in the same order, the derived
//! [`coll_tag`]s are rank-synchronized, and any number of collectives can
//! be outstanding at once: their envelopes cannot be confused. Collective
//! tags are invisible to `ANY_TAG` receives, so user-tag traffic (e.g. the
//! NBX sparse alltoall polling an `ibarrier`) cannot interfere.

mod sm;

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, TryLockError, Weak};
use std::time::{Duration, Instant};

use crate::coll::excl_prefix_sum;
use crate::error::{MpiError, MpiResult};
use crate::profile::Op;
use crate::tag::{coll_tag, Tag};
use crate::transport::{Envelope, Mailbox, MatchKey, Payload};
use crate::universe::UniverseState;
use crate::{Combine, RawComm};

use sm::{
    IallgathervSm, IallreduceSm, IalltoallBruckSm, IalltoallvSm, IbarrierSm, IbcastSm, IreduceSm,
};

/// Owned reduction operator of the nonblocking reductions, called once per
/// incoming buffer like [`crate::ByteOp`] (see [`crate::Combine`]). The
/// blocking twins borrow their operator; an i-reduction outlives its call
/// site, so the engine needs ownership — and any thread that delivers an
/// envelope may run the combine, hence `Send` (and `Sync`, which every
/// `Combine` is). `Arc::new(closure)` works for a per-element closure.
pub type OwnedByteOp = Arc<dyn Combine + Send>;

/// Everything a schedule step may touch, borrowed for the duration of one
/// [`CollSm::step`] call. Lives on the stack of whichever thread advances
/// the machine (the owner in `wait`, or a delivering peer thread).
pub(crate) struct StepCx<'a> {
    state: &'a UniverseState,
    group: &'a [usize],
    ctx: u64,
    /// Communicator-local rank owning the schedule.
    rank: usize,
}

impl StepCx<'_> {
    fn me_global(&self) -> usize {
        self.group[self.rank]
    }

    fn mailbox(&self) -> &Mailbox {
        self.state.mailbox(self.me_global())
    }

    /// Eager send to communicator-local rank `dest` — the schedule-step
    /// mirror of `RawComm::post_to` (records LogGP counters and the trace
    /// `Post` event; messages to failed ranks are dropped, the failure
    /// surfaces at the peers' receives).
    fn post(&self, dest: usize, tag: Tag, payload: Payload) {
        let dest_global = self.group[dest];
        self.state.counters[self.me_global()].record_message(payload.len());
        if self.state.trace.tracing() {
            self.state.trace.record(crate::trace::EventKind::Post {
                src: self.me_global() as u32,
                dst: dest_global as u32,
                tag,
                ctx: self.ctx,
                bytes: payload.len() as u64,
            });
        }
        if self.state.is_failed(dest_global) {
            return;
        }
        self.state.transport.post(
            dest_global,
            Envelope {
                src: self.me_global(),
                tag,
                ctx: self.ctx,
                payload,
                ack: None,
            },
        );
    }

    /// Nonblocking take of the schedule's next expected envelope.
    fn try_take(&self, src: usize, tag: Tag) -> Option<Payload> {
        let key = MatchKey {
            src: self.group[src],
            tag,
            ctx: self.ctx,
        };
        self.mailbox().try_take(key).map(|d| d.payload)
    }
}

/// One nonblocking collective as an explicit state machine. `step` runs
/// every transition whose input is available and **never blocks**;
/// `Ok(Some(out))` means the schedule completed with result bytes `out`.
/// Machines are stepped under the owning [`CollCell`]'s lock, so `&mut
/// self` is exclusive even though any thread may drive it.
pub(crate) trait CollSm: Send {
    /// Advances as far as currently possible.
    fn step(&mut self, cx: &StepCx<'_>) -> MpiResult<Option<Vec<u8>>>;

    /// Communicator-local ranks whose message this schedule is blocked on
    /// (for fault attribution: if one of them is gone, the schedule can
    /// never complete).
    fn waiting_on(&self, out: &mut Vec<usize>);
}

/// Lifecycle of one issued collective.
enum CollCore {
    /// Schedule still has pending receives. `clean` caches the fault epoch
    /// *and the awaited-rank set* for which the fault scan last came up
    /// empty, so the (lock-protected) scan reruns only when a mark lands
    /// or the schedule advances onto different peers. Epoch alone is not
    /// enough: a mark can be applied while the schedule still waits on a
    /// live rank, and when it then advances onto the already-marked dead
    /// one, no further epoch bump ever arrives to retrigger the scan.
    Running {
        sm: Box<dyn CollSm>,
        clean: Option<(u64, Vec<usize>)>,
    },
    /// Completed; result bytes awaiting pickup by the owner.
    Done(Vec<u8>),
    /// Result already handed to the owner.
    Taken,
    /// Failed; the error is sticky (every later `wait`/`test` re-reports).
    Failed(MpiError),
}

/// Shared cell holding one in-flight collective: the request owns one
/// `Arc`, the registry holds a `Weak` (upgraded on every delivery).
pub(crate) struct CollCell {
    /// Weak: the registry lives inside `UniverseState`, and the universe's
    /// transport threads reach cells through it — a strong reference here
    /// would cycle `state → transport → notifier → registry → cell → state`.
    state: Weak<UniverseState>,
    group: Arc<Vec<usize>>,
    ctx: u64,
    rank: usize,
    op: Op,
    core: Mutex<CollCore>,
    /// Set by a delivery thread that lost the `try_lock` race in
    /// [`CollCell::advance`] after depositing an envelope: the lock holder
    /// may already have stepped past the matching `try_take`, so it must
    /// re-step before returning. Without this an *orphaned* schedule (owner
    /// computing, or gone) strands the envelope — no later event would
    /// re-step the cell, and peers waiting on its relay sends hang.
    rerun: AtomicBool,
}

impl CollCell {
    /// Steps the machine; returns `true` once the cell is settled (done or
    /// failed). `blocking` is only ever passed by the *owner* on its own
    /// cell — delivery threads use `try_lock` so two of them (or a nested
    /// notifier re-entered through a relay send) skip instead of deadlock.
    ///
    /// A skipping thread cannot assume the lock holder will observe its
    /// just-deposited envelope (the holder may be past the `try_take`
    /// already), so skip-and-rerun guarantees a step *begins* after every
    /// deposit: the skipper sets [`CollCell::rerun`] and retries the lock
    /// once; the holder, after releasing, clears the flag and re-steps if
    /// it was set. Either the skipper's retry wins the lock (it steps
    /// itself), or the lock is held by a thread whose release — and
    /// therefore whose post-release flag check — comes after the flag was
    /// set. A step that begins after a deposit completes always sees the
    /// envelope: `try_take` and the deposit serialize on the lane mutex.
    pub(crate) fn advance(&self, blocking: bool) -> bool {
        let Some(state) = self.state.upgrade() else {
            return true;
        };
        let mut core = if blocking {
            self.core.lock().expect("coll cell poisoned")
        } else {
            match self.core.try_lock() {
                Ok(g) => g,
                Err(TryLockError::WouldBlock) => {
                    self.rerun.store(true, Ordering::Release);
                    match self.core.try_lock() {
                        Ok(g) => g,
                        // Still held: that holder's release is after our
                        // store, so its exit check will see the flag.
                        Err(TryLockError::WouldBlock) => return false,
                        Err(TryLockError::Poisoned(e)) => panic!("coll cell poisoned: {e}"),
                    }
                }
                Err(TryLockError::Poisoned(e)) => panic!("coll cell poisoned: {e}"),
            }
        };
        loop {
            if self.step_locked(&state, &mut core) {
                return true;
            }
            drop(core);
            if !self.rerun.swap(false, Ordering::AcqRel) {
                return false;
            }
            // The flag was set while we held the lock: an envelope may have
            // landed after our step passed its `try_take`. Re-step — unless
            // another thread holds the lock now; it acquired after the
            // deposit, so its step observes the envelope.
            core = match self.core.try_lock() {
                Ok(g) => g,
                Err(TryLockError::WouldBlock) => return false,
                Err(TryLockError::Poisoned(e)) => panic!("coll cell poisoned: {e}"),
            };
        }
    }

    /// One non-blocking run of the schedule plus the fault scan, under the
    /// core lock. Returns `true` when the cell settled (done or failed).
    fn step_locked(&self, state: &UniverseState, core: &mut CollCore) -> bool {
        let metrics_on = state.trace.metrics().enabled();
        let start_ns = if metrics_on { state.trace.now_ns() } else { 0 };
        let settled = self.step_locked_inner(state, core);
        if metrics_on {
            use crate::metrics::{Counter, Hist};
            let rm = state.trace.metrics().rank(self.group[self.rank]);
            rm.add(Counter::CollSteps, 1);
            rm.observe(
                Hist::CollStep,
                state.trace.now_ns().saturating_sub(start_ns),
            );
        }
        settled
    }

    fn step_locked_inner(&self, state: &UniverseState, core: &mut CollCore) -> bool {
        let CollCore::Running { sm, clean } = core else {
            return true;
        };
        let cx = StepCx {
            state,
            group: &self.group,
            ctx: self.ctx,
            rank: self.rank,
        };
        match sm.step(&cx) {
            Ok(Some(out)) => {
                *core = CollCore::Done(out);
                true
            }
            Ok(None) => {
                let epoch = state.fault_epoch.load(Ordering::Acquire);
                let mut waiting = Vec::new();
                sm.waiting_on(&mut waiting);
                if matches!(clean, Some((e, w)) if *e == epoch && *w == waiting) {
                    return false;
                }
                if state.is_revoked(self.ctx) {
                    *core = CollCore::Failed(MpiError::Revoked);
                    return true;
                }
                // Two ways a fault dooms an incomplete schedule: a rank we
                // directly await is gone (failed *or* finished — it will
                // never post), or any group member has *failed*. The latter
                // catches transitive stalls: the schedule may be waiting on
                // a live rank whose own step awaits the dead one, so the
                // dead rank never shows up in our `waiting_on`. A member
                // that finished cleanly is exempt unless directly awaited —
                // its `Bye` proves it posted everything first.
                let doomed = waiting.iter().any(|&l| state.is_gone(self.group[l]))
                    || self.group.iter().any(|&g| state.is_failed(g));
                if !doomed {
                    *clean = Some((epoch, waiting));
                    return false;
                }
                // A waited-on rank is gone — but envelopes it posted before
                // dying may have landed between the dry step above and the
                // epoch read (the Acquire on `fault_epoch` makes them
                // visible now), so re-step before giving up: a rank that
                // *entered* the schedule and then finished is not a fault.
                match sm.step(&cx) {
                    Ok(Some(out)) => {
                        *core = CollCore::Done(out);
                        true
                    }
                    Err(e) => {
                        *core = CollCore::Failed(e);
                        true
                    }
                    Ok(None) => {
                        waiting.clear();
                        sm.waiting_on(&mut waiting);
                        // Attribute the failure to an actually *failed*
                        // member first: a directly awaited rank that merely
                        // finished may only be collateral (it left after the
                        // real fault wedged the schedule).
                        let culprit = self
                            .group
                            .iter()
                            .copied()
                            .find(|&g| state.is_failed(g))
                            .or_else(|| {
                                waiting
                                    .iter()
                                    .map(|&l| self.group[l])
                                    .find(|&g| state.is_gone(g))
                            });
                        match culprit {
                            Some(rank) => {
                                *core = CollCore::Failed(MpiError::ProcFailed { rank });
                                true
                            }
                            None => {
                                *clean = Some((epoch, waiting));
                                false
                            }
                        }
                    }
                }
            }
            Err(e) => {
                *core = CollCore::Failed(e);
                true
            }
        }
    }

    /// Owner-side completion check: takes the result if done, clones the
    /// sticky error if failed, `None` while running.
    fn try_finish(&self) -> Option<MpiResult<Vec<u8>>> {
        let mut core = self.core.lock().expect("coll cell poisoned");
        match &*core {
            CollCore::Running { .. } => None,
            CollCore::Failed(e) => Some(Err(e.clone())),
            CollCore::Taken => Some(Ok(Vec::new())),
            CollCore::Done(_) => {
                let CollCore::Done(out) = std::mem::replace(&mut *core, CollCore::Taken) else {
                    unreachable!("matched Done above");
                };
                Some(Ok(out))
            }
        }
    }

    fn is_settled(&self) -> bool {
        !matches!(
            &*self.core.lock().expect("coll cell poisoned"),
            CollCore::Running { .. }
        )
    }
}

impl Drop for CollCell {
    fn drop(&mut self) {
        // The registry's fast-path gate counts live cells (incremented in
        // `Registry::attach`). Closing it here — the moment the last `Arc`
        // dies, i.e. when the request is consumed or dropped and any orphan
        // entry pruned — re-opens the delivery fast path immediately;
        // waiting for a sweep to notice the dead weak would keep delivery
        // threads taking both registry locks for every collective-tagged
        // envelope (including blocking collectives') indefinitely.
        if let Some(state) = self.state.upgrade() {
            if state.trace.metrics().enabled() {
                use crate::metrics::{Counter, Gauge};
                let rm = state.trace.metrics().rank(self.group[self.rank]);
                rm.add(Counter::CollsCompleted, 1);
                rm.gauge_sub(Gauge::CollsOutstanding, 1);
            }
            state.icoll.active.fetch_sub(1, Ordering::Release);
        }
    }
}

/// Universe-wide table of in-flight collective schedules, advanced by
/// delivery threads through the mailbox notifier hook.
pub(crate) struct Registry {
    /// `(owner global rank, cell)` — weak so a completed-and-dropped
    /// request vanishes; pruned on every sweep.
    cells: Mutex<Vec<(usize, Weak<CollCell>)>>,
    /// Strong references to schedules whose request was dropped before
    /// completion: peers rely on this rank's relay sends, so the registry
    /// keeps the machine alive until it settles.
    orphans: Mutex<Vec<(usize, Arc<CollCell>)>>,
    /// Fast-path gate: delivery threads skip the locks entirely while no
    /// collective is outstanding anywhere in this process. Counts live
    /// cells — incremented by [`Registry::attach`], decremented by
    /// `CollCell::drop` (not by sweeps, which may lag arbitrarily).
    active: AtomicUsize,
}

impl Registry {
    pub(crate) fn new() -> Self {
        Self {
            cells: Mutex::new(Vec::new()),
            orphans: Mutex::new(Vec::new()),
            active: AtomicUsize::new(0),
        }
    }

    /// Registers a freshly-issued cell and (once per mailbox) installs the
    /// notifier that routes this rank's collective-tagged deliveries back
    /// into [`Registry::advance_rank`].
    fn attach(state: &Arc<UniverseState>, owner_global: usize, cell: &Arc<CollCell>) {
        let weak_state = Arc::downgrade(state);
        state.mailbox(owner_global).set_coll_notifier(move || {
            if let Some(s) = weak_state.upgrade() {
                s.icoll.advance_rank(owner_global);
            }
        });
        let reg = &state.icoll;
        reg.cells
            .lock()
            .expect("icoll registry poisoned")
            .push((owner_global, Arc::downgrade(cell)));
        reg.active.fetch_add(1, Ordering::Release);
    }

    /// Adopts a dropped-but-incomplete schedule so delivery threads finish
    /// it on the owner's behalf.
    fn adopt(&self, owner_global: usize, cell: Arc<CollCell>) {
        self.orphans
            .lock()
            .expect("icoll orphans poisoned")
            .push((owner_global, cell));
    }

    /// Steps every outstanding schedule of `owner` (a global rank hosted by
    /// this process). Called from delivery threads via the mailbox notifier
    /// and from the owner's own wait loop. Never holds a registry lock
    /// while stepping — steps may post to peers and re-enter the notifier.
    pub(crate) fn advance_rank(&self, owner: usize) {
        if self.active.load(Ordering::Acquire) == 0 {
            return;
        }
        let todo: Vec<Arc<CollCell>> = {
            let mut cells = self.cells.lock().expect("icoll registry poisoned");
            let mut todo = Vec::new();
            // Dead weaks are only *pruned* here; the fast-path counter was
            // already decremented by the cell's own Drop.
            cells.retain(|(r, w)| match w.upgrade() {
                None => false,
                Some(c) => {
                    if *r == owner {
                        todo.push(c);
                    }
                    true
                }
            });
            todo
        };
        for cell in todo {
            cell.advance(false);
        }
        // Orphans: step this owner's, drop the ones that settled (their
        // weak registry entry then dies and is pruned by the next sweep).
        let mine: Vec<Arc<CollCell>> = {
            let orphans = self.orphans.lock().expect("icoll orphans poisoned");
            orphans
                .iter()
                .filter(|(r, _)| *r == owner)
                .map(|(_, c)| Arc::clone(c))
                .collect()
        };
        if mine.is_empty() {
            return;
        }
        for cell in &mine {
            cell.advance(false);
        }
        self.orphans
            .lock()
            .expect("icoll orphans poisoned")
            .retain(|(_, c)| !c.is_settled());
    }
}

/// Handle to one in-flight nonblocking collective at the byte level. The
/// result buffer moves in at issue time and back out of
/// [`RawCollRequest::wait`] / [`RawCollRequest::test`] — the ownership
/// model the paper credits Rust for (§III-E).
///
/// Dropping an incomplete request *abandons the result* but not the
/// schedule: the registry adopts it, so peers that depend on this rank's
/// relay sends still complete (completing every request before a rank
/// returns remains necessary for fault-free teardown, as in MPI).
pub struct RawCollRequest {
    state: Arc<UniverseState>,
    cell: Option<Arc<CollCell>>,
    owner_global: usize,
    /// Accumulated blocked time across *all* wait attempts, so a
    /// timed-out-then-retried wait reports the total in
    /// [`MpiError::Timeout`].
    waited: Duration,
}

impl RawCollRequest {
    /// Nonblocking completion check. Steps every outstanding schedule of
    /// this rank first, so `test` doubles as a progress call (`MPI_Test`'s
    /// role in progress-starved MPI programs). Returns the result buffer
    /// once, then empty buffers on further calls.
    pub fn test(&mut self) -> MpiResult<Option<Vec<u8>>> {
        let Some(cell) = &self.cell else {
            return Ok(Some(Vec::new()));
        };
        self.state.icoll.advance_rank(self.owner_global);
        cell.advance(true);
        match cell.try_finish() {
            None => Ok(None),
            Some(Ok(out)) => {
                self.cell = None;
                Ok(Some(out))
            }
            Some(Err(e)) => Err(e),
        }
    }

    /// Blocks until the schedule completes and returns the result buffer.
    pub fn wait(&mut self) -> MpiResult<Vec<u8>> {
        self.wait_deadline(None)
    }

    /// Like [`RawCollRequest::wait`] with a bounded budget: gives up with
    /// [`MpiError::Timeout`] after `timeout`, leaving the request retryable
    /// (`waited` totals the blocked time across all attempts).
    pub fn wait_timeout(&mut self, timeout: Duration) -> MpiResult<Vec<u8>> {
        self.wait_deadline(Some(Instant::now() + timeout))
    }

    /// [`RawCollRequest::wait`] with an optional absolute deadline — the
    /// form used when one time budget spans several requests.
    pub fn wait_deadline(&mut self, deadline: Option<Instant>) -> MpiResult<Vec<u8>> {
        let Some(cell) = self.cell.clone() else {
            return Ok(Vec::new());
        };
        // Attribute the blocked portion of this wait to the op itself, so
        // compute/comm overlap is visible per-op in Perfetto and the
        // aggregated op tree (issue time recorded only the call counter).
        let _scope = self.state.trace.op_scope(cell.op, self.owner_global);
        let start = Instant::now();
        let no_interrupt = || None;
        let outcome =
            self.state
                .mailbox(self.owner_global)
                .wait_until(&no_interrupt, deadline, |_| {
                    // One pass drives *all* of this rank's outstanding
                    // schedules — progress for collectives issued earlier or
                    // later than this one, exactly like a blocking MPI call
                    // progressing the whole engine.
                    self.state.icoll.advance_rank(self.owner_global);
                    cell.advance(true);
                    cell.try_finish()
                });
        match outcome {
            Ok(Ok(out)) => {
                self.cell = None;
                Ok(out)
            }
            Ok(Err(e)) => {
                self.cell = None;
                Err(e)
            }
            Err(MpiError::Timeout { .. }) => {
                self.waited += start.elapsed();
                Err(MpiError::Timeout {
                    waited: self.waited,
                })
            }
            Err(e) => Err(e),
        }
    }

    /// True once the schedule has settled (completed or failed) — like
    /// `test`, but without consuming the result.
    pub fn is_complete(&self) -> bool {
        match &self.cell {
            None => true,
            Some(cell) => {
                self.state.icoll.advance_rank(self.owner_global);
                cell.advance(true);
                cell.is_settled()
            }
        }
    }
}

impl Drop for RawCollRequest {
    fn drop(&mut self) {
        if let Some(cell) = self.cell.take() {
            cell.advance(true);
            if !cell.is_settled() {
                self.state.icoll.adopt(self.owner_global, cell);
            }
        }
    }
}

impl std::fmt::Debug for RawCollRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RawCollRequest")
            .field("owner", &self.owner_global)
            .field("pending", &self.cell.is_some())
            .finish()
    }
}

impl RawComm {
    /// Issues one collective schedule: `build` validates arguments and
    /// posts the initial sends, then the cell is registered and stepped
    /// once (messages may already be queued from faster peers).
    pub(crate) fn issue_cell(
        &self,
        op: Op,
        build: impl FnOnce(&StepCx<'_>) -> MpiResult<Box<dyn CollSm>>,
    ) -> MpiResult<Arc<CollCell>> {
        if self.state.is_revoked(self.ctx) {
            return Err(MpiError::Revoked);
        }
        self.state.counters[self.my_global_rank()].record_op(op);
        let cx = StepCx {
            state: &self.state,
            group: &self.group,
            ctx: self.ctx,
            rank: self.rank,
        };
        let sm = build(&cx)?;
        let cell = Arc::new(CollCell {
            state: Arc::downgrade(&self.state),
            group: Arc::clone(&self.group),
            ctx: self.ctx,
            rank: self.rank,
            op,
            core: Mutex::new(CollCore::Running { sm, clean: None }),
            rerun: AtomicBool::new(false),
        });
        if self.state.trace.metrics().enabled() {
            use crate::metrics::{Counter, Gauge};
            let rm = self.state.trace.metrics().rank(self.my_global_rank());
            rm.add(Counter::CollsIssued, 1);
            rm.gauge_add(Gauge::CollsOutstanding, 1);
        }
        Registry::attach(&self.state, self.my_global_rank(), &cell);
        cell.advance(true);
        Ok(cell)
    }

    fn issue(
        &self,
        op: Op,
        build: impl FnOnce(&StepCx<'_>) -> MpiResult<Box<dyn CollSm>>,
    ) -> MpiResult<RawCollRequest> {
        let cell = self.issue_cell(op, build)?;
        Ok(RawCollRequest {
            state: Arc::clone(&self.state),
            cell: Some(cell),
            owner_global: self.my_global_rank(),
            waited: Duration::ZERO,
        })
    }

    /// Nonblocking broadcast: the root moves `buf` in; every rank's `wait`
    /// returns the broadcast bytes (the non-root input buffer is dropped,
    /// mirroring `bcast` overwriting it). Binomial tree.
    pub fn ibcast(&self, buf: Vec<u8>, root: usize) -> MpiResult<RawCollRequest> {
        let tag = coll_tag(self.next_coll_seq());
        self.issue(Op::Ibcast, |cx| {
            if root >= cx.group.len() {
                return Err(MpiError::InvalidRank {
                    rank: root,
                    size: cx.group.len(),
                });
            }
            Ok(Box::new(IbcastSm::start(cx, tag, root, buf)))
        })
    }

    /// Nonblocking binomial reduce to `root`: `wait` returns the reduced
    /// buffer at the root and an empty buffer elsewhere.
    pub fn ireduce(
        &self,
        buf: Vec<u8>,
        op: OwnedByteOp,
        elem_size: usize,
        root: usize,
    ) -> MpiResult<RawCollRequest> {
        let tag = coll_tag(self.next_coll_seq());
        self.issue(Op::Ireduce, |cx| {
            check_reduce_args(cx, &buf, elem_size, root)?;
            Ok(Box::new(IreduceSm::new(cx, tag, root, buf, op, elem_size)))
        })
    }

    /// Nonblocking reduce-to-all (binomial reduce to rank 0, then binomial
    /// broadcast): `wait` returns the reduced buffer on every rank.
    pub fn iallreduce(
        &self,
        buf: Vec<u8>,
        op: OwnedByteOp,
        elem_size: usize,
    ) -> MpiResult<RawCollRequest> {
        let reduce_tag = coll_tag(self.next_coll_seq());
        let bcast_tag = coll_tag(self.next_coll_seq());
        self.issue(Op::Iallreduce, |cx| {
            check_reduce_args(cx, &buf, elem_size, 0)?;
            Ok(Box::new(IallreduceSm::new(
                cx, reduce_tag, bcast_tag, buf, op, elem_size,
            )))
        })
    }

    /// Nonblocking allgather of equal-size blocks: `wait` returns the
    /// rank-ordered concatenation. Bruck's algorithm (descending).
    pub fn iallgather(&self, send: Vec<u8>) -> MpiResult<RawCollRequest> {
        let counts = vec![send.len(); self.size()];
        let tag = coll_tag(self.next_coll_seq());
        self.issue(Op::Iallgather, |cx| {
            Ok(Box::new(IallgathervSm::start(cx, tag, send, &counts)))
        })
    }

    /// Variable-size counterpart of [`RawComm::iallgather`].
    pub fn iallgatherv(&self, send: Vec<u8>, recv_counts: &[usize]) -> MpiResult<RawCollRequest> {
        let tag = coll_tag(self.next_coll_seq());
        self.issue(Op::Iallgatherv, |cx| {
            if recv_counts.len() != cx.group.len() {
                return Err(MpiError::InvalidCounts {
                    what: "allgatherv recv_counts length != comm size",
                });
            }
            if recv_counts[cx.rank] != send.len() {
                return Err(MpiError::InvalidCounts {
                    what: "allgatherv: own recv_count != send length",
                });
            }
            Ok(Box::new(IallgathervSm::start(cx, tag, send, recv_counts)))
        })
    }

    /// Nonblocking fixed-size all-to-all: `send` is `p` equal byte blocks,
    /// block `i` goes to rank `i`; `wait` returns the received blocks in
    /// rank order. Dispatches like the blocking twin: Bruck's log-round
    /// algorithm for small blocks, linear otherwise.
    pub fn ialltoall(&self, send: Vec<u8>) -> MpiResult<RawCollRequest> {
        let p = self.size();
        if !send.len().is_multiple_of(p) {
            // Checked before any sequence number is drawn so an erroneous
            // call leaves the rank-synchronized tag stream untouched.
            self.state.counters[self.my_global_rank()].record_op(Op::Ialltoall);
            return Err(MpiError::InvalidCounts {
                what: "alltoall send length not divisible by comm size",
            });
        }
        let block = send.len() / p;
        #[cfg(not(feature = "naive"))]
        if p > 4 && block <= crate::coll::BRUCK_THRESHOLD_BYTES {
            // One tag per round, reserved up front (⌈log₂ p⌉ of them).
            let mut tags = Vec::new();
            let mut k = 1usize;
            while k < p {
                tags.push(coll_tag(self.next_coll_seq()));
                k <<= 1;
            }
            return self.issue(Op::Ialltoall, |cx| {
                Ok(Box::new(IalltoallBruckSm::start(cx, tags, send, block)))
            });
        }
        let counts = vec![block; p];
        let displs = excl_prefix_sum(&counts);
        let tag = coll_tag(self.next_coll_seq());
        self.issue(Op::Ialltoall, |cx| {
            Ok(Box::new(IalltoallvSm::start(
                cx, tag, send, &counts, &displs, &counts, &displs,
            )?))
        })
    }

    /// Nonblocking variable all-to-all with explicit byte counts and
    /// displacements; `wait` returns the assembled receive buffer. Linear
    /// (one envelope per peer), like the blocking `alltoallv`.
    pub fn ialltoallv(
        &self,
        send: Vec<u8>,
        send_counts: &[usize],
        send_displs: &[usize],
        recv_counts: &[usize],
        recv_displs: &[usize],
    ) -> MpiResult<RawCollRequest> {
        let tag = coll_tag(self.next_coll_seq());
        self.issue(Op::Ialltoallv, |cx| {
            Ok(Box::new(IalltoallvSm::start(
                cx,
                tag,
                send,
                send_counts,
                send_displs,
                recv_counts,
                recv_displs,
            )?))
        })
    }

    /// Nonblocking barrier as the trivial case of the schedule executor: a
    /// dissemination schedule of zero-byte envelopes. Crate-internal — the
    /// public face is [`RawComm::ibarrier`], which wraps this in a
    /// [`crate::request::RawRequest`] for drop-in `MPI_Request` semantics.
    pub(crate) fn ibarrier_req(&self) -> MpiResult<RawCollRequest> {
        let tag = coll_tag(self.next_coll_seq());
        self.issue(Op::Ibarrier, |cx| Ok(Box::new(IbarrierSm::start(cx, tag))))
    }
}

fn check_reduce_args(cx: &StepCx<'_>, buf: &[u8], elem_size: usize, root: usize) -> MpiResult<()> {
    if root >= cx.group.len() {
        return Err(MpiError::InvalidRank {
            rank: root,
            size: cx.group.len(),
        });
    }
    if elem_size == 0 || !buf.len().is_multiple_of(elem_size) {
        return Err(MpiError::InvalidCounts {
            what: "reduce buffer not a multiple of elem_size",
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Universe;

    #[test]
    fn fast_path_gate_closes_when_last_request_drops() {
        // Regression: `active` was only decremented when a sweep noticed a
        // dead weak, so after the last request completed and dropped, the
        // delivery fast path stayed closed until some *later* coll-tagged
        // delivery or kick happened to sweep — indefinitely, if none came.
        // Now the cell's Drop closes the gate, so after both ranks have
        // completed and dropped their requests (ordered by a p2p handshake,
        // which never enters the collective engine) the counter must read
        // zero with no further collective traffic.
        Universe::run(2, |comm| {
            let mut req = comm.iallgather(vec![comm.rank() as u8]).unwrap();
            assert_eq!(req.wait().unwrap(), vec![0, 1]);
            let peer = 1 - comm.rank();
            comm.send(peer, 9, b"done").unwrap();
            comm.recv(peer, 9).unwrap();
            assert_eq!(comm.state.icoll.active.load(Ordering::Acquire), 0);
        });
    }
}

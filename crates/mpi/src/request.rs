//! Non-blocking request handles.
//!
//! A [`RawRequest`] is the substrate analog of `MPI_Request`: it is produced
//! by `isend`/`issend`/`irecv`/`ibarrier` and completed with
//! [`RawRequest::test`] or [`RawRequest::wait`]. Receive requests yield the
//! message payload and a [`Status`]; send/barrier requests yield nothing.
//!
//! The ownership-based safety guarantees the paper builds (§III-E) live one
//! level up, in `kamping::nonblocking` — at this level requests are as
//! unsafe-to-misuse as MPI's, by design.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::{MpiError, MpiResult};
use crate::icoll::RawCollRequest;
use crate::p2p::Status;
use crate::transport::{AckCell, MatchKey, Payload};
use crate::universe::{wait_interrupt, UniverseState};

/// The status a completed send or barrier reports.
const DONE_STATUS: Status = Status {
    source: usize::MAX,
    tag: 0,
    bytes: 0,
};

/// What a request is waiting for.
pub(crate) enum RequestKind {
    /// Eager send: already complete.
    SendDone,
    /// Synchronous-mode send: complete when the ack cell is set, error if
    /// the destination dies before matching (avoids an unbounded wait).
    Ssend {
        ack: Arc<AckCell>,
        dest_global: usize,
    },
    /// Receive: complete when a matching envelope arrives.
    Recv {
        key: MatchKey,
        me: usize,
        group: Arc<Vec<usize>>,
    },
    /// Non-blocking collective (today only the barrier arrives here):
    /// complete when the icoll engine settles the schedule.
    Coll(RawCollRequest),
}

/// Payload of a completed request.
#[derive(Debug, PartialEq, Eq)]
pub enum Completion {
    /// A send or barrier completed.
    Done,
    /// A receive completed with this payload and status.
    Message(Vec<u8>, Status),
}

/// A non-blocking operation in flight.
pub struct RawRequest {
    state: Arc<UniverseState>,
    kind: Option<RequestKind>,
    /// Blocked time accumulated across *all* timed-out wait attempts, so a
    /// retried [`RawRequest::wait_timeout`] reports the total in
    /// [`MpiError::Timeout`] instead of restarting the clock each attempt.
    waited: Duration,
}

impl RawRequest {
    pub(crate) fn new(state: Arc<UniverseState>, kind: RequestKind) -> Self {
        Self {
            state,
            kind: Some(kind),
            waited: Duration::ZERO,
        }
    }

    /// True once [`test`](Self::test)/[`wait`](Self::wait) has completed the
    /// request (subsequent calls are no-ops, mirroring
    /// `MPI_REQUEST_NULL` semantics).
    pub fn is_complete(&self) -> bool {
        self.kind.is_none()
    }

    fn local_status(group: &[usize], src_global: usize, tag: crate::Tag, bytes: usize) -> Status {
        let source = group
            .iter()
            .position(|&g| g == src_global)
            .unwrap_or(usize::MAX);
        Status { source, tag, bytes }
    }

    /// Polls for completion. For receives, returns the payload/status pair
    /// when complete. A completed (null) request reports `Some(None)`-like
    /// behaviour: it is complete with no payload.
    pub fn test(&mut self) -> MpiResult<Option<(Vec<u8>, Status)>> {
        Ok(self
            .test_payload()?
            .map(|(payload, status)| (payload.into_vec(), status)))
    }

    /// [`RawRequest::test`] returning the transport payload, which holds
    /// the sender's allocation when nothing else references it.
    pub fn test_payload(&mut self) -> MpiResult<Option<(Payload, Status)>> {
        Ok(self
            .poll()?
            .map(|done| done.unwrap_or_else(|| (Payload::from_slice(&[]), DONE_STATUS))))
    }

    /// Polls for completion, distinguishing send/barrier completions from
    /// message deliveries.
    pub fn test_any(&mut self) -> MpiResult<Option<Completion>> {
        Ok(self.poll()?.map(|done| match done {
            None => Completion::Done,
            Some((payload, status)) => Completion::Message(payload.into_vec(), status),
        }))
    }

    /// One completion check: `None` while pending, `Some(None)` for a
    /// completed send or barrier, `Some(Some(..))` for a delivered message.
    fn poll(&mut self) -> MpiResult<Option<Option<(Payload, Status)>>> {
        let Some(kind) = self.kind.take() else {
            return Ok(Some(None));
        };
        match kind {
            RequestKind::SendDone => Ok(Some(None)),
            RequestKind::Ssend { ack, dest_global } => {
                if ack.is_set() {
                    Ok(Some(None))
                } else if self.state.is_gone(dest_global) {
                    // The destination will never match this message.
                    Err(crate::MpiError::ProcFailed { rank: dest_global })
                } else {
                    self.kind = Some(RequestKind::Ssend { ack, dest_global });
                    Ok(None)
                }
            }
            RequestKind::Recv { key, me, group } => {
                // Surface failures/revocation even while polling.
                let interrupt = wait_interrupt(&self.state, key.src, key.ctx);
                let mailbox = self.state.mailbox(me);
                let d = match mailbox.try_take(key) {
                    Some(d) => d,
                    // As in the blocking wait: a message deposited just
                    // before the peer was marked gone is still matched.
                    None => match interrupt() {
                        Some(err) => mailbox.try_take(key).ok_or(err)?,
                        None => {
                            self.kind = Some(RequestKind::Recv { key, me, group });
                            return Ok(None);
                        }
                    },
                };
                let status = Self::local_status(&group, d.src, d.tag, d.payload.len());
                Ok(Some(Some((d.payload, status))))
            }
            RequestKind::Coll(mut req) => match req.test() {
                Ok(Some(_)) => Ok(Some(None)),
                Ok(None) => {
                    self.kind = Some(RequestKind::Coll(req));
                    Ok(None)
                }
                Err(e) => Err(e),
            },
        }
    }

    /// Blocks until the request completes. Never polls: receives and
    /// collectives block on the owning mailbox's condvar, synchronous-send
    /// acks block on the universe [`crate::transport::Hub`].
    pub fn wait(&mut self) -> MpiResult<(Vec<u8>, Status)> {
        self.wait_deadline(None)
    }

    /// [`RawRequest::wait`] returning the transport payload, which holds
    /// the sender's allocation when nothing else references it.
    pub fn wait_payload(&mut self) -> MpiResult<(Payload, Status)> {
        self.wait_payload_deadline(None)
    }

    /// Like [`RawRequest::wait`], but gives up after `timeout` with
    /// [`MpiError::Timeout`]. The request stays *pending* on timeout (it
    /// can be waited on again with a longer budget), so a hung peer —
    /// severed link, silent death the failure detector has not caught yet
    /// — surfaces as an error instead of blocking forever.
    pub fn wait_timeout(&mut self, timeout: Duration) -> MpiResult<(Vec<u8>, Status)> {
        self.wait_deadline(Some(Instant::now() + timeout))
    }

    /// [`RawRequest::wait`] with an optional absolute deadline — the form
    /// used when one budget spans several requests. `None` waits forever.
    pub fn wait_deadline(&mut self, deadline: Option<Instant>) -> MpiResult<(Vec<u8>, Status)> {
        let (payload, status) = self.wait_payload_deadline(deadline)?;
        Ok((payload.into_vec(), status))
    }

    fn wait_payload_deadline(&mut self, deadline: Option<Instant>) -> MpiResult<(Payload, Status)> {
        let start = Instant::now();
        let done = || (Payload::from_slice(&[]), DONE_STATUS);
        match self.kind.take() {
            None | Some(RequestKind::SendDone) => Ok(done()),
            Some(RequestKind::Recv { key, me, group }) => {
                let interrupt = wait_interrupt(&self.state, key.src, key.ctx);
                match self
                    .state
                    .mailbox(me)
                    .take_blocking_deadline(key, &interrupt, deadline)
                {
                    Ok(d) => {
                        let status = Self::local_status(&group, d.src, d.tag, d.payload.len());
                        Ok((d.payload, status))
                    }
                    Err(e) => {
                        if e.is_timeout() {
                            self.kind = Some(RequestKind::Recv { key, me, group });
                            self.waited += start.elapsed();
                            return Err(MpiError::Timeout {
                                waited: self.waited,
                            });
                        }
                        Err(e)
                    }
                }
            }
            Some(RequestKind::Ssend { ack, dest_global }) => {
                let state = Arc::clone(&self.state);
                let verdict = state.hub.wait_until_deadline(
                    || {
                        if ack.is_set() {
                            Some(Ok(()))
                        } else if state.is_gone(dest_global) {
                            Some(Err(crate::MpiError::ProcFailed { rank: dest_global }))
                        } else {
                            None
                        }
                    },
                    deadline,
                );
                match verdict {
                    Some(Ok(())) => Ok(done()),
                    Some(Err(e)) => Err(e),
                    None => {
                        self.kind = Some(RequestKind::Ssend { ack, dest_global });
                        self.waited += start.elapsed();
                        Err(MpiError::Timeout {
                            waited: self.waited,
                        })
                    }
                }
            }
            Some(RequestKind::Coll(mut req)) => match req.wait_deadline(deadline) {
                Ok(_) => Ok(done()),
                Err(e) => {
                    if e.is_timeout() {
                        // The inner request accumulates `waited` across
                        // attempts itself.
                        self.kind = Some(RequestKind::Coll(req));
                    }
                    Err(e)
                }
            },
        }
    }

    /// Completes all requests, returning receive payloads in request order
    /// (`MPI_Waitall`).
    pub fn wait_all(requests: &mut [RawRequest]) -> MpiResult<Vec<(Vec<u8>, Status)>> {
        requests.iter_mut().map(RawRequest::wait).collect()
    }

    /// Waits until at least one request completes and returns
    /// `(index, payload, status)` (`MPI_Waitany`). Returns `None` when every
    /// request was already complete.
    pub fn wait_any(requests: &mut [RawRequest]) -> MpiResult<Option<(usize, Vec<u8>, Status)>> {
        if requests.iter().all(RawRequest::is_complete) {
            return Ok(None);
        }
        loop {
            for (i, r) in requests.iter_mut().enumerate() {
                if r.is_complete() {
                    continue;
                }
                if let Some(done) = r.test()? {
                    return Ok(Some((i, done.0, done.1)));
                }
            }
            std::thread::yield_now();
        }
    }

    /// Tests all requests; returns completions (index, payload, status) of
    /// those that finished this poll (`MPI_Testsome`).
    pub fn test_some(requests: &mut [RawRequest]) -> MpiResult<Vec<(usize, Vec<u8>, Status)>> {
        let mut done = Vec::new();
        for (i, r) in requests.iter_mut().enumerate() {
            if r.is_complete() {
                continue;
            }
            if let Some((payload, status)) = r.test()? {
                done.push((i, payload, status));
            }
        }
        Ok(done)
    }
}

/// A simple pool collecting requests for bulk completion — the substrate
/// analog of KaMPIng's unbounded request pool (§III-E). The bounded variant
/// lives in the binding layer.
#[derive(Default)]
pub struct RequestPool {
    requests: Vec<RawRequest>,
    /// Completions gathered by partial polls, keyed by insertion index.
    completed: HashMap<usize, (Vec<u8>, Status)>,
}

impl RequestPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a request; returns its index within the pool.
    pub fn push(&mut self, request: RawRequest) -> usize {
        self.requests.push(request);
        self.requests.len() - 1
    }

    /// Number of pooled requests (complete or not).
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True if the pool holds no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Completes every pooled request; returns payload/status pairs in
    /// insertion order and empties the pool.
    pub fn wait_all(&mut self) -> MpiResult<Vec<(Vec<u8>, Status)>> {
        let mut out: Vec<(Vec<u8>, Status)> = Vec::with_capacity(self.requests.len());
        for (i, r) in self.requests.iter_mut().enumerate() {
            if let Some(done) = self.completed.remove(&i) {
                out.push(done);
            } else {
                out.push(r.wait()?);
            }
        }
        self.requests.clear();
        self.completed.clear();
        Ok(out)
    }

    /// Polls every incomplete request once; true when all are complete.
    pub fn test_all(&mut self) -> MpiResult<bool> {
        let mut all = true;
        for (i, r) in self.requests.iter_mut().enumerate() {
            if self.completed.contains_key(&i) {
                continue;
            }
            match r.test()? {
                Some(done) => {
                    self.completed.insert(i, done);
                }
                None => all = false,
            }
        }
        Ok(all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Universe;

    #[test]
    fn isend_request_completes_immediately() {
        Universe::run(2, |comm| {
            if comm.rank() == 0 {
                let mut req = comm.isend(1, 0, b"x".to_vec()).unwrap();
                assert!(req.test().unwrap().is_some());
                assert!(req.is_complete());
                // Completed requests stay complete.
                assert!(req.test().unwrap().is_some());
            } else {
                comm.recv(0, 0).unwrap();
            }
        });
    }

    #[test]
    fn wait_all_orders_by_request() {
        Universe::run(3, |comm| {
            if comm.rank() == 0 {
                let mut reqs = vec![comm.irecv(1, 0).unwrap(), comm.irecv(2, 0).unwrap()];
                let done = RawRequest::wait_all(&mut reqs).unwrap();
                assert_eq!(done[0].0, b"from-1");
                assert_eq!(done[1].0, b"from-2");
            } else {
                let msg = format!("from-{}", comm.rank());
                comm.send(0, 0, msg.as_bytes()).unwrap();
            }
        });
    }

    #[test]
    fn wait_any_returns_some_completion() {
        Universe::run(2, |comm| {
            if comm.rank() == 0 {
                let mut reqs = vec![comm.irecv(1, 0).unwrap()];
                let (idx, payload, _) = RawRequest::wait_any(&mut reqs).unwrap().unwrap();
                assert_eq!(idx, 0);
                assert_eq!(payload, b"only");
                assert!(RawRequest::wait_any(&mut reqs).unwrap().is_none());
            } else {
                comm.send(0, 0, b"only").unwrap();
            }
        });
    }

    #[test]
    fn wait_timeout_accumulates_waited_across_attempts() {
        use std::time::Duration;
        Universe::run(2, |comm| {
            if comm.rank() == 0 {
                let mut req = comm.irecv(1, 7).unwrap();
                let budget = Duration::from_millis(40);
                let crate::MpiError::Timeout { waited: w1 } = req.wait_timeout(budget).unwrap_err()
                else {
                    panic!("expected timeout");
                };
                let crate::MpiError::Timeout { waited: w2 } = req.wait_timeout(budget).unwrap_err()
                else {
                    panic!("expected timeout");
                };
                // The second report must include the first attempt's wait:
                // total-so-far, not per-attempt.
                assert!(
                    w2 >= w1 + budget,
                    "waited must accumulate: w1={w1:?} w2={w2:?}"
                );
                comm.send(1, 0, b"go").unwrap();
                let (payload, _) = req.wait().unwrap();
                assert_eq!(payload, b"late");
            } else {
                comm.recv(0, 0).unwrap();
                comm.send(0, 7, b"late").unwrap();
            }
        });
    }

    #[test]
    fn pool_wait_all() {
        Universe::run(4, |comm| {
            if comm.rank() == 0 {
                let mut pool = RequestPool::new();
                for src in 1..comm.size() {
                    pool.push(comm.irecv(src, 0).unwrap());
                }
                assert_eq!(pool.len(), 3);
                let done = pool.wait_all().unwrap();
                assert!(pool.is_empty());
                let bytes: Vec<u8> = done.iter().map(|(p, _)| p[0]).collect();
                assert_eq!(bytes, vec![1, 2, 3]);
            } else {
                comm.send(0, 0, &[comm.rank() as u8]).unwrap();
            }
        });
    }

    #[test]
    fn pool_test_all_makes_progress() {
        Universe::run(2, |comm| {
            if comm.rank() == 0 {
                let mut pool = RequestPool::new();
                pool.push(comm.irecv(1, 0).unwrap());
                comm.send(1, 1, b"go").unwrap();
                while !pool.test_all().unwrap() {
                    std::thread::yield_now();
                }
                let done = pool.wait_all().unwrap();
                assert_eq!(done[0].0, b"late");
            } else {
                comm.recv(0, 1).unwrap();
                comm.send(0, 0, b"late").unwrap();
            }
        });
    }
}

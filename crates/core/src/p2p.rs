//! Point-to-point builders: `send`, `recv`, `isend`, `irecv`.
//!
//! The named parameters here are [`crate::destination`], [`crate::source`],
//! [`crate::tag`] and [`crate::recv_count`]; buffers work exactly as in the
//! collectives. Non-blocking variants return the ownership-safe
//! [`NonBlockingResult`] of §III-E.

use kamping_mpi::Status;

use crate::communicator::Communicator;
use crate::error::KResult;
use crate::nonblocking::{check_expected, NonBlockingResult};
use crate::params::{Destination, RecvCount, SendBuf, SendBufSlot, Source, TagParam};
use crate::types::{payload_into_pods, pods_into_payload, PodType};

/// Default tag of point-to-point operations when none is named.
pub const DEFAULT_TAG: kamping_mpi::Tag = 0;

/// Builder for a blocking send.
#[must_use = "builders do nothing until .call()"]
pub struct Send<'c, S> {
    comm: &'c Communicator,
    send: S,
    dest: usize,
    tag: kamping_mpi::Tag,
}

/// Builder for a blocking receive of elements of type `T`.
#[must_use = "builders do nothing until .call()"]
pub struct Recv<'c, T> {
    comm: &'c Communicator,
    src: usize,
    tag: kamping_mpi::Tag,
    expected: Option<usize>,
    _t: std::marker::PhantomData<T>,
}

/// Builder for a non-blocking send.
#[must_use = "builders do nothing until .call()"]
pub struct Isend<'c, S> {
    comm: &'c Communicator,
    send: S,
    dest: usize,
    tag: kamping_mpi::Tag,
    synchronous: bool,
}

/// Builder for a non-blocking receive of elements of type `T`.
#[must_use = "builders do nothing until .call()"]
pub struct Irecv<'c, T> {
    comm: &'c Communicator,
    src: usize,
    tag: kamping_mpi::Tag,
    expected: Option<usize>,
    _t: std::marker::PhantomData<T>,
}

impl Communicator {
    /// Starts a blocking send of `send_buf` to `destination`.
    pub fn send<X>(&self, send_buf: SendBuf<X>, destination: Destination) -> Send<'_, SendBuf<X>> {
        Send {
            comm: self,
            send: send_buf,
            dest: destination.0,
            tag: DEFAULT_TAG,
        }
    }

    /// Starts a blocking receive from `source`.
    pub fn recv<T: PodType>(&self, source: Source) -> Recv<'_, T> {
        Recv {
            comm: self,
            src: source.0,
            tag: DEFAULT_TAG,
            expected: None,
            _t: std::marker::PhantomData,
        }
    }

    /// Starts a non-blocking send; the buffer is moved in and handed back
    /// by `wait()` (§III-E).
    pub fn isend<X>(
        &self,
        send_buf: SendBuf<X>,
        destination: Destination,
    ) -> Isend<'_, SendBuf<X>> {
        Isend {
            comm: self,
            send: send_buf,
            dest: destination.0,
            tag: DEFAULT_TAG,
            synchronous: false,
        }
    }

    /// Starts a non-blocking *synchronous-mode* send (completes only once
    /// matched — the NBX building block).
    pub fn issend<X>(
        &self,
        send_buf: SendBuf<X>,
        destination: Destination,
    ) -> Isend<'_, SendBuf<X>> {
        Isend {
            comm: self,
            send: send_buf,
            dest: destination.0,
            tag: DEFAULT_TAG,
            synchronous: true,
        }
    }

    /// Starts a non-blocking receive.
    pub fn irecv<T: PodType>(&self, source: Source) -> Irecv<'_, T> {
        Irecv {
            comm: self,
            src: source.0,
            tag: DEFAULT_TAG,
            expected: None,
            _t: std::marker::PhantomData,
        }
    }

    /// Non-blocking probe: status of a matching pending message, if any.
    pub fn iprobe<T: PodType>(
        &self,
        source: Source,
        tag_param: TagParam,
    ) -> KResult<Option<Status>> {
        Ok(self.raw().iprobe(source.0, tag_param.0)?)
    }
}

impl<'c, S> Send<'c, S> {
    /// Names the message tag.
    pub fn tag(mut self, t: kamping_mpi::Tag) -> Self {
        self.tag = t;
        self
    }

    /// Accepts the [`TagParam`] object form.
    pub fn tag_param(mut self, t: TagParam) -> Self {
        self.tag = t.0;
        self
    }

    /// Executes the send.
    pub fn call<T>(self) -> KResult<()>
    where
        T: PodType,
        S: SendBufSlot<T>,
    {
        let Send {
            comm,
            send,
            dest,
            tag,
        } = self;
        // A borrowed buffer is copied once, an owned one not at all; the
        // `Vec<T>` travels as the payload, and a receiver on the shm
        // backend takes it over as is.
        comm.raw()
            .send_payload(dest, tag, pods_into_payload(send.into_vec()))?;
        Ok(())
    }
}

impl<'c, T: PodType> Recv<'c, T> {
    /// Names the message tag.
    pub fn tag(mut self, t: kamping_mpi::Tag) -> Self {
        self.tag = t;
        self
    }

    /// Declares the expected element count (validated on delivery).
    pub fn recv_count(mut self, n: usize) -> Self {
        self.expected = Some(n);
        self
    }

    /// Accepts the [`RecvCount`] object form.
    pub fn recv_count_param(mut self, n: RecvCount) -> Self {
        self.expected = Some(n.0);
        self
    }

    /// Executes the receive; returns the elements and the delivery status.
    pub fn call(self) -> KResult<(Vec<T>, Status)> {
        let Recv {
            comm,
            src,
            tag,
            expected,
            ..
        } = self;
        let (payload, status) = comm.raw().recv_payload(src, tag)?;
        let data = payload_into_pods::<T>(payload)?;
        check_expected(&data, expected)?;
        Ok((data, status))
    }
}

impl<'c, S> Isend<'c, S> {
    /// Names the message tag.
    pub fn tag(mut self, t: kamping_mpi::Tag) -> Self {
        self.tag = t;
        self
    }

    /// Executes the non-blocking send; the returned result owns the buffer
    /// until completion.
    pub fn call<T>(self) -> KResult<NonBlockingResult<T>>
    where
        T: PodType,
        S: SendBufSlot<T>,
    {
        let Isend {
            comm,
            send,
            dest,
            tag,
            synchronous,
        } = self;
        // The caller gets the buffer back from `wait()`, so the payload is
        // the one encode copy.
        let wire = pods_into_payload(send.slice().to_vec());
        let req = if synchronous {
            comm.raw().issend_payload(dest, tag, wire)?
        } else {
            comm.raw().isend_payload(dest, tag, wire)?
        };
        let buf = send.reclaim().unwrap_or_default();
        Ok(NonBlockingResult::send(req, buf))
    }
}

impl<'c, T: PodType> Irecv<'c, T> {
    /// Names the message tag.
    pub fn tag(mut self, t: kamping_mpi::Tag) -> Self {
        self.tag = t;
        self
    }

    /// Declares the expected element count (validated on delivery) —
    /// paper Fig. 6's `recv_count(42)`.
    pub fn recv_count(mut self, n: usize) -> Self {
        self.expected = Some(n);
        self
    }

    /// Executes the non-blocking receive.
    pub fn call(self) -> KResult<NonBlockingResult<T>> {
        let Irecv {
            comm,
            src,
            tag,
            expected,
            ..
        } = self;
        let req = comm.raw().irecv(src, tag)?;
        Ok(NonBlockingResult::recv(req, expected))
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::types::{pod_as_bytes, PodType};
    use crate::KampingError;

    #[test]
    fn typed_ping_pong_with_tags() {
        crate::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(send_buf(&[1.5f64, 2.5]), destination(1))
                    .tag(4)
                    .call()
                    .unwrap();
                let (got, st) = comm.recv::<i32>(source(1)).tag(5).call().unwrap();
                assert_eq!(got, vec![-1, -2]);
                assert_eq!(st.source, 1);
            } else {
                let (got, _) = comm.recv::<f64>(source(0)).tag(4).call().unwrap();
                assert_eq!(got, vec![1.5, 2.5]);
                comm.send(send_buf(&[-1i32, -2]), destination(0))
                    .tag(5)
                    .call()
                    .unwrap();
            }
        });
    }

    #[test]
    fn any_source_receive() {
        crate::run(3, |comm| {
            if comm.rank() == 0 {
                let mut seen = vec![];
                for _ in 0..2 {
                    let (data, st) = comm.recv::<u8>(any_source()).call().unwrap();
                    seen.push((st.source, data[0]));
                }
                seen.sort_unstable();
                assert_eq!(seen, vec![(1, 10), (2, 20)]);
            } else {
                comm.send(send_buf(&[comm.rank() as u8 * 10]), destination(0))
                    .call()
                    .unwrap();
            }
        });
    }

    #[test]
    fn recv_count_validation_on_blocking_recv() {
        crate::run(2, |comm| {
            if comm.rank() == 0 {
                assert!(comm.recv::<u8>(source(1)).recv_count(3).call().is_ok());
                assert!(comm.recv::<u8>(source(1)).recv_count(3).call().is_err());
            } else {
                comm.send(send_buf(&[1u8, 2, 3]), destination(0))
                    .call()
                    .unwrap();
                comm.send(send_buf(&[1u8]), destination(0)).call().unwrap();
            }
        });
    }

    #[test]
    fn iprobe_sees_pending_message() {
        crate::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(send_buf(&[1u32]), destination(1))
                    .tag(3)
                    .call()
                    .unwrap();
                comm.barrier().unwrap();
            } else {
                comm.barrier().unwrap();
                let st = comm.iprobe::<u32>(source(0), tag(3)).unwrap().unwrap();
                assert_eq!(st.bytes, 4);
                assert!(comm.iprobe::<u32>(source(0), tag(7)).unwrap().is_none());
                comm.recv::<u32>(source(0)).tag(3).call().unwrap();
            }
        });
    }

    /// Sends `data` from rank 0 to rank 1, which receives `[R]`. Returns
    /// the sender's data pointer, the receiver's, and what it received.
    fn hand_over<S: PodType, R: PodType>(data: Vec<S>) -> (usize, usize, Vec<R>) {
        let data = std::sync::Mutex::new(Some(data));
        let out = crate::run(2, |comm| {
            if comm.rank() == 0 {
                let v = data.lock().unwrap().take().unwrap();
                let ptr = v.as_ptr() as usize;
                comm.send(send_buf_owned(v), destination(1)).call().unwrap();
                (ptr, Vec::new())
            } else {
                let (got, _) = comm.recv::<R>(source(0)).call().unwrap();
                (got.as_ptr() as usize, got)
            }
        });
        let [(sent, _), (recvd, got)] = <[_; 2]>::try_from(out).ok().unwrap();
        (sent, recvd, got)
    }

    #[test]
    fn owned_send_hands_its_allocation_to_the_receiver() {
        let data: Vec<u64> = (0..1000).collect();
        let (sent, recvd, got) = hand_over::<u64, u64>(data.clone());
        assert_eq!(sent, recvd, "no copy between send_buf_owned and recv");
        assert_eq!(got, data);
        // Same size and alignment, other type: still no copy.
        let (sent, recvd, got) = hand_over::<u64, f64>(vec![1.5f64.to_bits(); 100]);
        assert_eq!(sent, recvd);
        assert_eq!(got, vec![1.5; 100]);
    }

    #[test]
    fn layouts_that_do_not_fit_are_copied_with_equal_contents() {
        let pairs: Vec<[u32; 2]> = (0..100).map(|i| [i, i + 1]).collect();
        let (sent, recvd, got) = hand_over::<[u32; 2], u64>(pairs.clone());
        assert_ne!(sent, recvd, "alignment 4 cannot become a Vec<u64>");
        let want: Vec<u64> = crate::types::bytes_to_pods(pod_as_bytes(&pairs)).unwrap();
        assert_eq!(got, want);
        // Raw bytes (alignment 1) into u64.
        let words: Vec<u64> = (0..100).map(|i| i * 3).collect();
        let bytes = pod_as_bytes(&words).to_vec();
        let (sent, recvd, got) = hand_over::<u8, u64>(bytes);
        assert_ne!(sent, recvd);
        assert_eq!(got, words);
    }

    #[test]
    fn small_and_empty_messages_ride_inline() {
        let (_, _, got) = hand_over::<u64, u64>(Vec::new());
        assert!(got.is_empty());
        // 32 B fit inline: the receiver's buffer is a fresh one.
        let (sent, recvd, got) = hand_over::<u64, u64>(vec![7, 8, 9, 10]);
        assert_ne!(sent, recvd);
        assert_eq!(got, vec![7, 8, 9, 10]);
    }

    #[test]
    fn partial_elements_are_rejected() {
        crate::run(2, |comm| {
            if comm.rank() == 0 {
                comm.raw().send(1, 0, &[0u8; 12]).unwrap();
                comm.raw().send(1, 0, &[0u8; 36]).unwrap();
            } else {
                for _ in 0..2 {
                    let r = comm.recv::<u64>(source(0)).call();
                    assert!(matches!(r, Err(KampingError::InvalidArgument(_))));
                }
            }
        });
    }

    #[test]
    fn typed_send_reaches_a_raw_receive_byte_for_byte() {
        let data: Vec<u32> = (0..1000).map(|i| i * 7 + 1).collect();
        crate::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(send_buf(&data), destination(1)).call().unwrap();
            } else {
                let (bytes, st) = comm.raw().recv(0, 0).unwrap();
                assert_eq!(bytes, pod_as_bytes(&data));
                assert_eq!(st.bytes, 4000);
            }
        });
    }

    #[test]
    fn unreceived_typed_message_is_freed_at_teardown() {
        crate::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(send_buf_owned(vec![1u64; 1 << 17]), destination(1))
                    .call()
                    .unwrap();
            }
        });
    }

    #[test]
    fn irecv_takes_the_allocation_through_wait_and_test() {
        let out = crate::run(2, |comm| {
            if comm.rank() == 0 {
                let (a, b) = (vec![1u64; 100], vec![2u64; 100]);
                let ptrs = vec![a.as_ptr() as usize, b.as_ptr() as usize];
                comm.send(send_buf_owned(a), destination(1)).call().unwrap();
                comm.send(send_buf_owned(b), destination(1)).call().unwrap();
                ptrs
            } else {
                let waited = comm.irecv::<u64>(source(0)).call().unwrap().wait().unwrap();
                let mut r = comm.irecv::<u64>(source(0)).call().unwrap();
                let tested = loop {
                    if let Some(d) = r.test().unwrap() {
                        break d;
                    }
                    std::thread::yield_now();
                };
                assert_eq!((waited[0], tested[0]), (1, 2));
                vec![waited.as_ptr() as usize, tested.as_ptr() as usize]
            }
        });
        assert_eq!(out[0], out[1]);
    }
}

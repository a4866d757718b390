//! Named parameters (paper §III-A, §III-B).
//!
//! Parameters of a communication call are constructed by small factory
//! functions — [`send_buf`], [`recv_counts`], [`recv_counts_out`], [`root`],
//! … — and attached to a call builder in any order. Presence or absence of
//! each parameter is part of the builder's *type*, so:
//!
//! * required-but-missing parameters are **compile errors** (the `call`
//!   method simply does not exist on that builder state);
//! * the code that computes a defaulted parameter is only instantiated for
//!   builders that actually omit it (monomorphization — the Rust
//!   equivalent of the paper's `constexpr if` claim in §III-H);
//! * `*_out()` parameters change the *return type* of the call: requested
//!   values come back by value in the result object (§III-B), never
//!   through out-pointers.
//!
//! The traits in this module (`*Slot`) are the extraction machinery the
//! builders use; application code only ever touches the factory functions.

use std::marker::PhantomData;

use crate::error::KResult;
use crate::resize::{NoResize, ResizePolicy, ResizeToFit};
use crate::types::{bytes_into_pods, bytes_to_pods, fill_pod_vec_from_bytes, PodType};

/// Type-level marker: this parameter slot was not supplied.
pub struct Unset;

/// Type-level marker: this out-parameter was not requested, so the result
/// object carries no value for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Absent;

// ---------------------------------------------------------------------------
// send buffer
// ---------------------------------------------------------------------------

/// The data a rank contributes to an operation (in-parameter).
pub struct SendBuf<S> {
    pub(crate) data: S,
}

/// Borrows `data` as the send buffer.
pub fn send_buf<T: PodType>(data: &[T]) -> SendBuf<&[T]> {
    SendBuf { data }
}

/// Moves `data` into the call (ownership transfer, §III-E); blocking calls
/// drop it on completion, non-blocking calls return it from `wait()`.
pub fn send_buf_owned<T: PodType>(data: Vec<T>) -> SendBuf<Vec<T>> {
    SendBuf { data }
}

/// Extraction of a send buffer slot.
pub trait SendBufSlot<T: PodType> {
    /// The contributed elements.
    fn slice(&self) -> &[T];
    /// Recovers the owned buffer, if the parameter transferred ownership.
    fn reclaim(self) -> Option<Vec<T>>;
    /// The elements as an owned buffer: moved if the parameter transferred
    /// ownership, copied once otherwise.
    fn into_vec(self) -> Vec<T>;
}

impl<T: PodType> SendBufSlot<T> for SendBuf<&[T]> {
    fn slice(&self) -> &[T] {
        self.data
    }
    fn reclaim(self) -> Option<Vec<T>> {
        None
    }
    fn into_vec(self) -> Vec<T> {
        self.data.to_vec()
    }
}

impl<T: PodType> SendBufSlot<T> for SendBuf<Vec<T>> {
    fn slice(&self) -> &[T] {
        &self.data
    }
    fn reclaim(self) -> Option<Vec<T>> {
        Some(self.data)
    }
    fn into_vec(self) -> Vec<T> {
        self.data
    }
}

// ---------------------------------------------------------------------------
// send-recv buffer (in-place operations, §III-G)
// ---------------------------------------------------------------------------

/// A buffer that is both input and output — the safe spelling of
/// `MPI_IN_PLACE`. Passing `send_recv_buf` instead of `send_buf` selects
/// the in-place variant of an operation; parameters that the in-place call
/// would ignore do not exist on the in-place builders (compile-time
/// enforcement of §III-G).
pub struct SendRecvBuf<S> {
    pub(crate) data: S,
}

/// Borrows `data` mutably as a combined send+receive buffer.
pub fn send_recv_buf<T: PodType>(data: &mut Vec<T>) -> SendRecvBuf<&mut Vec<T>> {
    SendRecvBuf { data }
}

/// Moves `data` into an in-place call; the result returns it by value
/// (enables `data = comm.allgather_inplace(send_recv_buf_owned(data))…`).
pub fn send_recv_buf_owned<T: PodType>(data: Vec<T>) -> SendRecvBuf<Vec<T>> {
    SendRecvBuf { data }
}

/// Extraction of a send-recv buffer slot.
pub trait SendRecvBufSlot<T: PodType> {
    /// What the finished operation hands back (`()` for borrowed buffers,
    /// the buffer itself for owned ones).
    type Out;
    /// Read access to the current contents.
    fn slice(&self) -> &[T];
    /// Replaces the contents with `bytes` (decoded) and finalizes.
    fn replace(self, bytes: &[u8]) -> KResult<Self::Out>;
    /// Finalizes without changing the contents (used where input and
    /// output provably coincide, e.g. at a broadcast's root — no copy).
    fn keep(self) -> Self::Out;
}

impl<T: PodType> SendRecvBufSlot<T> for SendRecvBuf<&mut Vec<T>> {
    type Out = ();
    fn slice(&self) -> &[T] {
        self.data
    }
    fn replace(self, bytes: &[u8]) -> KResult<()> {
        fill_pod_vec_from_bytes(self.data, bytes)
    }
    fn keep(self) {}
}

impl<T: PodType> SendRecvBufSlot<T> for SendRecvBuf<Vec<T>> {
    type Out = Vec<T>;
    fn slice(&self) -> &[T] {
        &self.data
    }
    fn replace(mut self, bytes: &[u8]) -> KResult<Vec<T>> {
        fill_pod_vec_from_bytes(&mut self.data, bytes)?;
        Ok(self.data)
    }
    fn keep(self) -> Vec<T> {
        self.data
    }
}

// ---------------------------------------------------------------------------
// receive buffer
// ---------------------------------------------------------------------------

/// Where received data goes (out-parameter with a resize policy, §III-C).
pub struct RecvBuf<B, P = NoResize> {
    pub(crate) buf: B,
    pub(crate) _policy: PhantomData<P>,
}

/// Writes received data into `buf` under the checking [`NoResize`] policy
/// (no hidden allocation; errors if `buf` is too short).
pub fn recv_buf<T: PodType>(buf: &mut Vec<T>) -> RecvBuf<&mut Vec<T>, NoResize> {
    RecvBuf {
        buf,
        _policy: PhantomData,
    }
}

/// Writes received data into `buf` under policy `P`
/// (`recv_buf_resize::<ResizeToFit, _>(&mut v)`).
pub fn recv_buf_resize<P: ResizePolicy, T: PodType>(buf: &mut Vec<T>) -> RecvBuf<&mut Vec<T>, P> {
    RecvBuf {
        buf,
        _policy: PhantomData,
    }
}

/// Moves `buf` into the call so its allocation is *reused* for the result,
/// which is then returned by value — the paper's answer to "returning by
/// value costs a redundant allocation" (§III-B).
pub fn recv_buf_owned<T: PodType>(buf: Vec<T>) -> RecvBuf<Vec<T>, ResizeToFit> {
    RecvBuf {
        buf,
        _policy: PhantomData,
    }
}

fn decoded_len<T: PodType>(bytes: &[u8]) -> KResult<usize> {
    if T::SIZE == 0 {
        return Ok(0);
    }
    if !bytes.len().is_multiple_of(T::SIZE) {
        return Err(crate::KampingError::InvalidArgument(
            "byte length not a multiple of element size",
        ));
    }
    Ok(bytes.len() / T::SIZE)
}

/// Extraction of a receive buffer slot.
pub trait RecvBufSlot<T: PodType> {
    /// `Vec<T>` when the call returns the data by value, `()` when it was
    /// written through a caller-provided reference.
    type Out;
    /// Decodes `bytes` into the destination and finalizes the slot.
    fn place(self, bytes: &[u8]) -> KResult<Self::Out>;
}

impl<T: PodType> RecvBufSlot<T> for Unset {
    type Out = Vec<T>;
    fn place(self, bytes: &[u8]) -> KResult<Vec<T>> {
        bytes_to_pods(bytes)
    }
}

impl<T: PodType, P: ResizePolicy> RecvBufSlot<T> for RecvBuf<&mut Vec<T>, P> {
    type Out = ();
    fn place(self, bytes: &[u8]) -> KResult<()> {
        if P::EXACT_FIT {
            // No zero-fill: the buffer is overwritten wholesale.
            fill_pod_vec_from_bytes(self.buf, bytes)
        } else {
            let needed = decoded_len::<T>(bytes)?;
            P::prepare(self.buf, needed, T::zeroed())?;
            bytes_into_pods(bytes, self.buf)?;
            Ok(())
        }
    }
}

impl<T: PodType, P: ResizePolicy> RecvBufSlot<T> for RecvBuf<Vec<T>, P> {
    type Out = Vec<T>;
    fn place(mut self, bytes: &[u8]) -> KResult<Vec<T>> {
        if P::EXACT_FIT {
            fill_pod_vec_from_bytes(&mut self.buf, bytes)?;
        } else {
            let needed = decoded_len::<T>(bytes)?;
            P::prepare(&mut self.buf, needed, T::zeroed())?;
            bytes_into_pods(bytes, &mut self.buf)?;
            self.buf.truncate(needed);
        }
        Ok(self.buf)
    }
}

// ---------------------------------------------------------------------------
// counts / displacements (element units)
// ---------------------------------------------------------------------------

/// Generates an in-parameter wrapper, `_out()` marker, factory functions
/// and the slot traits for one count-like parameter role. Distinct roles
/// get distinct types so that, e.g., passing send counts where receive
/// counts belong cannot compile.
macro_rules! count_param {
    (
        $(#[$doc:meta])* wrapper = $Wrapper:ident, out = $OutMarker:ident,
        slot = $Slot:ident, factory = $factory:ident, factory_owned = $factory_owned:ident,
        factory_out = $factory_out:ident
    ) => {
        $(#[$doc])*
        pub struct $Wrapper<C> {
            pub(crate) values: C,
        }

        /// Marker requesting this parameter to be computed and returned by
        /// value in the result object.
        pub struct $OutMarker;

        /// Supplies the parameter by reference (element counts).
        pub fn $factory(values: &[usize]) -> $Wrapper<&[usize]> {
            $Wrapper { values }
        }

        /// Supplies the parameter by value (ownership transferred).
        pub fn $factory_owned(values: Vec<usize>) -> $Wrapper<Vec<usize>> {
            $Wrapper { values }
        }

        /// Requests the parameter as an out-value (§III-B).
        pub fn $factory_out() -> $OutMarker {
            $OutMarker
        }

        /// Extraction of this parameter's slot.
        pub trait $Slot {
            /// Statically true when the caller supplied values (the
            /// compute-default path is then never instantiated).
            const PROVIDED: bool;
            /// The supplied values; only called when `PROVIDED`.
            fn provided(&self) -> &[usize] {
                unreachable!("slot not provided")
            }
        }

        impl $Slot for Unset {
            const PROVIDED: bool = false;
        }

        impl $Slot for $OutMarker {
            const PROVIDED: bool = false;
        }

        impl<'a> $Slot for $Wrapper<&'a [usize]> {
            const PROVIDED: bool = true;
            fn provided(&self) -> &[usize] {
                self.values
            }
        }

        impl $Slot for $Wrapper<Vec<usize>> {
            const PROVIDED: bool = true;
            fn provided(&self) -> &[usize] {
                &self.values
            }
        }

        impl OutRequest for $OutMarker {
            const REQUESTED: bool = true;
            type Out = Vec<usize>;
            fn wrap(values: Vec<usize>) -> Vec<usize> {
                values
            }
        }

        impl<C> OutRequest for $Wrapper<C> {
            const REQUESTED: bool = false;
            type Out = Absent;
            fn wrap(_values: Vec<usize>) -> Absent {
                Absent
            }
        }
    };
}

/// Whether (and how) a parameter is returned by value in the result object.
pub trait OutRequest {
    /// Statically true when the caller asked for the value.
    const REQUESTED: bool;
    /// `Vec<usize>` when requested, [`Absent`] otherwise.
    type Out;
    /// Wraps the computed values into the result slot.
    fn wrap(values: Vec<usize>) -> Self::Out;
}

impl OutRequest for Unset {
    const REQUESTED: bool = false;
    type Out = Absent;
    fn wrap(_values: Vec<usize>) -> Absent {
        Absent
    }
}

count_param!(
    /// Number of elements received from each rank (in-parameter form).
    wrapper = RecvCounts, out = RecvCountsOut, slot = RecvCountsSlot,
    factory = recv_counts, factory_owned = recv_counts_owned, factory_out = recv_counts_out
);

count_param!(
    /// Number of elements sent to each rank (in-parameter form).
    wrapper = SendCounts, out = SendCountsOut, slot = SendCountsSlot,
    factory = send_counts, factory_owned = send_counts_owned, factory_out = send_counts_out
);

count_param!(
    /// Element offset at which each rank's received block starts.
    wrapper = RecvDispls, out = RecvDisplsOut, slot = RecvDisplsSlot,
    factory = recv_displs, factory_owned = recv_displs_owned, factory_out = recv_displs_out
);

count_param!(
    /// Element offset at which each rank's outgoing block starts.
    wrapper = SendDispls, out = SendDisplsOut, slot = SendDisplsSlot,
    factory = send_displs, factory_owned = send_displs_owned, factory_out = send_displs_out
);

// ---------------------------------------------------------------------------
// scalar parameters
// ---------------------------------------------------------------------------

/// The root rank of a rooted collective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Root(pub usize);

/// Names the root rank of a rooted collective.
pub fn root(rank: usize) -> Root {
    Root(rank)
}

/// The destination rank of a point-to-point send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Destination(pub usize);

/// Names the destination of a send.
pub fn destination(rank: usize) -> Destination {
    Destination(rank)
}

/// The source rank of a receive (possibly the any-source wildcard).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Source(pub usize);

/// Names the source of a receive.
pub fn source(rank: usize) -> Source {
    Source(rank)
}

/// Matches a message from any source.
pub fn any_source() -> Source {
    Source(kamping_mpi::ANY_SOURCE)
}

/// A message tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TagParam(pub kamping_mpi::Tag);

/// Names the message tag of a point-to-point operation.
pub fn tag(value: kamping_mpi::Tag) -> TagParam {
    TagParam(value)
}

/// Expected element count of a typed receive (used by `irecv`, where the
/// value is needed before any message arrived).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvCount(pub usize);

/// Names the expected element count of a receive.
pub fn recv_count(elements: usize) -> RecvCount {
    RecvCount(elements)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_buf_borrow_and_own() {
        let v = vec![1u32, 2];
        let p = send_buf(&v);
        assert_eq!(SendBufSlot::<u32>::slice(&p), &[1, 2]);
        assert!(p.reclaim().is_none());

        let p = send_buf_owned(v);
        assert_eq!(SendBufSlot::<u32>::slice(&p), &[1, 2]);
        assert_eq!(p.reclaim(), Some(vec![1, 2]));
    }

    #[test]
    fn recv_buf_slots_place_bytes() {
        let wire: Vec<u8> = [7u32, 8].iter().flat_map(|v| v.to_le_bytes()).collect();

        // Unset: fresh vector by value.
        let out: Vec<u32> = RecvBufSlot::<u32>::place(Unset, &wire).unwrap();
        assert_eq!(out, vec![7, 8]);

        // Borrowed with NoResize: too small errors, exact fits.
        let mut buf = vec![0u32; 1];
        assert!(recv_buf(&mut buf).place(&wire).is_err());
        let mut buf = vec![0u32; 2];
        recv_buf(&mut buf).place(&wire).unwrap();
        assert_eq!(buf, vec![7, 8]);

        // Borrowed with ResizeToFit: grows.
        let mut buf = Vec::new();
        recv_buf_resize::<ResizeToFit, u32>(&mut buf)
            .place(&wire)
            .unwrap();
        assert_eq!(buf, vec![7, 8]);

        // Owned: capacity reused, returned by value.
        let buf = Vec::with_capacity(16);
        let cap_before = buf.capacity();
        let out = recv_buf_owned::<u32>(buf).place(&wire).unwrap();
        assert_eq!(out, vec![7, 8]);
        assert_eq!(out.capacity(), cap_before);
    }

    #[test]
    fn count_slots_report_presence() {
        fn provided<S: RecvCountsSlot>(s: &S) -> bool {
            let _ = s;
            S::PROVIDED
        }
        assert!(!provided(&Unset));
        assert!(!provided(&recv_counts_out()));
        let c = [1usize, 2];
        assert!(provided(&recv_counts(&c)));
        assert_eq!(recv_counts(&c).provided(), &[1, 2]);
        assert_eq!(recv_counts_owned(vec![3, 4]).provided(), &[3, 4]);
    }

    #[test]
    fn out_request_wraps_or_discards() {
        const { assert!(<RecvCountsOut as OutRequest>::REQUESTED) };
        assert_eq!(<RecvCountsOut as OutRequest>::wrap(vec![1]), vec![1]);
        const { assert!(!<Unset as OutRequest>::REQUESTED) };
        let _: Absent = <Unset as OutRequest>::wrap(vec![1]);
    }

    #[test]
    fn send_recv_buf_replaces_contents() {
        let wire: Vec<u8> = [5u64, 6, 7].iter().flat_map(|v| v.to_le_bytes()).collect();
        let mut v = vec![1u64];
        send_recv_buf(&mut v).replace(&wire).unwrap();
        assert_eq!(v, vec![5, 6, 7]);

        let out = send_recv_buf_owned(vec![9u64; 10]).replace(&wire).unwrap();
        assert_eq!(out, vec![5, 6, 7]);
    }

    #[test]
    fn scalar_params() {
        assert_eq!(root(3), Root(3));
        assert_eq!(destination(1), Destination(1));
        assert_eq!(source(0), Source(0));
        assert_eq!(any_source(), Source(kamping_mpi::ANY_SOURCE));
        assert_eq!(tag(9), TagParam(9));
        assert_eq!(recv_count(42), RecvCount(42));
    }
}

//! `reduce` / `allreduce` / `scan` / `exscan` builders.
//!
//! The reduction operation is a named parameter too: any `Fn(T, T) -> T`
//! closure works (the "reduction via lambda" feature the MPI forum asked
//! for, §II), and [`ops`] provides the standard functors (`ops::sum()`,
//! `ops::min()`, …) that play the role of `std::plus` mapping to
//! `MPI_SUM`. A builder without an `op` has no `call` method — forgetting
//! the operation is a compile error, not a runtime one.

use std::marker::PhantomData;

use kamping_mpi::Combine;

use crate::communicator::Communicator;
use crate::error::{KResult, KampingError};
use crate::params::{Absent, SendBuf, SendBufSlot, SendRecvBufSlot, Unset};
use crate::result::CallResult;
use crate::types::{pod_as_bytes, pod_from_bytes, pod_value_as_bytes, PodType};

/// Standard reduction functors (the `std::plus` → `MPI_SUM` mapping).
pub mod ops {
    /// Addition.
    pub fn sum<T: std::ops::Add<Output = T>>() -> impl Fn(T, T) -> T + Copy + Sync {
        |a, b| a + b
    }

    /// Multiplication.
    pub fn prod<T: std::ops::Mul<Output = T>>() -> impl Fn(T, T) -> T + Copy + Sync {
        |a, b| a * b
    }

    /// Minimum (PartialOrd; ties keep the accumulator, NaNs propagate the
    /// right operand's position semantics like `MPI_MIN` on floats).
    pub fn min<T: PartialOrd>() -> impl Fn(T, T) -> T + Copy + Sync {
        |a, b| if b < a { b } else { a }
    }

    /// Maximum.
    pub fn max<T: PartialOrd>() -> impl Fn(T, T) -> T + Copy + Sync {
        |a, b| if b > a { b } else { a }
    }

    /// Bitwise and.
    pub fn bit_and<T: std::ops::BitAnd<Output = T>>() -> impl Fn(T, T) -> T + Copy + Sync {
        |a, b| a & b
    }

    /// Bitwise or.
    pub fn bit_or<T: std::ops::BitOr<Output = T>>() -> impl Fn(T, T) -> T + Copy + Sync {
        |a, b| a | b
    }

    /// Bitwise xor.
    pub fn bit_xor<T: std::ops::BitXor<Output = T>>() -> impl Fn(T, T) -> T + Copy + Sync {
        |a, b| a ^ b
    }
}

/// The supplied reduction operation (named-parameter slot).
pub struct OpHolder<F> {
    f: F,
}

/// Extraction of the reduction-operation slot. Only [`OpHolder`]
/// implements it, so `call()` without `.op(…)` does not typecheck.
pub trait ReduceOpSlot<T> {
    /// Combines two elements.
    fn combine(&self, a: T, b: T) -> T;
}

impl<T, F: Fn(T, T) -> T> ReduceOpSlot<T> for OpHolder<F> {
    fn combine(&self, a: T, b: T) -> T {
        (self.f)(a, b)
    }
}

macro_rules! reduce_like_builder {
    ($(#[$doc:meta])* $Name:ident, entry = $entry:ident, $(#[$idoc:meta])* inplace = $InplaceName:ident, entry_inplace = $entry_inplace:ident) => {
        $(#[$doc])*
        #[must_use = "builders do nothing until .call()"]
        pub struct $Name<'c, S, F> {
            comm: &'c Communicator,
            send: S,
            op: F,
            root: usize,
        }

        /// In-place variant of the same operation (`send_recv_buf`).
        $(#[$idoc])*
        #[must_use = "builders do nothing until .call()"]
        pub struct $InplaceName<'c, B, F> {
            comm: &'c Communicator,
            buf: B,
            op: F,
            root: usize,
        }

        impl Communicator {
            /// Starts the operation on `send_buf`; attach the reduction
            /// with `.op(…)`.
            pub fn $entry<X>(&self, send_buf: SendBuf<X>) -> $Name<'_, SendBuf<X>, Unset> {
                $Name { comm: self, send: send_buf, op: Unset, root: 0 }
            }

            /// Starts the in-place variant on `send_recv_buf`.
            pub fn $entry_inplace<B>(&self, send_recv_buf: B) -> $InplaceName<'_, B, Unset> {
                $InplaceName { comm: self, buf: send_recv_buf, op: Unset, root: 0 }
            }
        }

        impl<'c, S, F> $Name<'c, S, F> {
            /// Supplies the reduction operation (any `Fn(T, T) -> T`).
            pub fn op<G>(self, f: G) -> $Name<'c, S, OpHolder<G>> {
                $Name { comm: self.comm, send: self.send, op: OpHolder { f }, root: self.root }
            }

            /// Names the root rank (only meaningful for rooted reductions).
            pub fn root(mut self, rank: usize) -> Self {
                self.root = rank;
                self
            }
        }

        impl<'c, B, F> $InplaceName<'c, B, F> {
            /// Supplies the reduction operation (any `Fn(T, T) -> T`).
            pub fn op<G>(self, f: G) -> $InplaceName<'c, B, OpHolder<G>> {
                $InplaceName { comm: self.comm, buf: self.buf, op: OpHolder { f }, root: self.root }
            }

            /// Names the root rank (only meaningful for rooted reductions).
            pub fn root(mut self, rank: usize) -> Self {
                self.root = rank;
                self
            }
        }
    };
}

reduce_like_builder!(
    /// Builder for a rooted `reduce`: the elementwise reduction of
    /// everyone's buffer lands at the root (others receive empty output).
    Reduce, entry = reduce,
    /// Only the root's buffer is replaced by the result; every other
    /// rank's buffer is left unchanged, as MPI leaves a non-root's send
    /// buffer.
    inplace = ReduceInplace, entry_inplace = reduce_inplace
);
reduce_like_builder!(
    /// Builder for `allreduce`: the reduction is received by every rank.
    Allreduce, entry = allreduce, inplace = AllreduceInplace, entry_inplace = allreduce_inplace
);
reduce_like_builder!(
    /// Builder for `scan` (inclusive prefix reduction over ranks).
    Scan, entry = scan, inplace = ScanInplace, entry_inplace = scan_inplace
);
reduce_like_builder!(
    /// Builder for `exscan` (exclusive prefix reduction; rank 0 receives an
    /// empty buffer, as its value is undefined in MPI).
    Exscan, entry = exscan,
    /// Rank 0 has no prefix, so its buffer is left unchanged.
    inplace = ExscanInplace, entry_inplace = exscan_inplace
);

/// The typed reduction operator: `f` folded over every element pair of a
/// received buffer in one loop, monomorphised over `T` and the user's
/// closure so the closure inlines — the substrate calls it once per
/// incoming buffer (a vector user function in MPI terms). Serves the
/// blocking reductions and the nonblocking `ireduce_vec` /
/// `iallreduce_vec`. The byte slices carry no alignment guarantee, so
/// elements are copied in and out.
pub(crate) struct PodOp<T, F> {
    f: F,
    _elem: PhantomData<fn(T, T) -> T>,
}

impl<T: PodType, F: Fn(T, T) -> T + Sync> PodOp<T, F> {
    pub(crate) fn new(f: F) -> Self {
        Self {
            f,
            _elem: PhantomData,
        }
    }
}

impl<T: PodType, F: Fn(T, T) -> T + Sync> Combine for PodOp<T, F> {
    fn combine(&self, acc: &mut [u8], rhs: &[u8], elem_size: usize) {
        debug_assert_eq!(elem_size, T::SIZE);
        for (a, r) in acc.chunks_exact_mut(T::SIZE).zip(rhs.chunks_exact(T::SIZE)) {
            let x = pod_from_bytes::<T>(a).expect("element size");
            let y = pod_from_bytes::<T>(r).expect("element size");
            a.copy_from_slice(pod_value_as_bytes(&(self.f)(x, y)));
        }
    }
}

macro_rules! reduce_call_impls {
    ($Name:ident, $InplaceName:ident, |$comm:ident, $bytes:ident, $bop:ident, $root:ident| $body:expr) => {
        impl<'c, S, F> $Name<'c, S, F> {
            /// Executes the operation; the result semantics are those of the
            /// underlying collective (see the builder docs).
            pub fn call<T>(self) -> KResult<CallResult<Vec<T>>>
            where
                T: PodType,
                S: SendBufSlot<T>,
                F: ReduceOpSlot<T> + Sync,
            {
                let $comm = self.comm;
                let op_slot = self.op;
                let $root = self.root;
                let $bop = PodOp::new(move |a: T, b: T| op_slot.combine(a, b));
                #[allow(unused_mut)]
                let mut $bytes = pod_as_bytes(self.send.slice()).to_vec();
                let result: Option<Vec<u8>> = $body;
                let out = match result {
                    Some(bytes) => crate::types::bytes_to_pods(&bytes)?,
                    None => Vec::new(),
                };
                Ok(CallResult::new(out, Absent, Absent, Absent))
            }
        }

        impl<'c, B, F> $InplaceName<'c, B, F> {
            /// Executes the in-place variant on the `send_recv_buf`.
            pub fn call<T>(self) -> KResult<CallResult<B::Out>>
            where
                T: PodType,
                B: SendRecvBufSlot<T>,
                F: ReduceOpSlot<T> + Sync,
            {
                let $comm = self.comm;
                let op_slot = self.op;
                let $root = self.root;
                let $bop = PodOp::new(move |a: T, b: T| op_slot.combine(a, b));
                #[allow(unused_mut)]
                let mut $bytes = pod_as_bytes(self.buf.slice()).to_vec();
                let result: Option<Vec<u8>> = $body;
                // A rank without a result keeps its buffer unchanged, as
                // MPI leaves a non-root's send buffer.
                let out = match result {
                    Some(bytes) => self.buf.replace(&bytes)?,
                    None => self.buf.keep(),
                };
                Ok(CallResult::new(out, Absent, Absent, Absent))
            }
        }
    };
}

reduce_call_impls!(Reduce, ReduceInplace, |comm, bytes, bop, root| {
    comm.raw()
        .reduce(&mut bytes, &bop, elem_size::<T>()?, root)?;
    (comm.rank() == root).then_some(bytes)
});

reduce_call_impls!(Allreduce, AllreduceInplace, |comm, bytes, bop, root| {
    let _ = root;
    comm.raw().allreduce(&mut bytes, &bop, elem_size::<T>()?)?;
    Some(bytes)
});

reduce_call_impls!(Scan, ScanInplace, |comm, bytes, bop, root| {
    let _ = root;
    comm.raw().scan(&mut bytes, &bop, elem_size::<T>()?)?;
    Some(bytes)
});

reduce_call_impls!(Exscan, ExscanInplace, |comm, bytes, bop, root| {
    let _ = root;
    comm.raw().exscan(&bytes, &bop, elem_size::<T>()?)?
});

fn elem_size<T: PodType>() -> KResult<usize> {
    if T::SIZE == 0 {
        return Err(KampingError::InvalidArgument(
            "cannot reduce zero-sized elements",
        ));
    }
    Ok(T::SIZE)
}

#[cfg(test)]
mod tests {
    use super::ops;
    use crate::prelude::*;

    #[test]
    fn allreduce_sum_vector() {
        crate::run(4, |comm| {
            let mine = vec![1u64, comm.rank() as u64];
            let out = comm
                .allreduce(send_buf(&mine))
                .op(ops::sum())
                .call()
                .unwrap()
                .into_recv_buf();
            assert_eq!(out, vec![4, 6]);
        });
    }

    #[test]
    fn allreduce_with_lambda() {
        crate::run(3, |comm| {
            // "reduction via lambda": keep the lexicographically larger pair.
            let mine = [comm.rank() as u32 % 2, comm.rank() as u32];
            let out = comm
                .allreduce(send_buf(&mine))
                .op(|a: u32, b: u32| a.rotate_left(1) ^ b)
                .call()
                .unwrap()
                .into_recv_buf();
            // Deterministic tree order ⇒ same value on every rank.
            let all = comm.allgather_vec(&out).unwrap();
            assert!(all.chunks(2).all(|c| c == &all[0..2]));
        });
    }

    #[test]
    fn reduce_lands_at_root_only() {
        crate::run(4, |comm| {
            let mine = [comm.rank() as u64 + 1];
            let out = comm
                .reduce(send_buf(&mine))
                .op(ops::prod())
                .root(2)
                .call()
                .unwrap()
                .into_recv_buf();
            if comm.rank() == 2 {
                assert_eq!(out, vec![24]);
            } else {
                assert!(out.is_empty());
            }
        });
    }

    #[test]
    fn scan_and_exscan() {
        crate::run(4, |comm| {
            let r = comm.rank() as u64;
            let inc = comm.scan_single(r + 1, ops::sum()).unwrap();
            assert_eq!(inc, (r + 1) * (r + 2) / 2);

            let exc = comm.exscan_single(r + 1, 0, ops::sum()).unwrap();
            assert_eq!(exc, r * (r + 1) / 2);
        });
    }

    #[test]
    fn min_max_ops() {
        crate::run(5, |comm| {
            let v = comm
                .allreduce_single(comm.rank() as i64 - 2, ops::min())
                .unwrap();
            assert_eq!(v, -2);
            let v = comm
                .allreduce_single(comm.rank() as f64, ops::max())
                .unwrap();
            assert_eq!(v, 4.0);
        });
    }

    #[test]
    fn bitwise_ops() {
        crate::run(3, |comm| {
            let v = comm
                .allreduce_single(1u8 << comm.rank(), ops::bit_or())
                .unwrap();
            assert_eq!(v, 0b111);
            let v = comm
                .allreduce_single(0b110u8 | comm.rank() as u8, ops::bit_and())
                .unwrap();
            assert_eq!(v, 0b110);
            let v = comm.allreduce_single(1u8, ops::bit_xor()).unwrap();
            assert_eq!(v, 1);
        });
    }

    #[test]
    fn allreduce_inplace_reuses_buffer() {
        crate::run(2, |comm| {
            let mut v = vec![comm.rank() as u32 + 1; 3];
            comm.allreduce_inplace(send_recv_buf(&mut v))
                .op(ops::sum())
                .call()
                .unwrap();
            assert_eq!(v, vec![3; 3]);
        });
    }

    #[test]
    fn reduce_inplace_leaves_non_root_buffers_unchanged() {
        crate::run(4, |comm| {
            let mine = vec![comm.rank() as u64 + 1, 10];
            let mut v = mine.clone();
            comm.reduce_inplace(send_recv_buf(&mut v))
                .op(ops::sum())
                .root(2)
                .call()
                .unwrap();
            if comm.rank() == 2 {
                assert_eq!(v, vec![10, 40]);
            } else {
                assert_eq!(v, mine);
            }
            // Owned buffers come back unchanged too.
            let out = comm
                .reduce_inplace(send_recv_buf_owned(mine.clone()))
                .op(ops::sum())
                .root(1)
                .call()
                .unwrap()
                .into_recv_buf();
            assert_eq!(out, if comm.rank() == 1 { vec![10, 40] } else { mine });
        });
    }

    #[test]
    fn scan_inplace_replaces_every_buffer_with_its_prefix() {
        crate::run(4, |comm| {
            let r = comm.rank() as u64;
            let mut v = vec![r + 1, 2];
            comm.scan_inplace(send_recv_buf(&mut v))
                .op(ops::sum())
                .call()
                .unwrap();
            assert_eq!(v, vec![(r + 1) * (r + 2) / 2, 2 * (r + 1)]);
        });
    }

    #[test]
    fn exscan_inplace_leaves_rank_zero_unchanged() {
        crate::run(4, |comm| {
            let r = comm.rank() as u64;
            let mut v = vec![r + 1, 2];
            comm.exscan_inplace(send_recv_buf(&mut v))
                .op(ops::sum())
                .call()
                .unwrap();
            if r == 0 {
                assert_eq!(v, vec![1, 2]);
            } else {
                assert_eq!(v, vec![r * (r + 1) / 2, 2 * r]);
            }
        });
    }

    #[test]
    fn float_reduction_tree_depends_on_p_motivating_repro_reduce() {
        // Documented non-guarantee: with floats, different communicator
        // sizes may give different roundings — exactly why §V-C exists.
        // Here we only check the reduction completes and is close.
        for p in [1, 2, 3, 4] {
            crate::run(p, |comm| {
                let x = 1.0f64 / (comm.rank() as f64 + 3.0);
                let s = comm.allreduce_single(x, ops::sum()).unwrap();
                let want: f64 = (0..comm.size()).map(|r| 1.0 / (r as f64 + 3.0)).sum();
                assert!((s - want).abs() < 1e-12);
            });
        }
    }
}

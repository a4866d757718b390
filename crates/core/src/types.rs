//! The type system (paper §III-D).
//!
//! KaMPIng maps language types onto wire representations at compile time.
//! Three tiers, mirroring §III-D1..D3:
//!
//! 1. **Static types** — [`PodType`]: types that are trivially copyable
//!    with *no padding* and *no invalid bit patterns* are transmitted as
//!    their raw bytes, the "contiguous bytes" default the paper recommends
//!    (§III-D4) because it avoids per-field gather loops. Implemented for
//!    the built-in numeric types and fixed-size arrays thereof; user
//!    structs opt in through [`impl_pod!`](crate::impl_pod), whose
//!    compile-time size check rejects padded structs (the reflection-based
//!    safety PFR provides in C++).
//! 2. **Dynamic types** — runtime-described layouts via
//!    [`kamping_mpi::dtype::TypeDesc`]; the [`struct_desc!`](crate::struct_desc)
//!    macro builds a field-wise `TypeDesc::Struct` for padded structs
//!    (gaps are skipped on the wire, like `MPI_Type_create_struct`).
//! 3. **Serialization** — arbitrary heap-backed data through the explicit
//!    [`crate::as_serialized`] adapter (see [`crate::serialize`]).

use kamping_mpi::transport::{Payload, WireBuf};

use crate::error::{KResult, KampingError};

/// Marker for types transmitted as raw bytes.
///
/// # Safety
///
/// Implementors must guarantee, exactly like `bytemuck::Pod`:
/// * the type is `Copy` with no interior mutability or pointers/references;
/// * it has **no padding bytes** (every byte of its representation is part
///   of a field), and
/// * **every bit pattern is a valid value** (rules out `bool`, `char`,
///   enums, and NonZero types).
///
/// Use [`impl_pod!`](crate::impl_pod) for structs — it statically asserts
/// the no-padding requirement from the declared field types.
pub unsafe trait PodType: Copy + Send + 'static {
    /// Wire size of one element.
    const SIZE: usize = std::mem::size_of::<Self>();

    /// The all-zero value (valid for every `PodType` by contract).
    fn zeroed() -> Self {
        // SAFETY: PodType guarantees all bit patterns are valid.
        unsafe { std::mem::zeroed() }
    }
}

macro_rules! impl_pod_builtin {
    ($($ty:ty),+) => {
        $(
            // SAFETY: built-in numeric types have no padding and accept
            // every bit pattern.
            unsafe impl PodType for $ty {}
        )+
    };
}

impl_pod_builtin!(u8, u16, u32, u64, u128, i8, i16, i32, i64, i128, usize, isize, f32, f64);

// SAFETY: arrays of pod elements are pod (no padding between elements of a
// type without padding, all bit patterns valid elementwise).
unsafe impl<T: PodType, const N: usize> PodType for [T; N] {}

/// Declares a user struct as a [`PodType`].
///
/// Lists the field types; a compile-time assertion checks that their sizes
/// sum to the struct's size, i.e. that the struct has **no padding** — the
/// case where KaMPIng's contiguous-bytes default applies. Padded structs
/// fail to compile; use [`struct_desc!`](crate::struct_desc) (field-wise
/// dynamic type) or reorder/pad the fields explicitly instead.
///
/// ```
/// use kamping::impl_pod;
///
/// #[derive(Clone, Copy)]
/// struct Particle {
///     position: [f64; 3],
///     mass: f64,
/// }
/// impl_pod!(Particle: [f64; 3], f64);
/// ```
///
/// The caller must list the field types truthfully (the macro cannot see
/// the struct definition); lying about them is as unsound as a wrong
/// `MPI_Datatype` in C.
#[macro_export]
macro_rules! impl_pod {
    ($ty:ty : $($field_ty:ty),+ $(,)?) => {
        const _: () = {
            assert!(
                ::std::mem::size_of::<$ty>() == 0usize $(+ ::std::mem::size_of::<$field_ty>())+,
                "impl_pod!: struct has padding bytes; use kamping::struct_desc! instead"
            );
        };
        // SAFETY: size check above proves there is no padding; the caller
        // asserts the all-bit-patterns-valid contract by invoking the macro.
        unsafe impl $crate::types::PodType for $ty {}
    };
}

/// Builds a [`kamping_mpi::dtype::TypeDesc::Struct`] for a (possibly
/// padded) struct: gaps between fields are skipped on the wire, mirroring
/// `MPI_Type_create_struct` (paper §III-D2/D4).
///
/// ```
/// use kamping::struct_desc;
///
/// #[repr(C)]
/// struct Gappy {
///     flag: u8,
///     // 3 padding bytes here
///     value: u32,
/// }
/// let desc = struct_desc!(Gappy { flag: u8, value: u32 });
/// assert_eq!(desc.packed_size(), 5);
/// assert_eq!(desc.extent(), 8);
/// ```
#[macro_export]
macro_rules! struct_desc {
    ($ty:ty { $($field:ident : $fty:ty),+ $(,)? }) => {
        ::kamping_mpi::dtype::TypeDesc::Struct {
            fields: vec![
                $((::std::mem::offset_of!($ty, $field), ::std::mem::size_of::<$fty>())),+
            ],
            extent: ::std::mem::size_of::<$ty>(),
        }
    };
}

/// Reinterprets a pod slice as its wire bytes (zero-copy view).
pub fn pod_as_bytes<T: PodType>(data: &[T]) -> &[u8] {
    // SAFETY: PodType guarantees no padding, so every byte is initialized;
    // the length arithmetic cannot overflow because the slice exists.
    unsafe { std::slice::from_raw_parts(data.as_ptr().cast::<u8>(), std::mem::size_of_val(data)) }
}

/// Number of `T` elements encoded in `len` wire bytes. Errors when `len`
/// is not a whole number of elements, which for a zero-sized `T` means any
/// non-empty input. Every decoder below checks its input through this.
fn wire_elements<T: PodType>(len: usize) -> KResult<usize> {
    if T::SIZE == 0 {
        return if len == 0 {
            Ok(0)
        } else {
            Err(KampingError::InvalidArgument("bytes for zero-sized type"))
        };
    }
    if !len.is_multiple_of(T::SIZE) {
        return Err(KampingError::InvalidArgument(
            "byte length not a multiple of element size",
        ));
    }
    Ok(len / T::SIZE)
}

/// Copies wire bytes into a fresh `Vec<T>`.
pub fn bytes_to_pods<T: PodType>(bytes: &[u8]) -> KResult<Vec<T>> {
    let n = wire_elements::<T>(bytes.len())?;
    let mut out = Vec::<T>::with_capacity(n);
    // SAFETY: capacity reserved above; every bit pattern is a valid T, and
    // we copy exactly n * SIZE initialized bytes.
    unsafe {
        std::ptr::copy_nonoverlapping(bytes.as_ptr(), out.as_mut_ptr().cast::<u8>(), bytes.len());
        out.set_len(n);
    }
    Ok(out)
}

/// Copies wire bytes into an existing pod slice (no allocation). `out` must
/// be at least as long as the decoded element count.
pub fn bytes_into_pods<T: PodType>(bytes: &[u8], out: &mut [T]) -> KResult<usize> {
    let n = wire_elements::<T>(bytes.len())?;
    if n > out.len() {
        return Err(KampingError::BufferTooSmall {
            needed: n,
            available: out.len(),
        });
    }
    // SAFETY: bounds checked above; T accepts any bit pattern.
    unsafe {
        std::ptr::copy_nonoverlapping(bytes.as_ptr(), out.as_mut_ptr().cast::<u8>(), bytes.len());
    }
    Ok(n)
}

/// Replaces `buf`'s contents with the decoded elements of `bytes`,
/// reusing its allocation and skipping zero-initialization (the elements
/// are written exactly once). The resize-to-fit receive paths use this.
pub fn fill_pod_vec_from_bytes<T: PodType>(buf: &mut Vec<T>, bytes: &[u8]) -> KResult<()> {
    let n = wire_elements::<T>(bytes.len())?;
    buf.clear();
    buf.reserve(n);
    // SAFETY: capacity reserved above; all n * SIZE bytes are written
    // before set_len exposes them, and any bit pattern is a valid T.
    unsafe {
        std::ptr::copy_nonoverlapping(bytes.as_ptr(), buf.as_mut_ptr().cast::<u8>(), bytes.len());
        buf.set_len(n);
    }
    Ok(())
}

/// Packs an owned pod buffer as a message payload without copying, so a
/// receiver of the same element alignment can take the allocation over
/// (see [`payload_into_pods`]). At most
/// [`INLINE_CAP`](kamping_mpi::transport::INLINE_CAP) bytes ride inline.
pub fn pods_into_payload<T: PodType>(data: Vec<T>) -> Payload {
    // SAFETY: PodType has no padding bytes, so every byte is initialized.
    Payload::from_buf(unsafe { WireBuf::from_pods(data) })
}

/// Decodes a received payload into a `Vec<T>` — the one typed decode of
/// every point-to-point receive. A payload that is the only holder of a
/// buffer allocated with `T`'s alignment (a typed send on the shm backend)
/// becomes the `Vec<T>` without copying; anything else — inline, shared by
/// a fan-out, other alignment, bytes read off a socket or ring — is copied
/// once.
pub fn payload_into_pods<T: PodType>(payload: Payload) -> KResult<Vec<T>> {
    wire_elements::<T>(payload.len())?;
    match payload.into_unique() {
        // SAFETY: PodType accepts every bit pattern.
        Ok(buf) => unsafe { buf.into_pods::<T>() }.or_else(|buf| bytes_to_pods(buf.as_slice())),
        Err(payload) => bytes_to_pods(payload.as_slice()),
    }
}

/// Views one pod value as its wire bytes.
pub fn pod_value_as_bytes<T: PodType>(value: &T) -> &[u8] {
    pod_as_bytes(std::slice::from_ref(value))
}

/// Decodes exactly one pod value.
pub fn pod_from_bytes<T: PodType>(bytes: &[u8]) -> KResult<T> {
    if bytes.len() != T::SIZE {
        return Err(KampingError::InvalidArgument("byte length != element size"));
    }
    let mut out = T::zeroed();
    // SAFETY: length checked; T accepts any bit pattern.
    unsafe {
        std::ptr::copy_nonoverlapping(bytes.as_ptr(), (&mut out as *mut T).cast::<u8>(), T::SIZE);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_numeric_slices() {
        let v = vec![1u64, 2, u64::MAX];
        let bytes = pod_as_bytes(&v);
        assert_eq!(bytes.len(), 24);
        let back: Vec<u64> = bytes_to_pods(bytes).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn roundtrip_floats_bitwise() {
        let v = vec![f64::NAN, -0.0, 1.5];
        let back: Vec<f64> = bytes_to_pods(pod_as_bytes(&v)).unwrap();
        assert_eq!(back[0].to_bits(), v[0].to_bits());
        assert_eq!(back[1].to_bits(), v[1].to_bits());
        assert_eq!(back[2], 1.5);
    }

    #[test]
    fn arrays_are_pod() {
        let v = vec![[1u32, 2], [3, 4]];
        let back: Vec<[u32; 2]> = bytes_to_pods(pod_as_bytes(&v)).unwrap();
        assert_eq!(back, v);
    }

    #[derive(Clone, Copy, Debug, PartialEq)]
    struct Vec3 {
        x: f64,
        y: f64,
        z: f64,
    }
    impl_pod!(Vec3: f64, f64, f64);

    #[test]
    fn user_struct_via_impl_pod() {
        let v = vec![Vec3 {
            x: 1.0,
            y: 2.0,
            z: 3.0,
        }];
        let back: Vec<Vec3> = bytes_to_pods(pod_as_bytes(&v)).unwrap();
        assert_eq!(back, v);
        assert_eq!(Vec3::SIZE, 24);
    }

    #[test]
    fn struct_desc_skips_padding() {
        #[repr(C)]
        struct Gappy {
            a: u8,
            b: u64,
        }
        let desc = struct_desc!(Gappy { a: u8, b: u64 });
        assert_eq!(desc.extent(), 16);
        assert_eq!(desc.packed_size(), 9);
    }

    #[test]
    fn decode_into_existing_slice() {
        let v = [5u16, 6, 7];
        let mut out = [0u16; 4];
        let n = bytes_into_pods(pod_as_bytes(&v), &mut out).unwrap();
        assert_eq!(n, 3);
        assert_eq!(&out[..3], &v);
        let mut small = [0u16; 2];
        assert!(bytes_into_pods(pod_as_bytes(&v), &mut small).is_err());
    }

    #[test]
    fn single_value_roundtrip() {
        let x = -17i64;
        assert_eq!(pod_from_bytes::<i64>(pod_value_as_bytes(&x)).unwrap(), x);
        assert!(pod_from_bytes::<i64>(&[0u8; 4]).is_err());
    }

    #[test]
    fn misaligned_lengths_rejected() {
        assert!(bytes_to_pods::<u32>(&[0u8; 7]).is_err());
        assert!(bytes_to_pods::<u32>(&[]).unwrap().is_empty());
    }

    #[test]
    fn zero_sized_elements_reject_bytes_in_every_decoder() {
        type Zst = [u8; 0];
        let bytes = [1u8, 2, 3];
        let invalid = |r: KResult<_>| matches!(r, Err(KampingError::InvalidArgument(_)));
        assert!(invalid(bytes_to_pods::<Zst>(&bytes).map(drop)));
        assert!(invalid(
            bytes_into_pods::<Zst>(&bytes, &mut [[]; 4]).map(drop)
        ));
        let mut buf: Vec<Zst> = vec![[]; 2];
        assert!(invalid(fill_pod_vec_from_bytes(&mut buf, &bytes)));
        assert_eq!(buf.len(), 2, "a rejected decode leaves the buffer alone");
        let payload = Payload::from_vec(vec![0u8; 64]);
        assert!(invalid(payload_into_pods::<Zst>(payload).map(drop)));
        // No bytes decode to no elements everywhere.
        assert!(bytes_to_pods::<Zst>(&[]).unwrap().is_empty());
        assert_eq!(bytes_into_pods::<Zst>(&[], &mut []).unwrap(), 0);
        fill_pod_vec_from_bytes(&mut buf, &[]).unwrap();
        assert!(buf.is_empty());
        let empty = pods_into_payload::<Zst>(vec![[]; 3]);
        assert!(empty.is_empty());
        assert!(payload_into_pods::<Zst>(empty).unwrap().is_empty());
    }

    #[test]
    fn payload_decode_takes_over_a_unique_fitting_buffer() {
        let v: Vec<u64> = (0..64).collect();
        let ptr = v.as_ptr();
        let back: Vec<u64> = payload_into_pods(pods_into_payload(v)).unwrap();
        assert_eq!(back.as_ptr(), ptr);
        assert_eq!(back, (0..64).collect::<Vec<u64>>());
        // Aliased by a clone: the first decode copies, the last holder's
        // does not.
        let a = pods_into_payload(back);
        let b = a.clone();
        let copied: Vec<f64> = payload_into_pods(a).unwrap();
        assert_ne!(copied.as_ptr().cast::<u64>(), ptr);
        assert_eq!(copied[5].to_bits(), 5);
        let last: Vec<u64> = payload_into_pods(b).unwrap();
        assert_eq!(last.as_ptr(), ptr);
        // Lengths that are not whole elements are rejected, inline or not.
        for len in [12, 36] {
            let r = payload_into_pods::<u64>(Payload::from_vec(vec![0; len]));
            assert!(
                matches!(r, Err(KampingError::InvalidArgument(_))),
                "{len} B"
            );
        }
    }

    #[test]
    fn zeroed_is_zero() {
        assert_eq!(u64::zeroed(), 0);
        assert_eq!(<[f32; 2]>::zeroed(), [0.0, 0.0]);
    }
}

//! Payload frame codec: the byte representation of one transport message.
//!
//! A frame is one tag byte plus a body:
//!
//! ```text
//! tag 0  exact : u32 element count + count × f32 (little-endian)
//! tag 1  bf16  : u32 element count + count × u16 (upper BF16 bits)
//! tag 2  packed: a snip_quant::wire frame (header + codes + scales + …)
//! ```
//!
//! Decoding is **total**: every structural defect — an empty buffer, an
//! unknown tag, a count that disagrees with the buffer length, a malformed
//! packed frame — comes back as a typed [`FrameError`], never a panic. That
//! matters once frames arrive over a socket from another process: a corrupt
//! or truncated peer message must surface as an error the worker can report
//! upstream, not abort it with a byte dump.

use crate::collective::Wire;
use snip_quant::{PackedQuantize, PackedTensor, WireError, WIRE_HEADER_BYTES};
use snip_tensor::rng::Rng;
use snip_tensor::Tensor;

pub(crate) const TAG_EXACT: u8 = 0;
pub(crate) const TAG_BF16: u8 = 1;
pub(crate) const TAG_PACKED: u8 = 2;

/// A structurally invalid payload frame (corruption or truncation by the
/// peer, or a peer speaking a different protocol version).
#[derive(Clone, Debug, PartialEq)]
pub enum FrameError {
    /// Zero-length frame.
    Empty,
    /// The tag byte is not a known frame kind.
    UnknownTag(u8),
    /// The frame body is shorter or longer than its element count implies.
    Length {
        /// Bytes the header implies.
        expect: usize,
        /// Bytes received.
        got: usize,
    },
    /// The packed body failed to deserialize.
    Packed(WireError),
    /// A well-formed frame carried a different number of elements than
    /// the ring schedule expects at this hop (the peers disagree on the
    /// tensor lengths).
    Elements {
        /// Elements the schedule expects.
        expect: usize,
        /// Elements the frame decoded to.
        got: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Empty => write!(f, "empty frame"),
            FrameError::UnknownTag(tag) => write!(f, "unknown frame tag {tag:#04x}"),
            FrameError::Length { expect, got } => {
                write!(
                    f,
                    "frame length {got} does not match header (expect {expect})"
                )
            }
            FrameError::Packed(e) => write!(f, "packed frame body: {e}"),
            FrameError::Elements { expect, got } => {
                write!(f, "frame holds {got} elements, the ring expects {expect}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Serializes a payload for one hop of `wire`, consuming `rng` exactly like
/// [`Wire::transmit`]. Returns the frame and its accounted payload bytes.
pub(crate) fn encode_frame(wire: &Wire, payload: &[f32], rng: &mut Rng) -> (Vec<u8>, u64) {
    let n = payload.len();
    let Some(codec) = wire.codec() else {
        let mut buf = Vec::with_capacity(5 + 4 * n);
        buf.push(TAG_EXACT);
        buf.extend_from_slice(&(n as u32).to_le_bytes());
        for v in payload {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        return (buf, 4 * n as u64);
    };
    let t = Tensor::from_vec(1, n, payload.to_vec());
    match codec.pack(&t, rng) {
        Some(packed) => {
            let bytes = packed.wire_bytes();
            let mut buf = Vec::with_capacity(1 + WIRE_HEADER_BYTES + bytes as usize);
            buf.push(TAG_PACKED);
            buf.extend_from_slice(
                &packed
                    .to_wire_bytes()
                    .expect("wire codecs use built-in formats"),
            );
            (buf, bytes)
        }
        None => {
            // BF16: 2 bytes per element, the upper half of the f32 pattern.
            let fq = codec.fake_reference(&t, rng);
            let mut buf = Vec::with_capacity(5 + 2 * n);
            buf.push(TAG_BF16);
            buf.extend_from_slice(&(n as u32).to_le_bytes());
            for v in fq.as_slice() {
                buf.extend_from_slice(&((v.to_bits() >> 16) as u16).to_le_bytes());
            }
            (buf, 2 * n as u64)
        }
    }
}

/// Reads the `u32` element count after the tag byte.
fn element_count(bytes: &[u8]) -> Result<usize, FrameError> {
    if bytes.len() < 5 {
        return Err(FrameError::Length {
            expect: 5,
            got: bytes.len(),
        });
    }
    Ok(u32::from_le_bytes(bytes[1..5].try_into().expect("4 bytes")) as usize)
}

/// Decodes a frame back to the dense payload the receiver consumes —
/// bit-for-bit what the in-proc simulator's [`Wire::transmit`] leaves in the
/// sender's buffer — plus the frame's accounted **payload** bytes (the same
/// number [`encode_frame`] reported on the sending side, so both ends of a
/// link count identical volumes).
///
/// # Errors
///
/// A typed [`FrameError`] for every structural defect; never panics.
pub(crate) fn decode_frame(bytes: &[u8]) -> Result<(Vec<f32>, u64), FrameError> {
    let Some(&tag) = bytes.first() else {
        return Err(FrameError::Empty);
    };
    match tag {
        TAG_EXACT => {
            let n = element_count(bytes)?;
            let expect = 5 + 4 * n;
            if bytes.len() != expect {
                return Err(FrameError::Length {
                    expect,
                    got: bytes.len(),
                });
            }
            let data = (0..n)
                .map(|i| {
                    f32::from_le_bytes(bytes[5 + 4 * i..9 + 4 * i].try_into().expect("4 bytes"))
                })
                .collect();
            Ok((data, 4 * n as u64))
        }
        TAG_BF16 => {
            let n = element_count(bytes)?;
            let expect = 5 + 2 * n;
            if bytes.len() != expect {
                return Err(FrameError::Length {
                    expect,
                    got: bytes.len(),
                });
            }
            let data = (0..n)
                .map(|i| {
                    let half = u16::from_le_bytes(
                        bytes[5 + 2 * i..7 + 2 * i].try_into().expect("2 bytes"),
                    );
                    f32::from_bits(u32::from(half) << 16)
                })
                .collect();
            Ok((data, 2 * n as u64))
        }
        TAG_PACKED => {
            let packed = PackedTensor::from_wire_bytes(&bytes[1..]).map_err(FrameError::Packed)?;
            let payload = (bytes.len() - 1 - WIRE_HEADER_BYTES) as u64;
            Ok((packed.dequantize().into_vec(), payload))
        }
        other => Err(FrameError::UnknownTag(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn corrupt_frames_yield_typed_errors_not_panics() {
        assert_eq!(decode_frame(&[]), Err(FrameError::Empty));
        assert_eq!(decode_frame(&[7]), Err(FrameError::UnknownTag(7)));
        assert_eq!(decode_frame(&[0xFF]), Err(FrameError::UnknownTag(0xFF)));
        // Count field cut off.
        assert_eq!(
            decode_frame(&[TAG_EXACT, 1, 0]),
            Err(FrameError::Length { expect: 5, got: 3 })
        );
        // Count promises more elements than the body carries.
        assert_eq!(
            decode_frame(&[TAG_EXACT, 2, 0, 0, 0, 1, 2, 3, 4]),
            Err(FrameError::Length { expect: 13, got: 9 })
        );
        // Trailing garbage after a complete body is also corruption.
        assert_eq!(
            decode_frame(&[TAG_BF16, 1, 0, 0, 0, 1, 2, 3]),
            Err(FrameError::Length { expect: 7, got: 8 })
        );
        // A packed frame whose wire body is damaged.
        assert!(matches!(
            decode_frame(&[TAG_PACKED, b'X', b'P', 1]),
            Err(FrameError::Packed(_))
        ));
    }

    proptest! {
        /// No byte soup may panic the decoder — every outcome is a value.
        #[test]
        fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..200)) {
            let _ = decode_frame(&bytes);
        }

        /// Valid frames survive any single-byte truncation as a typed error.
        #[test]
        fn truncated_valid_frames_error_cleanly(n in 0usize..20, cut in 0usize..80) {
            let payload: Vec<f32> = (0..n).map(|i| i as f32 * 0.5 - 3.0).collect();
            let mut rng = Rng::seed_from(1);
            let (frame, _) = encode_frame(&Wire::fp4(8), &payload, &mut rng);
            if cut < frame.len() {
                prop_assert!(decode_frame(&frame[..cut]).is_err());
            }
        }

        /// Chaos corruption at the frame layer: XOR one byte of a valid
        /// frame of every wire kind. The decoder must return a *value* —
        /// a typed error for structural damage, or a decoded payload when
        /// only content bytes changed (content integrity is the stream
        /// envelope CRC's job, pinned in snip-quant's `wire_stream`
        /// tests). A lying element count is always a typed error.
        #[test]
        fn single_byte_flips_never_panic_and_count_lies_are_caught(
            n in 0usize..20,
            at_sel in 0usize..200,
            flip in 1u8..=255,
            kind in 0usize..4,
        ) {
            let wires = [Wire::exact(), Wire::bf16(), Wire::fp4(8), Wire::fp8(16)];
            let payload: Vec<f32> = (0..n).map(|i| i as f32 * 0.37 - 2.0).collect();
            let mut rng = Rng::seed_from(9);
            let (mut frame, _) = encode_frame(&wires[kind], &payload, &mut rng);
            let tag = frame[0];
            let at = at_sel % frame.len();
            frame[at] ^= flip;
            let outcome = decode_frame(&frame);
            if (tag == TAG_EXACT || tag == TAG_BF16) && (1..5).contains(&at) {
                // The element count now disagrees with the frame length.
                prop_assert!(matches!(outcome, Err(FrameError::Length { .. })));
            }
        }
    }
}

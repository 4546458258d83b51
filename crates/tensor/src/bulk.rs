//! Bulk element buffers lent out of tensors, for containers that store the
//! numbers out of band.
//!
//! A checkpoint that serializes a tensor field by field spends nearly all
//! its time on the element buffer: millions of floats turned into decimal
//! text and back. [`Tensor::visit_bulk_mut`](crate::Tensor::visit_bulk_mut)
//! and [`QTensor::visit_bulk_mut`](crate::QTensor::visit_bulk_mut) instead
//! hand each element buffer to a visitor together with the length the
//! tensor's own shape implies, so a container can move the buffer out
//! (leaving a *hollow* tensor whose metadata still serializes) and later
//! move raw bytes back in after checking them against that length.

/// One element buffer of a tensor.
#[derive(Debug)]
pub enum BulkBuf<'a> {
    /// `f32` elements: dense values, or a packed tensor's group scales.
    F32(&'a mut Vec<f32>),
    /// Raw bytes: a packed tensor's codes.
    U8(&'a mut Vec<u8>),
}

/// A lent buffer plus the element count its owner's shape implies.
///
/// `len` is `None` when the owner's metadata is inconsistent (a shape
/// product that overflows, a zero group width, a decode table of the wrong
/// size) — possible only for a tensor deserialized from damaged or foreign
/// metadata, and the signal for a loader to reject it. A visitor that
/// leaves the buffer at any length other than `len` leaves the tensor
/// invalid until the buffer is restored.
#[derive(Debug)]
pub struct BulkSlot<'a> {
    /// The buffer.
    pub buf: BulkBuf<'a>,
    /// Element count the owner's shape implies.
    pub len: Option<usize>,
}

impl BulkSlot<'_> {
    /// Bytes one element of this buffer occupies (4 for `f32`, 1 for codes).
    pub fn elem_bytes(&self) -> usize {
        match self.buf {
            BulkBuf::F32(_) => std::mem::size_of::<f32>(),
            BulkBuf::U8(_) => 1,
        }
    }
}

//! Scaling granularities (paper §2.3).
//!
//! Low-precision formats have a narrow dynamic range, so tensors are scaled
//! group-by-group such that each group's maximum magnitude maps to the
//! format's maximum representable value:
//!
//! ```text
//! scale = FPX_MAX / max(abs(group))
//! y     = Quant(x * scale) / scale
//! ```
//!
//! The paper follows DeepSeek-V3: **1×128 tile-wise** scaling for activations
//! and gradients, **128×128 block-wise** scaling for weights.

use crate::codebook::Avx512;
use serde::{Deserialize, Serialize};
use snip_tensor::{GroupLayout, Tensor};
use std::ops::Range;

/// How scaling factors are assigned to regions of a tensor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Granularity {
    /// One scale for the whole tensor.
    Tensorwise,
    /// One scale per row.
    Rowwise,
    /// One scale per column.
    Columnwise,
    /// One scale per `nb × nb` block (paper: 128×128 for weights).
    Block {
        /// Block side length.
        nb: usize,
    },
    /// One scale per `1 × nb` tile within each row (paper: 1×128 for
    /// activations and gradients).
    Tile {
        /// Tile length along the row.
        nb: usize,
    },
}

impl Granularity {
    /// The DeepSeek-V3 recipe for activations/gradients.
    pub const fn deepseek_activation() -> Self {
        Granularity::Tile { nb: 128 }
    }

    /// The DeepSeek-V3 recipe for weights.
    pub const fn deepseek_weight() -> Self {
        Granularity::Block { nb: 128 }
    }

    /// Number of scale groups this granularity produces for a tensor of the
    /// given shape. This is also the memory overhead of storing scales.
    pub fn group_count(&self, rows: usize, cols: usize) -> usize {
        match *self {
            Granularity::Tensorwise => 1,
            Granularity::Rowwise => rows,
            Granularity::Columnwise => cols,
            Granularity::Block { nb } => rows.div_ceil(nb) * cols.div_ceil(nb),
            Granularity::Tile { nb } => rows * cols.div_ceil(nb),
        }
    }

    /// Visits every scale group of a `rows × cols` tensor as a set of
    /// `(row_range, col_range)` rectangles, in a deterministic order.
    pub fn for_each_group(
        &self,
        rows: usize,
        cols: usize,
        mut f: impl FnMut(Range<usize>, Range<usize>),
    ) {
        match *self {
            Granularity::Tensorwise => {
                if rows > 0 && cols > 0 {
                    f(0..rows, 0..cols)
                }
            }
            Granularity::Rowwise => {
                for r in 0..rows {
                    f(r..r + 1, 0..cols);
                }
            }
            Granularity::Columnwise => {
                for c in 0..cols {
                    f(0..rows, c..c + 1);
                }
            }
            Granularity::Block { nb } => {
                assert!(nb > 0, "block size must be positive");
                let mut r = 0;
                while r < rows {
                    let re = (r + nb).min(rows);
                    let mut c = 0;
                    while c < cols {
                        let ce = (c + nb).min(cols);
                        f(r..re, c..ce);
                        c = ce;
                    }
                    r = re;
                }
            }
            Granularity::Tile { nb } => {
                assert!(nb > 0, "tile size must be positive");
                for r in 0..rows {
                    let mut c = 0;
                    while c < cols {
                        let ce = (c + nb).min(cols);
                        f(r..r + 1, c..ce);
                        c = ce;
                    }
                }
            }
        }
    }

    /// The scaling factor for one group: `grid_max / max|group|`, with an
    /// identity fallback for all-zero or non-finite groups.
    ///
    /// Every quantization path — fake (float and int) and packed — must use
    /// this one definition: the packed↔fake bit-identity contract depends
    /// on the scale expression never drifting between them.
    #[inline]
    pub fn group_scale(grid_max: f32, max_abs: f32) -> f32 {
        if max_abs > 0.0 && max_abs.is_finite() {
            grid_max / max_abs
        } else {
            1.0
        }
    }

    /// The storage-level layout of this granularity for packed tensors.
    /// Group order (and therefore scale-vector order) is identical between
    /// [`Granularity::for_each_group`] and the layout's index arithmetic.
    pub fn layout(&self) -> GroupLayout {
        match *self {
            Granularity::Tensorwise => GroupLayout::Tensorwise,
            Granularity::Rowwise => GroupLayout::Rowwise,
            Granularity::Columnwise => GroupLayout::Columnwise,
            Granularity::Block { nb } => GroupLayout::Block { nb },
            Granularity::Tile { nb } => GroupLayout::Tile { nb },
        }
    }

    /// Maximum absolute value within each group, in group order.
    pub fn group_max_abs(&self, t: &Tensor) -> Vec<f32> {
        let (rows, cols) = t.shape();
        let avx = Avx512::active();
        let mut maxes = Vec::with_capacity(self.group_count(rows, cols));
        self.for_each_group(rows, cols, |rr, cr| {
            maxes.push(group_max_abs_of(t, rr, cr, avx));
        });
        maxes
    }
}

/// `max |t[r][c]|` over the `rr × cr` group, starting from `+0`: the one
/// max-abs scan [`Granularity::group_max_abs`] and every packing path
/// share. NaN elements never win (the semantics of `f32::max`), so an
/// all-NaN group scans to 0. With an AVX-512 token the rows run the
/// vector scan, which is exact — max is order-free.
pub(crate) fn group_max_abs_of(
    t: &Tensor,
    rr: Range<usize>,
    cr: Range<usize>,
    avx: Option<Avx512>,
) -> f32 {
    let mut m = 0.0f32;
    for r in rr {
        let seg = &t.row(r)[cr.clone()];
        m = match avx {
            Some(k) => k.max_abs(seg, m),
            None => seg.iter().fold(m, |m, v| m.max(v.abs())),
        };
    }
    m
}

impl std::fmt::Display for Granularity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Granularity::Tensorwise => write!(f, "tensorwise"),
            Granularity::Rowwise => write!(f, "rowwise"),
            Granularity::Columnwise => write!(f, "columnwise"),
            Granularity::Block { nb } => write!(f, "{nb}x{nb} blockwise"),
            Granularity::Tile { nb } => write!(f, "1x{nb} tilewise"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect_groups(
        g: Granularity,
        rows: usize,
        cols: usize,
    ) -> Vec<(usize, usize, usize, usize)> {
        let mut v = Vec::new();
        g.for_each_group(rows, cols, |rr, cr| {
            v.push((rr.start, rr.end, cr.start, cr.end))
        });
        v
    }

    #[test]
    fn group_counts() {
        assert_eq!(Granularity::Tensorwise.group_count(10, 20), 1);
        assert_eq!(Granularity::Rowwise.group_count(10, 20), 10);
        assert_eq!(Granularity::Columnwise.group_count(10, 20), 20);
        assert_eq!(Granularity::Block { nb: 8 }.group_count(10, 20), 2 * 3);
        assert_eq!(Granularity::Tile { nb: 8 }.group_count(10, 20), 10 * 3);
        // Paper configuration on a big tensor
        assert_eq!(
            Granularity::deepseek_weight().group_count(4096, 4096),
            32 * 32
        );
    }

    #[test]
    fn groups_partition_the_tensor() {
        for g in [
            Granularity::Tensorwise,
            Granularity::Rowwise,
            Granularity::Columnwise,
            Granularity::Block { nb: 3 },
            Granularity::Tile { nb: 3 },
        ] {
            let rows = 5;
            let cols = 7;
            let mut covered = vec![0u8; rows * cols];
            g.for_each_group(rows, cols, |rr, cr| {
                for r in rr {
                    for c in cr.clone() {
                        covered[r * cols + c] += 1;
                    }
                }
            });
            assert!(covered.iter().all(|&x| x == 1), "{g}: {covered:?}");
            assert_eq!(
                collect_groups(g, rows, cols).len(),
                g.group_count(rows, cols)
            );
        }
    }

    #[test]
    fn group_max_abs_blockwise() {
        let t = Tensor::from_vec(2, 4, vec![1.0, -2.0, 3.0, 0.5, -4.0, 1.0, 0.0, -8.0]);
        let maxes = Granularity::Block { nb: 2 }.group_max_abs(&t);
        // blocks: [[1,-2],[-4,1]] and [[3,0.5],[0,-8]]
        assert_eq!(maxes, vec![4.0, 8.0]);
    }

    #[test]
    fn group_max_abs_tilewise() {
        let t = Tensor::from_vec(2, 4, vec![1.0, -2.0, 3.0, 0.5, -4.0, 1.0, 0.0, -8.0]);
        let maxes = Granularity::Tile { nb: 2 }.group_max_abs(&t);
        assert_eq!(maxes, vec![2.0, 3.0, 4.0, 8.0]);
    }

    #[test]
    fn degenerate_shapes() {
        assert_eq!(collect_groups(Granularity::Block { nb: 4 }, 0, 5).len(), 0);
        assert_eq!(collect_groups(Granularity::Tensorwise, 0, 0).len(), 0);
        // Tile larger than the row degrades to rowwise.
        assert_eq!(
            collect_groups(Granularity::Tile { nb: 128 }, 3, 7),
            collect_groups(Granularity::Rowwise, 3, 7)
        );
    }

    #[test]
    fn display_names() {
        assert_eq!(Granularity::Tile { nb: 128 }.to_string(), "1x128 tilewise");
        assert_eq!(
            Granularity::Block { nb: 128 }.to_string(),
            "128x128 blockwise"
        );
    }
}

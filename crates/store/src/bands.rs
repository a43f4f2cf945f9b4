//! Frequency-band-progressive ordering (the PCR idea applied to Chop).
//!
//! A Chop-compressed sample at chop factor `CF` keeps, per 8×8 block, the
//! upper-left `CF×CF` corner of the DCT coefficient matrix. Partition that
//! corner into **rings**: ring `r` holds the cells `(i, j)` with
//! `max(i, j) == r` (the L-shaped shell adding one frequency in each
//! direction). The union of rings `0..CF'` is exactly the `CF'×CF'`
//! corner — i.e. exactly the coefficients Chop at factor `CF'` would have
//! kept. Storing a chunk's coefficients ring-by-ring therefore makes a
//! *prefix* of the chunk a complete lower-fidelity encoding, which is what
//! lets [`crate::DczReader`] serve chop factor `CF' ≤ CF` while reading
//! only `CF'²/CF²` of the coefficient payload.
//!
//! Within a ring the scan order is `(sample, channel, block-row,
//! block-col, cell)` with cells sorted by `(i + j, i)` — the zig-zag-like
//! diagonal order, fixed so writer and reader agree bit-for-bit.

use aicomp_tensor::Tensor;

use crate::{Result, StoreError};

/// Cells `(i, j)` of ring `r` (i.e. `max(i, j) == r`), in `(i + j, i)`
/// order. Ring `r` has `2r + 1` cells.
pub fn ring_cells(r: usize) -> Vec<(usize, usize)> {
    let mut cells: Vec<(usize, usize)> = (0..=r)
        .map(|i| (i, r)) // right edge of the shell
        .chain((0..r).map(|j| (r, j))) // bottom edge
        .collect();
    cells.sort_by_key(|&(i, j)| (i + j, i));
    cells
}

/// Number of cells in ring `r`.
pub fn cells_in_ring(r: usize) -> usize {
    2 * r + 1
}

/// Number of f32 values ring `r` contributes for a chunk of
/// `samples × channels` matrices with `nb × nb` blocks each.
pub fn ring_values(samples: usize, channels: usize, nb: usize, r: usize) -> usize {
    samples * channels * nb * nb * cells_in_ring(r)
}

/// Scatter a `[S, C, CF·nb, CF·nb]` coefficient tensor into per-ring value
/// vectors (the chunk's progressive scan order).
pub fn gather_rings(coeffs: &Tensor, cf: usize) -> Result<Vec<Vec<f32>>> {
    let d = coeffs.dims();
    if cf == 0 || d.len() != 4 || d[2] != d[3] || !d[2].is_multiple_of(cf) {
        return Err(StoreError::InvalidArg(format!(
            "gather_rings expects [S, C, CF·nb, CF·nb] with cf={cf}, got {d:?}"
        )));
    }
    let (samples, channels, cs) = (d[0], d[1], d[2]);
    let nb = cs / cf;
    let data = coeffs.data();
    let mut rings = Vec::with_capacity(cf);
    for r in 0..cf {
        let cells = ring_cells(r);
        let mut vals = Vec::with_capacity(ring_values(samples, channels, nb, r));
        for s in 0..samples {
            for c in 0..channels {
                let plane = (s * channels + c) * cs * cs;
                for bi in 0..nb {
                    for bj in 0..nb {
                        for &(i, j) in &cells {
                            vals.push(data[plane + (bi * cf + i) * cs + (bj * cf + j)]);
                        }
                    }
                }
            }
        }
        rings.push(vals);
    }
    Ok(rings)
}

/// Reassemble the first `read_cf` rings into a `[S, C, CF'·nb, CF'·nb]`
/// coefficient tensor — the Chop-at-`CF'` layout a
/// [`aicomp_core::ChopCompressor`] built with `cf = read_cf` decompresses.
pub fn assemble_rings(
    rings: &[Vec<f32>],
    samples: usize,
    channels: usize,
    nb: usize,
    read_cf: usize,
) -> Result<Tensor> {
    if read_cf == 0 || read_cf > rings.len() {
        return Err(StoreError::InvalidArg(format!(
            "read chop factor {read_cf} outside 1..={}",
            rings.len()
        )));
    }
    for (r, vals) in rings.iter().enumerate().take(read_cf) {
        let want = ring_values(samples, channels, nb, r);
        if vals.len() != want {
            return Err(StoreError::Format(format!(
                "ring {r} holds {} values, expected {want}",
                vals.len()
            )));
        }
    }
    let cs = read_cf * nb;
    let mut data = vec![0.0f32; samples * channels * cs * cs];
    for (r, vals) in rings.iter().enumerate().take(read_cf) {
        scatter_ring(&mut data, vals, |v| v, nb, read_cf, r);
    }
    Ok(Tensor::from_vec(data, [samples, channels, cs, cs])
        .map_err(aicomp_core::CoreError::Tensor)?)
}

/// Write ring `r`'s values, in scan order, to their cells of `out`: the
/// `[S, C, cs, cs]` coefficient buffer at chop factor `read_cf`, with
/// `cs = read_cf·nb`. `vals` holds [`ring_values`] of them; `to_f32` turns
/// each into its coefficient. The one copy of the ring layout on the read
/// side, shared by [`assemble_rings`] and the fused chunk decode.
pub(crate) fn scatter_ring<T: Copy>(
    out: &mut [f32],
    vals: &[T],
    to_f32: impl Fn(T) -> f32,
    nb: usize,
    read_cf: usize,
    r: usize,
) {
    let cs = read_cf * nb;
    let cells: Vec<usize> = ring_cells(r).into_iter().map(|(i, j)| i * cs + j).collect();
    let per_plane = nb * nb * cells.len();
    assert_eq!(vals.len() * cs * cs, out.len() * per_plane, "ring {r} does not fit the buffer");
    for (plane, src) in out.chunks_exact_mut(cs * cs).zip(vals.chunks_exact(per_plane)) {
        for (b, block) in src.chunks_exact(cells.len()).enumerate() {
            let corner = (b / nb * cs + b % nb) * read_cf;
            for (&cell, &v) in cells.iter().zip(block) {
                plane[corner + cell] = to_f32(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aicomp_core::ChopCompressor;

    #[test]
    fn ring_cells_partition_the_corner() {
        for cf in 1..=8usize {
            let mut seen = vec![false; cf * cf];
            for r in 0..cf {
                let cells = ring_cells(r);
                assert_eq!(cells.len(), cells_in_ring(r));
                for (i, j) in cells {
                    assert_eq!(i.max(j), r);
                    assert!(!seen[i * cf + j], "cell ({i},{j}) repeated");
                    seen[i * cf + j] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "cf={cf}: corner not covered");
        }
    }

    #[test]
    fn ring_cells_are_diagonal_ordered() {
        for r in 0..8usize {
            let cells = ring_cells(r);
            for w in cells.windows(2) {
                assert!((w[0].0 + w[0].1, w[0].0) < (w[1].0 + w[1].1, w[1].0));
            }
        }
    }

    fn coeffs(samples: usize, channels: usize, n: usize, cf: usize) -> Tensor {
        let c = ChopCompressor::new(n, cf).unwrap();
        let total = samples * channels * n * n;
        let x = Tensor::from_vec(
            (0..total).map(|i| ((i * 31 % 97) as f32) / 13.0 - 3.0).collect(),
            [samples, channels, n, n],
        )
        .unwrap();
        c.compress(&x).unwrap()
    }

    #[test]
    fn gather_then_assemble_is_identity() {
        let y = coeffs(3, 2, 16, 5);
        let rings = gather_rings(&y, 5).unwrap();
        let back = assemble_rings(&rings, 3, 2, 2, 5).unwrap();
        assert_eq!(back.dims(), y.dims());
        assert_eq!(back.data(), y.data(), "bitwise identity");
    }

    #[test]
    fn ring_prefix_is_the_lower_cf_encoding() {
        // The heart of the progressive format: rings 0..cf' of a cf-file
        // hold bit-exactly what Chop at cf' would have produced.
        let samples = 2;
        let n = 16;
        let total = samples * n * n;
        let x = Tensor::from_vec(
            (0..total).map(|i| ((i * 17 % 83) as f32) / 9.0 - 4.0).collect(),
            [samples, 1usize, n, n],
        )
        .unwrap();
        let y7 = ChopCompressor::new(n, 7).unwrap().compress(&x).unwrap();
        let rings = gather_rings(&y7, 7).unwrap();
        for read_cf in 1..=7usize {
            let prefix = assemble_rings(&rings, samples, 1, n / 8, read_cf).unwrap();
            let direct = ChopCompressor::new(n, read_cf).unwrap().compress(&x).unwrap();
            assert_eq!(prefix.dims(), direct.dims());
            let a: Vec<u32> = prefix.data().iter().map(|v| v.to_bits()).collect();
            let b: Vec<u32> = direct.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "read_cf={read_cf} not bit-exact");
        }
    }

    #[test]
    fn bad_shapes_rejected() {
        let y = coeffs(1, 1, 16, 4);
        assert!(gather_rings(&y, 3).is_err()); // 8 % 3 != 0
        let rings = gather_rings(&y, 4).unwrap();
        assert!(assemble_rings(&rings, 1, 1, 2, 0).is_err());
        assert!(assemble_rings(&rings, 1, 1, 2, 5).is_err());
        assert!(assemble_rings(&rings, 2, 1, 2, 4).is_err()); // wrong sample count
    }
}

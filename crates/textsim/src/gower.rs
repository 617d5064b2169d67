//! Gower distance between feature vectors.
//!
//! The neighborhood and network complexity measures (Table I, groups c–d)
//! define proximity via the Gower coefficient [Gower 1971]. For purely
//! numeric features — our case, since every candidate pair is represented by
//! the 2-D `[CS, JS]` vector — the Gower distance is the mean of
//! per-dimension absolute differences normalized by that dimension's range
//! over the dataset.

/// Per-dimension ranges learned from a dataset, used to normalize Gower
/// distances.
#[derive(Debug, Clone)]
pub struct GowerSpace {
    ranges: Vec<f64>,
    mins: Vec<f64>,
}

impl GowerSpace {
    /// Learns per-dimension `[min, max]` ranges from the data. Accepts any
    /// dense row type (`Vec<f64>`, `[f64; 2]`, `&[f64]`, …).
    ///
    /// Returns `None` for empty input. Zero-range dimensions contribute zero
    /// distance (all values equal), matching the reference definition.
    pub fn fit<R: AsRef<[f64]>>(data: &[R]) -> Option<Self> {
        let first = data.first()?.as_ref();
        let dims = first.len();
        let mut mins = vec![f64::INFINITY; dims];
        let mut maxs = vec![f64::NEG_INFINITY; dims];
        for row in data {
            let row = row.as_ref();
            assert_eq!(row.len(), dims, "ragged feature matrix");
            for (d, &v) in row.iter().enumerate() {
                mins[d] = mins[d].min(v);
                maxs[d] = maxs[d].max(v);
            }
        }
        let ranges = mins.iter().zip(&maxs).map(|(lo, hi)| hi - lo).collect();
        Some(GowerSpace { ranges, mins })
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.ranges.len()
    }

    /// Per-dimension minima observed during fit.
    pub fn mins(&self) -> &[f64] {
        &self.mins
    }

    /// Per-dimension ranges (`max − min`) observed during fit.
    pub fn ranges(&self) -> &[f64] {
        &self.ranges
    }

    /// Gower distance in `[0, 1]` between two vectors.
    pub fn distance(&self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), self.dims());
        debug_assert_eq!(b.len(), self.dims());
        if self.dims() == 0 {
            return 0.0;
        }
        let mut total = 0.0;
        for d in 0..self.dims() {
            if self.ranges[d] > 0.0 {
                total += ((a[d] - b[d]).abs() / self.ranges[d]).min(1.0);
            }
        }
        total / self.dims() as f64
    }

    /// Full pairwise distance matrix (row-major, symmetric, zero diagonal):
    /// the materialized reference [`DistanceEngine`]'s rows are checked
    /// against.
    ///
    /// Rows are computed in parallel. `distance` is exactly symmetric
    /// (`|a−b| == |b−a|` per dimension), so filling each row independently
    /// produces the same matrix as mirroring the upper triangle.
    #[cfg(test)]
    fn pairwise<R: AsRef<[f64]> + Sync>(&self, data: &[R]) -> Vec<Vec<f64>> {
        let n = data.len();
        rlb_util::par::par_map_range(n, |i| {
            let mut row = vec![0.0; n];
            for (j, other) in data.iter().enumerate() {
                if i != j {
                    row[j] = self.distance(data[i].as_ref(), other.as_ref());
                }
            }
            row
        })
    }
}

/// Width of the columnar kernel's accumulator block: enough independent
/// point-pairs to fill two 4-lane AVX2 registers (or four 2-lane SSE ones).
/// Values are chunk-invariant — see [`DistanceEngine::query_span_into`].
const CHUNK: usize = 8;

/// Streaming tiled Gower-distance engine: O(n) memory instead of the O(n²)
/// of a materialized pairwise distance matrix.
///
/// The engine keeps the fitted points twice: row-major (`flat`, for
/// [`point`](DistanceEngine::point) and scalar lookups) and column-major
/// (`cols`, one contiguous `n`-length column per dimension). Distance rows
/// are produced by a hand-rolled chunked kernel over the columnar layout:
/// `CHUNK` (8) independent point-pairs accumulate side by side, one dimension
/// at a time, so the inner loop autovectorizes (subtract / abs / divide /
/// min / add over `CHUNK` lanes), with a scalar tail for the remainder.
///
/// **Chunk-invariance / twin policy.** Each pair's floating-point op
/// sequence is exactly [`GowerSpace::distance`]'s: per active (non-zero
/// range) dimension in ascending order, `((a[d]−b[d]).abs() / range_d)
/// .min(1.0)` added to that pair's private accumulator, then one division
/// by `dims`. Batching pairs into lanes reorders nothing *within* a pair,
/// so every row value is bit-for-bit identical to one
/// [`GowerSpace::distance`] call regardless of chunk width, stripe
/// boundaries, or thread count — the invariant this module's tests pin with
/// `to_bits` assertions against a materialized distance matrix.
///
/// Tiles run in parallel via [`rlb_util::par`]; each tile emits a
/// `complexity.tile` span and bumps the `complexity.tiles` /
/// `complexity.tile.rows` counters (the complexity crate is the engine's
/// consumer — see Table I's neighborhood and network measure groups).
#[derive(Debug, Clone)]
pub struct DistanceEngine {
    space: GowerSpace,
    flat: Vec<f64>,
    /// Column-major copy: `cols[d * n + j]` is dimension `d` of point `j`.
    cols: Vec<f64>,
    /// Dimensions with a positive fitted range, ascending — the only ones
    /// [`GowerSpace::distance`] lets contribute.
    active: Vec<usize>,
    n: usize,
    dims: usize,
    tile_rows: usize,
}

impl DistanceEngine {
    /// Fits the Gower ranges and lays the points out both row-major and
    /// columnar. Returns `None` for empty input, like [`GowerSpace::fit`].
    pub fn fit<R: AsRef<[f64]>>(data: &[R]) -> Option<Self> {
        let space = GowerSpace::fit(data)?;
        let n = data.len();
        let dims = space.dims();
        let mut flat = Vec::with_capacity(n * dims);
        for row in data {
            flat.extend_from_slice(row.as_ref());
        }
        let mut cols = vec![0.0; n * dims];
        for (j, row) in flat.chunks_exact(dims.max(1)).enumerate() {
            for (d, &v) in row.iter().enumerate() {
                cols[d * n + j] = v;
            }
        }
        let active = (0..dims).filter(|&d| space.ranges[d] > 0.0).collect();
        // Tile size targets ~8 tiles per worker so uneven row cost balances;
        // the floor of 32 tiles keeps the tile count above par_map_range's
        // sequential cutoff even on low-core machines.
        let tile_targets = (rlb_util::par::thread_count() * 8).max(32);
        let tile_rows = n.div_ceil(tile_targets).max(1);
        Some(DistanceEngine {
            space,
            flat,
            cols,
            active,
            n,
            dims,
            tile_rows,
        })
    }

    /// Number of fitted points.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the engine holds no points (never constructed by [`fit`],
    /// which refuses empty input; kept for API completeness).
    ///
    /// [`fit`]: DistanceEngine::fit
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The fitted normalization space.
    pub fn space(&self) -> &GowerSpace {
        &self.space
    }

    /// Rows per tile in [`map_rows`](DistanceEngine::map_rows).
    pub fn tile_rows(&self) -> usize {
        self.tile_rows
    }

    /// The `i`-th fitted point.
    pub fn point(&self, i: usize) -> &[f64] {
        &self.flat[i * self.dims..(i + 1) * self.dims]
    }

    /// Gower distance between fitted points `i` and `j`.
    pub fn distance(&self, i: usize, j: usize) -> f64 {
        self.space.distance(self.point(i), self.point(j))
    }

    /// Columnar chunked kernel: fills `out[k] = d(q, point(j0 + k))` for a
    /// contiguous span of fitted points.
    ///
    /// `CHUNK` (8) pairs accumulate side by side over the column-major layout
    /// (the inner loop is `CHUNK` independent subtract/abs/divide/min/add
    /// lanes, which the optimizer vectorizes), then a scalar tail finishes
    /// the remainder. Per-pair FP op order is exactly
    /// [`GowerSpace::distance`]'s — active dimensions ascending into a
    /// private accumulator, one final division by `dims` — so results are
    /// `to_bits`-identical to the scalar kernel for every span offset and
    /// length.
    pub fn query_span_into(&self, q: &[f64], j0: usize, out: &mut [f64]) {
        debug_assert_eq!(q.len(), self.dims, "query dims");
        assert!(j0 + out.len() <= self.n, "span out of bounds");
        if self.dims == 0 {
            out.fill(0.0);
            return;
        }
        let n = self.n;
        let dims = self.dims as f64;
        let len = out.len();
        let mut j = 0;
        while j + CHUNK <= len {
            let mut acc = [0.0f64; CHUNK];
            for &d in &self.active {
                let qv = q[d];
                let range = self.space.ranges[d];
                let base = d * n + j0 + j;
                let col = &self.cols[base..base + CHUNK];
                for w in 0..CHUNK {
                    acc[w] += ((qv - col[w]).abs() / range).min(1.0);
                }
            }
            for w in 0..CHUNK {
                out[j + w] = acc[w] / dims;
            }
            j += CHUNK;
        }
        while j < len {
            let mut total = 0.0;
            for &d in &self.active {
                let v = self.cols[d * n + j0 + j];
                total += ((q[d] - v).abs() / self.space.ranges[d]).min(1.0);
            }
            out[j] = total / dims;
            j += 1;
        }
    }

    /// Fills `out` with the distance from an arbitrary query vector to every
    /// fitted point (`out[j] = d(q, point(j))`, no diagonal zeroing — `q`
    /// need not be a fitted point). Used by n4's interpolated-point scans.
    pub fn query_row_into(&self, q: &[f64], out: &mut [f64]) {
        assert_eq!(out.len(), self.n, "row buffer length");
        self.query_span_into(q, 0, out);
    }

    /// Fills `out` with distance row `i` (`out[j] = d(i, j)`, zero
    /// diagonal), bit-identical to [`GowerSpace::distance`] on each pair.
    pub fn row_into(&self, i: usize, out: &mut [f64]) {
        assert_eq!(out.len(), self.n, "row buffer length");
        self.query_span_into(self.point(i), 0, out);
        out[i] = 0.0;
    }

    /// Streams every distance row through `f` and collects the results in
    /// row order: the streaming equivalent of mapping over the rows of a
    /// materialized distance matrix.
    ///
    /// Rows are produced tile by tile in parallel; each tile reuses a single
    /// flat row buffer, so the buffer passed to `f` is only valid for that
    /// call.
    pub fn map_rows<T, F>(&self, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, &[f64]) -> T + Sync,
    {
        let tiles = self.n.div_ceil(self.tile_rows);
        let per_tile: Vec<Vec<T>> = rlb_util::par::par_map_range(tiles, |t| {
            let start = t * self.tile_rows;
            let end = ((t + 1) * self.tile_rows).min(self.n);
            let _span = rlb_obs::span!("complexity.tile", "rows {start}..{end} of {}", self.n);
            rlb_obs::counter_add("complexity.tiles", 1);
            rlb_obs::counter_add("complexity.tile.rows", (end - start) as u64);
            let mut buf = vec![0.0; self.n];
            let mut out = Vec::with_capacity(end - start);
            for i in start..end {
                self.row_into(i, &mut buf);
                out.push(f(i, &buf));
            }
            out
        });
        let mut out = Vec::with_capacity(self.n);
        for part in per_tile {
            out.extend(part);
        }
        out
    }

    /// Bytes of one flat row buffer (`n` doubles).
    pub fn row_buffer_bytes(&self) -> usize {
        self.n * std::mem::size_of::<f64>()
    }

    /// Upper bound on concurrently live distance-buffer bytes during
    /// [`map_rows`](DistanceEngine::map_rows): one row buffer per in-flight
    /// tile, at most one tile per worker thread.
    pub fn peak_buffer_bytes(&self) -> usize {
        let tiles = self.n.div_ceil(self.tile_rows.max(1)).max(1);
        tiles.min(rlb_util::par::thread_count()) * self.row_buffer_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_requires_data() {
        assert!(GowerSpace::fit::<Vec<f64>>(&[]).is_none());
        assert!(DistanceEngine::fit::<Vec<f64>>(&[]).is_none());
    }

    #[test]
    fn distance_is_normalized_mean_of_abs_diffs() {
        let data = vec![vec![0.0, 0.0], vec![10.0, 1.0]];
        let g = GowerSpace::fit(&data).unwrap();
        // dim0 range 10, dim1 range 1.
        let d = g.distance(&[0.0, 0.0], &[5.0, 0.5]);
        assert!((d - 0.5).abs() < 1e-12);
        assert_eq!(g.distance(&[0.0, 0.0], &[0.0, 0.0]), 0.0);
        assert_eq!(g.distance(&[0.0, 0.0], &[10.0, 1.0]), 1.0);
    }

    #[test]
    fn zero_range_dimension_is_ignored() {
        let data = vec![vec![3.0, 0.0], vec![3.0, 2.0]];
        let g = GowerSpace::fit(&data).unwrap();
        let d = g.distance(&[3.0, 0.0], &[3.0, 2.0]);
        // Only dim1 contributes: |0-2|/2 / 2 dims = 0.5.
        assert!((d - 0.5).abs() < 1e-12);
    }

    #[test]
    fn bounded_and_symmetric() {
        let data: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![i as f64, (i * i % 7) as f64])
            .collect();
        let g = GowerSpace::fit(&data).unwrap();
        for a in &data {
            for b in &data {
                let d = g.distance(a, b);
                assert!((0.0..=1.0).contains(&d));
                assert!((d - g.distance(b, a)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn pairwise_matrix_shape_and_diagonal() {
        let data = vec![vec![0.0], vec![1.0], vec![0.5]];
        let g = GowerSpace::fit(&data).unwrap();
        let m = g.pairwise(&data);
        assert_eq!(m.len(), 3);
        for (i, row) in m.iter().enumerate() {
            assert_eq!(row[i], 0.0);
            for (j, &v) in row.iter().enumerate() {
                assert_eq!(v, m[j][i]);
            }
        }
        assert_eq!(m[0][1], 1.0);
        assert_eq!(m[0][2], 0.5);
    }

    #[test]
    fn engine_rows_match_pairwise_bitwise() {
        let mut rng = rlb_util::Prng::seed_from_u64(7);
        for &n in &[2usize, 3, 33, 200] {
            let data: Vec<Vec<f64>> = (0..n)
                .map(|_| vec![rng.f64(), rng.f64() * 10.0, rng.f64() - 0.5])
                .collect();
            let space = GowerSpace::fit(&data).unwrap();
            let matrix = space.pairwise(&data);
            let engine = DistanceEngine::fit(&data).unwrap();
            assert_eq!(engine.len(), n);
            let mut buf = vec![0.0; n];
            for (i, expected) in matrix.iter().enumerate() {
                engine.row_into(i, &mut buf);
                for (j, (got, want)) in buf.iter().zip(expected).enumerate() {
                    assert_eq!(got.to_bits(), want.to_bits(), "({i},{j})");
                }
            }
        }
    }

    #[test]
    fn distance_engine_rows_match_pairwise_bitwise() {
        // Engine-level twin identity down to n = 2, below compute()'s 4-point
        // floor: each streamed row equals the corresponding materialized
        // pairwise row bit for bit.
        let mut rng = rlb_util::Prng::seed_from_u64(0x51_10);
        for case in 0..32 {
            let n = rng.range(2, 62);
            let dim = rng.range(1, 5);
            let xs: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..dim).map(|_| rng.f64()).collect())
                .collect();
            let engine = DistanceEngine::fit(&xs).unwrap();
            let dists = GowerSpace::fit(&xs).unwrap().pairwise(&xs);
            let rows: Vec<Vec<f64>> = engine.map_rows(|_, row| row.to_vec());
            for (i, (sr, rr)) in rows.iter().zip(&dists).enumerate() {
                assert_eq!(sr.len(), rr.len(), "case {case} row {i} length");
                for (j, (a, b)) in sr.iter().zip(rr).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "case {case}: row {i} col {j} ({a} vs {b})"
                    );
                }
            }
        }
    }

    #[test]
    fn engine_map_rows_preserves_row_order() {
        let data: Vec<Vec<f64>> = (0..150).map(|i| vec![i as f64]).collect();
        let engine = DistanceEngine::fit(&data).unwrap();
        let sums = engine.map_rows(|i, row| (i, row.iter().sum::<f64>()));
        assert_eq!(sums.len(), 150);
        let matrix = engine.space().pairwise(&data);
        for (i, (idx, sum)) in sums.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(
                sum.to_bits(),
                matrix[i].iter().sum::<f64>().to_bits(),
                "row {i}"
            );
        }
    }

    #[test]
    fn engine_rows_bitwise_at_chunk_edge_geometry() {
        // Every n straddling the CHUNK boundary, plus a constant (zero-range)
        // column and a column that is the only active one.
        let mut rng = rlb_util::Prng::seed_from_u64(0xC0DE);
        for n in 1..=(3 * CHUNK + 1) {
            let data: Vec<Vec<f64>> = (0..n)
                .map(|_| vec![4.25, rng.f64() * 3.0, -1.0, rng.f64()])
                .collect();
            let space = GowerSpace::fit(&data).unwrap();
            let matrix = space.pairwise(&data);
            let engine = DistanceEngine::fit(&data).unwrap();
            let mut buf = vec![0.0; n];
            for (i, expected) in matrix.iter().enumerate() {
                engine.row_into(i, &mut buf);
                for j in 0..n {
                    assert_eq!(buf[j].to_bits(), expected[j].to_bits(), "n={n} ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn engine_all_constant_columns_give_zero_distance() {
        let data = vec![vec![2.0, 7.0]; 10];
        let engine = DistanceEngine::fit(&data).unwrap();
        let mut buf = vec![1.0; 10];
        engine.row_into(3, &mut buf);
        assert!(buf.iter().all(|&d| d == 0.0));
    }

    #[test]
    fn engine_query_row_matches_scalar_distance() {
        let mut rng = rlb_util::Prng::seed_from_u64(11);
        let data: Vec<Vec<f64>> = (0..37).map(|_| vec![rng.f64(), rng.f64() * 5.0]).collect();
        let engine = DistanceEngine::fit(&data).unwrap();
        // Interpolated query point not in the fitted set, like n4 generates.
        let q = [0.31_f64, 2.77];
        let mut buf = vec![0.0; 37];
        engine.query_row_into(&q, &mut buf);
        for (j, row) in data.iter().enumerate() {
            let want = engine.space().distance(&q, row);
            assert_eq!(buf[j].to_bits(), want.to_bits(), "query vs point {j}");
        }
    }

    #[test]
    fn engine_span_offsets_do_not_change_bits() {
        let mut rng = rlb_util::Prng::seed_from_u64(23);
        let n = 50;
        let data: Vec<Vec<f64>> = (0..n).map(|_| vec![rng.f64(), rng.f64()]).collect();
        let engine = DistanceEngine::fit(&data).unwrap();
        let q = engine.point(7).to_vec();
        let mut whole = vec![0.0; n];
        engine.query_span_into(&q, 0, &mut whole);
        // Refill through misaligned spans: same bits everywhere.
        for split in [1usize, 7, 8, 9, 13, 49] {
            let mut pieced = vec![f64::NAN; n];
            let (a, b) = pieced.split_at_mut(split);
            engine.query_span_into(&q, 0, a);
            engine.query_span_into(&q, split, b);
            for j in 0..n {
                assert_eq!(
                    pieced[j].to_bits(),
                    whole[j].to_bits(),
                    "split={split} j={j}"
                );
            }
        }
    }

    #[test]
    fn engine_accepts_dense_array_rows() {
        let ragged = vec![vec![0.0, 1.0], vec![1.0, 0.0], vec![0.25, 0.75]];
        let dense: Vec<[f64; 2]> = ragged.iter().map(|r| [r[0], r[1]]).collect();
        let a = DistanceEngine::fit(&ragged).unwrap();
        let b = DistanceEngine::fit(&dense).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(a.distance(i, j).to_bits(), b.distance(i, j).to_bits());
            }
        }
    }

    #[test]
    fn engine_buffer_accounting_is_linear_in_n() {
        let data: Vec<Vec<f64>> = (0..1000).map(|i| vec![i as f64, 0.0]).collect();
        let engine = DistanceEngine::fit(&data).unwrap();
        assert_eq!(engine.row_buffer_bytes(), 1000 * 8);
        assert!(engine.tile_rows() >= 1);
        assert!(engine.peak_buffer_bytes() >= engine.row_buffer_bytes());
        assert!(engine.peak_buffer_bytes() <= rlb_util::par::thread_count() * 1000 * 8);
    }
}

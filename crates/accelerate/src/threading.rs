//! Scoped row-block parallelism for the blocked BLAS driver.
//!
//! Accelerate parallelizes large GEMMs across the performance cluster; the
//! simulator's functional path does the same on host threads: the output
//! row range is split into contiguous blocks, one `std` scoped thread
//! per block. (The *modeled* time comes from the AMX model — host threads
//! only make functional verification fast.)

/// Split `rows` into at most `workers` contiguous, non-empty ranges.
pub fn row_blocks(rows: usize, workers: usize) -> Vec<std::ops::Range<usize>> {
    if rows == 0 || workers == 0 {
        return Vec::new();
    }
    let workers = workers.min(rows);
    let base = rows / workers;
    let extra = rows % workers;
    let mut blocks = Vec::with_capacity(workers);
    let mut start = 0;
    for w in 0..workers {
        let len = base + usize::from(w < extra);
        blocks.push(start..start + len);
        start += len;
    }
    blocks
}

/// Run `body` over disjoint row-blocks of `output` in parallel.
///
/// `output` is a row-major matrix of `rows` rows × `row_len` columns;
/// each worker receives its row range and the matching mutable slice.
pub fn parallel_row_blocks<F>(
    output: &mut [f32],
    rows: usize,
    row_len: usize,
    workers: usize,
    body: F,
) where
    F: Fn(std::ops::Range<usize>, &mut [f32]) + Sync,
{
    assert!(output.len() >= rows * row_len, "output too short");
    let blocks = row_blocks(rows, workers);
    if blocks.len() <= 1 {
        if let Some(range) = blocks.into_iter().next() {
            let slice = &mut output[range.start * row_len..range.end * row_len];
            body(range, slice);
        }
        return;
    }
    // Carve disjoint mutable slices, then run them on scoped threads.
    let mut remaining = &mut output[..rows * row_len];
    let mut work: Vec<(std::ops::Range<usize>, &mut [f32])> = Vec::with_capacity(blocks.len());
    let mut consumed = 0usize;
    for range in blocks {
        let len = (range.end - range.start) * row_len;
        let (head, tail) = remaining.split_at_mut(range.start * row_len - consumed + len);
        // head spans [consumed, range.end*row_len): its tail part is ours.
        let own_start = head.len() - len;
        let (_, own) = head.split_at_mut(own_start);
        work.push((range.clone(), own));
        consumed = range.end * row_len;
        remaining = tail;
    }
    std::thread::scope(|scope| {
        for (range, slice) in work {
            let body = &body;
            scope.spawn(move || body(range, slice));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_blocks_cover_exactly() {
        for rows in [1usize, 5, 16, 100, 1023] {
            for workers in [1usize, 2, 3, 8, 64] {
                let blocks = row_blocks(rows, workers);
                assert!(!blocks.is_empty());
                assert_eq!(blocks[0].start, 0);
                assert_eq!(blocks.last().unwrap().end, rows);
                for pair in blocks.windows(2) {
                    assert_eq!(pair[0].end, pair[1].start, "contiguous");
                }
                for b in &blocks {
                    assert!(!b.is_empty());
                }
                assert!(blocks.len() <= workers.min(rows));
            }
        }
    }

    #[test]
    fn degenerate_inputs() {
        assert!(row_blocks(0, 4).is_empty());
        assert!(row_blocks(4, 0).is_empty());
    }

    #[test]
    fn parallel_blocks_write_disjointly() {
        let rows = 37;
        let row_len = 11;
        let mut out = vec![0.0f32; rows * row_len];
        parallel_row_blocks(&mut out, rows, row_len, 4, |range, slice| {
            for (offset, v) in slice.iter_mut().enumerate() {
                let row = range.start + offset / row_len;
                *v = row as f32;
            }
        });
        for row in 0..rows {
            for col in 0..row_len {
                assert_eq!(out[row * row_len + col], row as f32, "row {row} col {col}");
            }
        }
    }

    #[test]
    fn single_worker_path() {
        let mut out = vec![0.0f32; 12];
        parallel_row_blocks(&mut out, 3, 4, 1, |range, slice| {
            assert_eq!(range, 0..3);
            slice.fill(5.0);
        });
        assert!(out.iter().all(|&v| v == 5.0));
    }
}

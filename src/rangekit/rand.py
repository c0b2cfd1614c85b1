"""Deterministic, partition-independent Monte Carlo trial streams.

Trials run in fixed blocks of ``BLOCK_TRIALS``, each drawing its noise in
bulk, in row-major trial order, from one counter-based Philox generator keyed
by (master seed, block start).  Workers run whole blocks and results are
assembled in trial-index order, so reports are bit-identical for any worker
count, and a partial last block draws a prefix of the full block's stream.
The Monte Carlo engines return per-block sums rather than per-trial values,
and build their reports from those sums added in block order, so their
memory does not grow with the trial count.
"""

from __future__ import annotations

import numpy as np

BLOCK_TRIALS = 512  # trials per generator key; also bounds each block's memory


def check_seed(seed) -> int:
    """Return ``seed`` if it is an integer in [0, 2**64); raise ValueError otherwise."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return int(seed)


def trial_generator(seed: int, trial_index: int) -> np.random.Generator:
    """Generator for the block of trials starting at ``trial_index``, keyed by (seed, trial_index)."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, trial_index], dtype=np.uint64)))


def partition(trials: int, workers: int) -> list[range]:
    """Split range(trials) into <= workers contiguous, block-aligned chunks."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    n_blocks = -(-trials // BLOCK_TRIALS)
    workers = min(workers, n_blocks)
    bounds = [min(trials, (i * n_blocks // workers) * BLOCK_TRIALS) for i in range(workers + 1)]
    return [range(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


def run_trials(chunk_fn, trials: int, workers: int = 1) -> np.ndarray:
    """Call ``chunk_fn(block)`` once per block of trial indices, each worker
    running one contiguous run of blocks, and concatenate the returned arrays
    in index order.  A block returns one row per trial or a fixed number of
    summary rows, never more rows than a full block.  Rows are copied into
    one buffer per worker as each block finishes, so no per-block array
    outlives its block."""

    def run_chunk(chunk: range) -> np.ndarray:
        out, end = None, 0
        for start in range(chunk.start, chunk.stop, BLOCK_TRIALS):
            rows = chunk_fn(range(start, min(start + BLOCK_TRIALS, chunk.stop)))
            if out is None:  # the first block is full unless it is the chunk's only one
                n_blocks = -(-len(chunk) // BLOCK_TRIALS)
                out = np.empty((n_blocks * len(rows), *rows.shape[1:]), rows.dtype)
            out[end:end + len(rows)] = rows
            end += len(rows)
        return out[:end]

    chunks = partition(trials, workers)
    if len(chunks) == 1:  # stay in this thread: a fresh thread's malloc arena inflates peak RSS
        return run_chunk(chunks[0])
    from concurrent.futures import ThreadPoolExecutor  # only runs with workers > 1 pay its import
    with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
        return np.concatenate(list(pool.map(run_chunk, chunks)))

"""Deterministic, partition-independent Monte Carlo trial streams.

Trials run in fixed blocks of ``BLOCK_TRIALS``, each drawing its noise in
bulk, in row-major trial order, from its own SFC64 generator, seeded by
``SeedSequence(master seed, spawn_key=(block start,))``, so a partial last
block draws a prefix of the full block's stream.  A block reduces its
trials to a small summary (a few sums), and :func:`run_trials` adds the
summaries left to right in block order, so results are bit-identical for
any worker count.  With one worker only the running sum is kept, and
memory does not grow with the trial count; with more, each block's summary
is held until the ordered sum.
"""

from __future__ import annotations

import functools
import itertools
import operator

import numpy as np

BLOCK_TRIALS = 512  # trials per generator key; also bounds each block's memory


def check_seed(seed) -> int:
    """Return ``seed`` if it is an integer in [0, 2**64); raise ValueError otherwise."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return int(seed)


def trial_generator(seed: int, trial_index: int) -> np.random.Generator:
    """Generator for the block of trials starting at ``trial_index``: SFC64
    seeded by the seed sequence of ``seed`` spawned at ``(trial_index,)``."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(trial_index,))))


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


def blocks(trials: range):
    """The blocks of ``trials`` (a block-aligned range), in index order."""
    for start in range(trials.start, trials.stop, BLOCK_TRIALS):
        yield range(start, min(start + BLOCK_TRIALS, trials.stop))


def run_trials(block_fn, trials: int, workers: int = 1):
    """Sum ``block_fn(block)`` over the blocks of ``range(trials)``, added left
    to right in block order, whatever the worker count.  Each worker runs one
    contiguous chunk of blocks from :func:`partition`; one worker adds each
    result to the running sum as its block finishes, more keep their blocks'
    results until their chunks are done."""
    chunks = partition(trials, workers)
    if len(chunks) == 1:  # stay in this thread: a fresh thread's malloc arena inflates peak RSS
        return functools.reduce(operator.add, map(block_fn, blocks(chunks[0])))
    from concurrent.futures import ThreadPoolExecutor  # only runs with workers > 1 pay its import
    with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
        results = pool.map(lambda chunk: list(map(block_fn, blocks(chunk))), chunks)
        return functools.reduce(operator.add, itertools.chain.from_iterable(results))

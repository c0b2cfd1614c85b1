"""Block-keyed trial engine tests."""

import numpy as np

from rangekit import rand


def test_seeds_above_2_63_give_distinct_streams():
    a = rand.trial_generator(2**63, 0).standard_normal(8)
    b = rand.trial_generator(2**63 + 5, 0).standard_normal(8)
    assert not np.array_equal(a, b)


def test_run_trials_calls_chunk_fn_once_per_block():
    block = rand.BLOCK_TRIALS
    trials = 2 * block + 76
    for workers in (1, 2, 3, 8):
        seen = rand.run_trials(lambda b: np.array([[b.start, b.stop]]), trials, workers)
        expected = [[0, block], [block, 2 * block], [2 * block, trials]]
        assert seen.tolist() == expected
        assert all(c.start % block == 0 for c in rand.partition(trials, workers))

"""Block-keyed trial engine tests."""

import functools
import operator

import numpy as np

from rangekit import rand


def test_trial_generator_is_sfc64_keyed_by_seed_sequence():
    # the documented stream, and the same key always gives it
    expected = np.random.Generator(np.random.SFC64(np.random.SeedSequence(3, spawn_key=(1024,))))
    a = rand.trial_generator(3, 1024).standard_normal(16)
    assert np.array_equal(a, expected.standard_normal(16))
    assert np.array_equal(a, rand.trial_generator(3, 1024).standard_normal(16))


def test_partial_block_draws_a_prefix_of_the_full_block():
    full = rand.trial_generator(9, rand.BLOCK_TRIALS).standard_normal((rand.BLOCK_TRIALS, 10))
    for rows in (1, 100, rand.BLOCK_TRIALS - 1):
        part = rand.trial_generator(9, rand.BLOCK_TRIALS).standard_normal((rows, 10))
        assert np.array_equal(part, full[:rows])


def test_blocks_and_seeds_give_distinct_streams():
    keys = [(0, 0), (0, rand.BLOCK_TRIALS), (rand.BLOCK_TRIALS, 0), (2**64 - 1, 0)]
    draws = [rand.trial_generator(seed, start).standard_normal(8) for seed, start in keys]
    for i in range(len(draws)):
        for j in range(i):
            assert not np.array_equal(draws[i], draws[j]), (keys[i], keys[j])


def test_seeds_above_2_63_give_distinct_streams():
    a = rand.trial_generator(2**63, 0).standard_normal(8)
    b = rand.trial_generator(2**63 + 5, 0).standard_normal(8)
    assert not np.array_equal(a, b)


def test_run_trials_folds_block_summaries_in_block_order():
    # block k returns its length at index k and terms[k] last; float addition
    # of terms is not associative, so only the left fold in block order gives
    # `expected`, and per-worker partial sums or another order would not
    block = rand.BLOCK_TRIALS
    terms = [1e16, 3.0, 1e16, 1.0, -1e16, 1.0, 1e16, -1e16, 1.0, 1.0]
    for trials in (1, 511, 512, 513, 9 * block + 76):
        n_blocks = -(-trials // block)

        def block_fn(b):
            out = np.zeros(n_blocks + 1)
            out[b.start // block] = len(b)
            out[-1] = terms[b.start // block]
            return out

        lengths = [min(block, trials - k * block) for k in range(n_blocks)]
        expected = functools.reduce(operator.add, terms[:n_blocks])
        for workers in (1, 2, 3, 8, n_blocks + 1):  # the last is more workers than blocks
            total = rand.run_trials(block_fn, trials, workers)
            assert total[:-1].tolist() == lengths
            assert total[-1] == expected
            assert all(c.start % block == 0 for c in rand.partition(trials, workers))
    # the ten-block case tells the block-order fold from these other groupings
    assert expected == 1.0000000000000004e16
    assert sum(terms[5:]) + sum(terms[:5]) != expected
    assert functools.reduce(operator.add, terms[::-1]) != expected

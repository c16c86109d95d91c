import math

import numpy as np
import pytest

from cid.imputation import substream
from cid.streams import (BLOCK, GAMMAS, MASK, UNIFORMS, Stream, key,
                         uniforms)


def splitmix64(state: int, count: int) -> list:
    """The first count outputs of SplitMix64 started from state, one step
    at a time: the sequential generator the counters index."""
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


class TestRaw:
    def test_published_outputs(self):
        # SplitMix64 from state 1234567, as in its reference implementation
        assert Stream(1234567).raw((UNIFORMS,), np.arange(3)).tolist() == [
            [6457827717110365317, 3203168211198807973, 9817491932198370423]]

    @pytest.mark.parametrize("state", [0, 1, 2**63, MASK])
    def test_counter_c_is_output_c_plus_1(self, state):
        stream = Stream(state)
        assert stream.raw((UNIFORMS,), np.arange(50)).tolist() == \
            [splitmix64(state, 50)]
        # family f starts at counter f * 2**40 of the same sequence
        assert stream.raw((3,), [7]).tolist() == \
            stream.raw((UNIFORMS,), [3 * 2**40 + 7]).tolist()

    def test_families_are_stacked(self):
        stream = Stream(key(9, 2))
        index = np.array([0, 5, 2**39])
        assert stream.raw((2, 0, 5), index).tolist() == [
            stream.raw((f,), index)[0].tolist() for f in (2, 0, 5)]


class TestUniforms:
    def test_in_unit_interval(self):
        raw = np.array([0, 2**11 - 1, 2**11, 2**63, MASK - 2**11, MASK],
                       dtype=np.uint64)
        assert uniforms(raw).tolist() == [0.0, 0.0, 2.0**-53, 0.5,
                                          1.0 - 2.0**-52, 1.0 - 2.0**-53]
        u = Stream(key(1)).random(UNIFORMS, np.arange(10**6))
        assert 0.0 <= u.min() and u.max() < 1.0
        assert u.mean() == pytest.approx(0.5, abs=4 * math.sqrt(1 / 12e6))

    def test_seeds_give_distinct_streams(self):
        seeds = [0, 5, 2**53, 2**53 + 1, 2**64, 2**64 + 5, 2**128 + 5]
        draws = {tuple(substream(seed, 0).random(UNIFORMS, np.arange(4)))
                 for seed in seeds}
        assert len(draws) == len(seeds)
        assert len({key(seed) for seed in seeds}) == len(seeds)
        # the round is part of the key
        assert len({key(7, m) for m in range(100)}) == 100


class TestGammas:
    @pytest.mark.parametrize("shape", [1.0, 64.0, 1e5])
    def test_mean_and_variance(self, shape):
        # over 10**6 draws, each moment within 4 standard errors; the
        # variance of a sample variance is (mu4 - sigma**4) / n, and the
        # gamma's fourth central moment is 3 a (a + 2)
        n = 10**6
        g = Stream(key(20240101, int(shape))).gammas(np.full(n, shape))
        assert abs(g.mean() - shape) <= 4 * math.sqrt(shape / n)
        var_se = math.sqrt((3 * shape * (shape + 2) - shape**2) / n)
        assert abs(g.var() - shape) <= 4 * var_se

    def test_same_alone_in_a_batch_and_in_any_order(self):
        # shape 1 rejects about one first attempt in twenty, so the batch
        # holds variates decided by later attempts too
        stream = Stream(key(3, 1))
        shapes = np.concatenate((np.full(400, 1.0), np.full(100, 64.0),
                                 [1e5, 1.5, 2.0]))
        batch = stream.gammas(shapes)
        alone = [stream.gammas(shapes[i:i + 1], [i])[0]
                 for i in range(len(shapes))]
        assert batch.tolist() == alone
        order = np.random.default_rng(0).permutation(len(shapes))
        assert stream.gammas(shapes[order], order).tolist() == \
            batch[order].tolist()
        # a batch longer than one vectorised pass
        long = stream.gammas(np.full(BLOCK + 3, 64.0))
        assert long[BLOCK - 2:].tolist() == stream.gammas(
            np.full(5, 64.0), range(BLOCK - 2, BLOCK + 3)).tolist()
        # a later attempt decided some of them
        first = np.arange(len(shapes))
        u0, u1, u2 = (stream.random(GAMMAS + part, first) for part in range(3))
        x = np.sqrt(-2.0 * np.log1p(-u0)) * np.cos(np.pi * u1)
        d = shapes - 1.0 / 3.0
        v = (1.0 + x / np.sqrt(9.0 * d))**3
        with np.errstate(divide="ignore", invalid="ignore"):
            accepted = (v > 0.0) & (
                (u2 < 1.0 - 0.0331 * x**4)
                | (np.log(u2) < 0.5 * x**2 + d * (1.0 - v + np.log(v))))
        assert 5 <= np.count_nonzero(~accepted) <= 40

    @pytest.mark.parametrize("shape", [1.0, 64.0])
    def test_first_attempts_follow_the_exact_test(self, shape):
        # the squeeze only spares logarithms: a variate is its first
        # attempt's d*v exactly when that attempt passes the logarithmic test
        stream = Stream(key(11, int(shape)))
        n = 20_000
        g = stream.gammas(np.full(n, shape))
        d = shape - 1.0 / 3.0

        def attempt(k, index):
            """Attempt k's d*v and whether it passes the exact test."""
            u0, u1, u2 = (stream.random(GAMMAS + 3 * k + part, index)
                          for part in range(3))
            x = np.sqrt(-2.0 * np.log1p(-u0)) * np.cos(np.pi * u1)
            v = 1.0 + x / math.sqrt(9.0 * d)
            v *= v * v
            with np.errstate(divide="ignore", invalid="ignore"):
                accept = (v > 0.0) & (np.log(u2) < 0.5 * x * x
                                      + d * (1.0 - v + np.log(v)))
            return d * v, accept

        value, first = attempt(0, np.arange(n))
        assert 0 < np.count_nonzero(~first) < n // 10
        assert g[first].tolist() == value[first].tolist()
        left = np.flatnonzero(~first)
        for k in range(1, 10):
            value, accept = attempt(k, left)
            assert g[left[accept]].tolist() == value[accept].tolist()
            left = left[~accept]
        assert len(left) == 0

    def test_largest_key_and_seed_raise_no_warning(self):
        # the counters and keys wrap modulo 2**64 in uint64 arrays and Python
        # ints; a numpy scalar overflow would warn, and warnings are errors
        g = Stream(MASK).gammas(np.full(1000, 1.0), np.arange(2**40 - 1000,
                                                              2**40))
        assert np.all(g > 0.0)
        assert substream(2**200 - 1, 2**64 - 1).key != substream(0, 0).key

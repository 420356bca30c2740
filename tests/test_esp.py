import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sendrate.esp import (esp_grad_hess, esp_table, sample_fixed_size,
                          sample_fixed_size_rows)


def brute_esp(w, L):
    return sum(math.prod(w[k] for k in s)
               for s in itertools.combinations(range(len(w)), L))


def subset_law(w, L):
    """{subset: probability} of the fixed-size law, by enumeration."""
    mass = {s: math.prod(w[k] for k in s)
            for s in itertools.combinations(range(len(w)), L)}
    total = sum(mass.values())
    return {s: m / total for s, m in mass.items()}


def loop_prefix_table(w, L):
    """The triangular recurrence one item at a time: row r is e_0..e_L
    of the first r weights."""
    e = np.zeros(L + 1)
    e[0] = 1.0
    rows = [e.copy()]
    for x in w:
        e[1:] = e[1:] + x * e[:-1]
        rows.append(e.copy())
    return np.array(rows)


def loop_suffix_table(w, L):
    """suffix[r, l] = e_l(w[r:]), built right to left one item at a time."""
    R = len(w)
    suffix = np.zeros((R + 1, L + 1))
    suffix[:, 0] = 1.0
    for r in range(R - 1, -1, -1):
        suffix[r, 1:] = suffix[r + 1, 1:] + w[r] * suffix[r + 1, :-1]
    return suffix


class TestValues:
    def test_equal_weights(self):
        e = esp_table([1.0, 1.0, 1.0], 2)[-1]
        assert e[2] == 3.0   # three equal pairs

    def test_hand_enumeration(self):
        e = esp_table([1.0, 2.0, 3.0], 2)[-1]
        assert e[2] == 11.0  # 1*2 + 1*3 + 2*3

    def test_random_vs_enumeration(self, rng):
        for _ in range(25):
            n = int(rng.integers(3, 10))
            L = int(rng.integers(1, min(n, 5)))
            w = rng.uniform(0.1, 3.0, size=n)
            assert_allclose(esp_table(w, L)[-1, L], brute_esp(w.tolist(), L),
                            rtol=1e-12)

    def test_zeros_are_transparent(self, rng):
        w = np.array([0.0, 2.0, 0.0, 3.0, 4.0])
        assert_allclose(esp_table(w, 2)[-1, 2], brute_esp(w.tolist(), 2))

    def test_table_equals_loop_recurrence(self, rng):
        # same products added in the same order: equal to the last bit,
        # for the prefix table and for the reversed table the sampler uses
        for _ in range(300):
            n = int(rng.integers(0, 40))
            L = int(rng.integers(0, 7))
            w = np.exp(rng.normal(0.0, 4.0, size=n))
            w[rng.random(n) < 0.2] = 0.0
            table = esp_table(w, L)
            assert np.array_equal(table, loop_prefix_table(w, L))
            assert np.array_equal(esp_table(w[::-1], L)[::-1],
                                  loop_suffix_table(w, L))
        # a batch of weight vectors along the last axis: each row's table
        # is the one-vector table, to the last bit
        for trial in range(50):
            lead = (5,) if trial % 2 else (3, 4)
            n = int(rng.integers(0, 20))
            L = int(rng.integers(0, 7))
            w = np.exp(rng.normal(0.0, 4.0, size=lead + (n,)))
            w[rng.random(w.shape) < 0.2] = 0.0
            table = esp_table(w, L)
            assert table.shape == lead + (n + 1, L + 1)
            for row in np.ndindex(*lead):
                assert np.array_equal(table[row], esp_table(w[row], L))


class TestGradHess:
    def test_matches_enumeration(self, rng):
        for _ in range(10):
            n = int(rng.integers(3, 8))
            L = int(rng.integers(1, min(n, 4) + 1))
            p = 3
            w = rng.uniform(0.2, 2.0, size=n)
            X = rng.normal(size=(n, p))
            S0, S1, S2 = esp_grad_hess(w, X, L)
            subsets = list(itertools.combinations(range(n), L))
            S0b = sum(np.prod(w[list(s)]) for s in subsets)
            S1b = sum(np.prod(w[list(s)]) * X[list(s)].sum(0) for s in subsets)
            S2b = sum(np.prod(w[list(s)])
                      * np.outer(X[list(s)].sum(0), X[list(s)].sum(0))
                      for s in subsets)
            assert_allclose(S0, S0b, rtol=1e-11)
            assert_allclose(S1, S1b, rtol=1e-11)
            assert_allclose(S2, S2b, rtol=1e-11)

    def test_moments_psd(self, rng):
        w = rng.uniform(0.5, 2.0, size=7)
        X = rng.normal(size=(7, 4))
        S0, S1, S2 = esp_grad_hess(w, X, 3)
        mean = S1 / S0
        eig = np.linalg.eigvalsh(S2 / S0 - np.outer(mean, mean))
        assert eig.min() > -1e-12


class TestSamplers:
    def test_forced_full_set(self, rng):
        assert sample_fixed_size([1.0, 2.0, 3.0], 3, rng) == [0, 1, 2]

    def test_zero_weights_never_drawn(self, rng):
        w = np.array([1.0, 0.0, 2.0, 0.0])
        for _ in range(200):
            s = sample_fixed_size(w, 2, rng)
            assert s == [0, 2]

    def test_oversized_request_fails(self, rng):
        with pytest.raises(ValueError):
            sample_fixed_size([1.0, 0.0], 2, rng)

    def test_dp_law_matches_enumeration(self, rng):
        w = np.array([4.0, 1.0, 1.0])
        # pair probabilities proportional to {4, 4, 1}
        counts = {}
        for _ in range(20000):
            s = tuple(sample_fixed_size(w, 2, rng))
            counts[s] = counts.get(s, 0) + 1
        freq = {k: v / 20000 for k, v in counts.items()}
        assert abs(freq[(0, 1)] - 4 / 9) < 0.02
        assert abs(freq[(0, 2)] - 4 / 9) < 0.02
        assert abs(freq[(1, 2)] - 1 / 9) < 0.02

    def test_uniform_pairs(self, rng):
        w = np.ones(4)
        counts = np.zeros((4, 4))
        n = 30000
        for _ in range(n):
            a, b = sample_fixed_size(w, 2, rng)
            counts[a, b] += 1
        for pair in itertools.combinations(range(4), 2):
            assert abs(counts[pair] / n - 1 / 6) < 0.02

    def test_enumeration_method_agrees(self, rng):
        w = np.array([1.0, 2.0, 0.5, 1.5])
        law = subset_law(w, 2)
        counts = {}
        for _ in range(20000):
            s = tuple(sample_fixed_size(w, 2, rng))
            counts[s] = counts.get(s, 0) + 1
        for s, pr in law.items():
            assert abs(counts.get(s, 0) / 20000 - pr) < 0.02

    def test_rows_walk_equals_scalar_walk(self, rng):
        # one row at a time, the batched walk takes the same uniforms from
        # the generator and picks the same subset as the scalar walk,
        # also for zero weights and for sets forced by their support
        for trial in range(200):
            A = int(rng.integers(1, 30))
            w = np.exp(rng.normal(0.0, 1.5, size=A))
            w[rng.random(A) < 0.2] = 0.0
            w[rng.integers(A)] = 1.0
            support = int((w > 0).sum())
            L = support if trial % 5 == 0 else int(rng.integers(0, support + 1))
            seed = int(rng.integers(2 ** 32))
            make = (np.random.default_rng if trial % 2 else
                    lambda s: np.random.Generator(np.random.Philox(s)))
            scalar, rows = make(seed), make(seed)
            assert sample_fixed_size_rows(w[None], [L], rows).tolist() == \
                sample_fixed_size(w, L, scalar)
            assert rows.random() == scalar.random()

    def test_rows_law_with_mixed_sizes(self, rng):
        # every row of a batch with sizes 1, 2 and 3 follows its own
        # fixed-size law: five binomial standard deviations per subset
        w = np.array([4.0, 2.0, 1.0, 1.0])
        sizes = np.tile([2, 1, 2, 3], 50)
        n = 200
        counts = {L: {} for L in (1, 2, 3)}
        for _ in range(n):
            picks = sample_fixed_size_rows(np.tile(w, (len(sizes), 1)), sizes, rng)
            for L, s in zip(sizes, np.split(picks, np.cumsum(sizes)[:-1])):
                counts[L][tuple(s)] = counts[L].get(tuple(s), 0) + 1
        for L in (1, 2, 3):
            draws = n * int((sizes == L).sum())
            for s, pr in subset_law(w, L).items():
                assert abs(counts[L].get(s, 0) / draws - pr) \
                    <= 5 * math.sqrt(pr * (1 - pr) / draws)

    def test_rows_forced_and_zero_weights(self, rng):
        w = np.array([[1.0, 0.0, 2.0, 0.0, 3.0],
                      [0.0, 5.0, 0.0, 1.0, 0.0],
                      [1.0, 0.0, 2.0, 0.0, 3.0]])
        for _ in range(200):
            picks = sample_fixed_size_rows(w, [2, 2, 3], rng)
            first, forced, full = np.split(picks, [2, 4])
            assert len(set(first.tolist())) == 2
            assert set(first.tolist()) <= {0, 2, 4}
            assert forced.tolist() == [1, 3]
            assert full.tolist() == [0, 2, 4]

    def test_rows_oversized_request_fails(self, rng):
        with pytest.raises(ValueError):
            sample_fixed_size_rows([[1.0, 2.0, 3.0], [1.0, 0.0, 0.0]],
                                   [1, 2], rng)

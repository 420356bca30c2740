import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sendrate import (CovariateSpec, DegenerateSenderError, Event, EventStream,
                      IntervalScheme, RiskSetPolicy, StreamError, dense_oracle,
                      evaluate, growth_sequence, prepare)
from sendrate.covariates import DynamicState, StaticDesign, covariate_vector
from sendrate.likelihood import selection_probabilities

from conftest import random_stream, random_traits

MIN = 60.0


def basic_spec(K=(30 * MIN, 120 * MIN)):
    return CovariateSpec(dyadic=[("send", "both"), ("receive", "indicator")],
                         scheme=IntervalScheme(list(K)))


def rich_spec(traits=True):
    static = ["1*a", "b*a"] if traits else []
    return CovariateSpec(static_terms=static,
                         dyadic=[("send", "both"), ("receive", "both")],
                         triadic=[("2-send", "both"), ("sibling", "indicator")],
                         scheme=IntervalScheme([30 * MIN, 120 * MIN]))


class TestTrivialValues:
    def test_uniform_choice_logpl(self):
        # one event, beta = 0, risk set of size 5
        stream = EventStream([Event(1.0, 0, (1,))], 6)
        spec = CovariateSpec(dyadic=[("send", "indicator")])
        design = prepare(stream, spec)
        rep = evaluate(design, np.zeros(1), "pairwise")
        assert_allclose(rep.logpl, -math.log(5.0), rtol=1e-12)

    def test_null_deviance_terms(self, rng):
        stream = random_stream(rng, actors=7, n=40)
        spec = basic_spec()
        design = prepare(stream, spec)
        rep = evaluate(design, np.zeros(spec.dim), "pairwise")
        assert_allclose(rep.logpl, -40 * math.log(6.0), rtol=1e-12)

    def test_approx_vs_exact_three_equal_weights(self):
        # risk set of 3 with unit weights, one event of size 2
        stream = EventStream([Event(1.0, 3, (0, 1))], 4)
        spec = CovariateSpec(dyadic=[("send", "indicator")])
        design = prepare(stream, spec)
        exact = evaluate(design, np.zeros(1), "exact_multicast")
        approx = evaluate(design, np.zeros(1), "approx_multicast")
        assert_allclose(exact.logpl, -math.log(3.0), rtol=1e-12)
        assert_allclose(approx.logpl, -2 * math.log(3.0), rtol=1e-12)

    def test_approx_reduces_to_pairwise_on_singletons(self, rng):
        stream = random_stream(rng, actors=6, n=50)
        spec = basic_spec()
        design = prepare(stream, spec)
        beta = rng.normal(0, 0.4, size=spec.dim)
        a = evaluate(design, beta, "approx_multicast")
        b = evaluate(design, beta, "pairwise")
        c = evaluate(design, beta, "exact_multicast")
        assert_allclose(a.logpl, b.logpl, rtol=1e-14)
        assert_allclose(a.score, b.score, rtol=1e-14)
        assert_allclose(c.logpl, b.logpl, rtol=1e-12)
        assert_allclose(c.score, b.score, rtol=1e-10, atol=1e-12)

    def test_pairwise_rejects_multicast(self, rng):
        stream = random_stream(rng, actors=6, n=20, max_size=3)
        design = prepare(stream, basic_spec())
        if (design.ev_size > 1).any():
            with pytest.raises(StreamError):
                evaluate(design, np.zeros(design.p), "pairwise")

    def test_receiver_outside_risk_set_rejected(self):
        from sendrate.design import ReceiverOutsideRiskSet
        stream = EventStream([Event(1.0, 0, (2,))], 3)
        policy = RiskSetPolicy("static", static_sets={0: {1}, 1: {0}, 2: {0}})
        with pytest.raises(ReceiverOutsideRiskSet):
            prepare(stream, basic_spec(), policy=policy)


class TestSparseEqualsDense:
    @pytest.mark.parametrize("variant", ["approx_multicast", "exact_multicast"])
    def test_random_streams(self, rng, variant):
        for trial in range(4):
            actors = int(rng.integers(5, 9))
            traits = random_traits(rng, actors)
            spec = rich_spec()
            stream = random_stream(rng, actors=actors, n=80, max_size=3,
                                   gap=20 * MIN, traits=traits)
            design = prepare(stream, spec)
            beta = rng.normal(0, 0.4, size=spec.dim)
            fast = evaluate(design, beta, variant)
            slow = dense_oracle(design, beta, variant)
            assert_allclose(fast.logpl, slow.logpl, rtol=1e-11)
            assert_allclose(fast.score, slow.score,
                            rtol=1e-9, atol=1e-11 * abs(slow.logpl))
            assert_allclose(fast.info, slow.info,
                            rtol=1e-9, atol=1e-11 * abs(slow.logpl))

    def test_pairwise_direct_summation(self, rng):
        # independent summation without any matrix assembly at all
        actors = 6
        spec = basic_spec()
        stream = random_stream(rng, actors=actors, n=60, gap=15 * MIN)
        design = prepare(stream, spec)
        beta = rng.normal(0, 0.5, size=spec.dim)
        state = DynamicState(spec, actors)
        static = StaticDesign(spec, None, actors)
        logpl = 0.0
        for e in stream:
            i = e.sender
            num = covariate_vector(state, static, e.time, i, e.receivers[0]) @ beta
            den = sum(math.exp(covariate_vector(state, static, e.time, i, j) @ beta)
                      for j in range(actors) if j != i)
            logpl += num - math.log(den)
            state.advance(e)
        rep = evaluate(design, beta, "pairwise")
        assert_allclose(rep.logpl, logpl, rtol=1e-10)


class TestSharedBlocks:
    """Events whose sparse rows repeat their sender's previous event share
    one block, which the sparse evaluator weights by its receiver slots."""

    @staticmethod
    def indicator_design(rng):
        actors = 5
        traits = random_traits(rng, actors)
        spec = CovariateSpec(static_terms=["1*a", "b*a"],
                             dyadic=[("send", "indicator"),
                                     ("receive", "indicator")])
        stream = random_stream(rng, actors=actors, n=150, max_size=2,
                               gap=20 * MIN, traits=traits)
        return prepare(stream, spec)

    def test_blocks_hold_identical_rows(self, rng):
        design = self.indicator_design(rng)
        assert len(design.blk_event) < design.n_events / 2
        assert (design.blk_event[design.ev_block]
                <= np.arange(design.n_events)).all()
        for m in range(design.n_events):
            first = int(design.blk_event[design.ev_block[m]])
            assert design.ev_sender[first] == design.ev_sender[m]
            for got, want in zip(design.event_rows(m),
                                 design.event_rows(first)):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("send", [0.7, -40.0, 800.0])
    def test_shared_blocks_match_dense(self, rng, send):
        # send = -40 silences nearly every receiver once the indicators
        # fill in, so those blocks fall back to direct evaluation; at send =
        # 800 the ratio exp(z) to the baseline would overflow, so those
        # blocks are evaluated directly as well
        design = self.indicator_design(rng)
        beta = rng.normal(0, 0.4, size=design.p)
        beta[design.column_indices(["send"])] = send
        fast = evaluate(design, beta, "approx_multicast", keep_terms=True)
        slow = dense_oracle(design, beta, "approx_multicast")
        assert_allclose(fast.logpl, slow.logpl, rtol=1e-11)
        assert_allclose(fast.score, slow.score,
                        rtol=1e-9, atol=1e-11 * abs(slow.logpl))
        assert_allclose(fast.info, slow.info,
                        rtol=1e-9, atol=1e-11 * abs(slow.logpl))
        assert_allclose(fast.terms.sum(), slow.logpl, rtol=1e-11)

    def test_overflowing_weights_are_not_clipped(self, rng):
        # a pair of receivers whose weights differ by exp(800) has a size-2
        # normalizer below the double range once shifted by the heavier
        # one: the exact variant must refuse it, not report logpl > 0
        design = self.indicator_design(rng)
        beta = rng.normal(0, 0.4, size=design.p)
        beta[design.column_indices(["send"])] = 800.0
        with pytest.raises(DegenerateSenderError):
            evaluate(design, beta, "exact_multicast", order=0)


class TestFiniteDifferences:
    @pytest.mark.parametrize("variant",
                             ["pairwise", "approx_multicast", "exact_multicast"])
    def test_score_and_information(self, rng, variant):
        actors = 7
        traits = random_traits(rng, actors)
        spec = rich_spec()
        max_size = 1 if variant == "pairwise" else 3
        stream = random_stream(rng, actors=actors, n=60, max_size=max_size,
                               gap=25 * MIN, traits=traits)
        design = prepare(stream, spec)
        beta = rng.normal(0, 0.3, size=spec.dim)
        rep = evaluate(design, beta, variant, order=2)
        h = 1e-5
        eye = np.eye(spec.dim)
        fd_score = np.array(
            [(evaluate(design, beta + h * e, variant, order=0).logpl
              - evaluate(design, beta - h * e, variant, order=0).logpl) / (2 * h)
             for e in eye])
        assert np.abs(rep.score - fd_score).max() \
            <= 1e-6 * max(1.0, np.abs(rep.score).max())
        fd_info = np.array(
            [(evaluate(design, beta + h * e, variant, order=1).score
              - evaluate(design, beta - h * e, variant, order=1).score) / (2 * h)
             for e in eye])
        assert np.abs(rep.info + fd_info).max() \
            <= 1e-4 * max(1.0, np.abs(rep.info).max())


class TestStructure:
    def test_sender_factorization(self, rng):
        # total equals the sum of per-sender evaluations
        actors = 6
        spec = basic_spec()
        stream = random_stream(rng, actors=actors, n=80, max_size=2,
                               gap=20 * MIN)
        design = prepare(stream, spec)
        beta = rng.normal(0, 0.4, size=spec.dim)
        total = evaluate(design, beta, "approx_multicast", order=1)
        logpl_parts = 0.0
        score_parts = np.zeros(spec.dim)
        rep = evaluate(design, beta, "approx_multicast", order=0,
                       keep_terms=True)
        for i in range(actors):
            sel = design.ev_sender == i
            logpl_parts += rep.terms[sel].sum()
        assert_allclose(total.logpl, logpl_parts, rtol=1e-12)

    def test_concavity_along_segments(self, rng):
        stream = random_stream(rng, actors=6, n=50, max_size=2, gap=20 * MIN)
        design = prepare(stream, basic_spec())
        for variant in ("approx_multicast", "exact_multicast"):
            for _ in range(5):
                a = rng.normal(0, 0.5, size=design.p)
                b = rng.normal(0, 0.5, size=design.p)
                fa = evaluate(design, a, variant, order=0).logpl
                fb = evaluate(design, b, variant, order=0).logpl
                fm = evaluate(design, (a + b) / 2, variant, order=0).logpl
                assert fm >= (fa + fb) / 2 - 1e-9

    def test_information_psd(self, rng):
        stream = random_stream(rng, actors=6, n=50, max_size=3, gap=20 * MIN)
        design = prepare(stream, rich_spec(traits=False))
        for variant in ("approx_multicast", "exact_multicast"):
            beta = rng.normal(0, 0.3, size=design.p)
            info = evaluate(design, beta, variant).info
            eig = np.linalg.eigvalsh(info)
            assert eig.min() >= -1e-8 * max(1.0, eig.max())

    def test_exact_equals_subset_enumeration(self, rng):
        # normalizers checked subset-by-subset on every event
        actors = 6
        spec = basic_spec()
        stream = random_stream(rng, actors=actors, n=30, max_size=4,
                               gap=30 * MIN)
        design = prepare(stream, spec)
        beta = rng.normal(0, 0.5, size=spec.dim)
        rep = evaluate(design, beta, "exact_multicast", order=0,
                       keep_terms=True)
        for m in range(design.n_events):
            X = design.dense_x(m)
            mask = design.risk_mask(m)
            w = np.exp(X @ beta) * mask
            L = int(design.ev_size[m])
            W = sum(np.prod(w[list(s)])
                    for s in itertools.combinations(range(actors), L))
            term = design.xsum[m] @ beta - math.log(W)
            assert_allclose(rep.terms[m], term, rtol=1e-10)


class TestGrowthSequence:
    def test_all_singletons_zero(self, rng):
        stream = random_stream(rng, actors=5, n=30)
        gs = growth_sequence(stream)
        assert gs.final == 0.0

    def test_direct_formula(self):
        events = [Event(1.0, 0, (1,)), Event(2.0, 0, (1, 2, 3)),
                  Event(3.0, 1, (2, 3)), Event(4.0, 2, (3,))]
        stream = EventStream(events, 11)
        gs = growth_sequence(stream)
        assert_allclose(gs.g, [0.0, 0.1, 0.2, 0.2])

    def test_constant_risk_linear_growth(self):
        A = 9
        events = [Event(float(m + 1), m % A, ((m + 1) % A, (m + 2) % A))
                  for m in range(32)]
        stream = EventStream(events, A)
        gs = growth_sequence(stream)
        assert_allclose(gs.g, (np.arange(32) + 1) / (A - 1))


class TestSelectionProbabilities:
    def test_rows_normalized_and_risk_respected(self, rng):
        stream = random_stream(rng, actors=6, n=40, max_size=2, gap=15 * MIN)
        design = prepare(stream, basic_spec())
        probs = selection_probabilities(design, rng.normal(0, 0.4, design.p))
        assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-12)
        for m in range(design.n_events):
            assert probs[m, design.ev_sender[m]] == 0.0

    def test_uniform_at_zero_beta(self, rng):
        stream = random_stream(rng, actors=5, n=30, gap=15 * MIN)
        design = prepare(stream, basic_spec())
        probs = selection_probabilities(design, np.zeros(design.p))
        want = np.full((design.n_events, 5), 1.0 / 4.0)
        want[np.arange(design.n_events), design.ev_sender] = 0.0
        assert_allclose(probs, want, rtol=1e-15)

    def test_matches_dense_softmax(self, rng):
        # reference: a softmax of covariate_vector(...) @ beta over each
        # event's risk set, on the state replayed up to that event
        spec = rich_spec(traits=False)
        actors = 6
        stream = random_stream(rng, actors=actors, n=60, max_size=2,
                               gap=15 * MIN)
        beta = rng.normal(0, 0.4, size=spec.dim)
        probs = selection_probabilities(prepare(stream, spec), beta)
        state = DynamicState(spec, actors)
        static = StaticDesign(spec, None, actors)
        for m, e in enumerate(stream):
            s = np.array([covariate_vector(state, static, e.time, e.sender, j)
                          @ beta if j != e.sender else -np.inf
                          for j in range(actors)])
            want = np.exp(s - s.max())
            assert_allclose(probs[m], want / want.sum(), rtol=1e-12)
            state.advance(e)


class TestSenderSnapshot:
    def test_normalization_identity(self, rng):
        # the sparse evaluator's per-sender decomposition: class baseline
        # pi0 rescaled by gamma = 1 / rho, plus corrections Delta pi at the
        # event's dynamic rows, is a probability vector over the risk set
        spec = rich_spec(traits=False)
        actors = 6
        stream = random_stream(rng, actors=actors, n=60, max_size=2,
                               gap=15 * MIN)
        design = prepare(stream, spec)
        beta = rng.normal(0, 0.4, size=spec.dim)
        s0 = design.static._x0 @ beta
        pi0 = np.exp(s0 - s0.max(axis=1)[:, None])
        pi0 /= pi0.sum(axis=1)[:, None]
        probs = selection_probabilities(design, beta)
        for m in range(design.n_events):
            rows = slice(design.row_start[m], design.row_start[m + 1])
            base = pi0[design.ev_class[m]]
            j = design.row_j[rows]
            z = np.where(design.row_inrisk[rows], design.dX[rows] @ beta,
                         -np.inf)
            delta_w = base[j] * np.expm1(z)
            gamma = 1.0 / (1.0 + delta_w.sum())
            delta_pi = gamma * delta_w
            total = gamma * base.sum() + delta_pi.sum()
            assert_allclose(total, 1.0, rtol=1e-10)
            pi = gamma * base
            pi[j] += delta_pi
            assert_allclose(pi, probs[m], rtol=1e-9, atol=1e-12)

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sendrate import (CovariateSpec, Event, EventStream,
                      IntervalScheme, RiskSetPolicy, StreamError, dense_oracle,
                      evaluate, prepare)
from sendrate.covariates import DynamicState, StaticDesign
from sendrate import likelihood
from sendrate.likelihood import selection_probabilities

from conftest import covariate_vector, random_stream, random_traits

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

    @pytest.mark.parametrize("shared", [True, False])
    def test_variants_coincide_on_singletons(self, rng, shared):
        # a size-1 event is one draw from the single-receiver law under
        # every variant, evaluated by the same steps: equal to the bit
        if shared:
            spec = CovariateSpec(dyadic=[("send", "indicator"),
                                         ("receive", "indicator")])
        else:
            spec = rich_spec(traits=False)
        stream = random_stream(rng, actors=5, n=150, gap=20 * MIN)
        design = prepare(stream, spec)
        assert (len(design.blk_event) < design.n_events / 2) == shared
        beta = rng.normal(0, 0.4, size=design.p)
        for order in range(3):
            reps = [evaluate(design, beta, v, order) for v in
                    ("pairwise", "approx_multicast", "exact_multicast")]
            for rep in reps[1:]:
                for got, want in zip(vars(rep).values(),
                                     vars(reps[0]).values()):
                    assert np.array_equal(got, want)

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

    @pytest.mark.parametrize("mode", ["static", "callback"])
    def test_later_receiver_outside_risk_set_named(self, monkeypatch, mode):
        from sendrate.design import ReceiverOutsideRiskSet
        # actor 3 is in no sender's risk set; event 3 joins event 2's block
        # through the change count, and event 5 breaks the sets again
        sets = {0: {1, 2}, 1: {0, 2}, 2: {0, 1}, 3: {0, 1, 2}}
        policy = (RiskSetPolicy("static", static_sets=sets) if mode == "static"
                  else RiskSetPolicy("callback", callback=lambda t, i: sets[i]))
        spec = CovariateSpec(dyadic=[("send", "indicator")])

        def stream(third):
            return EventStream([
                Event(1.0, 0, (1,)), Event(2.0, 1, (0,)), Event(3.0, 0, (1,)),
                Event(4.0, 0, third), Event(5.0, 3, (0, 2)),
                Event(6.0, 1, (3,))], 4)
        built, rows = [], DynamicState.rows

        def counting(state, t, i, js):
            built.append(t)
            return rows(state, t, i, js)
        monkeypatch.setattr(DynamicState, "rows", counting)
        with pytest.raises(ReceiverOutsideRiskSet,
                           match="event 5: receiver 3 outside risk set of "
                                 "sender 1"):
            prepare(stream((1, 2)), spec, policy=policy)
        assert 4.0 not in built
        with pytest.raises(ReceiverOutsideRiskSet,
                           match="^event 3: receiver 3 outside risk set of "
                                 "sender 0$"):
            prepare(stream((1, 3)), spec, policy=policy)


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
    one block, which the evaluator weights by its receiver slots."""

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
        # fill in, so a block's weight rests on a few receivers; at send =
        # 800 the weights span more than the double range
        design = self.indicator_design(rng)
        beta = rng.normal(0, 0.4, size=design.p)
        beta[design.column_indices(["send"])] = send
        for variant in ("approx_multicast", "exact_multicast"):
            fast = evaluate(design, beta, variant)
            slow = dense_oracle(design, beta, variant)
            assert_allclose(fast.logpl, slow.logpl, rtol=1e-11)
            assert_allclose(fast.score, slow.score,
                            rtol=1e-9, atol=1e-11 * abs(slow.logpl))
            assert_allclose(fast.info, slow.info,
                            rtol=1e-9, atol=1e-11 * abs(slow.logpl))

    def test_overflowing_weights_are_not_clipped(self, rng):
        # a pair of receivers whose weights differ by exp(800) has a size-2
        # normalizer below the double range once shifted by the heavier
        # one; shifted so that the heaviest pair has weight 1, every
        # event's log-normalizer equals a log-sum-exp over all its subsets
        design = self.indicator_design(rng)
        beta = rng.normal(0, 0.4, size=design.p)
        beta[design.column_indices(["send"])] = 800.0
        got = log_normalizers(design, beta, design.ev_size)
        want = np.empty(design.n_events)
        for m in range(design.n_events):
            s = design.dense_x(m) @ beta
            risk = np.flatnonzero(design.risk_mask(m))
            sums = [s[list(sub)].sum() for sub in
                    itertools.combinations(risk, int(design.ev_size[m]))]
            want[m] = np.logaddexp.reduce(sums)
        assert_allclose(got, want, rtol=1e-12)
        rep = evaluate(design, beta, "exact_multicast", order=0)
        assert_allclose(rep.logpl, (design.xsum @ beta - want).sum(),
                        rtol=1e-12)


def accuracy_design(seed):
    rng = np.random.default_rng(seed)
    traits = random_traits(rng, 12)
    stream = random_stream(rng, actors=12, n=3000, max_size=3, gap=1200.0,
                           traits=traits)
    spec = CovariateSpec(static_terms=["1*a", "b*a"],
                         dyadic=[("send", "both"), ("receive", "both")],
                         triadic=[("2-send", "both"), ("sibling", "indicator")],
                         scheme=IntervalScheme([1800.0, 7200.0]))
    design = prepare(stream, spec)
    return design, rng.normal(0, 0.1, size=design.p)


def rel_diff(a, b):
    return np.abs(a - b).max() / max(1.0, np.abs(b).max())


def log_normalizers(design, beta, sizes, events=None):
    """Per-event log e_L of the size-``sizes[m]`` fixed-size law over the
    event's risk set, from the kernel's steps: log-weights, top-L shift,
    e_L (for the given events, all at once; default every event)."""
    events = np.arange(design.n_events) if events is None else events
    S = likelihood._log_weights(design, beta, design.static._x0 @ beta,
                                events)
    out = np.empty(len(events))
    for L in np.unique(sizes[events]):
        sel = sizes[events] == L
        c = likelihood._top_shift(S[sel], L)
        eL, = likelihood._inclusions(np.exp(S[sel] - c[:, None]), L, 0)
        out[sel] = L * c + np.log(eL)
    return out


class TestBlockEvaluator:
    @pytest.mark.parametrize("seed", [4, 5, 6])
    def test_information_accuracy(self, seed):
        # a global M - E'(mass E) cancels digits at these seeds (2e-10 to
        # 2e-9 of max |I|); centring each block on its own mean does not
        design, beta = accuracy_design(seed)
        fast = evaluate(design, beta, "approx_multicast")
        slow = dense_oracle(design, beta, "approx_multicast")
        assert rel_diff(fast.info, slow.info) <= 1e-10
        assert rel_diff(fast.score, slow.score) <= 1e-10
        assert_allclose(fast.logpl, slow.logpl, rtol=1e-12)

    @pytest.mark.parametrize("shared", [True, False])
    def test_chunks_match_one_chunk(self, rng, monkeypatch, shared):
        if shared:
            design = TestSharedBlocks.indicator_design(rng)
            assert len(design.blk_event) < design.n_events / 2
        else:
            stream = random_stream(rng, actors=7, n=80, max_size=3,
                                   gap=20 * MIN, traits=random_traits(rng, 7))
            design = prepare(stream, rich_spec())
            assert len(design.blk_event) == design.n_events
        beta = rng.normal(0, 0.3, size=design.p)
        whole = evaluate(design, beta, "approx_multicast")
        block_bytes = 8 * design.actor_count * design.p
        monkeypatch.setattr(likelihood, "_CHUNK_BYTES", 3 * block_bytes)
        parts = evaluate(design, beta, "approx_multicast")
        assert rel_diff(parts.logpl, whole.logpl) <= 1e-12
        assert rel_diff(parts.score, whole.score) <= 1e-12
        assert rel_diff(parts.info, whole.info) <= 1e-12
        ones = np.ones(design.n_events, dtype=np.intp)
        assert rel_diff(chunked_normalizers(design, beta, ones),
                        log_normalizers(design, beta, ones)) <= 1e-12

    def test_scratch_bounded_by_chunk(self, monkeypatch):
        design, beta = accuracy_design(1)
        block_bytes = 8 * design.actor_count * design.p
        monkeypatch.setattr(likelihood, "_CHUNK_BYTES", 16 * block_bytes)
        tracemalloc.start()
        try:
            evaluate(design, beta, "approx_multicast", order=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < design.dX.nbytes / 2

    def test_whole_design_reads_bounded_by_chunk(self, monkeypatch):
        # reads of every event's rows upcast them a chunk at a time: the
        # scratch besides a returned (n, A) array stays under half the
        # size of the rows in float64
        design, beta = accuracy_design(1)
        n, A = design.n_events, design.actor_count
        R, p = design.dX.shape
        assert R * p > 10 * n * A
        monkeypatch.setattr(likelihood, "_CHUNK_BYTES", 16 * 8 * A * p)
        for read in (lambda: selection_probabilities(design, beta),
                     lambda: evaluate(design, beta, order=0)):
            tracemalloc.start()
            try:
                read()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak - 8 * n * A < 4 * R * p


def chunked_normalizers(design, beta, sizes):
    """``log_normalizers`` three events at a time."""
    chunks = np.array_split(np.arange(design.n_events), design.n_events // 3)
    return np.concatenate([log_normalizers(design, beta, sizes, ev)
                           for ev in chunks])


def exact_chunk_bytes(design, units):
    """``_CHUNK_BYTES`` at which the exact kernel's order-2 evaluation
    takes the given number of units per chunk of the largest receiver-set
    size, and as many or more per chunk of a smaller size: a chunk's width
    is max(p, 2 * A * L) at L > 1 and p at L = 1."""
    A, Lmax = design.actor_count, int(design.ev_size.max())
    return units * 8 * A * max(design.p, 2 * A * Lmax)


class TestExactKernel:
    def test_sizes_up_to_six_match_dense(self, rng):
        for trial in range(6):
            stream = random_stream(rng, actors=8, n=40, max_size=6,
                                   gap=20 * MIN, traits=random_traits(rng, 8))
            design = prepare(stream, rich_spec())
            assert design.ev_size.max() == 6
            beta = rng.normal(0, 0.3, size=design.p)
            slow = dense_oracle(design, beta, "exact_multicast")
            for order in range(3):
                fast = evaluate(design, beta, "exact_multicast", order=order)
                assert rel_diff(fast.logpl, slow.logpl) <= 1e-10
                if order >= 1:
                    assert rel_diff(fast.score, slow.score) <= 1e-10
                if order >= 2:
                    assert rel_diff(fast.info, slow.info) <= 1e-10

    def test_sizes_up_to_nine_match_dense(self, rng):
        # no size cap: the chunks narrow as L grows
        stream = random_stream(rng, actors=14, n=150, max_size=9,
                               gap=20 * MIN, traits=random_traits(rng, 14))
        design = prepare(stream, rich_spec())
        assert design.ev_size.max() == 9
        beta = rng.normal(0, 0.3, size=design.p)
        slow = dense_oracle(design, beta, "exact_multicast")
        for order in range(3):
            fast = evaluate(design, beta, "exact_multicast", order=order)
            assert rel_diff(fast.logpl, slow.logpl) <= 1e-10
            if order >= 1:
                assert rel_diff(fast.score, slow.score) <= 1e-10
            if order >= 2:
                assert rel_diff(fast.info, slow.info) <= 1e-10

    def test_event_covering_its_risk_set_is_certain(self, rng):
        # senders 0 and 1 may reach only two and three actors; their events
        # to all of them have probability 1, so they add no log-likelihood
        # and no information, and include every risk-set member with pi = 1
        actors = 7
        sets = {i: set(range(actors)) - {i} for i in range(actors)}
        sets[0], sets[1] = {1, 2}, {0, 2, 3}
        events, t = [], 0.0
        for _ in range(60):
            t += rng.exponential(20 * MIN)
            i = int(rng.integers(actors))
            risk = sorted(sets[i])
            size = len(risk) if i < 2 else int(rng.integers(1, 4))
            recv = rng.choice(risk, size, replace=False).tolist()
            events.append(Event(t, i, tuple(recv)))
        design = prepare(EventStream(events, actors), rich_spec(traits=False),
                         policy=RiskSetPolicy("static", static_sets=sets))
        risk = [design.risk_mask(m).sum() for m in range(design.n_events)]
        full = np.flatnonzero(design.ev_size == risk)
        assert len(full) > 5 and len(full) < design.n_events
        beta = rng.normal(0, 0.5, size=design.p)
        terms = (design.xsum @ beta
                 - log_normalizers(design, beta, design.ev_size))
        assert np.abs(terms[full]).max() <= 1e-12
        rep = evaluate(design, beta, "exact_multicast")
        slow = dense_oracle(design, beta, "exact_multicast")
        assert rel_diff(rep.info, slow.info) <= 1e-10
        S = likelihood._log_weights(design, beta, design.static._x0 @ beta,
                                    full)
        L = int(design.ev_size[full[0]])
        sel = design.ev_size[full] == L
        w = np.exp(S[sel] - S[sel].max(axis=1)[:, None])
        _, pi, Q = likelihood._inclusions(w, L, 2)
        assert_allclose(pi, np.isfinite(S[sel]), rtol=0, atol=1e-12)
        assert np.abs(Q - pi[:, :, None] * pi[:, None, :]).max() <= 1e-12

    def test_oracle_matches_centred_enumeration(self):
        # every size-L subset of every risk set, its summed rows centred on
        # the event's mean before the outer products: the reference the
        # kernel and the oracle are both held to
        design, beta = accuracy_design(2)
        p = design.p
        info, score, logpl = np.zeros((p, p)), np.zeros(p), 0.0
        for m in range(design.n_events):
            risk = np.flatnonzero(design.risk_mask(m))
            subsets = list(itertools.combinations(risk, int(design.ev_size[m])))
            Xs = design.dense_x(m)[subsets].sum(axis=1)
            s = Xs @ beta
            w = np.exp(s - s.max())
            pi = w / w.sum()
            E = pi @ Xs
            info += ((Xs - E) * pi[:, None]).T @ (Xs - E)
            score += design.xsum[m] - E
            logpl += design.xsum[m] @ beta - (s.max() + np.log(w.sum()))
        for rep in (dense_oracle(design, beta, "exact_multicast"),
                    evaluate(design, beta, "exact_multicast")):
            assert rel_diff(rep.info, info) <= 1e-13
            assert rel_diff(rep.score, score) <= 1e-13
            assert_allclose(rep.logpl, logpl, rtol=1e-13)

    def test_chunks_match_one_chunk(self, rng, monkeypatch):
        shared = TestSharedBlocks.indicator_design(rng)
        assert len(shared.blk_event) < shared.n_events / 2
        stream = random_stream(rng, actors=7, n=80, max_size=4,
                               gap=20 * MIN, traits=random_traits(rng, 7))
        one_chunk = likelihood._CHUNK_BYTES
        for design in (shared, prepare(stream, rich_spec())):
            beta = rng.normal(0, 0.3, size=design.p)
            monkeypatch.setattr(likelihood, "_CHUNK_BYTES", one_chunk)
            whole = evaluate(design, beta, "exact_multicast")
            monkeypatch.setattr(likelihood, "_CHUNK_BYTES",
                                exact_chunk_bytes(design, 3))
            parts = evaluate(design, beta, "exact_multicast")
            assert rel_diff(parts.logpl, whole.logpl) <= 1e-12
            assert rel_diff(parts.score, whole.score) <= 1e-12
            assert rel_diff(parts.info, whole.info) <= 1e-12
            sizes = design.ev_size
            assert rel_diff(chunked_normalizers(design, beta, sizes),
                            log_normalizers(design, beta, sizes)) <= 1e-12

    def test_scratch_bounded_by_chunk(self, monkeypatch):
        # an (L+1) n p^2 table of Hessian sums would be four times the bound
        design, beta = accuracy_design(1)
        monkeypatch.setattr(likelihood, "_CHUNK_BYTES",
                            exact_chunk_bytes(design, 16))
        tracemalloc.start()
        try:
            evaluate(design, beta, "exact_multicast", order=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        Lmax = int(design.ev_size.max())
        assert peak < (Lmax + 1) * design.n_events * design.p ** 2 * 8 / 4


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
        ones = np.ones(design.n_events, dtype=np.intp)
        terms = (design.xsum @ beta
                 - design.ev_size * log_normalizers(design, beta, ones))
        for i in range(actors):
            sel = design.ev_sender == i
            logpl_parts += terms[sel].sum()
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
        terms = (design.xsum @ beta
                 - log_normalizers(design, beta, design.ev_size))
        for m in range(design.n_events):
            X = design.dense_x(m)
            mask = design.risk_mask(m)
            w = np.exp(X @ beta) * mask
            L = int(design.ev_size[m])
            W = sum(np.prod(w[list(s)])
                    for s in itertools.combinations(range(actors), L))
            term = design.xsum[m] @ beta - math.log(W)
            assert_allclose(terms[m], term, rtol=1e-10)


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


    def test_blocks_expand_to_events(self, rng):
        # one row per block, repeated for its events: equal to the bit to
        # each event's own softmax
        design = TestSharedBlocks.indicator_design(rng)
        assert len(design.blk_event) < design.n_events / 2
        beta = rng.normal(0, 0.4, size=design.p)
        S = likelihood._log_weights(design, beta, design.static._x0 @ beta,
                                    np.arange(design.n_events))
        _, want = likelihood._inclusions(
            np.exp(S - likelihood._top_shift(S, 1)[:, None]), 1, 1)
        assert np.array_equal(selection_probabilities(design, beta), want)


class TestSenderSnapshot:
    def test_normalization_identity(self, rng):
        # an independent decomposition of each event's selection law: the
        # sender class's static softmax pi0, rescaled by gamma = 1 / rho,
        # plus corrections Delta pi at the event's dynamic rows, is a
        # probability vector over the risk set and equals
        # selection_probabilities
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
            base = pi0[design.ev_class[m]]
            j, dx, inrisk = design.event_rows(m)
            z = np.where(inrisk, dx @ beta, -np.inf)
            delta_w = base[j] * np.expm1(z)
            gamma = 1.0 / (1.0 + delta_w.sum())
            delta_pi = gamma * delta_w
            total = gamma * base.sum() + delta_pi.sum()
            assert_allclose(total, 1.0, rtol=1e-10)
            pi = gamma * base
            pi[j] += delta_pi
            assert_allclose(pi, probs[m], rtol=1e-9, atol=1e-12)


def force_path(monkeypatch, path):
    """Designs prepared from here on keep the CSR of dX's non-zeros, and
    their size-1 moments come from it ("sparse"), or they keep none and
    the moments come from each unit's dense design ("dense")."""
    monkeypatch.setattr("sendrate.design._SPARSE_BELOW",
                        0.0 if path == "dense" else 2.0)


@pytest.fixture(params=["dense", "sparse"])
def path(request, monkeypatch):
    force_path(monkeypatch, request.param)
    return request.param


def assert_matches_oracle(design, beta, variant="approx_multicast"):
    fast = evaluate(design, beta, variant)
    slow = dense_oracle(design, beta, variant)
    assert_allclose(fast.logpl, slow.logpl, rtol=1e-11)
    assert rel_diff(fast.score, slow.score) <= 1e-10
    assert rel_diff(fast.info, slow.info) <= 1e-10
    return fast


class TestSingleLawPaths:
    """Both paths of the size-1 moments, forced, on the designs whose rows
    take each shape: shared blocks (rows gathered by index), subsets and
    replicates (shallow copies), widened rows, events without a non-zero
    and specs without dynamic columns."""

    @pytest.mark.parametrize("seed", [4, 5, 6])
    def test_information_accuracy(self, seed, monkeypatch):
        # centred dynamic rows and directly summed off-row mass: the
        # sparse path is as accurate as the dense one
        reps, err = {}, {}
        for name in ("dense", "sparse"):
            force_path(monkeypatch, name)
            design, beta = accuracy_design(seed)
            assert (design.nz_val is None) == (name == "dense")
            if name == "dense":
                slow = dense_oracle(design, beta, "approx_multicast")
            reps[name] = evaluate(design, beta, "approx_multicast")
            err[name] = rel_diff(reps[name].info, slow.info)
            assert err[name] <= 1e-10
            assert rel_diff(reps[name].score, slow.score) <= 1e-10
        assert err["sparse"] <= 2 * err["dense"]
        assert reps["sparse"].logpl == reps["dense"].logpl

    @pytest.mark.parametrize("shared", [True, False])
    def test_chunks_match_one_chunk(self, rng, monkeypatch, shared, path):
        if shared:
            design = TestSharedBlocks.indicator_design(rng)
            assert len(design.blk_event) < design.n_events / 2
        else:
            stream = random_stream(rng, actors=7, n=80, max_size=3,
                                   gap=20 * MIN, traits=random_traits(rng, 7))
            design = prepare(stream, rich_spec())
            assert len(design.blk_event) == design.n_events
        beta = rng.normal(0, 0.3, size=design.p)
        whole = evaluate(design, beta, "approx_multicast")
        monkeypatch.setattr(likelihood, "_CHUNK_BYTES",
                            3 * 8 * design.actor_count * design.p)
        parts = evaluate(design, beta, "approx_multicast")
        assert parts.logpl == whole.logpl
        assert rel_diff(parts.score, whole.score) <= 1e-12
        assert rel_diff(parts.info, whole.info) <= 1e-12

    @pytest.mark.parametrize("send", [0.7, -40.0, 800.0])
    def test_shared_blocks_match_dense(self, rng, send, path):
        design = TestSharedBlocks.indicator_design(rng)
        beta = rng.normal(0, 0.4, size=design.p)
        beta[design.column_indices(["send"])] = send
        for variant in ("approx_multicast", "exact_multicast"):
            fast = evaluate(design, beta, variant)
            slow = dense_oracle(design, beta, variant)
            assert_allclose(fast.logpl, slow.logpl, rtol=1e-11)
            assert_allclose(fast.score, slow.score,
                            rtol=1e-9, atol=1e-11 * abs(slow.logpl))
            assert_allclose(fast.info, slow.info,
                            rtol=1e-9, atol=1e-11 * abs(slow.logpl))

    def test_subset_and_replicate(self, rng, path):
        from sendrate.bootstrap import _replicate_design
        from sendrate.esp import sample_fixed_size_rows
        stream = random_stream(rng, actors=7, n=80, max_size=3, gap=20 * MIN,
                               traits=random_traits(rng, 7))
        design = prepare(stream, rich_spec())
        beta = rng.normal(0, 0.3, size=design.p)
        # every other column, in reverse: static and dynamic, renumbered
        cols = np.arange(design.p)[::-2]
        assert_matches_oracle(design.subset(cols), beta[cols])
        recv = sample_fixed_size_rows(selection_probabilities(design, beta),
                                      design.ev_size, np.random.default_rng(1))
        assert_matches_oracle(_replicate_design(design, recv), beta)

    def test_widened_rows(self, rng, path):
        # the same entries held as float64 give the same report, bit for bit
        stream = random_stream(rng, actors=7, n=80, max_size=3, gap=20 * MIN,
                               traits=random_traits(rng, 7))
        design = prepare(stream, rich_spec())
        wide = design.copy_with(dX=design.dX.astype(np.float64))
        beta = rng.normal(0, 0.3, size=design.p)
        for order in range(3):
            got, want = (evaluate(d, beta, order=order) for d in (wide, design))
            for a, b in zip(vars(got).values(), vars(want).values()):
                assert np.array_equal(a, b)

    def test_counts_past_int16(self, path):
        # 0 reaches 2 over 200 x 200 two-paths: the replay widens the rows
        spec = CovariateSpec(dyadic=[("send", "both")],
                             triadic=[("2-send", "binned")],
                             scheme=IntervalScheme([3600.0]))
        events = [Event(float(t), 0, (1,)) for t in range(1, 201)]
        events += [Event(float(t), 1, (2,)) for t in range(201, 401)]
        events.append(Event(1000.0, 0, (3,)))
        design = prepare(EventStream(events, 4), spec)
        assert design.dX.dtype == np.float64
        assert path == "dense" or design.nz_val.dtype == np.float64
        beta = np.full(spec.dim, 0.1)
        beta[-4:] = 1e-5
        fast = evaluate(design, beta, "approx_multicast")
        slow = dense_oracle(design, beta, "approx_multicast")
        assert_allclose(fast.logpl, slow.logpl, rtol=1e-10)
        assert_allclose(fast.score, slow.score, rtol=1e-10)
        assert_allclose(fast.info, slow.info, rtol=1e-10)

    def test_event_without_nonzeros(self, rng, path):
        # a sender's first event has only its own row, which is zero
        stream = random_stream(rng, actors=6, n=40, max_size=2, gap=20 * MIN)
        design = prepare(stream, basic_spec())
        per_event = np.array([np.count_nonzero(design.event_rows(m)[1])
                              for m in range(design.n_events)])
        assert (per_event == 0).any() and (per_event > 0).any()
        assert_matches_oracle(design, rng.normal(0, 0.4, size=design.p))

    def test_static_only_spec(self, rng, path):
        traits = random_traits(rng, 7)
        stream = random_stream(rng, actors=7, n=60, max_size=3, gap=20 * MIN,
                               traits=traits)
        design = prepare(stream, CovariateSpec(static_terms=["1*a", "b*a",
                                                             "a*b"]))
        assert not design.dX.any()
        assert_matches_oracle(design, rng.normal(0, 0.4, size=design.p))

    def test_scratch_bounded_by_chunk(self, monkeypatch):
        force_path(monkeypatch, "sparse")
        design, beta = accuracy_design(1)
        monkeypatch.setattr(likelihood, "_CHUNK_BYTES",
                            16 * 8 * design.actor_count * design.p)
        tracemalloc.start()
        try:
            evaluate(design, beta, "approx_multicast", order=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < design.dX.nbytes / 2

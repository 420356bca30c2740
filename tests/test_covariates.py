import numpy as np
import pytest
from numpy.testing import assert_allclose

from sendrate import (ActorTraits, CovariateSpec, Event, EventStream,
                      IntervalScheme, RiskSetPolicy, StaticDesign, StreamError,
                      dense_oracle, evaluate, prepare, second_order_static_terms)
from sendrate.covariates import DEFAULT_BOUNDARIES, DynamicState

from conftest import (brute_covariates, covariate_vector, random_stream,
                      random_traits)

MIN = 60.0
HOUR = 3600.0


def make_state(spec, actors):
    return DynamicState(spec, actors)


def pair_counts(state, t, i, j):
    """(send, receive) binned counts of pair (i, j) at time t, under a spec
    with both effects in ``both`` form."""
    row = state.rows(t, i, [j])[0]
    K = state.spec.scheme.K
    return row[1:K + 1], row[K + 2:2 * K + 2]


def triadic_bins(state, t, i, j, effect):
    """K x K binned counts of a triadic effect of pair (i, j) at time t,
    first-leg bin by second-leg bin."""
    K = state.spec.scheme.K
    cols = [c for c, name in enumerate(state.spec.term_names)
            if name.startswith(effect + "[")]
    return state.rows(t, i, [j])[0, cols].reshape(K, K)


class TestIntervalScheme:
    def test_default_boundaries_geometric(self):
        s = IntervalScheme()
        assert s.K == 7
        assert s.boundaries[0] == 30 * MIN
        assert s.boundaries[1] == 2 * HOUR
        assert s.boundaries[2] == 8 * HOUR
        assert_allclose(s.boundaries, [450.0 * 4 ** k for k in range(1, 7)])

    def test_strictly_increasing_required(self):
        with pytest.raises(StreamError):
            IntervalScheme([10.0, 10.0])
        with pytest.raises(StreamError):
            IntervalScheme([-1.0, 5.0])

    def test_bin_counts_strict_past(self):
        spec = CovariateSpec(dyadic=[("send", "binned")],
                             scheme=IntervalScheme([30 * MIN, 2 * HOUR]))
        state = make_state(spec, 2)
        state.advance(Event(99.0, 0, (1,)))
        state.advance(Event(100.0, 0, (1,)))
        # the record exactly at the query time has age zero: excluded
        # (the spec's columns are the send bins)
        assert state.rows(100.0, 0, [1])[0].tolist() == [1, 0, 0]
        # a record exactly b_1 old is still in bin 1; a hair older, in bin 2
        assert state.rows(99.0 + 30 * MIN, 0, [1])[0].tolist() == [2, 0, 0]
        later = np.nextafter(99.0 + 30 * MIN, np.inf)
        assert state.rows(later, 0, [1])[0].tolist() == [1, 1, 0]


class TestSpec:
    def test_sender_only_term_rejected(self):
        with pytest.raises(StreamError, match="identified"):
            CovariateSpec(static_terms=["L*1"])

    def test_dimension_counts(self):
        spec = CovariateSpec(static_terms=["1*a"],
                             dyadic=[("send", "both")],
                             triadic=[("2-send", "both")],
                             scheme=IntervalScheme([60.0]))
        # 1 static + (1 indicator + 2 bins) + (1 indicator + 4 bins)
        assert spec.dim == 1 + 3 + 5

    def test_ninety_identifiable_interactions(self):
        names = ["L", "T", "J", "F", "LJ", "TJ", "LF", "TF", "JF"]
        terms = second_order_static_terms(names)
        spec = CovariateSpec(static_terms=terms)
        assert spec.dim == 90

    def test_json_roundtrip(self, tmp_path):
        spec = CovariateSpec(static_terms=["1*a", "b*a"],
                             dyadic=[("send", "indicator")],
                             triadic=[("sibling", "binned")],
                             scheme=IntervalScheme([60.0, 600.0]))
        path = tmp_path / "spec.json"
        spec.save(str(path))
        spec2 = CovariateSpec.load(str(path))
        assert spec2.term_names == spec.term_names
        assert spec2.scheme.boundaries == spec.scheme.boundaries


class TestStaticDesign:
    def test_receiver_indicator(self):
        traits = ActorTraits(["J"], [[0], [1], [0]])
        spec = CovariateSpec(static_terms=["1*J"])
        design = StaticDesign(spec, traits, 3)
        assert design.x0_pair(0, 1)[0] == 1.0
        assert design.x0_pair(0, 2)[0] == 0.0

    def test_product_term(self):
        traits = ActorTraits(["F"], [[1], [0]])
        spec = CovariateSpec(static_terms=["F*F"])
        design = StaticDesign(spec, traits, 2)
        assert design.x0_pair(0, 1)[0] == 0.0   # female sender, male receiver
        assert design.x0_pair(1, 0)[0] == 0.0

    def test_classes_keyed_by_sender_row(self):
        traits = ActorTraits(["a", "b"], [[1, 0], [1, 0], [0, 1]])
        spec = CovariateSpec(static_terms=["a*b", "b*a"])
        design = StaticDesign(spec, traits, 3)
        assert design.n_classes == 2
        assert design.class_of[0] == design.class_of[1]

    def test_unknown_trait_rejected(self):
        traits = ActorTraits(["a"], [[1]])
        with pytest.raises(StreamError):
            StaticDesign(CovariateSpec(static_terms=["1*zzz"]), traits, 1)


class TestDynamicCounts:
    def spec(self, **kw):
        return CovariateSpec(dyadic=[("send", "both"), ("receive", "both")],
                             scheme=IntervalScheme([30 * MIN, 2 * HOUR]), **kw)

    def test_no_history_all_zero(self):
        state = make_state(self.spec(), 4)
        send, recv = pair_counts(state, 0.0, 0, 1)
        assert not send.any() and not recv.any()

    def test_single_message_one_hour_old_in_second_bin(self):
        state = make_state(self.spec(), 4)
        state.advance(Event(0.0, 0, (1,)))
        send, recv = pair_counts(state, HOUR, 0, 1)
        assert send.tolist() == [0, 1, 0]
        send_back, recv_back = pair_counts(state, HOUR, 1, 0)
        assert recv_back.tolist() == [0, 1, 0] and not send_back.any()

    def test_three_fresh_messages_first_bin(self):
        state = make_state(self.spec(), 4)
        for t in (0.0, 10.0, 20.0):
            state.advance(Event(t, 0, (1,)))
        send, _ = pair_counts(state, 80.0, 0, 1)
        assert send[0] == 3

    def test_rebinning_with_age(self):
        state = make_state(self.spec(), 4)
        state.advance(Event(0.0, 0, (1,)))
        send, _ = pair_counts(state, 25 * MIN, 0, 1)
        assert send.tolist() == [1, 0, 0]
        send, _ = pair_counts(state, 35 * MIN, 0, 1)
        assert send.tolist() == [0, 1, 0]

    def test_multicast_fans_out(self):
        state = make_state(self.spec(), 4)
        state.advance(Event(0.0, 0, (1, 2)))
        assert pair_counts(state, 1.0, 0, 1)[0].sum() == 1
        assert pair_counts(state, 1.0, 0, 2)[0].sum() == 1

    def test_bin_conservation(self, rng):
        spec = self.spec()
        stream = random_stream(rng, actors=5, n=60, gap=20 * MIN)
        state = make_state(spec, 5)
        totals = {}
        for e in stream:
            state.advance(e)
            for j in e.receivers:
                totals[(e.sender, j)] = totals.get((e.sender, j), 0) + 1
        t = stream.events[-1].time + 1e9
        for (i, j), total in totals.items():
            send, _ = pair_counts(state, t, i, j)
            assert send.sum() == total

    def test_monotone_aging(self):
        state = make_state(self.spec(), 3)
        state.advance(Event(0.0, 0, (1,)))
        last_bin = 0
        for t in np.linspace(1.0, 3 * HOUR, 37):
            send, _ = pair_counts(state, t, 0, 1)
            b = int(np.argmax(send))
            assert b >= last_bin
            last_bin = b


class TestTriadic:
    def spec(self):
        return CovariateSpec(
            triadic=[(e, "both") for e in
                     ("2-send", "2-receive", "sibling", "cosibling")],
            scheme=IntervalScheme([30 * MIN, 2 * HOUR, 8 * HOUR]))

    def test_single_two_send_pair(self):
        state = make_state(self.spec(), 4)
        t = 20 * MIN
        state.advance(Event(t - 10 * MIN, 0, (2,)))   # i -> h, age 10m
        state.advance(Event(t - 5 * MIN, 2, (1,)))    # h -> j, age 5m
        two_send = triadic_bins(state, t, 0, 1, "2-send")
        assert two_send[0, 0] == 1
        assert two_send.sum() == 1

    def test_sibling_mixed_bins(self):
        state = make_state(self.spec(), 4)
        t = 4 * HOUR
        state.advance(Event(t - 3 * HOUR, 2, (1,)))   # h -> j, age 3h: bin 3
        state.advance(Event(t - 10 * MIN, 2, (0,)))   # h -> i, age 10m: bin 1
        sibling = triadic_bins(state, t, 0, 1, "sibling")
        assert sibling[0, 2] == 1
        assert sibling.sum() == 1

    def test_middle_actor_excludes_endpoints(self, rng):
        # brute-force enumeration over all record pairs on a random stream
        spec = self.spec()
        stream = random_stream(rng, actors=5, n=50, gap=15 * MIN)
        state = make_state(spec, 5)
        static = StaticDesign(spec, None, 5)
        for e in stream:
            state.advance(e)
        t = stream.events[-1].time + 7 * MIN
        for i in range(5):
            for j in range(5):
                if i == j:
                    continue
                got = covariate_vector(state, static, t, i, j)
                want = brute_covariates(stream, spec, static, t, i, j)
                assert_allclose(got, want, atol=0, rtol=0)


class TestSparseDenseEquivalence:
    def full_spec(self):
        return CovariateSpec(
            dyadic=[("send", "both"), ("receive", "both")],
            triadic=[("2-send", "both"), ("2-receive", "indicator"),
                     ("sibling", "binned"), ("cosibling", "indicator")],
            scheme=IntervalScheme([30 * MIN, 2 * HOUR]))

    def test_incremental_equals_brute_force_replay(self, rng):
        actors = 6
        traits = random_traits(rng, actors)
        spec = CovariateSpec(
            static_terms=["1*a", "b*b"],
            dyadic=[("send", "both"), ("receive", "both")],
            triadic=[("2-send", "both"), ("sibling", "both")],
            scheme=IntervalScheme([30 * MIN, 2 * HOUR]))
        stream = random_stream(rng, actors=actors, n=120, max_size=3,
                               gap=10 * MIN, traits=traits)
        static = StaticDesign(spec, traits, actors)
        state = DynamicState(spec, actors)
        check_at = set(rng.choice(len(stream), size=12, replace=False).tolist())
        for m, e in enumerate(stream):
            if m in check_at:
                i = e.sender
                for j in range(actors):
                    if j == i:
                        continue
                    got = covariate_vector(state, static, e.time, i, j)
                    want = brute_covariates(stream, spec, static, e.time, i, j)
                    assert_allclose(got, want, rtol=1e-12, atol=0)
            state.advance(e)

    def test_active_set_never_misses_nonzero(self, rng):
        spec = self.full_spec()
        actors = 6
        stream = random_stream(rng, actors=actors, n=80, max_size=2,
                               gap=20 * MIN)
        state = DynamicState(spec, actors)
        for e in stream:
            state.advance(e)
        t = stream.events[-1].time + 1.0
        for i in range(actors):
            active = np.flatnonzero(state.support(i))
            outside = [j for j in range(actors) if j != i and j not in active]
            assert not state.rows(t, i, outside).any()

    def test_predictability_same_timestamp_excluded(self):
        spec = self.full_spec()
        state = DynamicState(spec, 4)
        static = StaticDesign(spec, None, 4)
        state.advance(Event(50.0, 0, (1,)))
        before = covariate_vector(state, static, 100.0, 0, 1)
        state.advance(Event(100.0, 0, (1,)))
        after = covariate_vector(state, static, 100.0, 0, 1)
        assert_allclose(before, after)


class TestPreparedRows:
    def test_rows_grow_in_place_when_not_reserved(self, rng, monkeypatch):
        # A rows per event are reserved and trimmed; where memory refuses
        # that, the rows grow in place to the same design
        actors = 6
        spec = TestSparseDenseEquivalence().full_spec()
        stream = random_stream(rng, actors=actors, n=200, max_size=3,
                               gap=10 * MIN)
        want = prepare(stream, spec)
        assert want.dX.shape == (want.row_start[-1], spec.dim)
        assert want.dX.dtype == np.int16
        assert want.row_start[-1] > len(stream)
        assert_same_design(prepare_unreserved(stream, spec, monkeypatch), want)

    def test_counts_past_int16_widen_the_rows(self, monkeypatch):
        # 200 messages 0->1, then 200 messages 1->2, all in bin 1 at the
        # last event: 0 reaches 2 over 200 x 200 = 40,000 two-paths, more
        # than int16 holds
        spec = CovariateSpec(dyadic=[("send", "both")],
                             triadic=[("2-send", "binned")],
                             scheme=IntervalScheme([HOUR]))
        events = [Event(float(t), 0, (1,)) for t in range(1, 201)]
        events += [Event(float(t), 1, (2,)) for t in range(201, 401)]
        events.append(Event(1000.0, 0, (3,)))
        stream = EventStream(events, 4)
        design = prepare(stream, spec)
        assert design.dX.dtype == np.float64
        m = design.n_events - 1
        static = StaticDesign(spec, None, 4)
        for j in (1, 2, 3):
            want = brute_covariates(stream, spec, static, 1000.0, 0, j)
            assert np.array_equal(design.dense_x(m)[j], want)
        assert design.dense_x(m)[2].max() == 40000.0
        beta = np.full(spec.dim, 0.1)
        beta[-4:] = 1e-5
        fast = evaluate(design, beta, "approx_multicast")
        slow = dense_oracle(design, beta, "approx_multicast")
        assert_allclose(fast.logpl, slow.logpl, rtol=1e-10)
        assert_allclose(fast.score, slow.score, rtol=1e-10)
        assert_allclose(fast.info, slow.info, rtol=1e-10)
        assert_same_design(prepare_unreserved(stream, spec, monkeypatch),
                           design)


    def test_equivalent_policies_give_one_design(self, rng):
        actors = 7
        spec = TestSparseDenseEquivalence().full_spec()
        stream = random_stream(rng, actors=actors, n=150, max_size=3,
                               gap=10 * MIN)
        want = prepare(stream, spec)
        others = {i: set(range(actors)) - {i} for i in range(actors)}
        for policy in (RiskSetPolicy("static", static_sets=others),
                       RiskSetPolicy("callback",
                                     callback=lambda t, i: others[i])):
            assert_same_design(prepare(stream, spec, policy=policy), want)

    def test_time_varying_callback_policy(self, rng):
        # each half hour, a sender loses a different quarter of its peers
        actors = 7
        spec = TestSparseDenseEquivalence().full_spec()

        def eligible_mask(t, i):
            ids = np.arange(actors)
            return (ids != i) & ((i + ids + int(t // (30 * MIN))) % 4 != 0)

        def eligible(t, i):
            return set(np.flatnonzero(eligible_mask(t, i)).tolist())

        events, t = [], 0.0
        for _ in range(150):
            t += rng.exponential(10 * MIN)
            i = int(rng.integers(actors))
            recv = rng.choice(sorted(eligible(t, i)), int(rng.integers(1, 4)),
                              replace=False)
            events.append(Event(t, i, tuple(recv.tolist())))
        stream = EventStream(events, actors)
        design = prepare(stream, spec,
                         policy=RiskSetPolicy("callback", callback=eligible))
        plain = prepare(stream, spec)
        static = StaticDesign(spec, None, actors)
        masks = set()
        for m, ev in enumerate(stream):
            mask = design.risk_mask(m)
            assert np.array_equal(mask, eligible_mask(ev.time, ev.sender))
            assert np.array_equal(design.dense_x(m), plain.dense_x(m))
            # an ineligible sender keeps a zero row, though its two-paths
            # back to itself are not zero
            assert np.array_equal(design.dense_x(m)[ev.sender],
                                  static.x0_pair(ev.sender, ev.sender))
            masks.add(mask.tobytes())
        assert len(masks) > actors
        assert np.array_equal(design.xsum, plain.xsum)

    def test_nonzeros_list_the_rows_entries(self, rng, monkeypatch):
        # kept where under a tenth of dX is non-zero; row by row, in
        # column order and in dX's dtype; a subset keeps its columns'
        # entries, renumbered
        spec = TestSparseDenseEquivalence().full_spec()
        stream = random_stream(rng, actors=6, n=200, max_size=3,
                               gap=10 * MIN)
        design = prepare(stream, spec)
        share = np.count_nonzero(design.dX) / design.dX.size
        assert share > 0.1 and design.nz_val is None
        monkeypatch.setattr("sendrate.design._SPARSE_BELOW", 2.0)
        design = prepare(stream, spec)
        rows, cols = np.nonzero(design.dX)
        assert np.array_equal(np.repeat(np.arange(len(design.dX)),
                                        np.diff(design.nz_start)), rows)
        assert np.array_equal(design.nz_columns[design.nz_col], cols)
        assert np.array_equal(design.nz_val, design.dX[rows, cols])
        assert design.nz_val.dtype == design.dX.dtype
        assert design.nz_col.dtype == np.uint8
        sub = design.subset(np.arange(spec.dim)[::-2])
        dense = np.zeros_like(sub.dX)
        dense[np.repeat(np.arange(len(sub.dX)), np.diff(sub.nz_start)),
              sub.nz_columns[sub.nz_col]] = sub.nz_val
        assert np.array_equal(dense, sub.dX) and (sub.nz_val != 0).all()
        # a subset keeps the CSR only while it stays under the share
        monkeypatch.setattr("sendrate.design._SPARSE_BELOW", 1.01 * share)
        design = prepare(stream, spec)
        assert design.nz_val is not None
        counts = np.count_nonzero(design.dX, axis=0)
        order = np.argsort(counts)
        assert design.subset(order[len(order) // 2:]).nz_val is None
        assert design.subset(order[:len(order) // 2]).nz_val is not None


def prepare_unreserved(stream, spec, monkeypatch):
    """``prepare`` where memory refuses the reservation of A rows per
    event, so the rows grow in place."""
    empty = np.empty

    def refuse_reservation(shape, *args, **kwargs):
        if shape == (len(stream) * stream.actor_count, spec.dim):
            raise MemoryError("reservation refused")
        return empty(shape, *args, **kwargs)
    with monkeypatch.context() as patch:
        patch.setattr(np, "empty", refuse_reservation)
        return prepare(stream, spec)


def assert_same_design(got, want):
    assert got.dX.dtype == want.dX.dtype
    assert np.asarray(got.nz_val).dtype == np.asarray(want.nz_val).dtype
    for name in ("dX", "row_j", "row_inrisk", "row_start", "xsum",
                 "ev_block", "blk_event", "ev_class", "ev_sender", "ev_size",
                 "recv_start", "recv_j", "nz_start", "nz_columns", "nz_col",
                 "nz_val"):
        assert np.array_equal(getattr(got, name), getattr(want, name))


class TestActiveReceivers:
    def test_empty_history(self):
        spec = CovariateSpec(dyadic=[("send", "indicator")])
        state = DynamicState(spec, 4)
        assert not state.support(0).any()

    def test_send_and_receive_effects(self):
        spec = CovariateSpec(dyadic=[("send", "indicator"),
                                     ("receive", "indicator")])
        state = DynamicState(spec, 4)
        state.advance(Event(1.0, 0, (1,)))
        assert state.support(0)[1]
        assert state.support(1)[0]

    def test_triadic_closure_activates(self):
        spec = CovariateSpec(triadic=[("2-send", "indicator")])
        state = DynamicState(spec, 4)
        state.advance(Event(1.0, 0, (2,)))   # i -> h
        state.advance(Event(2.0, 2, (1,)))   # h -> j
        assert state.support(0)[1]


class TestCountTensor:
    """The dense count state against the brute-force recomputation."""

    def spec(self):
        return CovariateSpec(
            dyadic=[("send", "both"), ("receive", "both")],
            triadic=[(e, "both") for e in
                     ("2-send", "2-receive", "sibling", "cosibling")],
            scheme=IntervalScheme([20 * MIN, HOUR, 3 * HOUR]))

    def tied_stream(self, rng, actors, n, self_loops=False):
        # times on a 10-minute grid: same-timestamp events, and ages that
        # land exactly on the boundaries
        events, t = [], 0.0
        for _ in range(n):
            t += 10 * MIN * int(rng.integers(0, 3))
            i = int(rng.integers(actors))
            pool = range(actors) if self_loops else [j for j in range(actors) if j != i]
            size = int(rng.integers(1, 4))
            recv = rng.choice(list(pool), size=size, replace=False).tolist()
            events.append(Event(t, i, tuple(recv)))
        return EventStream(events, actors, allow_self_loops=self_loops)

    def test_every_event_every_receiver(self, rng):
        actors = 6
        spec = self.spec()
        stream = self.tied_stream(rng, actors, 70)
        static = StaticDesign(spec, None, actors)
        state = DynamicState(spec, actors)
        for e in stream:
            i = e.sender
            for j in range(actors):
                if j != i:
                    got = covariate_vector(state, static, e.time, i, j)
                    want = brute_covariates(stream, spec, static, e.time, i, j)
                    assert np.array_equal(got, want), (e, j)
            state.advance(e)

    def test_query_back_in_time(self, rng):
        actors = 5
        spec = self.spec()
        stream = self.tied_stream(rng, actors, 60)
        static = StaticDesign(spec, None, actors)
        state = DynamicState(spec, actors)
        for e in stream:
            state.advance(e)
        end = stream.events[-1].time
        for t in sorted((end + 4 * HOUR, end + 1.0, end, end - 40 * MIN,
                         end + HOUR, end / 2, 0.0)):
            for i in range(actors):
                for j in range(actors):
                    if j != i:
                        assert np.array_equal(
                            covariate_vector(state, static, t, i, j),
                            brute_covariates(stream, spec, static, t, i, j))
        # queries only go forward
        with pytest.raises(StreamError, match="back in time"):
            state.rows(end, 0, [1])

    def test_self_loops_are_no_middle_actor(self, rng):
        actors = 5
        spec = self.spec()
        stream = self.tied_stream(rng, actors, 60, self_loops=True)
        assert any(e.sender in e.receivers for e in stream)
        static = StaticDesign(spec, None, actors)
        state = DynamicState(spec, actors)
        for e in stream:
            state.advance(e)
        t = stream.events[-1].time + 30 * MIN
        for i in range(actors):
            for j in range(actors):
                if j != i:
                    assert np.array_equal(
                        covariate_vector(state, static, t, i, j),
                        brute_covariates(stream, spec, static, t, i, j))

    def test_rows_for_many_senders(self, rng):
        actors = 6
        spec = self.spec()
        stream = self.tied_stream(rng, actors, 50)
        state = DynamicState(spec, actors)
        for e in stream:
            state.advance(e)
        t = stream.events[-1].time + 25 * MIN
        pairs = [(i, j) for i in range(actors) for j in range(actors) if i != j]
        senders, receivers = np.array(pairs).T
        want = np.array([state.rows(t, i, [j])[0] for i, j in pairs])
        assert np.array_equal(state.rows(t, senders, receivers), want)

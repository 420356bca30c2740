import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sendrate import (ActorTraits, CovariateSpec, Event, EventStream,
                      IntervalScheme, RiskSetPolicy, StaticDesign, StreamError,
                      dense_oracle, evaluate, prepare, second_order_static_terms)
from sendrate import design as design_module
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

    @pytest.mark.parametrize("bounds", [[float("nan")], [600.0, math.inf],
                                        [600.0, float("nan"), 900.0]])
    def test_nonfinite_boundaries_refused(self, bounds):
        with pytest.raises(StreamError, match="finite"):
            IntervalScheme(bounds)
        spec = {"dyadic": [{"effect": "send", "form": "binned"}],
                "intervals_seconds": bounds}
        with pytest.raises(StreamError, match="intervals_seconds"):
            CovariateSpec.from_json(json.loads(json.dumps(spec)))

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


    @pytest.mark.parametrize("terms, name", [
        (dict(static_terms=["1*a", "b*a", "1*a"]), "1*a"),
        (dict(dyadic=[("send", "both"), ("send", "indicator")]), "send"),
        (dict(dyadic=[("receive", "binned"), ("receive", "both")]),
         "receive[1]"),
        (dict(triadic=[("sibling", "indicator"), ("sibling", "both")]),
         "sibling")], ids=["static", "send", "receive-bins", "triadic"])
    def test_repeated_column_refused(self, terms, name):
        with pytest.raises(StreamError, match=f"column '{re.escape(name)}' "
                                              "listed twice"):
            CovariateSpec(**terms)


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
        t = stream[-1].time + 1e9
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
        t = stream[-1].time + 7 * MIN
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
        t = stream[-1].time + 1.0
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
    def test_rows_grow_in_place(self, rng):
        # the rows start at one per event and grow by an eighth as they
        # outgrow it; every event reads the rows the state gave it (zero at
        # the sender, which is outside the support), trimmed to R
        actors = 6
        spec = TestSparseDenseEquivalence().full_spec()
        stream = random_stream(rng, actors=actors, n=200, max_size=3,
                               gap=10 * MIN)
        design = prepare(stream, spec)
        assert design.dX.shape == (design.blk_start[-1], spec.dim)
        assert design.dX.dtype == np.int16
        assert design.blk_start[-1] > 2 * len(stream)
        state = DynamicState(spec, actors)
        for m, e in enumerate(stream):
            js, dx, _ = design.event_rows(m)
            want = state.rows(e.time, e.sender, js)
            want[js == e.sender] = 0.0
            assert np.array_equal(dx, want)
            state.advance(e)

    @pytest.mark.parametrize("triadic", [[], [("2-send", "indicator")]],
                             ids=["stamped", "compared"])
    def test_each_block_stores_its_rows_once(self, rng, triadic):
        # dyadic terms share blocks through the state's change count,
        # triadic ones through comparing built rows with the block's; the
        # row arrays hold each block's rows once, and every event reads its
        # block's rows, which are the rows the state gives it
        actors = 5
        spec = CovariateSpec(dyadic=[("send", "indicator"),
                                     ("receive", "indicator")],
                             triadic=triadic)
        stream = random_stream(rng, actors=actors, n=300, max_size=2,
                               gap=20 * MIN)
        design = prepare(stream, spec)
        B = len(design.blk_event)
        assert B < design.n_events / 2
        state, sizes = DynamicState(spec, actors), np.zeros(B, dtype=int)
        assert (state._stamp(0.0, 0) is None) == bool(triadic)
        for m, e in enumerate(stream):
            b = design.ev_block[m]
            rows = slice(design.blk_start[b], design.blk_start[b + 1])
            js, dx, inrisk = design.event_rows(m)
            assert np.array_equal(js, design.row_j[rows])
            assert np.array_equal(dx, design.dX[rows])
            assert np.array_equal(inrisk, design.row_inrisk[rows])
            support = state.support(e.sender)
            want = np.flatnonzero(support | (np.arange(actors) == e.sender))
            assert np.array_equal(js, want)
            assert np.array_equal(inrisk, js != e.sender)
            built = state.rows(e.time, e.sender, js)
            built[~support[js]] = 0.0
            assert np.array_equal(dx, built)
            sizes[b] = len(js)
            state.advance(e)
        assert len(design.dX) == design.blk_start[-1] == sizes.sum()
        assert len(design.row_j) == len(design.row_inrisk) == sizes.sum()

    def test_replay_peak_bounded_by_one_growth_step(self, monkeypatch):
        # by the end of the replay (where the non-zeros are counted) the
        # rows are trimmed to R; before it they grew by an eighth at most,
        # so the replay's peak passes what it then holds by an eighth of
        # the rows, plus a few of one event's float64 rows
        rng = np.random.default_rng(5)
        actors, names = 20, ("a", "b", "c", "d", "e", "f")
        spec = CovariateSpec(static_terms=second_order_static_terms(names),
                             dyadic=[("send", "indicator"),
                                     ("receive", "indicator")])
        stream = random_stream(rng, actors=actors, n=2000, gap=60.0,
                               traits=random_traits(rng, actors, names))
        at_end = []

        def counted(dX, columns):
            at_end.append(tracemalloc.get_traced_memory())
            return nonzeros(dX, columns)
        nonzeros = design_module._nonzeros
        monkeypatch.setattr(design_module, "_nonzeros", counted)
        tracemalloc.start()
        try:
            design = prepare(stream, spec)
        finally:
            tracemalloc.stop()
        (held, peak), = at_end
        assert len(design.blk_event) < design.n_events / 2
        one_row = 8 * spec.dim
        assert peak - held <= design.dX.nbytes // 8 + 4 * actors * one_row

    def test_counts_past_int16_widen_the_rows(self):
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


def eligible_stream(rng, actors, n, eligible, gap=10 * MIN):
    """Events of sizes 1-3 whose receivers ``eligible(t, i)`` allows; a
    third of them repeat the previous event's sender and time."""
    events, t, i = [], 0.0, 0
    for m in range(n):
        if m == 0 or rng.random() < 2 / 3:
            t += rng.exponential(gap)
            i = int(rng.integers(actors))
        pool = sorted(eligible(t, i))
        recv = rng.choice(pool, min(len(pool), int(rng.integers(1, 4))),
                          replace=False)
        events.append(Event(t, i, tuple(recv.tolist())))
    return EventStream(events, actors)


class TestRowReuse:
    """An event whose sender's change count and mask stand since its
    previous event joins that event's block without building rows; every
    design equals the one built with the count reporting a change at every
    event."""

    ACTORS = 6
    SETS = {i: {(i + d) % 6 for d in (1, 2, 4)} for i in range(6)}

    @classmethod
    def policy(cls, mode):
        if mode == "static":
            return RiskSetPolicy("static", static_sets=cls.SETS)
        if mode == "callback":
            # each half hour, a sender loses a different third of its peers
            return RiskSetPolicy("callback", callback=lambda t, i: {
                j for j in range(cls.ACTORS)
                if j != i and (i + j + int(t // (30 * MIN))) % 3})
        return RiskSetPolicy()

    @pytest.mark.parametrize("mode", ["default", "static", "callback"])
    @pytest.mark.parametrize("forms", [
        ("indicator", "indicator"), ("binned", "binned"), ("both", "both"),
        ("binned", "indicator")], ids="-".join)
    def test_counted_rows_equal_built_rows(self, rng, monkeypatch, mode,
                                           forms):
        traits = random_traits(rng, self.ACTORS)
        spec = CovariateSpec(static_terms=["1*a", "b*b"],
                             dyadic=[("send", forms[0]),
                                     ("receive", forms[1])],
                             scheme=IntervalScheme([30 * MIN, 2 * HOUR]))
        policy = self.policy(mode)
        stream = eligible_stream(
            rng, self.ACTORS, 400,
            lambda t, i: np.flatnonzero(policy.mask(t, i, self.ACTORS)))
        built, rows = [], DynamicState.rows

        def counting(state, *args):
            built.append(1)
            return rows(state, *args)
        monkeypatch.setattr(DynamicState, "rows", counting)
        design = prepare(stream, spec, traits=traits, policy=policy)
        reused = len(stream) - len(built)
        ticks = iter(range(10 ** 9))
        monkeypatch.setattr(DynamicState, "_stamp",
                            lambda state, t, i: next(ticks))
        built.clear()
        assert_same_design(design, prepare(stream, spec, traits=traits,
                                           policy=policy))
        assert len(built) == len(stream)
        # blocks are shared, and most events that share one build no rows
        assert len(design.blk_event) < len(stream)
        assert reused > (len(stream) - len(design.blk_event)) / 2

    def test_triadic_state_keeps_no_count(self):
        spec = CovariateSpec(dyadic=[("send", "indicator")],
                             triadic=[("2-send", "indicator")])
        state = DynamicState(spec, 4)
        state.advance(Event(1.0, 0, (1,)))
        assert state._stamp(2.0, 0) is None

    def test_count_follows_read_slots(self):
        # a record moves bins in both D rows of its pair; only an actor
        # whose columns read a moved slot, or whose support grew, counts it
        spec = CovariateSpec(dyadic=[("receive", "indicator")],
                             scheme=IntervalScheme([HOUR]))
        state = DynamicState(spec, 3)
        stamps = lambda t: [state._stamp(t, i) for i in range(3)]
        state.advance(Event(0.0, 0, (1,)))
        assert stamps(0.0) == [1, 1, 0]     # support of 0 and 1
        assert stamps(1.0) == [1, 2, 0]     # 1's receive flag of 0
        assert stamps(2 * HOUR) == [1, 2, 0]    # bins: no column reads them
        state.advance(Event(3 * HOUR, 0, (1,)))
        assert stamps(4 * HOUR) == [1, 2, 0]    # the flag stands


class TestOneIndexBuilder:
    """Copies with new rows and subsets get the index of their own rows,
    built afresh."""

    @staticmethod
    def design(rng):
        traits = random_traits(rng, 6)
        spec = CovariateSpec(static_terms=["1*a", "b*b"],
                             dyadic=[("send", "both"), ("receive", "both")],
                             triadic=[("2-send", "both"),
                                      ("sibling", "binned")],
                             scheme=IntervalScheme([30 * MIN, 2 * HOUR]))
        stream = random_stream(rng, actors=6, n=150, max_size=3,
                               gap=10 * MIN, traits=traits)
        return prepare(stream, spec)

    @staticmethod
    def assert_fresh_index(d):
        # row by row, in nz_columns' order, as np.nonzero lists them
        rows, at = np.nonzero(d.dX[:, d.nz_columns])
        start = np.r_[0, np.cumsum(np.bincount(rows, minlength=len(d.dX)))]
        assert d.nz_start.dtype == np.int32
        assert np.array_equal(d.nz_start, start)
        assert d.nz_col.dtype == np.min_scalar_type(len(d.nz_columns) - 1)
        assert np.array_equal(d.nz_col, at)
        assert d.nz_val.dtype == d.dX.dtype
        assert np.array_equal(d.nz_val, d.dX[rows, d.nz_columns[at]])

    @pytest.mark.parametrize("dtype", [np.int16, np.float64])
    def test_copy_with_rows_rebuilds(self, rng, monkeypatch, dtype):
        monkeypatch.setattr("sendrate.design._SPARSE_BELOW", 2.0)
        design = self.design(rng)
        dX = design.dX.astype(dtype)
        dX[::3] = 0
        dX[1::3] *= 3
        copy = design.copy_with(dX=dX)
        self.assert_fresh_index(copy)
        assert copy.nz_val.dtype == dtype
        assert len(copy.nz_val) < len(design.nz_val)
        self.assert_fresh_index(design)     # the original keeps its own

    def test_subset_rebuilds(self, rng, monkeypatch):
        monkeypatch.setattr("sendrate.design._SPARSE_BELOW", 2.0)
        design = self.design(rng)
        # reversed, then the other half interleaved back: static and
        # dynamic columns mixed, out of order
        back = np.arange(design.p)[::-1]
        cols = np.r_[back[::2], back[1::2]]
        sub = design.subset(cols)
        dynamic = cols >= design.spec.static_dim
        assert np.array_equal(np.sort(sub.nz_columns), np.flatnonzero(dynamic))
        self.assert_fresh_index(sub)

    def test_subset_of_design_without_index_has_none(self, rng):
        design = self.design(rng)
        assert design.nz_val is None
        # the static columns and the sparsest dynamic one would pass the
        # share on their own
        counts = np.count_nonzero(design.dX, axis=0)
        static = np.arange(design.spec.static_dim)
        sub = design.subset(np.r_[static, len(static) + np.argmin(
            counts[len(static):])])
        assert 0 < np.count_nonzero(sub.dX) < 0.1 * sub.dX.size
        assert sub.nz_val is None and sub.nz_start is None


def assert_same_design(got, want):
    assert got.dX.dtype == want.dX.dtype
    assert np.asarray(got.nz_val).dtype == np.asarray(want.nz_val).dtype
    for name in ("dX", "row_j", "row_inrisk", "blk_start", "xsum",
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
        # land exactly on the boundaries; a list, since an EventStream
        # refuses self-loops, and the state is fed directly
        events, t = [], 0.0
        for _ in range(n):
            t += 10 * MIN * int(rng.integers(0, 3))
            i = int(rng.integers(actors))
            pool = range(actors) if self_loops else [j for j in range(actors) if j != i]
            size = int(rng.integers(1, 4))
            recv = rng.choice(list(pool), size=size, replace=False).tolist()
            events.append(Event(t, i, tuple(recv)))
        return events

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
        end = stream[-1].time
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
        t = stream[-1].time + 30 * MIN
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
        t = stream[-1].time + 25 * MIN
        pairs = [(i, j) for i in range(actors) for j in range(actors) if i != j]
        senders, receivers = np.array(pairs).T
        want = np.array([state.rows(t, i, [j])[0] for i, j in pairs])
        assert np.array_equal(state.rows(t, senders, receivers), want)

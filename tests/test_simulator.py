import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from sendrate import (CovariateSpec, IntervalScheme, RiskSetPolicy, SimConfig,
                      StreamError, esp, likelihood, prepare, simulate,
                      simulator)
from sendrate.covariates import DynamicState
from sendrate.esp import sample_fixed_size
from sendrate.likelihood import selection_probabilities

MIN = 60.0


def send_recv_spec():
    return CovariateSpec(dyadic=[("send", "indicator"),
                                 ("receive", "indicator")])


class TestBasics:
    def test_seed_determinism(self):
        cfg = SimConfig(actor_count=8, beta_true=np.array([0.4, 0.2]),
                        spec=send_recv_spec(), seed=11, baseline=0.01,
                        n_events=200)
        s1, s2 = simulate(cfg), simulate(cfg)
        assert [(e.time, e.sender, e.receivers) for e in s1] \
            == [(e.time, e.sender, e.receivers) for e in s2]
        s3 = simulate(cfg.with_seed(12))
        assert [e.time for e in s3] != [e.time for e in s1]

    def test_stream_invariants(self):
        cfg = SimConfig(actor_count=6, beta_true=np.array([0.5, 0.5]),
                        spec=send_recv_spec(), seed=5, baseline=0.01,
                        size_weights={1: 1.0, 2: 0.2, 3: 0.05}, n_events=300)
        stream = simulate(cfg)
        times = [e.time for e in stream]
        assert times == sorted(times)
        for e in stream:
            assert e.sender not in e.receivers
            assert 1 <= e.size <= 3

    def test_all_rates_zero(self):
        cfg = SimConfig(actor_count=4, beta_true=np.zeros(2),
                        spec=send_recv_spec(), baseline=0.0, n_events=10)
        with pytest.raises(StreamError):
            simulate(cfg)

    def test_oversized_request(self):
        cfg = SimConfig(actor_count=3, beta_true=np.zeros(2),
                        spec=send_recv_spec(), baseline=1.0,
                        size_weights={5: 1.0}, n_events=5)
        with pytest.raises(StreamError):
            simulate(cfg)

    def test_explosive_configuration_stops(self):
        # a first message makes its pair's log-weight 600, past the cap on
        # the log total intensity
        cfg = SimConfig(actor_count=4, beta_true=np.array([600.0, 0.0]),
                        spec=send_recv_spec(), baseline=1.0, n_events=10)
        with pytest.raises(StreamError, match="explosive"):
            simulate(cfg)

    def test_horizon_mode_count_distribution(self):
        # beta = 0, singletons: total count is Poisson, mean T*sum(rate)*(A-1)
        A, lam, T = 10, 0.002, 5000.0
        counts = []
        for seed in range(8):
            cfg = SimConfig(actor_count=A, beta_true=np.zeros(2),
                            spec=send_recv_spec(), seed=seed, baseline=lam,
                            horizon=T)
            counts.append(len(simulate(cfg)))
        mean = T * A * lam * (A - 1)
        got = np.mean(counts)
        assert abs(got - mean) < 3 * np.sqrt(mean / len(counts))


class TestLaw:
    def test_uniform_receivers_at_beta_zero(self):
        cfg = SimConfig(actor_count=6, beta_true=np.zeros(2),
                        spec=send_recv_spec(), seed=3, baseline=0.01,
                        n_events=10000)
        stream = simulate(cfg)
        table = np.zeros((6, 6))
        for e in stream:
            table[e.sender, e.receivers[0]] += 1
        # each sender's receivers uniform over the 5 others
        for i in range(6):
            row = np.delete(table[i], i)
            if row.sum() < 50:
                continue
            chi2 = ((row - row.mean()) ** 2 / row.mean()).sum()
            assert chi2 < stats.chi2.ppf(0.99, df=4)

    def test_reciprocation_matches_one_step_conditional(self):
        # strong receive effect: after i -> j, the model probability that
        # j's next message goes back to i is elevated and computable
        spec = send_recv_spec()
        beta = np.array([0.0, 2.0])
        cfg = SimConfig(actor_count=6, beta_true=beta, spec=spec, seed=9,
                        baseline=0.01, n_events=4000)
        stream = simulate(cfg)
        design = prepare(stream, spec)
        probs = selection_probabilities(design, beta)
        hits, trials, model = 0, 0, 0.0
        for m in range(len(stream) - 1):
            prev, nxt = stream[m], stream[m + 1]
            if prev.size != 1:
                continue
            if nxt.sender != prev.receivers[0]:
                continue
            trials += 1
            model += probs[m + 1, prev.sender]
            hits += int(nxt.receivers[0] == prev.sender)
        assert trials > 200
        empirical = hits / trials
        expected = model / trials
        assert expected > 1.0 / 5.0          # elevated over the uniform law
        assert abs(empirical - expected) < 3 * np.sqrt(expected / trials)

    def test_size_frequencies_track_per_size_rates(self):
        # at beta = 0 the realized size law is proportional to
        # q(L) * C(risk, L)
        from math import comb
        A = 7
        q = {1: 1.0, 2: 0.05, 3: 0.01}
        cfg = SimConfig(actor_count=A, beta_true=np.zeros(2),
                        spec=send_recv_spec(), seed=21, baseline=0.01,
                        size_weights=q, n_events=6000)
        stream = simulate(cfg)
        counts = np.bincount([e.size for e in stream], minlength=4)[1:]
        want = np.array([q[L] * comb(A - 1, L) for L in (1, 2, 3)])
        want = want / want.sum()
        got = counts / counts.sum()
        assert np.abs(got - want).max() < 0.02

    def test_receiver_sets_proportional_to_weight_products(self, rng):
        w = np.array([4.0, 1.0, 1.0, 0.0])
        counts = {}
        for _ in range(10000):
            s = tuple(sample_fixed_size(w, 2, rng))
            counts[s] = counts.get(s, 0) + 1
        freq = {k: v / 10000 for k, v in counts.items()}
        assert abs(freq[(0, 1)] - 4 / 9) < 0.02
        assert abs(freq[(0, 2)] - 4 / 9) < 0.02
        assert abs(freq[(1, 2)] - 1 / 9) < 0.02


class TestBinCrossings:
    def test_binned_covariates_decay_in_simulation(self):
        # a strong short-bin inhibition suppresses repeats inside the bin
        # width; the crossing machinery must expire it afterwards (raw-count
        # excitation is explosive, so the stable sign is tested)
        spec = CovariateSpec(dyadic=[("send", "binned")],
                             scheme=IntervalScheme([10.0]))
        beta = np.array([-2.0, 0.0])    # bins: (0,10s], (10s,inf)
        cfg = SimConfig(actor_count=5, beta_true=beta, spec=spec, seed=13,
                        baseline=0.01, n_events=3000)
        stream = simulate(cfg)
        design = prepare(stream, spec)
        probs = selection_probabilities(design, beta)
        # model one-step repeat probability agrees with empirical repeats
        hits, trials, model = 0, 0, 0.0
        for m in range(len(stream) - 1):
            prev, nxt = stream[m], stream[m + 1]
            if nxt.sender != prev.sender:
                continue
            trials += 1
            model += probs[m + 1, prev.receivers[0]]
            hits += int(nxt.receivers[0] == prev.receivers[0])
        assert trials > 100
        assert abs(hits / trials - model / trials) \
            < 3 * np.sqrt(max(model, 1.0)) / trials + 0.02

    def test_likelihood_prefers_truth_neighborhood(self):
        spec = CovariateSpec(dyadic=[("send", "binned")],
                             scheme=IntervalScheme([30 * MIN]))
        beta = np.array([-1.5, -0.2])
        cfg = SimConfig(actor_count=8, beta_true=beta, spec=spec, seed=17,
                        baseline=0.001, n_events=2000)
        stream = simulate(cfg)
        from sendrate import evaluate
        design = prepare(stream, spec)
        at_truth = evaluate(design, beta, "pairwise", order=0).logpl
        at_zero = evaluate(design, np.zeros(2), "pairwise", order=0).logpl
        at_far = evaluate(design, beta + 3.0, "pairwise", order=0).logpl
        assert at_truth > at_zero and at_truth > at_far


class TestPolicies:
    def test_static_risk_sets_respected(self):
        sets = {0: {1, 2}, 1: {0}, 2: {0, 1}, 3: {0}}
        policy = RiskSetPolicy("static", static_sets=sets)
        cfg = SimConfig(actor_count=4, beta_true=np.zeros(2),
                        spec=send_recv_spec(), seed=2, baseline=0.05,
                        n_events=500, policy=policy)
        stream = simulate(cfg)
        for e in stream:
            assert set(e.receivers) <= sets[e.sender]

    def test_no_rate_until_a_crossing(self):
        # a fresh message weighs e^-800 against the silent receiver, so
        # every size-2 total of sender 0 underflows to 0 until its records
        # age into bin 2; sender 3 has no risk set and no rate
        sets = {0: {1, 2, 3}, 1: {0}, 2: {0}, 3: set()}
        spec = CovariateSpec(dyadic=[("send", "binned")],
                             scheme=IntervalScheme([60.0]))
        cfg = SimConfig(actor_count=4, beta_true=np.array([-800.0, 0.0]),
                        spec=spec, seed=4, baseline=[1.0, 0.0, 0.0, 0.0],
                        size_weights={2: 1.0}, n_events=6,
                        policy=RiskSetPolicy("static", static_sets=sets))
        times = [e.time for e in simulate(cfg)]
        assert len(times) == 6
        assert min(np.diff(times)) > 60.0

    def test_set_holding_the_sender_fails_before_drawing(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew a receiver set")
        monkeypatch.setattr(esp, "sample_fixed_size", no_draw)
        sets = {0: {0, 1, 2}, 1: {0}, 2: {0, 1}}
        cfg = SimConfig(actor_count=3, beta_true=np.array([0.5, 0.0]),
                        spec=send_recv_spec(), n_events=29,
                        policy=RiskSetPolicy("static", static_sets=sets))
        with pytest.raises(StreamError, match="sender 0 holds the sender"):
            simulate(cfg)


class TestTriadicRefresh:
    def test_weights_match_replayed_design(self, monkeypatch):
        # every receiver draw sees the weights the prepared stream gives
        # that event: the pairs a record touches through a middle actor
        # are refreshed when it is created and when it changes bins
        spec = CovariateSpec(dyadic=[("send", "both"), ("receive", "indicator")],
                             triadic=[("2-send", "both"), ("sibling", "binned"),
                                      ("cosibling", "indicator")],
                             scheme=IntervalScheme([600.0, 3600.0]))
        beta = np.random.default_rng(12).normal(-0.1, 0.1, size=spec.dim)
        cfg = SimConfig(actor_count=12, beta_true=beta, spec=spec, seed=3,
                        baseline=0.01, size_weights={1: 1.0, 2: 0.4, 3: 0.2},
                        n_events=400)
        drawn, draw = [], esp.sample_fixed_size

        def recording(w, L, rng):
            drawn.append(np.array(w))
            return draw(w, L, rng)
        monkeypatch.setattr(esp, "sample_fixed_size", recording)
        design = prepare(simulate(cfg), spec)
        assert design.spec.has_triadic and len(drawn) == design.n_events == 400
        S = likelihood._log_weights(design, beta, design.static._x0 @ beta,
                                    np.arange(design.n_events))
        want = np.exp(S - likelihood._top_shift(S, 1)[:, None])
        assert np.abs(np.array(drawn) - want).max() <= 1e-12


def triadic_config(n_events):
    spec = CovariateSpec(dyadic=[("send", "both"), ("receive", "indicator")],
                         triadic=[("2-send", "both"), ("sibling", "binned"),
                                  ("cosibling", "indicator")],
                         scheme=IntervalScheme([600.0, 3600.0]))
    beta = np.random.default_rng(12).normal(-0.1, 0.1, size=spec.dim)
    return SimConfig(actor_count=12, beta_true=beta, spec=spec, seed=3,
                     baseline=0.01, size_weights={1: 1.0, 2: 0.4, 3: 0.2},
                     n_events=n_events)


class TestWorkFollowsChanges:
    """A pair's row is recomputed only when its sender's change count
    moved, a sender is refreshed only when one of its log-weights changed
    bits, and the total rate and the CDF of the (sender, size) pick stand
    until a sender is refreshed; none of it changes a stream."""

    CONFIGS = {
        "indicators": lambda: SimConfig(
            actor_count=10, beta_true=[0.8, 0.4], spec=send_recv_spec(),
            seed=99, baseline=0.01, size_weights={1: 1.0, 2: 0.08},
            n_events=400),
        "binned": lambda: SimConfig(
            actor_count=6, beta_true=[-1.0, 0.3, 0.2, 0.5, 0.1], seed=7,
            spec=CovariateSpec(dyadic=[("send", "binned"),
                                       ("receive", "both")],
                               scheme=IntervalScheme([600.0])),
            baseline=0.002, size_weights={1: 1.0, 3: 0.3}, n_events=400),
        "triadic": lambda: triadic_config(300),
        "static-sets": lambda: SimConfig(
            actor_count=4, beta_true=np.array([-800.0, 0.0]), seed=4,
            spec=CovariateSpec(dyadic=[("send", "binned")],
                               scheme=IntervalScheme([60.0])),
            baseline=[1.0, 0.0, 0.0, 0.0], size_weights={2: 1.0},
            n_events=6, policy=RiskSetPolicy("static", static_sets={
                0: {1, 2, 3}, 1: {0}, 2: {0}, 3: set()})),
    }

    @staticmethod
    def run(cfg, monkeypatch):
        """The stream, and how many sender refreshes made it."""
        refreshes, refresh = [], simulator._Engine._refresh_sender

        def counting(engine, i):
            refreshes.append(i)
            refresh(engine, i)
        monkeypatch.setattr(simulator._Engine, "_refresh_sender", counting)
        events = [(e.time, e.sender, e.receivers) for e in simulate(cfg)]
        return events, len(refreshes)

    @pytest.mark.parametrize("name", CONFIGS)
    def test_full_refresh_gives_the_same_stream(self, monkeypatch, name):
        cfg = self.CONFIGS[name]()
        events, refreshes = self.run(cfg, monkeypatch)
        total = simulator._Engine._total_and_cdf

        def fresh(engine):
            engine.law = None
            return total(engine)
        monkeypatch.setattr(simulator, "_moved",
                            lambda old, new: np.ones(len(new), dtype=bool))
        monkeypatch.setattr(DynamicState, "_stamp", lambda state, t, i: None)
        monkeypatch.setattr(simulator._Engine, "_total_and_cdf", fresh)
        forced, all_refreshes = self.run(cfg, monkeypatch)
        assert forced == events
        if name == "indicators":
            assert refreshes < all_refreshes / 2

    def test_pick_is_generator_choice(self, rng):
        # the engine's CDF and pick take Generator.choice(p=)'s own steps
        # on the per-(sender, size) probabilities: the same index and the
        # same generator state, draw for draw
        engine = simulator._Engine(self.CONFIGS["binned"]())
        for trial in range(20):
            engine.logS = rng.normal(0.0, 3.0, size=engine.logS.shape)
            engine.logS[rng.random(engine.logS.shape) < 0.2] = -np.inf
            engine.law = None
            total, cdf = engine._total_and_cdf()
            lograte = engine.logbase + engine.logS
            rel = np.exp(lograte - lograte.max())
            assert total == float(np.exp(lograte.max()) * rel.sum())
            probs = rel.ravel() / rel.sum()
            ours, theirs = (np.random.Generator(np.random.Philox(trial))
                            for _ in range(2))
            for _ in range(300):
                pick = simulator._pick(cdf, ours)
                assert pick == theirs.choice(len(probs), p=probs)
                assert probs[pick] > 0
            assert np.array_equal(ours.bit_generator.random_raw(8),
                                  theirs.bit_generator.random_raw(8))

from statistics import NormalDist

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sendrate import (BootstrapConfig, CovariateSpec, Event, EventStream,
                      IntervalScheme, RiskSetPolicy, SimConfig, StreamError,
                      bootstrap_bias, esp, fit, prepare, simulate, solver)
from sendrate.bootstrap import _REFIT_MAX_ITERS, _replicate_design, substream
from sendrate.likelihood import selection_probabilities
from sendrate.solver import SolverConfig

from conftest import random_traits

MIN = 60.0


def send_recv_spec():
    return CovariateSpec(dyadic=[("send", "indicator"),
                                 ("receive", "indicator")])


def draw_replicate(design, beta, rng):
    """One replicate's receiver sets, one index array per event."""
    probs = selection_probabilities(design, beta)
    return np.split(esp.sample_fixed_size_rows(probs, design.ev_size, rng),
                    design.recv_start[1:-1])


def simulated_design(seed=5, actors=8, n=400, sizes=None):
    spec = send_recv_spec()
    cfg = SimConfig(actor_count=actors, beta_true=np.array([0.8, 0.4]),
                    spec=spec, seed=seed, baseline=0.01,
                    size_weights=sizes or {1: 1.0}, n_events=n)
    stream = simulate(cfg)
    return prepare(stream, spec)


class TestDrawReplicate:
    def test_forced_when_risk_set_matches_size(self):
        # risk sets exactly as large as the receiver sets: the draw is forced
        sets = {0: {1, 2}, 1: {0}, 2: {0}}
        policy = RiskSetPolicy("static", static_sets=sets)
        events = [Event(1.0, 0, (1, 2)), Event(2.0, 0, (1, 2))]
        stream = EventStream(events, 3)
        design = prepare(stream, send_recv_spec(), policy=policy)
        rng = substream(0, 0)
        recv = draw_replicate(design, np.zeros(2), rng)
        assert [r.tolist() for r in recv] == [[1, 2], [1, 2]]

    def test_dominant_weight_nearly_always_drawn(self, rng):
        events = [Event(float(m + 1), 0, (1,)) for m in range(40)]
        stream = EventStream(events, 6)
        design = prepare(stream, send_recv_spec())
        beta = np.array([14.0, 0.0])     # send flag weight exp(14) ~ 1.2e6
        gen = substream(1, 0)
        hits = 0
        for _ in range(50):
            recv = draw_replicate(design, beta, gen)
            hits += sum(int(r[0] == 1) for r in recv[1:])
        assert hits / (50 * 39) >= 0.999

    def test_uniform_pair_frequencies(self):
        events = [Event(float(m + 1), 0, ((m % 4) + 1, ((m + 1) % 4) + 1))
                  for m in range(8)]
        stream = EventStream(events, 5)
        design = prepare(stream, send_recv_spec())
        gen = substream(7, 0)
        counts = {}
        draws = 0
        for _ in range(1250):
            for r in draw_replicate(design, np.zeros(2), gen):
                counts[tuple(r)] = counts.get(tuple(r), 0) + 1
                draws += 1
        for pair in counts:
            assert abs(counts[pair] / draws - 1 / 6) < 0.02

    def test_sizes_and_sender_exclusion(self, rng):
        design = simulated_design(sizes={1: 1.0, 2: 0.1, 3: 0.02})
        recv = draw_replicate(design, rng.normal(0, 0.3, 2), substream(3, 1))
        for m, r in enumerate(recv):
            assert len(r) == design.ev_size[m]
            assert design.ev_sender[m] not in r
            assert len(set(r.tolist())) == len(r)


def xsum_for(design, m, receivers):
    """Design-row sum over a receiver set at event m, one event at a time:
    the reference for ``PreparedDesign.xsum_of``."""
    receivers = np.asarray(receivers, dtype=np.intp)
    x = design.static.x0(design.ev_class[m])[receivers].sum(axis=0)
    js, dx, _ = design.event_rows(m)
    if len(js):
        pos = np.searchsorted(js, receivers).clip(max=len(js) - 1)
        hit = js[pos] == receivers
        if hit.any():
            x = x + dx[pos[hit]].sum(axis=0)
    return x


class TestReplicateDesign:
    def test_xsum_equals_per_event_loop(self, rng):
        # static risk sets exclude actors besides the sender, so events
        # carry rows outside their risk set
        actors = 7
        sets = {i: set(range(actors)) - {i, (i + 2) % actors, (i + 3) % actors}
                for i in range(actors)}
        events, t = [], 0.0
        for _ in range(150):
            t += rng.exponential(20 * MIN)
            i = int(rng.integers(actors))
            recv = rng.choice(sorted(sets[i]), int(rng.integers(1, 4)),
                              replace=False)
            events.append(Event(t, i, tuple(recv.tolist())))
        spec = CovariateSpec(static_terms=["1*a", "b*a"],
                             dyadic=[("send", "both"), ("receive", "both")],
                             triadic=[("2-send", "both"),
                                      ("sibling", "indicator")],
                             scheme=IntervalScheme([30 * MIN, 120 * MIN]))
        stream = EventStream(events, actors, traits=random_traits(rng, actors))
        design = prepare(stream, spec,
                         policy=RiskSetPolicy("static", static_sets=sets))
        assert sum((~design.event_rows(m)[2]).sum()
                   for m in range(design.n_events)) == 3 * design.n_events
        # integer entries, which the vectorised sums rely on to be exact
        assert np.array_equal(design.dX, np.round(design.dX))
        assert np.array_equal(design.static._x0, np.round(design.static._x0))
        observed = np.split(design.recv_j, design.recv_start[1:-1])
        assert np.array_equal(design.xsum, [
            xsum_for(design, m, js) for m, js in enumerate(observed)])
        beta = rng.normal(0, 0.3, size=design.p)
        recv = draw_replicate(design, beta, substream(2, 0))
        rep = _replicate_design(design, np.concatenate(recv))
        want = [xsum_for(design, m, js) for m, js in enumerate(recv)]
        assert np.array_equal(rep.xsum, want)
        assert np.array_equal(rep.recv_j, np.concatenate(recv))


class TestBootstrapBias:
    def test_identity_when_draw_forced(self):
        sets = {0: {1, 2}, 1: {0}, 2: {0}}
        policy = RiskSetPolicy("static", static_sets=sets)
        events = [Event(float(m + 1), 0, (1, 2)) for m in range(6)] + \
                 [Event(10.0 + m, 1, (0,)) for m in range(4)]
        stream = EventStream(events, 3)
        design = prepare(stream, send_recv_spec(), policy=policy)
        res = fit(design, "approx_multicast")
        report = bootstrap_bias(design, res, BootstrapConfig(replicates=1, seed=0))
        assert_allclose(report.bias_hat, 0.0, atol=0)
        assert_allclose(report.beta_corrected, report.beta_tilde)

    def test_bias_algebra_exact(self):
        design = simulated_design(n=300)
        res = fit(design, "approx_multicast")
        report = bootstrap_bias(design, res,
                                BootstrapConfig(replicates=12, seed=4))
        assert_allclose(report.bias_hat,
                        report.replicate_estimates.mean(0) - report.beta_tilde,
                        rtol=0, atol=0)
        assert_allclose(report.beta_corrected,
                        report.beta_tilde - report.bias_hat, rtol=0, atol=0)

    def test_seed_determinism(self):
        design = simulated_design(n=250)
        res = fit(design, "approx_multicast")
        cfg = BootstrapConfig(replicates=6, seed=11)
        r1 = bootstrap_bias(design, res, cfg)
        r2 = bootstrap_bias(design, res, cfg)
        assert np.array_equal(r1.replicate_estimates, r2.replicate_estimates)
        assert np.array_equal(r1.bias_hat, r2.bias_hat)
        r3 = bootstrap_bias(design, res, BootstrapConfig(replicates=6, seed=12))
        assert not np.array_equal(r1.replicate_estimates, r3.replicate_estimates)

    def test_shared_start_matches_independent_refits(self):
        # every refit starts from one evaluation of the original design;
        # a full fit of each replicate design from the estimate agrees
        design = simulated_design(n=300, sizes={1: 1.0, 2: 0.2, 3: 0.05})
        res = fit(design, "approx_multicast")
        cfg = BootstrapConfig(replicates=6, seed=3)
        report = bootstrap_bias(design, res, cfg)
        want = []
        for r in range(cfg.replicates):
            recv = draw_replicate(design, res.beta, substream(cfg.seed, r))
            one = fit(_replicate_design(design, np.concatenate(recv)),
                      "approx_multicast", SolverConfig(max_iters=_REFIT_MAX_ITERS),
                      beta0=res.beta)
            want.append(one.beta)
        assert report.skipped == 0
        assert np.abs((report.replicate_estimates - want) / res.se).max() <= 1e-10

    def test_unconverged_replicates_record_stop_reason(self, monkeypatch):
        # one Newton step is too few for a replicate refit, except where the
        # replicate's receiver sets are the original's: every even replicate
        # redraws them unchanged, so its refit starts converged
        design = simulated_design(n=300, sizes={1: 1.0, 2: 0.2})
        res = fit(design, "approx_multicast")
        draw, calls = esp.sample_fixed_size_rows, []

        def redraw_odd_replicates(*args):
            calls.append(args)
            return draw(*args) if len(calls) % 2 == 0 else design.recv_j.copy()
        monkeypatch.setattr(esp, "sample_fixed_size_rows", redraw_odd_replicates)
        monkeypatch.setattr("sendrate.bootstrap._REFIT_MAX_ITERS", 1)
        report = bootstrap_bias(design, res, BootstrapConfig(replicates=8, seed=1))
        assert not {e["replicate"] for e in report.skip_reasons} & {0, 2, 4, 6}
        assert 0 < report.skipped < 8
        assert len(report.replicate_estimates) == 8 - report.skipped
        assert [e["reason"] for e in report.skip_reasons] == \
            ["max_iters"] * report.skipped
        assert report.to_json()["skip_reasons"] == report.skip_reasons

    def test_every_replicate_skipped_raises(self, monkeypatch):
        # with one Newton step no refit converges on this stream
        design = simulated_design(n=300, sizes={1: 1.0, 2: 0.5, 3: 0.2})
        res = fit(design, "approx_multicast")
        monkeypatch.setattr("sendrate.bootstrap._REFIT_MAX_ITERS", 1)
        with pytest.raises(StreamError, match="every bootstrap replicate"):
            bootstrap_bias(design, res, BootstrapConfig(replicates=4, seed=0))

    def test_fits_first_without_a_fit(self):
        design = simulated_design(n=200, sizes={1: 1.0, 2: 0.2})
        cfg = BootstrapConfig(replicates=3, seed=2)
        want = bootstrap_bias(design, fit(design, "approx_multicast"), cfg)
        assert bootstrap_bias(design, config=cfg).to_json() == want.to_json()

    def test_raising_replicate_records_its_error(self, monkeypatch):
        design = simulated_design(n=200)
        res = fit(design, "approx_multicast")
        newton, calls = solver._newton, []

        def second_fails(*args):
            calls.append(args)
            if len(calls) == 2:
                raise StreamError("replicate design rejected")
            return newton(*args)
        monkeypatch.setattr(solver, "_newton", second_fails)
        report = bootstrap_bias(design, res, BootstrapConfig(replicates=3, seed=1))
        assert report.skipped == 1
        assert report.skip_reasons == [
            {"replicate": 1, "reason": "StreamError: replicate design rejected"}]
        assert len(report.replicate_estimates) == 2

    def test_singleton_streams_have_vanishing_bias(self):
        design = simulated_design(seed=9, n=800)
        res = fit(design, "approx_multicast")
        report = bootstrap_bias(design, res,
                                BootstrapConfig(replicates=60, seed=2))
        sd = report.replicate_estimates.std(axis=0, ddof=1)
        mc = 3.0 * sd / np.sqrt(len(report.replicate_estimates))
        assert (np.abs(report.bias_hat) <= mc).all()

    def test_report_json(self, tmp_path):
        design = simulated_design(n=200)
        res = fit(design, "approx_multicast")
        report = bootstrap_bias(design, res, BootstrapConfig(replicates=4, seed=1))
        p = tmp_path / "b.json"
        report.save(str(p))
        import json
        obj = json.loads(p.read_text())
        assert len(obj["replicates"]) == 4
        assert obj["skipped"] == 0
        assert obj["skip_reasons"] == []
        report.summary_csv(str(tmp_path / "b.csv"))
        lines = (tmp_path / "b.csv").read_text().splitlines()
        assert lines[0] == "term,residual_mean,residual_sd"
        assert len(lines) == 1 + design.p


class TestCoverage:
    def test_interval_always_covers_with_huge_se(self):
        z = NormalDist().inv_cdf(0.975)
        beta_true = np.array([0.5])
        res_beta, se = np.array([123.0]), np.array([1e6])
        assert (np.abs(res_beta - beta_true) <= z * se).all()

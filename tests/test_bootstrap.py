import numpy as np
import pytest
from numpy.testing import assert_allclose

from sendrate import (BootstrapConfig, CovariateSpec, Event, EventStream,
                      RiskSetPolicy, SimConfig, bootstrap_bias, draw_replicate,
                      fit, prepare, simulate)
from sendrate.bootstrap import substream
from sendrate.solver import SolverConfig

MIN = 60.0


def send_recv_spec():
    return CovariateSpec(dyadic=[("send", "indicator"),
                                 ("receive", "indicator")])


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
        gen = substream(3, 1)
        for sampler in ("sequential_wor", "conditional_poisson"):
            recv = draw_replicate(design, rng.normal(0, 0.3, 2), gen, sampler)
            for m, r in enumerate(recv):
                assert len(r) == design.ev_size[m]
                assert design.ev_sender[m] not in r
                assert len(set(r.tolist())) == len(r)


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
        report.summary_csv(str(tmp_path / "b.csv"))
        lines = (tmp_path / "b.csv").read_text().splitlines()
        assert lines[0] == "term,residual_mean,residual_sd"
        assert len(lines) == 1 + design.p


class TestCoverage:
    def test_interval_always_covers_with_huge_se(self):
        from sendrate.solver import FitResult, _normal_quantile
        z = _normal_quantile(0.975)
        beta_true = np.array([0.5])
        res_beta, se = np.array([123.0]), np.array([1e6])
        assert (np.abs(res_beta - beta_true) <= z * se).all()

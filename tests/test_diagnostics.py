import numpy as np
import pytest
from numpy.testing import assert_allclose

from sendrate import (CovariateSpec, Event, EventStream, SimConfig,
                      expected_counts, fit, prepare, residual_summary,
                      residuals, simulate)
from sendrate.diagnostics import (PairCounts, residual_df, write_residual_csv,
                                  write_summary_json)

MIN = 60.0


def send_spec():
    return CovariateSpec(dyadic=[("send", "indicator"),
                                 ("receive", "indicator")])


class TestExpectedCounts:
    def test_uniform_shares(self):
        # sender 0 sends 10 singleton messages; beta = 0; risk set size 5
        events = [Event(float(m + 1), 0, ((m % 5) + 1,)) for m in range(10)]
        stream = EventStream(events, 6)
        design = prepare(stream, send_spec())
        counts = expected_counts(design, np.zeros(2))
        assert_allclose(counts.expected[0, 1:], 2.0)
        assert counts.expected[0, 0] == 0.0

    def test_single_event_spreads_uniformly(self):
        stream = EventStream([Event(1.0, 2, (0,))], 7)
        design = prepare(stream, send_spec())
        counts = expected_counts(design, np.zeros(2))
        want = np.full(7, 1 / 6)
        want[2] = 0.0
        assert_allclose(counts.expected[2], want)

    def test_per_sender_conservation(self, rng):
        spec = send_spec()
        cfg = SimConfig(actor_count=9, beta_true=np.array([0.9, 0.4]),
                        spec=spec, seed=3, baseline=0.01,
                        size_weights={1: 1.0, 2: 0.1, 3: 0.02}, n_events=500)
        stream = simulate(cfg)
        design = prepare(stream, spec)
        res = fit(design, "approx_multicast")
        counts = expected_counts(design, res.beta)
        assert_allclose(counts.expected.sum(axis=1),
                        counts.observed.sum(axis=1), rtol=1e-10, atol=1e-10)

    def test_message_convention_totals(self):
        events = [Event(1.0, 0, (1, 2)), Event(2.0, 0, (3,))]
        stream = EventStream(events, 4)
        design = prepare(stream, send_spec())
        dup = expected_counts(design, np.zeros(2), convention="duplication")
        msg = expected_counts(design, np.zeros(2), convention="message")
        assert_allclose(dup.expected[0].sum(), 3.0)
        assert_allclose(msg.expected[0].sum(), 2.0)


class TestResiduals:
    def test_values(self):
        observed = np.array([[0.0, 4.0], [1.0, 0.0]])
        expected = np.array([[0.0, 1.0], [1.0, 0.0]])
        rep = residuals(PairCounts(observed, expected, "duplication"))
        assert rep.pearson[0, 1] == 3.0
        assert rep.martingale[0, 1] == 3.0
        assert rep.pearson[1, 0] == 0.0 and rep.martingale[1, 0] == 0.0
        assert np.isnan(rep.pearson[0, 0])

    def test_anomaly_detection(self):
        observed = np.array([[0.0, 2.0], [0.0, 0.0]])
        expected = np.zeros((2, 2))
        rep = residuals(PairCounts(observed, expected, "duplication"))
        assert rep.anomalies == [(0, 1)]

    def test_sign_agreement(self, rng):
        expected = rng.uniform(0.5, 3.0, size=(5, 5))
        observed = rng.poisson(expected).astype(float)
        np.fill_diagonal(expected, 0.0)
        np.fill_diagonal(observed, 0.0)
        rep = residuals(PairCounts(observed, expected, "duplication"))
        ok = expected > 0
        assert (np.sign(rep.pearson[ok]) == np.sign(rep.martingale[ok])).all()

    def test_x2_is_sum_of_squares(self):
        observed = np.array([[0.0, 2.0], [2.0, 0.0]])
        expected = np.array([[0.0, 1.0], [4.0, 0.0]])
        rep = residuals(PairCounts(observed, expected, "duplication"))
        assert_allclose(rep.x2, 1.0 + 1.0)

    def test_df_formula(self):
        # the published full model: 90 static + 2*8 dyadic + 2*50 triadic
        assert residual_df(156, 90 + 2 * 8 + 2 * 50) == 23974


class TestSummary:
    def test_all_zero(self):
        observed = np.ones((3, 3)) - np.eye(3)
        rep = residuals(PairCounts(observed, observed.copy(), "duplication"))
        s = residual_summary(rep)
        assert s["q50"] == 0.0 and s["q95"] == 0.0 and s["x2"] == 0.0

    def test_plus_minus_ones(self):
        expected = np.ones((20, 20))
        observed = expected.copy()
        observed[:10] = 2.0    # pearson +1 on 200 cells
        observed[10:] = 0.0    # pearson -1 on 200 cells
        rep = residuals(PairCounts(observed, expected, "duplication"))
        s = residual_summary(rep)
        assert_allclose(s["x2"], 400.0)
        assert_allclose(s["max"], 1.0)

    def test_csv_and_json(self, tmp_path, rng):
        spec = send_spec()
        cfg = SimConfig(actor_count=6, beta_true=np.array([0.5, 0.2]),
                        spec=spec, seed=8, baseline=0.01, n_events=200)
        stream = simulate(cfg)
        design = prepare(stream, spec)
        res = fit(design, "pairwise")
        counts = expected_counts(design, res.beta)
        rep = residuals(counts)
        rep.df_approx = residual_df(6, 2)
        write_residual_csv(counts, rep, str(tmp_path / "r.csv"))
        write_summary_json(residual_summary(rep), str(tmp_path / "s.json"))
        lines = (tmp_path / "r.csv").read_text().splitlines()
        assert lines[0] == "sender,receiver,observed,expected,martingale,pearson"
        assert len(lines) > 10
        import json
        s = json.loads((tmp_path / "s.json").read_text())
        assert {"q50", "q95", "max", "x2", "df_approx"} <= set(s)

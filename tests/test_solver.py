import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sendrate import (ActorTraits, CovariateSpec, Event, EventStream,
                      IntervalScheme, evaluate, fit, likelihood, prepare,
                      wald_tests)
from sendrate.solver import (DevianceRow, FitResult, SolverConfig,
                             deviance_table)

from conftest import (random_stream, random_traits, recovery_design,
                      recovery_traits)

MIN = 60.0


def spec_small():
    return CovariateSpec(dyadic=[("send", "indicator"),
                                 ("receive", "indicator")])


def alternating_stream(n=60, actors=3):
    # 0 and 1 mostly alternate; every seventh message defects to the
    # bystander 2 so the send coefficient has an interior maximizer
    events = []
    for m in range(n):
        sender = m % 2
        recv = 2 if m % 7 == 6 else 1 - sender
        events.append(Event(float(m + 1), sender, (recv,)))
    return EventStream(events, actors)


def golden_section(f, lo, hi, tol=1e-9):
    phi = (math.sqrt(5.0) - 1) / 2
    a, b = lo, hi
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = f(c), f(d)
    while abs(b - a) > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


class TestFit:
    def test_matches_golden_section_in_1d(self):
        stream = alternating_stream()
        spec = CovariateSpec(dyadic=[("send", "indicator")])
        design = prepare(stream, spec)
        res = fit(design, "pairwise")
        oracle = golden_section(
            lambda b: evaluate(design, np.array([b]), "pairwise", order=0).logpl,
            -5.0, 10.0)
        assert res.converged
        assert abs(res.beta[0] - oracle) < 1e-6

    def test_monotone_ascent(self, rng):
        stream = random_stream(rng, actors=8, n=150, gap=20 * MIN)
        design = prepare(stream, spec_small())
        res = fit(design, "pairwise")
        trace = np.array(res.logpl_trace)
        assert (np.diff(trace) > 0).all()
        assert res.converged and res.stop_reason == "converged"

    def test_optimality(self, rng):
        stream = random_stream(rng, actors=8, n=150, gap=20 * MIN)
        design = prepare(stream, spec_small())
        res = fit(design, "pairwise")
        rep = evaluate(design, res.beta, "pairwise")
        assert np.abs(rep.score).max() <= 1e-8 * max(1, design.n_decisions)
        assert np.linalg.eigvalsh(rep.info).min() >= -1e-8

    def test_warm_start_equivalence(self, rng):
        stream = random_stream(rng, actors=8, n=200, max_size=2, gap=20 * MIN)
        design = prepare(stream, spec_small())
        cold = fit(design, "approx_multicast")
        warm = fit(design, "approx_multicast",
                   beta0=rng.normal(0, 0.5, size=design.p))
        assert_allclose(cold.beta, warm.beta, atol=1e-6)

    def test_degenerate_column_flagged(self, rng):
        actors = 6
        ones = ActorTraits(["g", "one"],
                           np.column_stack([rng.integers(0, 2, actors),
                                            np.ones(actors, dtype=int)]))
        # g(i) * one(j) is constant across receivers: not identifiable
        spec = CovariateSpec(static_terms=["g*one", "1*g"],
                             dyadic=[("send", "indicator")])
        stream = random_stream(rng, actors=actors, n=80, gap=20 * MIN,
                               traits=ones)
        design = prepare(stream, spec, traits=ones)
        res = fit(design, "pairwise")
        assert "g*one" in res.unidentifiable

    def test_nonconvergence_flagged(self, rng):
        stream = random_stream(rng, actors=8, n=150, gap=20 * MIN)
        design = prepare(stream, spec_small())
        res = fit(design, "pairwise", SolverConfig(max_iters=1, grad_tol=1e-14))
        assert not res.converged and res.iterations == 1
        assert res.stop_reason == "max_iters"

    def test_line_search_give_up_reported(self, rng, monkeypatch):
        stream = random_stream(rng, actors=8, n=150, gap=20 * MIN)
        design = prepare(stream, spec_small())
        evaluate_all = likelihood.evaluate

        def every_candidate_impossible(design, beta, variant, order=2):
            if order == 0:      # the line search's candidate evaluations
                return likelihood.LikelihoodReport(-np.inf)
            return evaluate_all(design, beta, variant, order)
        monkeypatch.setattr(likelihood, "evaluate", every_candidate_impossible)
        res = fit(design, "pairwise")
        assert res.stop_reason == "line_search"
        assert not res.converged and res.iterations == 1
        assert len(res.logpl_trace) == 1 and not res.beta.any()

    @pytest.mark.parametrize("seed", range(6))
    def test_rounding_noise_keeps_iterations(self, seed, monkeypatch):
        # at a score tolerance below logpl's rounding floor the last steps
        # predict gains of a few ulp; shifting every candidate's logpl by
        # +-2 ulp must neither add halvings nor end the search
        rng = np.random.default_rng(seed)
        stream = random_stream(rng, actors=8, n=400, max_size=3,
                               gap=20 * MIN, traits=random_traits(rng, 8))
        spec = CovariateSpec(static_terms=["1*a", "b*a"],
                             dyadic=[("send", "both"), ("receive", "both")],
                             triadic=[("2-send", "both"),
                                      ("sibling", "indicator")],
                             scheme=IntervalScheme([30 * MIN, 120 * MIN]))
        design = prepare(stream, spec)
        config = SolverConfig(grad_tol=1e-13)
        base = fit(design, "approx_multicast", config)
        assert base.stop_reason == "converged"
        evaluate_all = likelihood.evaluate
        for ulps in (2, -2):
            def shifted(design, beta, variant, order=2, ulps=ulps):
                rep = evaluate_all(design, beta, variant, order)
                if order == 0:
                    rep.logpl += ulps * np.spacing(abs(rep.logpl))
                return rep
            monkeypatch.setattr(likelihood, "evaluate", shifted)
            res = fit(design, "approx_multicast", config)
            assert res.stop_reason == "converged"
            assert res.iterations == base.iterations
            assert_allclose(res.beta, base.beta, rtol=0, atol=1e-9)

    def test_json_roundtrip(self, tmp_path, rng):
        stream = random_stream(rng, actors=6, n=80, gap=20 * MIN)
        design = prepare(stream, spec_small())
        res = fit(design, "pairwise")
        path = str(tmp_path / "fit.json")
        res.save(path)
        back = FitResult.load(path)
        assert_allclose(back.beta, res.beta)
        assert_allclose(back.cov, res.cov)
        assert back.term_names == res.term_names
        assert back.grad_norm == res.grad_norm
        assert back.logpl_trace == res.logpl_trace
        assert back.stop_reason == res.stop_reason == "converged"
        older = res.to_json()
        del older["stop_reason"]
        assert FitResult.from_json(older).stop_reason is None


class TestInvariance:
    @staticmethod
    def transformed(design, col, a, b):
        out = design.subset(np.arange(design.p))
        out.dX = design.dX.astype(np.float64)
        out.dX[:, col] *= a
        if out.nz_val is not None:
            out.nz_val = np.where(out.nz_columns[out.nz_col] == col, a, 1.0) \
                * out.nz_val
        out.xsum = design.xsum.copy()
        out.xsum[:, col] = a * design.xsum[:, col] + b * design.ev_size
        out.xtot = out.xsum.sum(axis=0)
        x0 = out.static._x0.copy()
        x0[:, :, col] = a * x0[:, :, col] + b
        out.static._x0 = x0
        return out

    def test_affine_column_reparametrization(self, rng):
        stream = random_stream(rng, actors=7, n=150, max_size=2, gap=20 * MIN)
        design = prepare(stream, spec_small())
        base = fit(design, "approx_multicast")
        a, b = 2.5, -0.7
        scaled = fit(self.transformed(design, 0, a, b), "approx_multicast")
        assert_allclose(scaled.logpl, base.logpl, rtol=1e-9)
        expect = base.beta.copy()
        expect[0] /= a
        assert_allclose(scaled.beta, expect, atol=1e-6)


class TestStandardErrors:
    def test_one_dimensional_formula(self):
        stream = alternating_stream()
        spec = CovariateSpec(dyadic=[("send", "indicator")])
        design = prepare(stream, spec)
        res = fit(design, "pairwise")
        info = evaluate(design, res.beta, "pairwise").info
        assert_allclose(res.se[0], math.sqrt(1.0 / info[0, 0]), rtol=1e-10)

    def test_agrees_with_sandwich_on_recovery_run(self):
        # When the model holds, the sum of per-event score outer products
        # estimates the information, so the sandwich SE
        # I^-1 (sum_m U_m U_m^T) I^-1 must match the inverse-information SE.
        # Run 0 of the acceptance recovery study gives ratios in
        # [0.992, 1.005]; runs 0-999 stay in [0.963, 1.041].
        design = recovery_design(recovery_traits(), 0)
        res = fit(design, "pairwise")
        meat = np.zeros((design.p, design.p))
        for m in range(design.n_events):
            X = design.dense_x(m)
            s = np.where(design.risk_mask(m), X @ res.beta, -np.inf)
            w = np.exp(s - s.max())
            u = design.xsum[m] - X.T @ (w / w.sum())
            meat += np.outer(u, u)
        sandwich = np.sqrt(np.diag(res.cov @ meat @ res.cov))
        assert_allclose(sandwich / res.se, 1.0, atol=0.10)


class TestWald:
    def make_result(self, beta, se):
        p = len(beta)
        return FitResult(beta=np.asarray(beta, float), se=np.asarray(se, float),
                         cov=np.eye(p), logpl=0.0, n_events=1, n_decisions=1,
                         iterations=0, converged=True,
                         term_names=[f"t{k}" for k in range(p)],
                         variant="pairwise", grad_norm=0.0, overdispersion=1.0)

    def test_zero_coefficient(self):
        t = wald_tests(self.make_result([0.0], [1.0]))
        assert t["z"][0] == 0.0 and t["p"][0] == 1.0

    def test_three_sigma(self):
        t = wald_tests(self.make_result([3.0], [1.0]))
        assert abs(t["p"][0] - 0.0027) < 1e-4

    def test_milli_level_threshold(self):
        t = wald_tests(self.make_result([3.30, 3.28], [1.0, 1.0]), alpha=1e-3)
        assert abs(t["critical"] - 3.2905) < 1e-3
        assert t["significant"].tolist() == [True, False]


class TestDevianceTable:
    def groups(self, design):
        return [("send", [n for n in design.term_names if n.startswith("send")]),
                ("receive", [n for n in design.term_names
                             if n.startswith("receive")])]

    def test_null_row_uniform_model(self, rng):
        actors = 7
        stream = random_stream(rng, actors=actors, n=40, gap=20 * MIN)
        design = prepare(stream, spec_small())
        table = deviance_table(design, self.groups(design), "pairwise")
        null = table.rows[0]
        assert null.term == "Null"
        assert null.resid_df == 40
        assert_allclose(null.resid_dev, 2 * 40 * math.log(actors - 1), rtol=1e-12)

    def test_nesting_never_increases_residual_deviance(self, rng):
        stream = random_stream(rng, actors=7, n=120, max_size=2, gap=20 * MIN)
        design = prepare(stream, spec_small())
        table = deviance_table(design, self.groups(design), "approx_multicast")
        devs = [r.resid_dev for r in table.rows]
        assert all(b <= a + 1e-8 for a, b in zip(devs, devs[1:]))
        drops = [r.deviance for r in table.rows[1:]]
        assert all(d >= -1e-8 for d in drops)
        assert sum(r.df for r in table.rows[1:]) == design.p

    def test_duplication_convention_for_null_df(self, rng):
        stream = random_stream(rng, actors=7, n=50, max_size=3, gap=20 * MIN)
        design = prepare(stream, spec_small())
        table = deviance_table(design, self.groups(design), "approx_multicast")
        assert table.rows[0].resid_df == int(design.ev_size.sum())
        assert table.rows[0].resid_df > 50

    def test_csv_shape(self, tmp_path, rng):
        stream = random_stream(rng, actors=6, n=60, gap=20 * MIN)
        design = prepare(stream, spec_small())
        table = deviance_table(design, self.groups(design), "pairwise")
        path = tmp_path / "dev.csv"
        table.to_csv(str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "Term,Df,Deviance,Resid. Df,Resid. Dev"
        assert len(lines) == 1 + len(table.rows)

    def test_groups_must_partition(self, rng):
        stream = random_stream(rng, actors=6, n=30, gap=20 * MIN)
        design = prepare(stream, spec_small())
        with pytest.raises(Exception):
            deviance_table(design, [("send", ["send"])], "pairwise")

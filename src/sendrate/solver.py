"""Damped-Newton maximization of the log partial likelihood, with standard
errors, Wald tests, and sequential analysis-of-deviance tables.

Ascent is guaranteed by backtracking on the objective: the step is halved
until logpl rises by at least 1e-4 of the predicted gain, less logpl's
rounding floor of 4 ulp.  Near the optimum the predicted gain falls below
that floor, where rounding alone would decide a strict test: a step is
then accepted unless logpl falls by more than the floor, and the search
does not halve on noise.  Singular information triggers a diagonal ridge,
from 1e-8 of the information's largest entry up tenfold to 1e-2, and the
affected coefficients are flagged instead of silently projected away.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from . import likelihood
from .events import StreamError, require_keys


class SingularInformationError(StreamError):
    pass


_SHRINK = 0.5                   # line-search step factor
_SUFFICIENT_INCREASE = 1e-4     # share of the predicted gain a step must earn
_RIDGE_INIT, _RIDGE_MAX = 1e-8, 1e-2    # relative to the largest |info| entry
_FLOOR_ULPS = 4                 # logpl differences this many ulp apart are noise
_GRAD_TOL = 1e-8                # score sup-norm per selection decision at a stop


@dataclass
class SolverConfig:
    """Newton's stopping rule: the score's sup-norm at most ``_GRAD_TOL``
    times the selection-decision count, within ``max_iters`` steps."""

    max_iters: int = 100

    def __post_init__(self):
        if self.max_iters <= 0:
            raise ValueError("max_iters must be positive")


@dataclass
class FitResult:
    beta: np.ndarray
    se: np.ndarray
    cov: np.ndarray
    logpl: float
    n_events: int
    n_decisions: int
    iterations: int
    converged: bool
    term_names: list
    variant: str
    grad_norm: float
    overdispersion: float
    unidentifiable: list = field(default_factory=list)
    logpl_trace: list = field(default_factory=list)
    #: why Newton stopped: "converged", "max_iters" or "line_search" (no
    #: step length raised the objective); None if read from an older file
    stop_reason: str | None = None

    def to_json(self):
        return {
            "beta": self.beta.tolist(),
            "se": self.se.tolist(),
            "cov": self.cov.ravel().tolist(),
            "logpl": self.logpl,
            "n_events": self.n_events,
            "n_decisions": self.n_decisions,
            "iterations": self.iterations,
            "converged": self.converged,
            "terms": list(self.term_names),
            "variant": self.variant,
            "grad_norm": self.grad_norm,
            "overdispersion": self.overdispersion,
            "unidentifiable": list(self.unidentifiable),
            "logpl_trace": list(self.logpl_trace),
            "stop_reason": self.stop_reason,
        }

    @classmethod
    def from_json(cls, obj):
        require_keys(obj, ("beta", "se", "cov", "logpl", "n_events",
                           "n_decisions", "iterations", "converged", "terms",
                           "variant", "overdispersion"), "fit result")
        beta = _numbers(obj, "beta")
        if not np.isfinite(beta).all():
            raise StreamError("fit result: beta holds NaN or infinity")
        p = len(beta)
        terms = obj["terms"]
        if not (isinstance(terms, list) and len(terms) == p
                and all(isinstance(t, str) for t in terms)):
            raise StreamError(f"fit result: terms must be a list of {p} strings")
        return cls(beta=beta, se=_numbers(obj, "se", p),
                   cov=_numbers(obj, "cov", p * p).reshape(p, p),
                   logpl=obj["logpl"], n_events=obj["n_events"],
                   n_decisions=obj["n_decisions"],
                   iterations=obj["iterations"], converged=obj["converged"],
                   term_names=terms, variant=obj["variant"],
                   grad_norm=float(obj.get("grad_norm", "nan")),
                   overdispersion=obj["overdispersion"],
                   unidentifiable=obj.get("unidentifiable", []),
                   logpl_trace=obj.get("logpl_trace", []),
                   stop_reason=obj.get("stop_reason"))

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json(json.load(fh))


def _numbers(obj, key, count=None):
    """Fit-file field ``key``, a flat list of (``count``) numbers."""
    try:
        out = np.array(obj[key], dtype=np.float64)
    except (TypeError, ValueError):
        out = None
    if out is None or out.ndim != 1 or count not in (None, len(out)):
        size = "" if count is None else f"{count} "
        raise StreamError(f"fit result: {key} must be a list of {size}numbers")
    return out


def _newton_direction(info, score):
    """Solve info @ step = score, escalating a diagonal ridge as needed."""
    p = len(score)
    ridge = 0.0
    scale = max(np.abs(info).max(), 1.0)
    while True:
        try:
            step = np.linalg.solve(info + ridge * scale * np.eye(p), score)
        except np.linalg.LinAlgError:
            step = None
        if step is not None and np.isfinite(step).all() \
                and step @ score >= 0:
            return step
        ridge = _RIDGE_INIT if ridge == 0.0 else ridge * 10.0
        if ridge > _RIDGE_MAX:
            raise SingularInformationError(
                "information singular after maximal ridge escalation")


def fit(design, variant="approx_multicast", config=None, beta0=None):
    """Maximize the selected log partial likelihood by damped Newton.

    Every accepted step increases the objective up to its rounding floor
    (backtracking line search); convergence is declared when the score
    sup-norm falls below _GRAD_TOL * max(1, selection decisions).
    """
    config = config or SolverConfig()
    if design.p < 1:
        raise StreamError("design has no covariate columns")
    beta = np.zeros(design.p) if beta0 is None else np.asarray(beta0, dtype=np.float64).copy()
    rep = likelihood.evaluate(design, beta, variant, order=2)
    return _newton(design, variant, config, beta, rep)


def _newton(design, variant, config, beta, rep):
    """Damped Newton from beta, where rep is the order-2 report at beta."""
    p = design.p
    scale = _GRAD_TOL * max(1.0, design.n_decisions)
    trace = [rep.logpl]
    converged = gave_up = False
    iterations = 0
    for iterations in range(1, config.max_iters + 1):
        gnorm = float(np.abs(rep.score).max())
        if gnorm <= scale:
            converged = True
            iterations -= 1
            break
        step = _newton_direction(rep.info, rep.score)
        slope = float(step @ rep.score)
        # logpl's rounding floor: differences below it cannot be seen
        floor = _FLOOR_ULPS * float(np.spacing(abs(rep.logpl)))
        alpha = 1.0
        accepted = None
        for _ in range(60):
            cand = beta + alpha * step
            cand_rep = likelihood.evaluate(design, cand, variant, order=0)
            if np.isfinite(cand_rep.logpl) and cand_rep.logpl >= rep.logpl \
                    + _SUFFICIENT_INCREASE * alpha * slope - floor:
                accepted = cand
                break
            alpha *= _SHRINK
        if accepted is None:
            gave_up = True
            break
        beta = accepted
        rep = likelihood.evaluate(design, beta, variant, order=2)
        trace.append(rep.logpl)
    else:
        iterations = config.max_iters

    gnorm = float(np.abs(rep.score).max())
    converged = converged or gnorm <= scale
    stop_reason = ("converged" if converged else
                   "line_search" if gave_up else "max_iters")

    info = rep.info
    diag = np.diag(info)
    flag_tol = 1e-10 * max(1.0, float(diag.max()) if p else 1.0)
    unident = [design.term_names[k] for k in range(p) if diag[k] <= flag_tol]
    try:
        cov = np.linalg.inv(info)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(info)
        unident = unident or list(design.term_names)
    se = np.sqrt(np.maximum(np.diag(cov), 0.0))

    n_dec = design.n_decisions
    df = n_dec - p
    phi = (-2.0 * rep.logpl / df) if df > 0 else float("nan")
    return FitResult(beta=beta, se=se, cov=cov, logpl=rep.logpl,
                     n_events=design.n_events, n_decisions=n_dec,
                     iterations=iterations, converged=converged,
                     term_names=list(design.term_names), variant=variant,
                     grad_norm=gnorm, overdispersion=phi,
                     unidentifiable=unident, logpl_trace=trace,
                     stop_reason=stop_reason)


def wald_tests(result, alpha=1e-3):
    """Per-coefficient z-scores, two-sided normal p-values, and
    significance flags at the given level."""
    with np.errstate(divide="ignore", invalid="ignore"):
        z = result.beta / result.se
    z = np.where(result.se > 0, z, 0.0)
    pvals = np.array([math.erfc(abs(v) / math.sqrt(2.0)) for v in z])
    crit = NormalDist().inv_cdf(1.0 - alpha / 2.0)
    return {"z": z, "p": pvals, "significant": np.abs(z) >= crit,
            "alpha": alpha, "critical": crit}


@dataclass
class DevianceRow:
    term: str
    df: int
    deviance: float
    resid_df: int
    resid_dev: float


@dataclass
class DevianceTable:
    rows: list
    variant: str

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("Term,Df,Deviance,Resid. Df,Resid. Dev\n")
            for r in self.rows:
                df = "" if r.df is None else r.df
                dev = "" if r.deviance is None else f"{r.deviance:.6g}"
                fh.write(f"{r.term},{df},{dev},{r.resid_df},{r.resid_dev:.10g}\n")


def deviance_table(design, term_groups, variant="approx_multicast",
                   config=None):
    """Sequential analysis of deviance over cumulative nested models.

    ``term_groups`` is an ordered list of (name, [term names]) partitioning
    the design columns.  Residual deviance is twice the negative log partial
    likelihood; the null row uses beta = 0 and carries the total
    selection-decision count as its residual degrees of freedom.  Each model
    starts from the previous one's estimate, with the new terms at 0.
    """
    config = config or SolverConfig()
    seen = [t for _, terms in term_groups for t in terms]
    if sorted(seen) != sorted(design.term_names):
        raise StreamError("term groups must partition the design terms")

    null_rep = likelihood.evaluate(design, np.zeros(design.p), variant, order=0)
    resid_df = design.n_decisions
    resid_dev = -2.0 * null_rep.logpl
    rows = [DevianceRow("Null", None, None, resid_df, resid_dev)]
    cols, beta = [], np.zeros(0)
    for name, terms in term_groups:
        cols += design.column_indices(terms)
        res = fit(design.subset(cols), variant, config,
                  beta0=np.r_[beta, np.zeros(len(terms))])
        beta = res.beta
        dev = -2.0 * res.logpl
        rows.append(DevianceRow(name, len(terms), resid_dev - dev,
                                resid_df - len(cols), dev))
        resid_dev = dev
    return DevianceTable(rows, variant)

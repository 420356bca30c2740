"""Parametric bootstrap for multicast bias estimation and correction.

A replicate keeps the observed times, senders, set sizes, and the entire
covariate process of the original stream; only the receiver sets are
redrawn, from the fixed-size law at the fitted weights: a size-L set's
probability is proportional to the product of its members' weights (Chen,
Dempster & Liu, 1994), the law ``simulate`` draws from and the exact
likelihood models.  Replicates are refit under the duplication likelihood,
warm-started at the original estimate, and the mean replicate residual
estimates the bias.

A replicate costs about one score plus its Newton steps: draws and row sums
are vectorised over events, and the duplication information at the original
estimate, which does not depend on the receiver sets, starts every refit
(the estimating-function bootstrap of Hu & Kalbfleisch, 2000).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from . import esp, likelihood, solver
from .events import StreamError

_REFIT_MAX_ITERS = 50   # Newton steps a replicate refit may take
_SKIP_TOLERANCE = 0.05  # share of skipped replicates that flags a report


def substream(seed, *key):
    """Independent counter-based generator for (seed, key...)."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=(int(seed),) + tuple(int(k) for k in key))))


@dataclass
class BootstrapConfig:
    """Replicate count and seed of a bootstrap run.

    Replicate r draws every event's receiver set, at its recorded size,
    from the fixed-size law at the fitted weights, with the generator
    ``substream(seed, r)``.  A refit may take 50 Newton steps, and a
    report is flagged when more than 5% of its replicates are skipped.
    """

    replicates: int = 300
    seed: int = 0

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError("need at least one replicate")


@dataclass
class BootstrapReport:
    beta_tilde: np.ndarray
    replicate_estimates: np.ndarray     # (R_ok, p)
    bias_hat: np.ndarray
    beta_corrected: np.ndarray
    residual_mean: np.ndarray           # mean of (b_r - b) / se
    residual_sd: np.ndarray
    skipped: int
    #: per skipped replicate {"replicate": r, "reason": stop_reason or "Error: message"}
    skip_reasons: list = field(default_factory=list)
    term_names: list = field(default_factory=list)
    flagged: bool = False

    def to_json(self):
        return {
            "beta_tilde": self.beta_tilde.tolist(),
            "bias_hat": self.bias_hat.tolist(),
            "beta_corrected": self.beta_corrected.tolist(),
            "replicates": self.replicate_estimates.tolist(),
            "residual_mean": self.residual_mean.tolist(),
            "residual_sd": self.residual_sd.tolist(),
            "skipped": self.skipped,
            "skip_reasons": list(self.skip_reasons),
            "terms": list(self.term_names),
            "flagged": self.flagged,
        }

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2)

    def summary_csv(self, path):
        with open(path, "w") as fh:
            fh.write("term,residual_mean,residual_sd\n")
            for k, name in enumerate(self.term_names):
                fh.write(f"{name},{self.residual_mean[k]!r},{self.residual_sd[k]!r}\n")


def _replicate_design(design, recv_j):
    """Shallow design copy with replicate receivers (sizes as recorded)."""
    return design.copy_with(recv_j=recv_j, xsum=design.xsum_of(recv_j))


def bootstrap_bias(design, fit_result=None, config=None):
    """Estimate and subtract the duplication-approximation bias.

    Fits the duplication likelihood if no fit is supplied, draws R replicate
    streams from the fitted selection law, refits each warm-started at the
    original estimate, and reports mean(replicates) - original as the bias.
    A supplied fit must be an approx or pairwise one of the design's terms.
    Deterministic for a fixed seed and configuration.
    """
    config = config or BootstrapConfig()
    refit = solver.SolverConfig(max_iters=_REFIT_MAX_ITERS)
    if fit_result is None:
        fit_result = solver.fit(design, "approx_multicast")
    elif fit_result.variant not in ("approx_multicast", "pairwise"):
        raise StreamError(f"bootstrap: fit variant {fit_result.variant!r} "
                          "is not approx_multicast or pairwise")
    elif list(fit_result.term_names) != list(design.term_names):
        raise StreamError("bootstrap: fit terms do not match the design's")
    beta = fit_result.beta
    probs = likelihood.selection_probabilities(design, beta)
    # the approx information at beta does not depend on the receiver sets:
    # a replicate's report there is this one shifted by its xsum total
    rep = likelihood.evaluate(design, beta, "approx_multicast", order=2)
    kept, skip_reasons = [], []
    for r in range(config.replicates):
        rep_design = _replicate_design(design, esp.sample_fixed_size_rows(
            probs, design.ev_size, substream(config.seed, r)))
        delta = rep_design.xtot - design.xtot
        start = replace(rep, logpl=rep.logpl + float(delta @ beta),
                        score=rep.score + delta)
        try:
            res = solver._newton(rep_design, "approx_multicast", refit,
                                 beta, start)
            reason = None if res.converged else res.stop_reason
        except StreamError as exc:
            reason = f"{type(exc).__name__}: {exc}"
        if reason is None:
            kept.append(res.beta)
        else:
            skip_reasons.append({"replicate": r, "reason": reason})
    if not kept:
        raise StreamError("every bootstrap replicate failed to fit")
    estimates = np.vstack(kept)
    bias = estimates.mean(axis=0) - beta
    se = np.where(fit_result.se > 0, fit_result.se, np.nan)
    resid = (estimates - beta) / se
    return BootstrapReport(
        beta_tilde=beta.copy(),
        replicate_estimates=estimates,
        bias_hat=bias,
        beta_corrected=beta - bias,
        residual_mean=resid.mean(axis=0),
        residual_sd=resid.std(axis=0, ddof=1) if len(kept) > 1 else np.zeros(design.p),
        skipped=len(skip_reasons),
        skip_reasons=skip_reasons,
        term_names=list(design.term_names),
        flagged=len(skip_reasons) > _SKIP_TOLERANCE * config.replicates,
    )

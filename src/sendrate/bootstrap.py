"""Parametric bootstrap for multicast bias estimation and correction, plus
Monte Carlo coverage utilities.

A replicate keeps the observed times, senders, set sizes, and the entire
covariate process of the original stream; only the receiver sets are
redrawn, proportional to the fitted weights.  Replicates are refit under
the duplication likelihood, warm-started at the original estimate, and the
mean replicate residual estimates the bias.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import esp, likelihood, solver
from .events import StreamError

SAMPLERS = ("sequential_wor", "conditional_poisson")


def substream(seed, *key):
    """Independent counter-based generator for (seed, key...)."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=(int(seed),) + tuple(int(k) for k in key))))


@dataclass
class BootstrapConfig:
    replicates: int = 300
    seed: int = 0
    sampler: str = "sequential_wor"
    max_iters: int = 50
    skip_tolerance: float = 0.05

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        if self.sampler not in SAMPLERS:
            raise ValueError(f"unknown sampler {self.sampler!r}")


@dataclass
class BootstrapReport:
    beta_tilde: np.ndarray
    replicate_estimates: np.ndarray     # (R_ok, p)
    bias_hat: np.ndarray
    beta_corrected: np.ndarray
    residual_mean: np.ndarray           # mean of (b_r - b) / se
    residual_sd: np.ndarray
    skipped: int
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


def draw_replicate(design, beta, rng, sampler="sequential_wor", probs=None):
    """Redraw every receiver set: same size, elements proportional to the
    fitted weights over the event's risk set.  Returns a list of index
    arrays aligned with the design's events."""
    if probs is None:
        probs = likelihood.selection_probabilities(design, beta)
    out = []
    for m in range(design.n_events):
        L = int(design.ev_size[m])
        w = probs[m]
        if sampler == "sequential_wor":
            chosen = esp.sample_exponential_keys(w, L, rng)
        elif sampler == "conditional_poisson":
            chosen = esp.sample_fixed_size(w, L, rng)
        else:
            raise ValueError(f"unknown sampler {sampler!r}")
        out.append(np.asarray(chosen, dtype=np.intp))
    return out


def _replicate_design(design, receiver_sets):
    """Shallow design copy with replicate receiver sets and xsum."""
    out = object.__new__(type(design))
    out.__dict__.update(design.__dict__)
    out.recv_j = np.concatenate(receiver_sets)
    xsum = np.empty_like(design.xsum)
    for m, recv in enumerate(receiver_sets):
        xsum[m] = design.xsum_for(m, recv)
    out.xsum = xsum
    return out


def bootstrap_bias(design, fit_result=None, config=None, solver_config=None):
    """Estimate and subtract the duplication-approximation bias.

    Fits the duplication likelihood if no fit is supplied, draws R replicate
    streams from the fitted selection law, refits each warm-started at the
    original estimate, and reports mean(replicates) - original as the bias.
    Deterministic for a fixed seed and configuration.
    """
    config = config or BootstrapConfig()
    solver_config = solver_config or solver.SolverConfig(max_iters=config.max_iters)
    if fit_result is None:
        fit_result = solver.fit(design, "approx_multicast")
    beta = fit_result.beta
    probs = likelihood.selection_probabilities(design, beta)

    kept = []
    for r in range(config.replicates):
        rng = substream(config.seed, r)
        receivers = draw_replicate(design, beta, rng, config.sampler, probs)
        rep_design = _replicate_design(design, receivers)
        try:
            res = solver.fit(rep_design, "approx_multicast", solver_config,
                             beta0=beta)
        except StreamError:
            continue
        if res.converged:
            kept.append(res.beta)
    skipped = config.replicates - len(kept)
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
        skipped=skipped,
        term_names=list(design.term_names),
        flagged=skipped > config.skip_tolerance * config.replicates,
    )


def coverage_study(sim_config, spec, n_replicates, nominal=0.95,
                   variant="pairwise", solver_config=None, traits=None,
                   return_details=False):
    """Fraction of Wald intervals covering the generating coefficients."""
    from .design import prepare
    from .simulator import simulate

    z = solver._normal_quantile(0.5 + nominal / 2.0)
    beta_true = np.asarray(sim_config.beta_true, dtype=np.float64)
    hits = np.zeros(len(beta_true))
    fits = 0
    details = []
    for r in range(n_replicates):
        cfg = sim_config.with_seed(substream_seed(sim_config.seed, r))
        stream = simulate(cfg)
        design = prepare(stream, spec, traits=traits)
        res = solver.fit(design, variant, solver_config)
        if not res.converged:
            continue
        fits += 1
        cover = np.abs(res.beta - beta_true) <= z * res.se
        hits += cover
        if return_details:
            details.append(res)
    if fits == 0:
        raise StreamError("all simulation fits failed")
    coverage = hits / fits
    return (coverage, details) if return_details else coverage


def substream_seed(seed, r):
    """Stable derived seed for replicate r."""
    ss = np.random.SeedSequence(entropy=(int(seed), int(r)))
    return int(ss.generate_state(1, np.uint64)[0])

"""Goodness of fit: expected pair counts from the fitted selection law,
martingale and Pearson residuals, and chi-square style summaries.

Expected counts use the plug-in baseline that matches every sender's total:
each selection slot of an event distributes one unit of expectation over
the risk set proportionally to the fitted weights, so per-sender expected
and observed totals agree exactly under the duplication convention.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import likelihood


@dataclass
class PairCounts:
    observed: np.ndarray    # (A, A)
    expected: np.ndarray    # (A, A)
    convention: str         # "duplication" or "message"


@dataclass
class ResidualReport:
    pearson: np.ndarray        # (A, A), nan where undefined
    martingale: np.ndarray     # (A, A)
    x2: float
    df_approx: float
    anomalies: list            # (i, j) with observed > 0 but expected == 0


def expected_counts(design, beta, convention="duplication"):
    """Observed and expected directed-pair counts under the fitted model.

    Under "duplication" a size-L event contributes L selection slots; under
    "message" each event contributes one slot regardless of size.
    """
    if convention not in ("duplication", "message"):
        raise ValueError(f"unknown convention {convention!r}")
    A = design.actor_count
    observed = np.zeros((A, A))
    ev_of_recv = np.repeat(np.arange(design.n_events), design.ev_size)
    np.add.at(observed, (design.ev_sender[ev_of_recv], design.recv_j), 1.0)
    probs = likelihood.selection_probabilities(design, beta)
    slots = design.ev_size.astype(np.float64) if convention == "duplication" \
        else np.ones(design.n_events)
    expected = np.zeros((A, A))
    np.add.at(expected, design.ev_sender, slots[:, None] * probs)
    return PairCounts(observed, expected, convention)


def residuals(counts):
    """Per-pair martingale (N - Nhat) and Pearson residuals.

    Pairs with zero observed and expected counts are left as nan; positive
    observed counts against zero expectation are reported as anomalies.
    """
    N, Nhat = counts.observed, counts.expected
    martingale = N - Nhat
    with np.errstate(divide="ignore", invalid="ignore"):
        pearson = martingale / np.sqrt(Nhat)
    defined = Nhat > 0
    pearson[~defined] = np.nan
    anomalies = [(int(i), int(j)) for i, j in zip(*np.nonzero((~defined) & (N > 0)))]
    x2 = float(np.nansum(pearson[defined] ** 2))
    return ResidualReport(pearson=pearson, martingale=martingale, x2=x2,
                          df_approx=float("nan"), anomalies=anomalies)


def residual_df(actor_count, p):
    """Ad-hoc degrees of freedom: ordered pairs minus fitted parameters."""
    return actor_count * (actor_count - 1) - p


def residual_summary(report):
    """Median and 95% quantile of |Pearson residual|, the maximum, and the
    X^2 total."""
    vals = np.abs(report.pearson[np.isfinite(report.pearson)])
    if vals.size == 0:
        raise ValueError("no finite residuals to summarize")
    out = {f"q{int(100 * q)}": float(np.quantile(vals, q)) for q in (0.5, 0.95)}
    out["max"] = float(vals.max())
    out["x2"] = report.x2
    out["df_approx"] = report.df_approx
    out["n_anomalies"] = len(report.anomalies)
    return out


def write_residual_csv(counts, report, path):
    """Rows for every pair with any observed or expected mass."""
    N, Nhat = counts.observed, counts.expected
    keep = (N > 0) | (Nhat > 0)
    with open(path, "w") as fh:
        fh.write("sender,receiver,observed,expected,martingale,pearson\n")
        for i, j in zip(*np.nonzero(keep)):
            pr = report.pearson[i, j]
            pr_s = "" if not np.isfinite(pr) else repr(float(pr))
            fh.write(f"{i},{j},{N[i, j]:.0f},{Nhat[i, j]!r},"
                     f"{report.martingale[i, j]!r},{pr_s}\n")


def write_summary_json(summary, path):
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2)

"""Log partial likelihood, score, and observed information.

Three variants share one prepared design:

* ``pairwise`` - strictly single-receiver events;
* ``approx_multicast`` - duplication: a size-L event contributes L times the
  single-receiver normalizer;
* ``exact_multicast`` - the size-L normalizer is the degree-L elementary
  symmetric polynomial of the risk-set weights, evaluated with its first two
  coefficient derivatives by one dynamic-programming sweep.

The first two are evaluated once per block of events with identical sparse
rows, directly over all actors: the block's max-shifted risk-set weights
give its normalizer, and its full design matrices, assembled from the class
design and the sparse rows a chunk of whole blocks at a time, give the
moments.  Scratch memory is bounded by the chunk, not by the number of
rows.  The information sums each block's rows centred on the block's mean.
A dense per-event oracle is kept alongside for verification.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .events import StreamError

VARIANTS = ("pairwise", "exact_multicast", "approx_multicast")

#: Bytes of dense block designs the block evaluator assembles at once; its
#: scratch is about three times this.  On the 156-actor, p = 306 benchmark
#: shape, 4-8 MB chunks evaluated order 2 faster than 32-64 MB ones.
_CHUNK_BYTES = 8 << 20


class DegenerateSenderError(StreamError):
    """Effective risk set carries zero total weight."""


@dataclass
class LikelihoodReport:
    logpl: float
    score: np.ndarray | None = None
    info: np.ndarray | None = None
    terms: np.ndarray | None = None
    n_events: int = 0
    n_decisions: int = 0


# ---------------------------------------------------------------------------
# risk-set weights and dense designs

def _event_rows(design, events):
    """Indices of the given events' sparse rows, and the position in
    ``events`` of the event each row belongs to."""
    counts = design.row_start[events + 1] - design.row_start[events]
    local = np.repeat(np.arange(len(events)), counts)
    skip = (design.row_start[events] - np.cumsum(counts) + counts)[local]
    return skip + np.arange(len(local)), local


def _dense_design(design, events):
    """(events, A, p) full design matrices of the given events."""
    rows, local = _event_rows(design, events)
    A = design.actor_count
    X = design.static._x0[design.ev_class[events]]
    flat = local * A + design.row_j[rows]
    X.reshape(len(events) * A, design.p)[flat] += np.take(design.dX, rows, axis=0)
    return X


def _risk_weights(design, beta, events=None):
    """Per-event log shift c and max-shifted weights exp(x . beta - c).

    Rows of the (events, A) weight matrix are the selection weights of each
    event's receivers (all events when ``events`` is None): zero outside the
    risk set, at most 1, and exactly 1 at the heaviest receiver.
    """
    if events is None:
        events, rows, local = np.arange(design.n_events), slice(None), design.row_ev
        z = design.dX @ beta
    else:
        rows, local = _event_rows(design, events)
        z = np.take(design.dX, rows, axis=0) @ beta
    S = (design.static._x0 @ beta)[design.ev_class[events]]
    flat = local * design.actor_count + design.row_j[rows]
    S.ravel()[flat] += z
    S.ravel()[flat[~design.row_inrisk[rows]]] = -np.inf
    c = S.max(axis=1)
    if not np.isfinite(c).all():
        bad = int(events[np.argmax(~np.isfinite(c))])
        raise DegenerateSenderError(f"empty risk set at event {bad}")
    return c, np.exp(S - c[:, None])


def _xsum_total(design):
    """Column sums of ``design.xsum``, cached for as long as the design
    holds the same array (bootstrap replicates and transformed designs
    replace it rather than write into it)."""
    cached = getattr(design, "_xsum_total", None)
    if cached is None or cached[0] is not design.xsum:
        cached = design._xsum_total = (design.xsum, design.xsum.sum(axis=0))
    return cached[1]


def evaluate(design, beta, variant="approx_multicast", order=2,
             keep_terms=False):
    """Evaluate logpl (order 0), plus score (1) and information (2)."""
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape != (design.p,):
        raise ValueError(f"beta must have length {design.p}")
    if variant == "pairwise":
        if (design.ev_size != 1).any():
            raise StreamError("pairwise variant requires singleton receiver sets")
        return _eval_blocks(design, beta, order, keep_terms)
    if variant == "approx_multicast":
        return _eval_blocks(design, beta, order, keep_terms)
    if variant == "exact_multicast":
        return _eval_exact(design, beta, order, keep_terms)
    raise ValueError(f"unknown variant {variant!r}")


def _eval_blocks(design, beta, order, keep_terms):
    """Single-receiver normalizers and moments, once per block of events
    with identical sparse rows, weighted by the block's receiver slots."""
    first = design.blk_event
    mass = np.bincount(design.ev_block, weights=design.ev_size,
                       minlength=len(first))
    p = design.p
    logW = np.empty(len(first))
    E = np.empty((len(first), p))
    M = np.zeros((p, p))
    step = max(1, _CHUNK_BYTES // max(1, 8 * design.actor_count * p))
    for lo in range(0, len(first), step):
        blk = slice(lo, lo + step)
        c, pi = _risk_weights(design, beta, first[blk])
        W = pi.sum(axis=1)
        logW[blk] = c + np.log(W)
        if order < 1:
            continue
        pi /= W[:, None]
        X = _dense_design(design, first[blk])
        E[blk] = np.matmul(pi[:, None, :], X)[:, 0]
        if order >= 2:
            X -= E[blk, None, :]
            X *= np.sqrt(mass[blk, None] * pi)[:, :, None]
            Xf = X.reshape(len(X) * design.actor_count, p)
            M += Xf.T @ Xf

    xtot = _xsum_total(design)
    report = LikelihoodReport(float(xtot @ beta - mass @ logW),
                              n_events=design.n_events,
                              n_decisions=design.n_decisions)
    if keep_terms:
        report.terms = (design.xsum @ beta
                        - design.ev_size * logW[design.ev_block])
    if order >= 1:
        report.score = xtot - mass @ E
    if order >= 2:
        report.info = M
    return report


def _eval_exact(design, beta, order, keep_terms, l_max=6):
    n = design.n_events
    A = design.actor_count
    p = design.p
    sizes = design.ev_size
    Lmax = int(sizes.max())
    if Lmax > l_max:
        raise StreamError(f"receiver-set size {Lmax} exceeds limit {l_max}")
    in_risk_count = design.ev_risk
    if (sizes > in_risk_count).any():
        bad = int(np.argmax(sizes > in_risk_count))
        raise StreamError(
            f"event {bad}: {sizes[bad]} receivers exceed risk set of "
            f"{in_risk_count[bad]}")

    c, w = _risk_weights(design, beta)
    e = np.zeros((Lmax + 1, n))
    e[0] = 1.0
    G = np.zeros((Lmax + 1, n, p)) if order >= 1 else None
    H = np.zeros((Lmax + 1, n, p, p)) if order >= 2 else None
    if order >= 1:
        X0d = _dense_design(design, np.arange(n))
    for r in range(A):
        wr = w[:, r]
        if order >= 1:
            xr = X0d[:, r, :]
        for l in range(Lmax, 0, -1):
            if order >= 2:
                H[l] += wr[:, None, None] * (
                    H[l - 1]
                    + xr[:, :, None] * G[l - 1][:, None, :]
                    + G[l - 1][:, :, None] * xr[:, None, :]
                    + e[l - 1][:, None, None]
                    * (xr[:, :, None] * xr[:, None, :]))
            if order >= 1:
                G[l] += wr[:, None] * (G[l - 1] + e[l - 1][:, None] * xr)
            e[l] += wr * e[l - 1]

    rows = np.arange(n)
    eL = e[sizes, rows]
    if (eL <= 0).any():
        bad = int(np.argmax(eL <= 0))
        raise DegenerateSenderError(
            f"zero size-{sizes[bad]} normalizer at event {bad}")
    logW = sizes * c + np.log(eL)
    terms = design.xsum @ beta - logW
    logpl = float(terms.sum())
    report = LikelihoodReport(logpl, n_events=n,
                              n_decisions=design.n_decisions,
                              terms=terms if keep_terms else None)
    if order < 1:
        return report
    E = G[sizes, rows] / eL[:, None]
    report.score = (design.xsum - E).sum(axis=0)
    if order < 2:
        return report
    V = H[sizes, rows] / eL[:, None, None] - E[:, :, None] * E[:, None, :]
    M = V.sum(axis=0)
    report.info = 0.5 * (M + M.T)
    return report


def dense_oracle(design, beta, variant="approx_multicast", order=2):
    """No-decomposition reference: per event, assemble the full design and
    sum directly.  Exact-multicast normalizers come from the per-event
    subset recurrences without any class/sparsity bookkeeping."""
    from .esp import esp_grad_hess

    beta = np.asarray(beta, dtype=np.float64)
    n = design.n_events
    p = design.p
    logpl = 0.0
    score = np.zeros(p)
    info = np.zeros((p, p))
    for m in range(n):
        X = design.dense_x(m)
        mask = design.risk_mask(m)
        s = X @ beta
        s[~mask] = -np.inf
        cmax = s.max()
        w = np.exp(s - cmax)
        w[~mask] = 0.0
        L = int(design.ev_size[m])
        if variant in ("pairwise", "approx_multicast"):
            W = w.sum()
            logW = cmax + np.log(W)
            pi = w / W
            logpl += design.xsum[m] @ beta - L * logW
            if order >= 1:
                E = X.T @ pi
                score += design.xsum[m] - L * E
            if order >= 2:
                info += L * (X.T @ (pi[:, None] * X) - np.outer(E, E))
        else:
            S0, S1, S2 = esp_grad_hess(w, X, L)
            logpl += design.xsum[m] @ beta - (L * cmax + np.log(S0))
            if order >= 1:
                E = S1 / S0
                score += design.xsum[m] - E
            if order >= 2:
                info += S2 / S0 - np.outer(E, E)
    return LikelihoodReport(float(logpl),
                            score if order >= 1 else None,
                            0.5 * (info + info.T) if order >= 2 else None,
                            n_events=n, n_decisions=design.n_decisions)


def selection_probabilities(design, beta):
    """(n, A) matrix of single-selection probabilities per event, zero for
    receivers outside the risk set."""
    _, w = _risk_weights(design, np.asarray(beta, dtype=np.float64))
    w /= w.sum(axis=1)[:, None]
    return w


@dataclass
class GrowthSequence:
    """Cumulative multicast mass 1{|J|>1} / |risk set| per event index."""

    g: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def final(self):
        return float(self.g[-1]) if len(self.g) else 0.0


def growth_sequence(stream, policy=None):
    from .events import RiskSetPolicy

    policy = policy or RiskSetPolicy()
    inc = []
    for ev in stream:
        if ev.size > 1:
            risk = len(policy.risk_set(ev.time, ev.sender, stream.actor_count))
            inc.append(1.0 / risk)
        else:
            inc.append(0.0)
    return GrowthSequence(np.cumsum(inc))


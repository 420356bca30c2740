"""Log partial likelihood, score, and observed information.

Three variants share one prepared design:

* ``pairwise`` - strictly single-receiver events;
* ``approx_multicast`` - duplication: a size-L event contributes L times the
  single-receiver normalizer;
* ``exact_multicast`` - the size-L normalizer is the degree-L elementary
  symmetric polynomial of the risk-set weights, evaluated with its first two
  coefficient derivatives by one dynamic-programming sweep.

The production path never materializes the full design: once per block
of events with identical sparse rows it combines class-level baseline
quantities with the sparse dynamic corrections (the ratio of baseline to
corrected normalizer and the sparse selection-probability corrections).
A dense per-event oracle with no decomposition is kept alongside for
verification.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from .events import StreamError

VARIANTS = ("pairwise", "exact_multicast", "approx_multicast")

#: Largest dynamic log-weight correction the sparse evaluator takes as a
#: ratio exp(z) to the class baseline.  exp(600) ~ 4e260, so neither a row
#: ratio nor a block's rho = 1 + sum(pi0 * (exp(z) - 1)), with pi0 <= 1 and
#: far fewer than 1e48 rows, can overflow; a block with a larger in-risk
#: correction is evaluated directly instead.
_Z_MAX = 600.0


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
# risk-set weights and class-level baseline quantities

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
    X = design.static._x0[design.ev_class[events]]
    X[local, design.row_j[rows]] += design.dX[rows]
    return X


def _risk_weights(design, beta, events=None):
    """Per-event log shift c and max-shifted weights exp(x . beta - c).

    Rows of the (events, A) weight matrix are the selection weights of each
    event's receivers (all events when ``events`` is None): zero outside the
    risk set, at most 1, and exactly 1 at the heaviest receiver.
    """
    if events is None:
        events, rows, local = np.arange(design.n_events), slice(None), design.row_ev
    else:
        rows, local = _event_rows(design, events)
    S = (design.static._x0 @ beta)[design.ev_class[events]]
    row_j = design.row_j[rows]
    if design.p:
        S[local, row_j] += design.dX[rows] @ beta
    off = ~design.row_inrisk[rows]
    S[local[off], row_j[off]] = -np.inf
    c = S.max(axis=1)
    if not np.isfinite(c).all():
        bad = int(events[np.argmax(~np.isfinite(c))])
        raise DegenerateSenderError(f"empty risk set at event {bad}")
    return c, np.exp(S - c[:, None])


def _class_tables(design, beta, order):
    """Per sender class: log normalizer, selection probabilities over all
    actors, and first two moments of the design under them."""
    X0 = design.static._x0                       # (C, A, p)
    s0 = X0 @ beta                               # (C, A)
    m0 = s0.max(axis=1)
    pi0 = np.exp(s0 - m0[:, None])
    Z = pi0.sum(axis=1)
    logW0 = m0 + np.log(Z)
    pi0 /= Z[:, None]
    E0 = A0 = None
    if order >= 1:
        E0 = np.einsum("ca,cap->cp", pi0, X0)
    if order >= 2:
        A0 = np.einsum("ca,cap,caq->cpq", pi0, X0, X0)
    return logW0, pi0, E0, A0


class _Blocks:
    """Beta-independent sparse rows of the design's distinct blocks.

    Events sharing a block (``design.ev_block``) have the same normalizer
    and moments, so the rows are evaluated once per block and weighted by
    the block's total receiver-slot count ``mass``.
    """

    def __init__(self, design):
        first = design.blk_event
        counts = design.row_start[first + 1] - design.row_start[first]
        self.start = np.zeros(len(first) + 1, dtype=np.intp)
        np.cumsum(counts, out=self.start[1:])
        self.row_blk = np.repeat(np.arange(len(first)), counts)
        if len(first) == design.n_events:
            rows = slice(None)    # nothing shared: view the rows, no copy
        else:
            rows = (np.arange(self.start[-1]) - self.start[self.row_blk]
                    + design.row_start[first][self.row_blk])
        self.first = first
        self.cls = design.ev_class[first]
        row_cls = self.cls[self.row_blk]
        row_j = design.row_j[rows]
        self.dX = design.dX[rows]
        self.x0 = design.static._x0[row_cls, row_j]
        self.flat = row_cls * design.actor_count + row_j
        self.off = np.flatnonzero(~design.row_inrisk[rows])
        self.mass = np.bincount(design.ev_block, weights=design.ev_size,
                                minlength=len(first))


def _blocks(design):
    cached = getattr(design, "_blocks", None)
    if cached is None:
        cached = design._blocks = _Blocks(design)
    return cached


def _xsum_total(design):
    """Column sums of ``design.xsum``, cached for as long as the design
    holds the same array (bootstrap replicates and transformed designs
    replace it rather than write into it)."""
    cached = getattr(design, "_xsum_total", None)
    if cached is None or cached[0] is not design.xsum:
        cached = design._xsum_total = (design.xsum, design.xsum.sum(axis=0))
    return cached[1]


def _segment_sums(values, starts, n):
    if values.shape[0] == 0:
        return np.zeros((n,) + values.shape[1:])
    return np.add.reduceat(values, starts[:-1], axis=0)


_tls = threading.local()


def _scratch(key, shape):
    """Reusable thread-local work array (large temporaries churn the
    allocator badly enough to dominate the evaluation otherwise)."""
    pool = getattr(_tls, "pool", None)
    if pool is None:
        pool = _tls.pool = {}
    buf = pool.get(key)
    if buf is None or buf.shape != shape:
        buf = pool[key] = np.empty(shape)
    return buf


def evaluate(design, beta, variant="approx_multicast", order=2,
             keep_terms=False):
    """Evaluate logpl (order 0), plus score (1) and information (2)."""
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape != (design.p,):
        raise ValueError(f"beta must have length {design.p}")
    if variant == "pairwise":
        if (design.ev_size != 1).any():
            raise StreamError("pairwise variant requires singleton receiver sets")
        return _eval_sparse(design, beta, order, keep_terms)
    if variant == "approx_multicast":
        return _eval_sparse(design, beta, order, keep_terms)
    if variant == "exact_multicast":
        return _eval_exact(design, beta, order, keep_terms)
    raise ValueError(f"unknown variant {variant!r}")


#: Normalizer-ratio floor below which baseline-plus-correction cancellation
#: costs too many digits; such events fall back to direct evaluation.
_RHO_FLOOR = 1e-3


def _rescue_events(design, beta, events, mass, order):
    """Direct normalizers and moments of the given events' risk sets:
    log W and E per event, and the second moments summed with weights
    ``mass``."""
    c, w = _risk_weights(design, beta, events)
    W = w.sum(axis=1)
    logW = c + np.log(W)
    if order < 1:
        return logW, None, None
    X = _dense_design(design, events)
    pi = w / W[:, None]
    E = np.einsum("ka,kap->kp", pi, X)
    if order < 2:
        return logW, E, None
    Xf = X.reshape(-1, design.p)
    return logW, E, (Xf * (mass[:, None] * pi).reshape(-1, 1)).T @ Xf


def _eval_sparse(design, beta, order, keep_terms):
    n = design.n_events
    blk = _blocks(design)
    B = len(blk.first)
    R, p = blk.dX.shape
    logW0, pi0, E0, A0 = _class_tables(design, beta, order)

    # row weights relative to the class baseline, in preallocated scratch
    z = _scratch("z", (R,))
    np.dot(blk.dX, beta, out=z)
    z[blk.off] = -np.inf                           # weight 0 off the risk set
    big = z > _Z_MAX                               # evaluated directly below
    z[big] = 0.0
    expz = np.exp(z, out=z)
    pi0row = np.take(pi0.ravel(), blk.flat, out=_scratch("pi0row", (R,)))
    delta = np.subtract(expz, 1.0, out=_scratch("delta", (R,)))
    np.multiply(delta, pi0row, out=delta)          # Delta w / W_0
    rho = 1.0 + _segment_sums(delta, blk.start, B)

    # Blocks whose corrections cancel most of the baseline weight lose
    # precision in W_0 + sum(Delta w), and blocks with a correction above
    # _Z_MAX would overflow it; evaluate those few directly.  Their gamma
    # is zeroed so every sparse-row contribution vanishes below.
    ok = rho >= _RHO_FLOOR
    ok[blk.row_blk[big]] = False
    bad = np.flatnonzero(~ok)
    gamma = np.where(ok, 1.0 / np.where(ok, rho, 1.0), 0.0)
    logW = logW0[blk.cls] + np.log(np.where(ok, rho, 1.0))
    if len(bad):
        logW[bad], E_bad, A_bad = _rescue_events(
            design, beta, blk.first[bad], blk.mass[bad], order)

    xtot = _xsum_total(design)
    report = LikelihoodReport(float(xtot @ beta - blk.mass @ logW),
                              n_events=n, n_decisions=design.n_decisions)
    if keep_terms:
        report.terms = (design.xsum @ beta
                        - design.ev_size * logW[design.ev_block])
    if order < 1:
        return report

    grow = np.take(gamma, blk.row_blk, out=_scratch("grow", (R,)))
    dpi = np.multiply(delta, grow, out=delta)      # Delta pi rows
    pirow = np.multiply(pi0row, expz, out=pi0row)  # pi at sparse rows
    np.multiply(pirow, grow, out=pirow)
    buf = _scratch("rows_a", (R, p))
    buf2 = _scratch("rows_b", (R, p))
    np.multiply(blk.x0, dpi[:, None], out=buf)
    np.multiply(blk.dX, pirow[:, None], out=buf2)
    buf += buf2
    E = gamma[:, None] * E0[blk.cls]
    E += _segment_sums(buf, blk.start, B)
    if len(bad):
        E[bad] = E_bad
    report.score = xtot - blk.mass @ E
    if order < 2:
        return report

    Lrow = np.take(blk.mass, blk.row_blk, out=_scratch("Lrow", (R,)))
    np.multiply(dpi, Lrow, out=dpi)
    np.multiply(pirow, Lrow, out=pirow)
    np.multiply(blk.x0, dpi[:, None], out=buf)
    M = buf.T @ blk.x0
    np.multiply(blk.x0, pirow[:, None], out=buf)
    C = buf.T @ blk.dX
    M += C + C.T
    np.multiply(blk.dX, pirow[:, None], out=buf)
    M += buf.T @ blk.dX
    cls_mass = np.bincount(blk.cls, weights=blk.mass * gamma,
                           minlength=design.static.n_classes)
    M += np.einsum("c,cpq->pq", cls_mass, A0)
    if len(bad):
        M += A_bad
    M -= E.T @ (blk.mass[:, None] * E)
    report.info = 0.5 * (M + M.T)
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


"""Log partial likelihood, score, and observed information.

Three variants share one prepared design:

* ``pairwise`` - strictly single-receiver events;
* ``approx_multicast`` - duplication: a size-L event contributes L times the
  single-receiver normalizer;
* ``exact_multicast`` - the size-L normalizer is the degree-L elementary
  symmetric polynomial e_L of the risk-set weights, shifted so that the
  heaviest size-L subset weighs 1 (1 <= e_L <= C(A, L): no underflow); the
  moments come from the fixed-size law's inclusion probabilities.

The first two are evaluated once per block of events with identical sparse
rows, directly over all actors: the block's max-shifted risk-set weights
give its normalizer, and its full design matrices, assembled from the class
design and the sparse rows a chunk of whole blocks at a time, give the
moments.  Scratch memory is bounded by the chunk, not by the number of
rows.  The information sums each block's rows centred on the block's mean.
A dense per-event oracle is kept alongside for verification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .esp import esp_table
from .events import StreamError

#: Bytes of dense designs (exact variant: or of A x A*L tables, if larger)
#: assembled at once; scratch is a few times this.  On the 156-actor,
#: p = 306 benchmark shape, 4-8 MB chunks ran order 2 faster than 32-64 MB.
_CHUNK_BYTES = 8 << 20

_L_MAX = 6  # largest receiver-set size the exact variant evaluates


@dataclass
class LikelihoodReport:
    logpl: float
    score: np.ndarray | None = None
    info: np.ndarray | None = None
    terms: np.ndarray | None = None


# ---------------------------------------------------------------------------
# risk-set weights and dense designs

def _event_rows(design, events):
    """The given events' sparse rows, as a slice when the events are
    consecutive (a view of ``dX``) and as indices otherwise, and the
    position in ``events`` of the event each row belongs to."""
    start, stop = design.row_start[events], design.row_start[events + 1]
    counts = stop - start
    local = np.repeat(np.arange(len(events)), counts)
    if len(events) and (np.diff(events) == 1).all():
        return slice(start[0], stop[-1]), local
    skip = (start - np.cumsum(counts) + counts)[local]
    return skip + np.arange(len(local)), local


def _dense_design(design, events):
    """(events, A, p) full design matrices of the given events."""
    rows, local = _event_rows(design, events)
    A = design.actor_count
    X = design.static._x0[design.ev_class[events]]
    flat = local * A + design.row_j[rows]
    X.reshape(len(events) * A, design.p)[flat] += design.dX[rows]
    return X


def _log_weights(design, beta, x0b, events):
    """(events, A) log selection weights x . beta of each event's
    receivers, -inf outside the risk set, from x0b = ``static._x0 @ beta``
    (one product per evaluation).  The events' rows are cast to float64
    whole (callers pass a chunk of events), all columns in their memory
    order, so BLAS sums them as it would a float64 store."""
    rows, local = _event_rows(design, events)
    S = x0b[design.ev_class[events]]
    flat = local * design.actor_count + design.row_j[rows]
    S.ravel()[flat] += design.dX[rows].astype(np.float64) @ beta
    S.ravel()[flat[~design.row_inrisk[rows]]] = -np.inf
    return S


def _risk_weights(design, beta, x0b, events):
    """Per-event log shift c and max-shifted weights exp(x . beta - c).

    Rows of the (events, A) weight matrix are the selection weights of each
    event's receivers: zero outside the risk set, at most 1, and exactly 1
    at the heaviest receiver.  Replay gives every event an in-risk
    receiver, so c is finite wherever beta is.
    """
    S = _log_weights(design, beta, x0b, events)
    c = S.max(axis=1)
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
    x0b = design.static._x0 @ beta
    step = max(1, _CHUNK_BYTES // max(1, 8 * design.actor_count * p))
    for lo in range(0, len(first), step):
        blk = slice(lo, lo + step)
        c, pi = _risk_weights(design, beta, x0b, first[blk])
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
    report = LikelihoodReport(float(xtot @ beta - mass @ logW))
    if keep_terms:
        report.terms = (design.xsum @ beta
                        - design.ev_size * logW[design.ev_block])
    if order >= 1:
        report.score = xtot - mass @ E
    if order >= 2:
        report.info = M
    return report


def _leave_one_out(w, l):
    """e_l of the weights without item j, for each j along the last axis:
    sums of prefix times suffix ESP tables, with no subtraction."""
    if l < 0:
        return np.zeros_like(w)
    pre = esp_table(w, l)
    suf = esp_table(w[..., ::-1], l)[..., ::-1, :]
    return sum(pre[..., :-1, a] * suf[..., 1:, l - a] for a in range(l + 1))


def _inclusions(w, L, order):
    """Size-L fixed-size law on each row of w (k, A): e_L, then inclusion
    probabilities pi_j = w_j e_{L-1}(w without j) / e_L, then joint ones
    Q_jk = w_j w_k e_{L-2}(w without j, k) / e_L with Q_jj = pi_j (Chen,
    Dempster & Liu 1994), up to the given order."""
    eL = esp_table(w, L)[:, -1, L]
    if order < 1:
        return (eL,)
    pi = w * _leave_one_out(w, L - 1) / eL[:, None]
    if order < 2:
        return eL, pi
    # row j holds the weights with w_j set to 0, so its leave-one-out ESP
    # at k is e_{L-2}(w without j and k)
    diag = np.eye(w.shape[1], dtype=bool)
    Q = _leave_one_out(np.where(diag, 0.0, w[:, None, :]), L - 2)
    Q *= w[:, :, None] * w[:, None, :] / eL[:, None, None]
    Q[:, diag] = pi
    return eL, pi, Q


def _eval_exact(design, beta, order, keep_terms):
    """Fixed-size law moments a chunk of consecutive events at a time, each
    event's log-weights shifted by the mean of its L largest.  Information:
    X'(Q - pi pi')X, whose zero row sums let X be centred on E / L."""
    n, A, p = design.n_events, design.actor_count, design.p
    sizes = design.ev_size
    Lmax = int(sizes.max())
    if Lmax > _L_MAX:
        raise StreamError(f"receiver-set size {Lmax} exceeds limit {_L_MAX}")

    logW = np.empty(n)
    score = np.zeros(p)
    M = np.zeros((p, p))
    x0b = design.static._x0 @ beta
    step = max(1, _CHUNK_BYTES // (8 * A * max(p, A * Lmax)))
    for lo in range(0, n, step):
        ev = np.arange(lo, min(lo + step, n))
        L = sizes[ev]
        S = _log_weights(design, beta, x0b, ev)
        # each event's L.max() largest log-weights, summed largest first
        top = np.sort(np.partition(S, A - L.max(), axis=1)[:, A - L.max():])
        top = np.cumsum(top[:, ::-1], axis=1)
        c = top[np.arange(len(ev)), L - 1] / L
        w = np.exp(S - c[:, None])
        parts = [np.empty((len(ev),) + (A,) * k) for k in range(order + 1)]
        for size in np.unique(L):
            sel = np.flatnonzero(L == size)
            for out, part in zip(parts, _inclusions(w[sel], size, order)):
                out[sel] = part
        eL, pi, Q = parts + [None] * (2 - order)
        logW[ev] = L * c + np.log(eL)
        if order < 1:
            continue
        X = _dense_design(design, ev)
        E = np.matmul(pi[:, None, :], X)[:, 0]
        score += (design.xsum[ev] - E).sum(axis=0)
        if order >= 2:
            Q -= pi[:, :, None] * pi[:, None, :]
            X -= (E / L[:, None])[:, None, :]
            M += X.reshape(-1, p).T @ np.matmul(Q, X).reshape(-1, p)

    terms = design.xsum @ beta - logW
    report = LikelihoodReport(float(terms.sum()),
                              terms=terms if keep_terms else None)
    if order >= 1:
        report.score = score
    if order >= 2:
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
            # centred rows: same covariance, no cancellation of raw moments
            ref = w @ X / w.sum()
            S0, S1, S2 = esp_grad_hess(w, X - ref, L)
            logpl += design.xsum[m] @ beta - (L * cmax + np.log(S0))
            if order >= 1:
                score += design.xsum[m] - (S1 / S0 + L * ref)
            if order >= 2:
                info += S2 / S0 - np.outer(S1 / S0, S1 / S0)
    return LikelihoodReport(float(logpl),
                            score if order >= 1 else None,
                            0.5 * (info + info.T) if order >= 2 else None)


def selection_probabilities(design, beta):
    """(n, A) matrix of single-selection probabilities per event, zero for
    receivers outside the risk set."""
    beta = np.asarray(beta, dtype=np.float64)
    n, A = design.n_events, design.actor_count
    probs = np.empty((n, A))
    x0b = design.static._x0 @ beta
    step = max(1, _CHUNK_BYTES // (8 * A * design.p))
    for lo in range(0, n, step):
        _, w = _risk_weights(design, beta, x0b, np.arange(lo, min(lo + step, n)))
        probs[lo:lo + step] = w / w.sum(axis=1)[:, None]
    return probs

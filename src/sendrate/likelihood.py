"""Log partial likelihood, score, and observed information.

Three variants share one prepared design and one kernel:

* ``pairwise`` - strictly single-receiver events;
* ``approx_multicast`` - duplication: a size-L event is L draws from the
  single-receiver law;
* ``exact_multicast`` - a size-L event is one draw from the size-L
  fixed-size law (Chen, Dempster & Liu 1994), normalized by the elementary
  symmetric polynomial e_L of the risk-set weights.

The single-receiver law is the size-1 fixed-size law, so the kernel runs
over *units*: a block of events with identical sparse rows (and so the same
weights), a law size L and a multiplicity.  The first two variants take one
unit per block at L = 1, counted per receiver slot; the exact one takes one
per (block, size) pair, counted per event.  A unit's weights are shifted so
that its heaviest size-L subset weighs 1 (1 <= e_L <= C(A, L)), and its
inclusion probabilities give the moments.  Units are evaluated a chunk of
one size at a time, so scratch memory is bounded by the chunk, not by the
number of rows.  A dense per-event oracle is kept alongside for
verification.

logpl always comes from the same steps (``_log_weights``, the shift, e_L).
The moments take one of two paths.  The dense one assembles each unit's
(A, p) design, the static design of its sender's class plus its dynamic
rows, and centres it on the unit's mean: at L = 1 the information is a sum
of squares of sqrt(count pi)-weighted centred rows, at L > 1 it is X'(Q -
pi pi')X.  The sparse one serves L = 1 units of designs whose dX is mostly
zero, which keep the CSR of its non-zeros (``design._SPARSE_BELOW`` gives
the rule and its measured crossover): a row splits into a static part
shared by every sender of a class and a dynamic part that is zero off the
unit's sparse rows, and ``_SingleLaw`` sums the three blocks of the
information from those parts, centring only the dynamic rows, with no
dense design.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .esp import esp_table
from .events import StreamError

#: Bytes of dense designs (at L > 1 and order 2: or of the two A x A*L
#: tables of leave-two-out ESPs behind Q, if larger) assembled at once;
#: scratch is a few times this.  On the 156-actor,
#: p = 306 benchmark shape, 4-8 MB chunks ran order 2 faster than 32-64 MB.
_CHUNK_BYTES = 8 << 20

_L_MAX = 6  # largest receiver-set size the exact variant evaluates


@dataclass
class LikelihoodReport:
    logpl: float
    score: np.ndarray | None = None
    info: np.ndarray | None = None


# ---------------------------------------------------------------------------
# risk-set weights and dense designs

def _ranges(start, stop):
    """The concatenated index ranges [start_k, stop_k), as a slice when
    each begins where the previous one ends and as indices otherwise, and
    the k each index comes from."""
    counts = stop - start
    owner = np.repeat(np.arange(len(start)), counts)
    if len(start) and (start[1:] == stop[:-1]).all():
        return slice(start[0], stop[-1]), owner
    skip = (start - np.cumsum(counts) + counts)[owner]
    return skip + np.arange(len(owner)), owner


def _event_rows(design, events):
    """The given events' sparse rows, as a slice when the events' rows are
    adjacent (a view of ``dX``) and as indices otherwise, and the position
    in ``events`` of the event each row belongs to."""
    return _ranges(design.row_start[events], design.row_start[events + 1])


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


def _top_shift(S, L):
    """Each row's mean of its L largest log-weights, summed largest first
    (at L = 1, the row max): shifted by it, the heaviest size-L subset
    weighs 1.  Replay gives every event an in-risk receiver, so the shift
    is finite wherever beta is."""
    if L == 1:
        return S.max(axis=1)
    top = np.sort(np.partition(S, -L, axis=1)[:, -L:])
    return top[:, ::-1].sum(axis=1) / L


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
    Dempster & Liu 1994), up to the given order.  At L = 1 the law is the
    softmax: e_1 is the row sum, pi = w / e_1, and Q = diag(pi) is left to
    the caller."""
    if L == 1:
        eL = w.sum(axis=1)
        return (eL,) if order < 1 else (eL, w / eL[:, None])
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


# ---------------------------------------------------------------------------
# the kernel

def evaluate(design, beta, variant="approx_multicast", order=2):
    """Evaluate logpl (order 0), plus score (1) and information (2)."""
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape != (design.p,):
        raise ValueError(f"beta must have length {design.p}")
    if variant == "pairwise" and (design.ev_size != 1).any():
        raise StreamError("pairwise variant requires singleton receiver sets")
    if variant in ("pairwise", "approx_multicast"):
        slots = np.bincount(design.ev_block, weights=design.ev_size,
                            minlength=len(design.blk_event))
        units = [(1, design.blk_event, slots)]
    elif variant == "exact_multicast":
        units = _size_units(design)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return _eval_units(design, beta, order, units)


def _size_units(design):
    """Exact-variant units, one (L, first events, event counts) group per
    receiver-set size: every (block, size) pair that occurs, counted once
    per event.  A block's events share the sender and the rows, so they
    see the same weights."""
    B = len(design.blk_event)
    Lmax = int(design.ev_size.max())
    if Lmax > _L_MAX:
        raise StreamError(f"receiver-set size {Lmax} exceeds limit {_L_MAX}")
    events = np.bincount(design.ev_size * B + design.ev_block,
                         minlength=(Lmax + 1) * B).reshape(Lmax + 1, B)
    return [(L, design.blk_event[n > 0], n[n > 0].astype(np.float64))
            for L, n in enumerate(events[1:], 1)]


def _eval_units(design, beta, order, units):
    """Totals over units given as (L, first events, counts) groups, a chunk
    of one group at a time: logpl = xtot . beta - sum count log e_L, score
    = xtot - sum count E, information sum count X'(Q - pi pi')X.

    Size-1 units take their moments from the sender classes and the
    non-zeros of dX (``_SingleLaw``) when the design keeps their CSR, with
    no dense design; other units, and size-1 units of denser designs, from
    each unit's dense (A, p) design, centred on its mean E."""
    A, p = design.actor_count, design.p
    x0b = design.static._x0 @ beta
    norm, mean, M = 0.0, np.zeros(p), np.zeros((p, p))
    single = (_SingleLaw(design, order) if order > 0
              and design.nz_val is not None
              and any(L == 1 for L, *_ in units) else None)
    for L, first, count in units:
        logW = np.empty(len(first))
        E = np.empty((len(first), p))
        width = max(p, 2 * A * L) if L > 1 and order > 1 else p
        step = max(1, _CHUNK_BYTES // max(1, 8 * A * width))
        for lo in range(0, len(first), step):
            u = slice(lo, lo + step)
            S = _log_weights(design, beta, x0b, first[u])
            c = _top_shift(S, L)
            eL, *law = _inclusions(np.exp(S - c[:, None]), L, order)
            logW[u] = L * c + np.log(eL)
            if order < 1:
                continue
            if L == 1 and single is not None:
                E[u] = single.add(first[u], count[u], law[0])
                continue
            X = _dense_design(design, first[u])
            E[u] = np.matmul(law[0][:, None, :], X)[:, 0]
            if order < 2:
                continue
            if L == 1:
                X -= E[u, None, :]
                X *= np.sqrt(count[u, None] * law[0])[:, :, None]
                Xf = X.reshape(-1, p)
                M += Xf.T @ Xf
            else:   # Q - pi pi' has zero row sums: centre X on E / L
                pi, Q = law
                Q -= pi[:, :, None] * pi[:, None, :]
                Q *= count[u, None, None]
                X -= (E[u] / L)[:, None, :]
                M += X.reshape(-1, p).T @ np.matmul(Q, X).reshape(-1, p)
        norm += count @ logW
        if order >= 1:
            mean += count @ E

    report = LikelihoodReport(float(design.xtot @ beta - norm))
    if order >= 1:
        report.score = design.xtot - mean
    if order >= 2:
        if single is not None:
            M += single.info()
        report.info = 0.5 * (M + M.T)
    return report


class _SingleLaw:
    """Score and information of size-1 units, accumulated a chunk at a time
    from each unit's sender class k and its rows' non-zeros.

    A unit's receiver r has the row x_r = X0_k[r] + d_r, where d_r is zero
    off the unit's sparse rows.  With E0 = pi X0_k and Ed = sum_r pi_r d_r
    the two parts of its mean E, count weight c and centred parts a_r =
    X0_k[r] - E0, b_r = d_r - Ed (each with pi-mean zero), its information
    c sum_r pi_r (a_r + b_r)(a_r + b_r)' splits into

    * static: sum_k X0_k' diag(Omega_k) X0_k - sum c E0 E0', where Omega_k
      sums c pi over class k's units (one contraction per evaluation);
    * cross: X0' H - sum c E0 Ed' (and its transpose), where H sums c pi_r
      d_r per (class, receiver), over the columns that hold non-zeros;
    * dynamic: c sum_r pi_r b_r b_r' over the rows with a non-zero, kept
      dense over the chunk's active columns only, plus the other
      receivers' summed mass c pi times Ed Ed'.

    The dynamic block carries most of the digits, so its rows are centred
    before the products, and the mass of the receivers without a non-zero
    is summed, not taken as 1 minus the rows' mass."""

    def __init__(self, design, order):
        self.design, self.order = design, order
        x0 = design.static._x0
        K, A, p = x0.shape
        self.s = np.flatnonzero(x0.any(axis=(0, 1)))   # static columns
        self.x0s = x0[:, :, self.s]
        self.omega = np.zeros((K, A))           # sum c pi per class
        # per (class, receiver) over the columns that hold non-zeros
        self.H = np.zeros((K * A, len(design.nz_columns)))
        self.static = np.zeros((len(self.s), len(self.s)))  # -sum c E0 E0'
        self.cross = np.zeros((len(self.s), p))             # -sum c E0 Ed'
        self.M = np.zeros((p, p))               # the dynamic block

    def add(self, events, count, pi):
        """Add a chunk of size-1 units with probabilities pi (n, A) and
        counts c; return their means E (n, p)."""
        d, n = self.design, len(events)
        A, p = d.actor_count, d.p
        rows, local = _event_rows(d, events)
        if isinstance(rows, slice):
            rows = np.arange(rows.start, rows.stop)
        start, stop = d.nz_start[rows], d.nz_start[rows + 1]
        nnz = stop - start
        ent, owner = _ranges(start, stop)       # the rows' non-zeros
        at = d.nz_col[ent]                      # position in nz_columns
        col, val = d.nz_columns[at], d.nz_val[ent].astype(np.float64)
        rj = d.row_j[rows]
        pi_d = pi[local, rj][owner] * val       # pi_r d_r, per entry
        E = np.zeros(n * p)     # (a bincount of no entries would be int)
        E += np.bincount(local[owner] * p + col, weights=pi_d,
                         minlength=n * p)
        E = E.reshape(n, p)     # Ed, until E0 joins it
        cls = d.ev_class[events]
        E0 = np.empty((n, len(self.s)))
        for k in np.unique(cls):
            sel = cls == k
            E0[sel] = pi[sel] @ self.x0s[k]
            self.omega[k] += count[sel] @ pi[sel]
        if self.order > 1:
            active = np.zeros(p, dtype=bool)
            active[col] = True
            act = np.flatnonzero(active)
            Ed = E[:, act]
            # the rows with a non-zero, centred, over the active columns
            nzr = np.flatnonzero(nnz)
            D = np.zeros((len(nzr), len(act)))
            D[np.repeat(np.arange(len(nzr)), nnz[nzr]),
              (np.cumsum(active) - 1)[col]] = val
            D -= Ed[local[nzr]]
            D *= np.sqrt(count[local[nzr]] * pi[local[nzr], rj[nzr]])[:, None]
            off = pi.copy()
            off[local[nzr], rj[nzr]] = 0.0
            mass = count * off.sum(axis=1)
            self.M[np.ix_(act, act)] += D.T @ D + Ed.T @ (mass[:, None] * Ed)
            cE0 = count[:, None] * E0
            self.static -= cE0.T @ E0
            self.cross[:, act] -= cE0.T @ Ed
            pair = (cls[local] * A + rj)[owner]     # (class, receiver)
            np.add.at(self.H.reshape(-1), pair * self.H.shape[1] + at,
                      count[local][owner] * pi_d)
        E[:, self.s] += E0
        return E

    def info(self):
        """The summed information, unsymmetrised."""
        s = self.s
        x0 = self.x0s.reshape(len(self.H), len(s))
        M = self.M
        M[np.ix_(s, s)] += x0.T @ (self.omega.reshape(-1)[:, None] * x0) \
            + self.static
        cross = self.cross
        cross[:, self.design.nz_columns] += x0.T @ self.H
        M[s, :] += cross
        M[:, s] += cross.T
        return M


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
        L = int(design.ev_size[m])
        # the heaviest receiver (exact: the heaviest size-L subset) weighs 1
        c = np.sort(s)[-L:].mean() if variant == "exact_multicast" else s.max()
        w = np.exp(s - c)
        w[~mask] = 0.0
        if variant in ("pairwise", "approx_multicast"):
            W = w.sum()
            logW = c + np.log(W)
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
            logpl += design.xsum[m] @ beta - (L * c + np.log(S0))
            if order >= 1:
                score += design.xsum[m] - (S1 / S0 + L * ref)
            if order >= 2:
                info += S2 / S0 - np.outer(S1 / S0, S1 / S0)
    return LikelihoodReport(float(logpl),
                            score if order >= 1 else None,
                            0.5 * (info + info.T) if order >= 2 else None)


def selection_probabilities(design, beta):
    """(n, A) matrix of single-selection probabilities per event, zero for
    receivers outside the risk set: one row per block, expanded to its
    events."""
    beta = np.asarray(beta, dtype=np.float64)
    blocks, A = design.blk_event, design.actor_count
    probs = np.empty((len(blocks), A))
    x0b = design.static._x0 @ beta
    step = max(1, _CHUNK_BYTES // (8 * A * design.p))
    for lo in range(0, len(blocks), step):
        S = _log_weights(design, beta, x0b, blocks[lo:lo + step])
        _, probs[lo:lo + step] = _inclusions(
            np.exp(S - _top_shift(S, 1)[:, None]), 1, 1)
    return probs if len(blocks) == design.n_events else probs[design.ev_block]

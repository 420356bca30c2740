"""Elementary symmetric polynomials and fixed-size weighted subset sampling.

e_L(w) over a weight vector equals the sum over all size-L subsets of the
product of member weights; it normalizes the multicast selection law, whose
first two log-derivatives in the coefficient vector are subset means and
covariances of covariate sums.  ``esp_table`` also serves the exact
likelihood's prefix and suffix tables, batched over leading axes.

A draw from that law walks the items once, keeping item r with probability
w_r e_{q-1}(w[r+1:]) / e_q(w[r:]) while q items are still to choose, read
off a suffix table.  ``sample_fixed_size`` walks one weight vector (the
simulator); ``sample_fixed_size_rows`` walks a batch of rows together, one
uniform per row and item (the bootstrap).
"""

from __future__ import annotations

import numpy as np


def esp_table(w, L):
    """Table (..., n + 1, L + 1) of the triangular recurrence over the last
    axis of w (..., n): row r holds e_0..e_L of the first r weights, so the
    last row is e_0..e_L of them all.

    Column l is the running sum of w_r e_{l-1}(first r weights), one
    cumulative sum per degree, added in the same order as the one-item-
    at-a-time recurrence.
    """
    w = np.asarray(w, dtype=np.float64)
    table = np.zeros(w.shape[:-1] + (w.shape[-1] + 1, L + 1))
    table[..., 0] = 1.0
    for l in range(1, L + 1):
        (w * table[..., :-1, l - 1]).cumsum(axis=-1, out=table[..., 1:, l])
    return table


def esp_grad_hess(w, X, L):
    """(e_L, gradient, Hessian) of the subset-sum generating sums.

    Returns S0 = e_L(w), S1 = sum over size-L subsets of w(A) X(A), and
    S2 = sum of w(A) X(A) X(A)^T, with w(A) the product of member weights
    and X(A) the sum of member rows of X.  Mean and covariance of X(A)
    under the fixed-size law follow as S1/S0 and S2/S0 - (S1/S0)^2.
    """
    w = np.asarray(w, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    p = X.shape[1]
    e = np.zeros(L + 1)
    G = np.zeros((L + 1, p))
    H = np.zeros((L + 1, p, p))
    e[0] = 1.0
    for wr, xr in zip(w, X):
        if wr == 0.0:
            continue
        for l in range(L, 0, -1):
            H[l] += wr * (H[l - 1] + np.outer(xr, G[l - 1])
                          + np.outer(G[l - 1], xr)
                          + e[l - 1] * np.outer(xr, xr))
            G[l] += wr * (G[l - 1] + e[l - 1] * xr)
            e[l] += wr * e[l - 1]
    return e[L], G[L], H[L]


def sample_fixed_size(w, L, rng):
    """Draw a size-L subset of the items of w from the fixed-size law, by
    the walk above, taking one uniform per item until the set is full."""
    w = np.asarray(w, dtype=np.float64)
    if (w < 0).any():
        raise ValueError("negative weight")
    support = int((w > 0).sum())
    if L > support:
        raise ValueError(f"cannot draw {L} items from {support} with positive weight")
    if L == support:
        return sorted(np.flatnonzero(w > 0).tolist())
    ws = w / w.max()
    # suffix[r][l] = e_l(ws[r:]): the table of the reversed weights, reversed;
    # Python floats do the same double arithmetic as numpy scalars, faster
    suffix = esp_table(ws[::-1], L)[::-1].tolist()
    chosen = []
    q = L
    for r, wr in enumerate(ws.tolist()):
        if q == 0:
            break
        if suffix[r + 1][q] == 0.0:
            # all remaining positive-weight items are forced
            p_in = 1.0
        else:
            p_in = wr * suffix[r + 1][q - 1] / suffix[r][q]
        if rng.random() < p_in:
            chosen.append(r)
            q -= 1
    return chosen


def sample_fixed_size_rows(w, L, rng):
    """One draw per row m of w (n, A) from the size-L[m] fixed-size law,
    the picks in item order, rows concatenated.

    Every row's suffix table comes from one ``esp_table`` call at degree
    L.max(), and each item takes one uniform per row until every row is
    full.  Rows forced by their support are full from the start, so on one
    row this consumes the uniforms and picks the subset ``sample_fixed_size``
    does.
    """
    w = np.asarray(w, dtype=np.float64)
    L = np.asarray(L, dtype=np.intp)
    if (w < 0).any():
        raise ValueError("negative weight")
    support = (w > 0).sum(axis=1)
    if (L > support).any():
        raise ValueError("cannot draw more items than have positive weight")
    forced = L == support
    chosen = (w > 0) & forced[:, None]
    q = np.where(forced, 0, L)
    rows = np.arange(len(w))
    # rows that are full or all zero read 0/0 below; they take no pick
    with np.errstate(divide="ignore", invalid="ignore"):
        ws = w / w.max(axis=1, keepdims=True)
        suffix = esp_table(ws[:, ::-1], int(L.max(initial=0)))[:, ::-1]
        for r in range(w.shape[1]):
            live = q > 0
            if not live.any():
                break
            u = rng.random(len(w))
            ql = np.maximum(q, 1)
            p_in = np.where(suffix[rows, r + 1, ql] == 0.0, 1.0,
                            ws[:, r] * suffix[rows, r + 1, ql - 1]
                            / suffix[rows, r, ql])
            pick = live & (u < p_in)
            chosen[:, r] |= pick
            q -= pick
    return np.nonzero(chosen)[1]

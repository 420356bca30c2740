"""Recomputations made apart from the library, for the benchmark's checks.

Both functions work from the raw event rows and trait matrix that
``inputs.read_events`` / ``inputs.read_traits`` parse, enumerate the
history directly, and share no code with the library's replay.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

# Age-bin boundaries of the library's default scheme (7.5 min * 4^k).
DEFAULT_BOUNDARIES = [450.0 * 4 ** k for k in range(1, 7)]


def rel_diff(a, b, floor=1.0):
    """max |a - b| over max(floor, max |b|)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.abs(a - b).max() / max(floor, np.abs(b).max()))


def _trait_column(names, traits, name):
    if name == "1":
        return np.ones(traits.shape[0])
    return traits[:, names.index(name)]


def _static_cube(names, traits, terms):
    """(A, A, len(terms)): entry [i, j, k] is sender trait x times receiver
    trait y for term k = "x*y"."""
    cols = []
    for term in terms:
        x, y = term.split("*")
        cols.append(np.outer(_trait_column(names, traits, x),
                             _trait_column(names, traits, y)))
    return np.stack(cols, axis=-1)


def pairwise_logpl_score(rows, names, traits, spec, beta):
    """Pairwise log partial likelihood and score of a static + dyadic
    indicator model, by a plain softmax over every other actor per event.

    The dyadic columns are "i has sent to j before t" (send) and "j has
    sent to i before t" (receive), in the spec's order.  Returns (logpl,
    score, scale), where scale sums |x| of the observed rows: the size of
    the terms the score's two halves cancel, which sets its rounding floor.
    """
    A = traits.shape[0]
    S = _static_cube(names, traits, spec["static"])
    dyadic = [d["effect"] for d in spec["dyadic"]]
    if any(d["form"] != "indicator" for d in spec["dyadic"]) or spec["triadic"]:
        raise ValueError("only static and dyadic indicator terms are covered")
    sent = np.zeros((A, A), dtype=bool)
    pending, last_t = [], None
    logpl, score, scale = 0.0, np.zeros(len(beta)), np.zeros(len(beta))
    for t, i, recv in sorted(rows, key=lambda r: r[0]):
        if t != last_t:                # strict past: same-time records wait
            for a, b in pending:
                sent[a, b] = True
            pending, last_t = [], t
        dyn = [sent[i] if e == "send" else sent[:, i] for e in dyadic]
        X = np.column_stack([S[i]] + [d.astype(float) for d in dyn])
        s = X @ beta
        s[i] = -np.inf
        c = s.max()
        w = np.exp(s - c)
        W = w.sum()
        E = (w / W) @ X
        for j in recv:
            logpl += s[j] - (c + np.log(W))
            score += X[j] - E
            scale += np.abs(X[j])
            pending.append((i, j))
    return logpl, score, scale


def brute_rows(rows, names, traits, spec, queries):
    """Design rows recomputed from the raw event list.

    ``queries`` holds (m, j): event m of the time-sorted stream and a
    receiver j.  Follows the library's term layout; bin k holds records
    whose age t - s lies in (b[k-1], b[k]], with b[0] = 0, b[K] = inf.
    Every record pair is enumerated afresh for each query.
    """
    rows = sorted(rows, key=lambda r: r[0])
    bounds = np.array([0.0] + list(spec.get("intervals_seconds")
                                   or DEFAULT_BOUNDARIES) + [np.inf])
    K = len(bounds) - 1
    S = _static_cube(names, traits, spec["static"])
    A = traits.shape[0]
    times = defaultdict(list)
    for t, a, recv in rows:
        for b in recv:
            times[(a, b)].append(t)

    legs = {"2-send": lambda i, j, h: ((i, h), (h, j)),
            "2-receive": lambda i, j, h: ((h, i), (j, h)),
            "sibling": lambda i, j, h: ((h, i), (h, j)),
            "cosibling": lambda i, j, h: ((i, h), (j, h))}

    out = []
    for m, j in queries:
        t, i, _ = rows[m]

        def binned(a, b):
            counts = np.zeros(K)
            for s in times.get((a, b), ()):
                if s < t:
                    age = t - s
                    k = int(np.flatnonzero((bounds[:-1] < age) & (age <= bounds[1:]))[0])
                    counts[k] += 1
            return counts

        def ever(a, b):
            return any(s < t for s in times.get((a, b), ()))

        x = list(S[i, j])
        for d in spec["dyadic"]:
            pair = (i, j) if d["effect"] == "send" else (j, i)
            if d["form"] in ("indicator", "both"):
                x.append(1.0 if ever(*pair) else 0.0)
            if d["form"] in ("binned", "both"):
                x.extend(binned(*pair))
        for d in spec["triadic"]:
            mids = [h for h in range(A) if h not in (i, j)]
            if d["form"] in ("indicator", "both"):
                x.append(float(any(ever(*f) and ever(*s) for f, s in
                                   (legs[d["effect"]](i, j, h) for h in mids))))
            if d["form"] in ("binned", "both"):
                mat = np.zeros((K, K))
                for h in mids:
                    first, second = legs[d["effect"]](i, j, h)
                    mat += np.outer(binned(*first), binned(*second))
                x.extend(mat.ravel())
        out.append(np.array(x))
    return out

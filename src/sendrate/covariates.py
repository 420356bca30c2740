"""Covariate construction: static trait interactions and recency-binned
network effects maintained incrementally over an event stream.

The design vector for a directed pair splits into a static part, fixed by the
actors' traits, and a dynamic part driven by the interaction history.  The
dynamic part is sparse: it is exactly zero unless the pair has interacted or
shares a middle actor, and the state tracks that support explicitly.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .events import StreamError, require_keys

DYADIC_EFFECTS = ("send", "receive")
TRIADIC_EFFECTS = ("2-send", "2-receive", "sibling", "cosibling")
FORMS = ("indicator", "binned", "both")

#: Age-bin boundaries used in the e-mail analysis: 7.5 minutes times 4^k,
#: k = 1..6, i.e. 30m, 2h, 8h, 32h, 5.33d, 21.33d; the last bin is unbounded.
DEFAULT_BOUNDARIES = tuple(450.0 * 4 ** k for k in range(1, 7))


class IntervalScheme:
    """Partition of elapsed age into K half-open bins.

    ``boundaries`` are the finite cut points b_1 < ... < b_{K-1} (positive);
    with b_0 = 0 and b_K = inf, bin k for k = 1..K is (b_{k-1}, b_k] in age.
    Ages are measured backward from the query time, so a record of age 0
    (the current instant) falls in no bin, and a record exactly b_k old is
    still in bin k.
    """

    def __init__(self, boundaries=DEFAULT_BOUNDARIES):
        try:
            b = [float(x) for x in boundaries]
        except (TypeError, ValueError):
            raise StreamError(
                f"boundaries must be numbers, got {boundaries!r}") from None
        if not b or not all(0 < x < math.inf for x in b) or any(
                y <= x for x, y in zip(b, b[1:])):
            raise StreamError("boundaries must be finite, positive, increasing")
        self.boundaries = tuple(b)

    @property
    def K(self):
        return len(self.boundaries) + 1


#: Per triadic effect, the D slot half of its first leg (0: i->h, 1: h->i)
#: and of its second leg (0: h->j, 1: j->h).
_LEGS = {"2-send": (0, 0), "cosibling": (0, 1), "2-receive": (1, 1),
         "sibling": (1, 0)}


class CovariateSpec:
    """Declarative list of covariate terms, and the layout of its columns.

    static_terms: strings "X*Y" with X a sender trait or "1", Y a receiver
    trait.  Sender-only terms "X*1" are rejected: a component constant in
    the receiver cannot be identified.  dyadic/triadic: (effect, form)
    pairs, form in {"indicator", "binned", "both"}.

    ``term_names`` lists the columns, static ones first; ``slots`` gives
    each dynamic column's position in the block ``DynamicState.rows``
    gathers: D[i, j], then the two-path slots of each side in ``sides``.
    """

    def __init__(self, static_terms=(), dyadic=(), triadic=(),
                 scheme=None):
        self.scheme = scheme or IntervalScheme()
        self.static_terms = []
        for term in static_terms:
            x, _, y = str(term).partition("*")
            if not y or not isinstance(term, str):
                raise StreamError(f"static term {term!r} must be 'X*Y'")
            if y == "1":
                raise StreamError(
                    f"term {term!r} is constant in the receiver and cannot "
                    "be identified")
            self.static_terms.append((x, y))
        self.dyadic = self._check(dyadic, DYADIC_EFFECTS)
        self.triadic = self._check(triadic, TRIADIC_EFFECTS)
        self._build_layout()

    @staticmethod
    def _check(entries, allowed):
        out = []
        for effect, form in entries:
            if effect not in allowed:
                raise StreamError(f"unknown effect {effect!r}")
            if form not in FORMS:
                raise StreamError(f"unknown form {form!r}")
            out.append((effect, form))
        return out

    def _build_layout(self):
        """Each column's name and, if dynamic, its slot, in one pass."""
        K1 = self.scheme.K + 1
        bins = range(1, K1)
        self.sides = sorted({_LEGS[e][0] for e, _ in self.triadic})
        base = {s: 2 * K1 * (1 + n * K1) for n, s in enumerate(self.sides)}
        terms = self.dyadic + self.triadic
        cols = []       # (name, slot) of each dynamic column
        for effect, form in terms:
            if effect in DYADIC_EFFECTS:
                flag = K1 * (effect == "receive")
                binned = [(f"{effect}[{k}]", flag + k) for k in bins]
            else:   # first-leg slot k, second-leg slot l of D[h, j]
                side, other = _LEGS[effect]
                flag = base[side] + other * K1
                binned = [(f"{effect}[{k},{l}]", flag + 2 * K1 * k + l)
                          for k in bins for l in bins]
            cols += [(effect, flag)] * (form != "binned")
            cols += binned * (form != "indicator")
        self.term_names = names = [
            f"{x}*{y}" for x, y in self.static_terms] + [n for n, _ in cols]
        if len(set(names)) < len(names):
            twice = next(n for k, n in enumerate(names) if n in names[:k])
            raise StreamError(f"covariate column {twice!r} listed twice")
        self.slots = np.array([slot for _, slot in cols], dtype=np.intp)
        self.dim = len(self.term_names)
        self.static_dim = len(self.static_terms)
        self.has_triadic = bool(self.triadic)
        self.has_binned = any(f != "indicator" for _, f in terms)

    def to_json(self):
        return {
            "static": [f"{x}*{y}" for x, y in self.static_terms],
            "dyadic": [{"effect": e, "form": f} for e, f in self.dyadic],
            "triadic": [{"effect": e, "form": f} for e, f in self.triadic],
            "intervals_seconds": list(self.scheme.boundaries),
        }

    @classmethod
    def from_json(cls, obj):
        require_keys(obj, (), "covariate spec")

        def entries(key):
            value = obj.get(key, [])
            if not isinstance(value, list):
                raise StreamError(f"covariate spec: {key}: expected a list")
            return value

        def pairs(key):
            for d in entries(key):
                require_keys(d, ("effect",), "covariate spec entry")
            return [(d["effect"], d.get("form", "indicator"))
                    for d in entries(key)]
        try:
            scheme = IntervalScheme(obj.get("intervals_seconds",
                                            DEFAULT_BOUNDARIES))
        except StreamError as exc:
            raise StreamError(f"intervals_seconds: {exc}") from None
        return cls(static_terms=entries("static"), dyadic=pairs("dyadic"),
                   triadic=pairs("triadic"), scheme=scheme)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json(json.load(fh))

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2)


def second_order_static_terms(names):
    """All identifiable second-order trait interactions: 1*Y and X*Y."""
    return [f"1*{y}" for y in names] + [f"{x}*{y}" for x in names for y in names]


class StaticDesign:
    """Static part of the design, grouped by sender equivalence class.

    Two senders share a class when their trait rows agree, in which case the
    whole static design matrix over receivers is identical.  ``x0(c)`` is the
    (actor_count x p) matrix for class c with dynamic columns zero.
    """

    def __init__(self, spec, traits, actor_count):
        self.spec = spec
        self.actor_count = actor_count
        p = spec.dim
        if spec.static_terms and traits is None:
            raise StreamError("static terms require actor traits")
        if traits is not None and traits.names and traits.actor_count != actor_count:
            raise StreamError("trait row count does not match actor count")
        if spec.static_terms:
            sender_cols = np.column_stack(
                [traits.column(x) for x, _ in spec.static_terms])
            recv_cols = np.column_stack(
                [traits.column(y) for _, y in spec.static_terms])
            rows = [tuple(r) for r in sender_cols]
        else:
            sender_cols = np.zeros((actor_count, 0))
            recv_cols = np.zeros((actor_count, 0))
            rows = [()] * actor_count
        uniq = sorted(set(rows))
        self.class_of = np.array([uniq.index(r) for r in rows])
        self.n_classes = len(uniq)
        self._x0 = np.zeros((self.n_classes, actor_count, p))
        for c, row in enumerate(uniq):
            self._x0[c, :, :spec.static_dim] = recv_cols * np.asarray(row)
        self._x0.setflags(write=False)

    def x0(self, c):
        return self._x0[c]

    def x0_pair(self, i, j):
        return self._x0[self.class_of[i], j]


class DynamicState:
    """Interaction history as dense counts kept current at the query time.

    ``D[a, b, 1:K+1]`` counts the a->b records in age bins 1..K at the last
    query time t; ``D[a, b, 0]`` is 1 if any a->b record is in the strict
    past (visibility), else 0; ``D[a, b, K+1:]`` holds the same slots of
    b->a, so one gather ``D[i, js]`` reads both directions of every pair.
    D takes 2*A^2*(K+1) doubles (2.8 MB at A = 156, K = 7).

    K pointers into the time-ordered records follow the query time: pointer
    0 counts the records older than t and pointer k those older than
    t - b_k, so passing pointer k moves a record from bin k to bin k+1
    (pointer 0: into bin 1).  Queries only go forward in time, as replay
    and the simulator make them.  These are the bin definition's float
    comparisons ``tau < t - b_k``, so every count is exact.  A self-loop
    a->a enters no count: (i, i) has no dynamic design, and no triadic
    middle actor h is i or j.  The sparse support, a superset of the
    receivers whose dynamic row can be non-zero, is kept as a boolean
    matrix; ``support(i)`` is sender i's row of it, and replay calls
    ``rows`` on its members.  The column layout is the spec's ``slots``.

    Without triadic terms, sender i's rows read only D[i] and its support
    row, so the state keeps a private change count per actor: ``_move``
    adds one to an actor when a slot of its D row that a column reads
    changes value, and ``advance`` when its support row gains a member.
    While i's count stands, ``rows`` gives i the rows it gave before.  A
    triadic row also reads the records of i's neighbours' pairs, so with
    triadic terms there is no count and ``_stamp`` gives None.
    """

    def __init__(self, spec, actor_count):
        self.spec = spec
        self.current_time = -np.inf
        self._K1 = K1 = spec.scheme.K + 1
        self.D = np.zeros((actor_count, actor_count, 2 * K1))
        self._times = []              # record times, ascending
        self._pairs = []              # record (a, b), same order
        self._ptr = [0] * (K1 - 1)
        self._synced = (-np.inf, 0)   # query time and record count of D
        self._seen = np.zeros((actor_count, actor_count), dtype=bool)
        self._active = np.zeros((actor_count, actor_count), dtype=bool)
        self._count = None
        if not spec.has_triadic:
            self._count = [0] * actor_count
            # whether a move changes a read slot of a's and of b's D row:
            # move k changes slots k and k+1 (k = 0: the flags and slot 1);
            # the last entry is a move 0 whose flags stand (slot 1 alone)
            reads = np.zeros(2 * K1, dtype=bool)
            reads[spec.slots] = True
            self._hits = [(bool(reads[lo:hi].any()),
                           bool(reads[K1 + lo:K1 + hi].any()))
                          for lo, hi in [(k, k + 2) for k in range(K1 - 1)]
                          + [(1, 2)]]

    def advance(self, event):
        """Fold one event into the state.  Time must not regress."""
        t, a = event.time, event.sender
        if t < self.current_time:
            raise StreamError(
                f"time regression: {t} < {self.current_time}")
        for b in event.receivers:
            if a != b:
                self._times.append(t)
                self._pairs.append((a, b))
            if not self._seen[a, b]:
                self._seen[a, b] = True
                # the support depends only on which pairs ever interacted
                for u, near in self._links(a, b):
                    if self._count is not None:
                        # symmetric: v joins u's row just as u joins v's
                        fresh = np.flatnonzero(near & ~self._active[u])
                        if len(fresh):
                            for v in [u, *fresh.tolist()]:
                                self._count[v] += 1
                    self._active[u, near] = self._active[near, u] = True
        self.current_time = t

    def _links(self, a, b):
        """Per endpoint u of the record a->b, a mask of the actors v such
        that (u, v) and (v, u) can change their dynamic design when the
        record is created or changes bins."""
        seen = self._seen
        near_a, near_b = np.zeros((2, len(seen)), dtype=bool)
        near_a[b] = True
        if self.spec.has_triadic:
            # a->b as a first leg (h = b) or second leg (h = a): at a, with
            # b's in- and out-neighbours; at b, with a's
            near_a |= seen[b] | seen[:, b]
            near_b |= seen[a] | seen[:, a]
        near_a[a] = near_b[b] = False
        return (a, near_a), (b, near_b)

    def affected_pairs(self, a, b):
        """Directed pairs whose dynamic design can change when the record
        a->b is created or changes bins."""
        if not self.spec.has_triadic:
            return [(a, b), (b, a)] if a != b else []
        pairs = set()
        for u, near in self._links(a, b):
            for v in np.flatnonzero(near).tolist():
                pairs.update(((u, v), (v, u)))
        return list(pairs)

    def _sync(self, t):
        """Move the pointers, and the records they pass, forward to query
        time t."""
        times, ptr, n = self._times, self._ptr, len(self._times)
        if (t, n) == self._synced:
            return
        if t < self._synced[0]:
            raise StreamError(
                f"query back in time: {t} < {self._synced[0]}")
        cuts = [t] + [t - b for b in self.spec.scheme.boundaries]
        for k, cut in enumerate(cuts):
            while ptr[k] < n and times[ptr[k]] < cut:
                self._move(ptr[k], k)
                ptr[k] += 1
        self._synced = (t, n)

    def _move(self, r, k):
        """Move record r from bin k into bin k+1; from k = 0 it enters the
        strict past, which sets its pair's visibility flags."""
        a, b = self._pairs[r]
        D, K1 = self.D, self._K1
        if self._count is not None:
            # a move 0 that finds the flags set changes slot 1 alone
            hit_a, hit_b = self._hits[-1 if not k and D[a, b, 0] else k]
            self._count[a] += hit_a
            self._count[b] += hit_b
        if k:
            D[a, b, k] -= 1.0
            D[b, a, K1 + k] -= 1.0
        else:
            D[a, b, 0] = D[b, a, K1] = 1.0
        D[a, b, k + 1] += 1.0
        D[b, a, K1 + k + 1] += 1.0

    # -- queries (strict past: records at exactly t do not count) ---------

    def _paths(self, side, i, js):
        """Two-paths from i to each of js whose first leg is i->h (side 0)
        or h->i (side 1): (len(js), K1 * 2*K1), slot (k, c) summing first-leg
        slot k times slot c of D[h, j] over the middle actors h.  The
        visibility products (k = 0, c = 0 or K1) are clipped to 0/1 flags."""
        D, K1, A = self.D, self._K1, len(self.D)
        first = D[i, :, side * K1:(side + 1) * K1]
        # only middle actors with a visible first leg contribute
        hs = np.flatnonzero(first[:, 0])
        m = (first[hs].T @ D.reshape(A, -1)[hs]).reshape(K1, A, 2 * K1)
        np.minimum(m[0, :, ::K1], 1.0, out=m[0, :, ::K1])
        return m[:, js].transpose(1, 0, 2).reshape(len(js), 2 * K1 * K1)

    def rows(self, t, i, js):
        """Dynamic design rows toward receivers ``js`` at time t of sender
        i, or of sender i[r] for receiver js[r]: a (len(js), p) array,
        static columns zero."""
        self._sync(t)
        spec, js = self.spec, np.asarray(js, dtype=np.intp)
        if spec.sides and np.ndim(i):
            out = np.empty((len(js), spec.dim))
            for a in np.unique(i):
                out[i == a] = self.rows(t, a, js[i == a])
            return out
        block = self.D[i, js]
        if spec.sides:
            block = np.concatenate(
                [block] + [self._paths(s, i, js) for s in spec.sides], axis=1)
        out = np.zeros((len(js), spec.dim))
        out[:, spec.static_dim:] = block[:, spec.slots]
        return out

    def _stamp(self, t, i):
        """Sender i's change count at time t, or None with triadic terms:
        equal stamps give equal rows and support."""
        self._sync(t)
        return None if self._count is None else self._count[i]

    def support(self, i):
        """Sparse support of sender i: a boolean row over the receivers,
        true wherever the dynamic row can be non-zero (never at i)."""
        return self._active[i]

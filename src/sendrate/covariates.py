"""Covariate construction: static trait interactions and recency-binned
network effects maintained incrementally over an event stream.

The design vector for a directed pair splits into a static part, fixed by the
actors' traits, and a dynamic part driven by the interaction history.  The
dynamic part is sparse: it is exactly zero unless the pair has interacted or
shares a middle actor, and the state tracks that support explicitly.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .events import StreamError

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
        b = [float(x) for x in boundaries]
        if not b or any(x <= 0 for x in b) or any(
                y <= x for x, y in zip(b, b[1:])):
            raise StreamError("boundaries must be positive and increasing")
        self.boundaries = tuple(b)

    @property
    def K(self):
        return len(self.boundaries) + 1

    def bin_of(self, age):
        """1-based bin index for an elapsed age."""
        if age < 0:
            raise StreamError("negative age")
        return bisect_left(self.boundaries, age) + 1

    def bin_counts(self, times, t):
        """Counts of ``times`` (ascending) per age bin at query time t.

        Strict past: a record at exactly t has age 0 and is excluded.
        """
        K = self.K
        out = np.zeros(K, dtype=np.float64)
        hi = bisect_left(times, t)
        for k in range(1, K):
            lo = bisect_left(times, t - self.boundaries[k - 1])
            out[k - 1] = hi - lo
            hi = lo
        out[K - 1] = hi
        return out


@dataclass(frozen=True)
class EffectTerm:
    family: str          # "static", "dyadic", "triadic"
    effect: str          # "X*Y" or an effect name
    form: str            # "static", "indicator", "binned"


class CovariateSpec:
    """Declarative list of covariate terms.

    static_terms: strings "X*Y" with X a sender trait or "1", Y a receiver
    trait.  Sender-only terms "X*1" are rejected: a component constant in
    the receiver cannot be identified.  dyadic/triadic: (effect, form)
    pairs, form in {"indicator", "binned", "both"}.
    """

    def __init__(self, static_terms=(), dyadic=(), triadic=(),
                 scheme=None):
        self.scheme = scheme or IntervalScheme()
        self.static_terms = []
        for term in static_terms:
            x, _, y = term.partition("*")
            if not y:
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
        K = self.scheme.K
        names = [f"{x}*{y}" for x, y in self.static_terms]
        terms = [EffectTerm("static", f"{x}*{y}", "static")
                 for x, y in self.static_terms]
        for effect, form in self.dyadic:
            if form in ("indicator", "both"):
                names.append(effect)
                terms.append(EffectTerm("dyadic", effect, "indicator"))
            if form in ("binned", "both"):
                names += [f"{effect}[{k}]" for k in range(1, K + 1)]
                terms += [EffectTerm("dyadic", effect, "binned")] * K
        for effect, form in self.triadic:
            if form in ("indicator", "both"):
                names.append(effect)
                terms.append(EffectTerm("triadic", effect, "indicator"))
            if form in ("binned", "both"):
                names += [f"{effect}[{k},{l}]"
                          for k in range(1, K + 1) for l in range(1, K + 1)]
                terms += [EffectTerm("triadic", effect, "binned")] * (K * K)
        self.term_names = names
        self.terms = terms
        self.dim = len(names)
        self.static_dim = len(self.static_terms)
        self.has_triadic = bool(self.triadic)
        self.has_binned = any(f in ("binned", "both")
                              for _, f in self.dyadic + self.triadic)

    @property
    def dynamic_dim(self):
        return self.dim - self.static_dim

    def to_json(self):
        return {
            "static": [f"{x}*{y}" for x, y in self.static_terms],
            "dyadic": [{"effect": e, "form": f} for e, f in self.dyadic],
            "triadic": [{"effect": e, "form": f} for e, f in self.triadic],
            "intervals_seconds": list(self.scheme.boundaries),
        }

    @classmethod
    def from_json(cls, obj):
        def pairs(entries):
            return [(d["effect"], d.get("form", "indicator")) for d in entries]
        scheme = IntervalScheme(obj["intervals_seconds"]) \
            if obj.get("intervals_seconds") else IntervalScheme()
        return cls(static_terms=obj.get("static", ()),
                   dyadic=pairs(obj.get("dyadic", ())),
                   triadic=pairs(obj.get("triadic", ())),
                   scheme=scheme)

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
    """Incrementally maintained history sufficient for the dynamic design.

    Per directed pair, timestamps are kept in ascending order and binned
    lazily at query time (memoized per (pair, t) until the next advance).
    ``active(i)`` is the sparse support: every j with a possibly nonzero
    dynamic component for sender i, per the families the spec selects.
    """

    def __init__(self, spec, actor_count):
        self.spec = spec
        self.actor_count = actor_count
        self.current_time = -np.inf
        self.pair_times = {}          # (i, j) -> ascending list of times
        self.out_set = [set() for _ in range(actor_count)]
        self.in_set = [set() for _ in range(actor_count)]
        self._active = [set() for _ in range(actor_count)]
        self._bin_cache = {}

    # -- updates ---------------------------------------------------------

    def advance(self, event):
        """Fold one event into the state.  Time must not regress."""
        t, a = event.time, event.sender
        if t < self.current_time:
            raise StreamError(
                f"time regression: {t} < {self.current_time}")
        for b in event.receivers:
            self._record(t, a, b)
        self.current_time = t
        self._bin_cache.clear()

    def _record(self, t, a, b):
        self.pair_times.setdefault((a, b), []).append(t)
        self.out_set[a].add(b)
        self.in_set[b].add(a)
        for i, j in self.affected_pairs(a, b):
            self._active[i].add(j)

    def affected_pairs(self, a, b):
        """Directed pairs whose dynamic design can change when the record
        a->b is created or changes bins."""
        pairs = {(a, b), (b, a)}
        if self.spec.has_triadic:
            # a->b as the first leg (h = b) or the second leg (h = a)
            for y in self.out_set[b]:
                pairs.add((a, y))      # 2-send: a->b, b->y
                pairs.add((y, a))      # 2-receive: b->y seen from y's side
            for x in self.in_set[a]:
                pairs.add((x, b))      # 2-send: x->a, a->b
                pairs.add((b, x))      # 2-receive
            for y in self.out_set[a]:
                pairs.add((b, y))      # sibling: a->b, a->y
                pairs.add((y, b))
            for x in self.in_set[b]:
                pairs.add((a, x))      # cosibling: a->b, x->b
                pairs.add((x, a))
        return [(i, j) for i, j in pairs if i != j]

    # -- queries (strict past: records at exactly t do not count) ---------

    def _bins(self, i, j, t):
        key = (i, j, t)
        hit = self._bin_cache.get(key)
        if hit is not None:
            return hit
        times = self.pair_times.get((i, j))
        if not times:
            out = np.zeros(self.spec.scheme.K)
        else:
            out = self.spec.scheme.bin_counts(times, t)
        self._bin_cache[key] = out
        return out

    def _had(self, i, j, t):
        """Whether any i->j record strictly precedes t."""
        times = self.pair_times.get((i, j))
        return bool(times) and times[0] < t

    def dyadic_counts(self, t, i, j):
        """(send, receive) binned counts for the pair at time t."""
        return self._bins(i, j, t), self._bins(j, i, t)

    def _triadic_mids(self, effect, i, j):
        if effect == "2-send":
            cand = self.out_set[i] & self.in_set[j]
        elif effect == "2-receive":
            cand = self.in_set[i] & self.out_set[j]
        elif effect == "sibling":
            cand = self.in_set[i] & self.in_set[j]
        else:
            cand = self.out_set[i] & self.out_set[j]
        return cand - {i, j}

    def _triadic_legs(self, effect, i, j, h):
        if effect == "2-send":
            return (i, h), (h, j)
        if effect == "2-receive":
            return (h, i), (j, h)
        if effect == "sibling":
            return (h, i), (h, j)
        return (i, h), (j, h)

    def triadic_counts(self, t, i, j, effects=TRIADIC_EFFECTS):
        """Dict effect -> K x K matrix of middle-actor leg-pair counts."""
        K = self.spec.scheme.K
        bins = self._bins
        out = {}
        for effect in effects:
            mids = self._triadic_mids(effect, i, j)
            if mids:
                legs = [self._triadic_legs(effect, i, j, h) for h in mids]
                first = np.asarray([bins(*f, t) for f, _ in legs])
                second = np.asarray([bins(*s, t) for _, s in legs])
                out[effect] = first.T @ second
            else:
                out[effect] = np.zeros((K, K))
        return out

    def _triadic_indicator(self, effect, i, j, t):
        for h in self._triadic_mids(effect, i, j):
            first, second = self._triadic_legs(effect, i, j, h)
            if self._had(*first, t) and self._had(*second, t):
                return 1.0
        return 0.0

    def delta_x(self, t, i, j, out=None):
        """Dynamic design vector for pair (i, j) at time t (full length p,
        static slots zero)."""
        spec = self.spec
        if out is None:
            out = np.zeros(spec.dim)
        pos = spec.static_dim
        K = spec.scheme.K
        for effect, form in spec.dyadic:
            pair = (i, j) if effect == "send" else (j, i)
            if form in ("indicator", "both"):
                out[pos] = 1.0 if self._had(*pair, t) else 0.0
                pos += 1
            if form in ("binned", "both"):
                out[pos:pos + K] = self._bins(*pair, t)
                pos += K
        tri = None
        for effect, form in spec.triadic:
            if form in ("indicator", "both"):
                out[pos] = self._triadic_indicator(effect, i, j, t)
                pos += 1
            if form in ("binned", "both"):
                if tri is None:
                    wanted = [e for e, f in spec.triadic
                              if f in ("binned", "both")]
                    tri = self.triadic_counts(t, i, j, effects=wanted)
                out[pos:pos + K * K] = tri[effect].ravel()
                pos += K * K
        return out

    def active_receivers(self, i):
        """Sparse support: superset of {j : delta_x(., i, j) != 0}."""
        return self._active[i]

    def delta_rows(self, t, i):
        """(sorted receiver ids, matrix of delta_x rows) for sender i."""
        js = sorted(self._active[i])
        dx = np.zeros((len(js), self.spec.dim))
        for r, j in enumerate(js):
            self.delta_x(t, i, j, out=dx[r])
        return js, dx


def covariate_vector(state, static_design, t, i, j):
    """Full design vector x_t(i, j) = static + dynamic."""
    x = static_design.x0_pair(i, j).copy()
    return state.delta_x(t, i, j, out=x)

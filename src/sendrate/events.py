"""Event streams, actor traits, and risk-set policies.

An interaction stream is an ordered sequence of (time, sender, receiver set)
records over a fixed registry of actors with dense 0-based ids.  Ingestion
validates, sorts, and applies the recipient-count cutoff; everything after
construction is immutable.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

DEFAULT_RECIPIENT_CUTOFF = 5


class StreamError(ValueError):
    """Malformed or inconsistent interaction data."""


def require_keys(obj, keys, what):
    """Raise StreamError unless the JSON value ``obj`` is an object with
    every one of ``keys``."""
    if not isinstance(obj, dict):
        raise StreamError(f"{what}: expected a JSON object")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise StreamError(f"{what}: missing {', '.join(map(repr, missing))}")


class MalformedRowError(StreamError):
    def __init__(self, line, message):
        self.line = line
        super().__init__(f"line {line}: {message}")


@dataclass(frozen=True)
class Event:
    """One multicast interaction: sender -> set of receivers at a time."""

    time: float
    sender: int
    receivers: tuple[int, ...]

    def __post_init__(self):
        recv = tuple(sorted(set(self.receivers)))
        if not recv:
            raise StreamError("event has no receivers")
        object.__setattr__(self, "receivers", recv)

    @property
    def size(self):
        return len(self.receivers)


class EventStream:
    """Time-sorted sequence of events over ``actor_count`` actors.

    Parameters
    ----------
    events : sequence of Event
        Must reference actor ids < actor_count, with no sender among its
        receivers.  Sorted by time at construction (stable, so equal
        timestamps keep input order).
    actor_count : int
    traits : ActorTraits, optional
    original_ids : sequence, optional
        Labels from the source file, index -> original id.  Used by export
        so densified streams round-trip.
    """

    def __init__(self, events, actor_count, traits=None, original_ids=None):
        if actor_count <= 0:
            raise StreamError("actor_count must be positive")
        events = sorted(events, key=lambda e: e.time)
        for e in events:
            if not (0 <= e.sender < actor_count):
                raise StreamError(f"sender {e.sender} outside actor registry")
            for j in e.receivers:
                if not (0 <= j < actor_count):
                    raise StreamError(f"receiver {j} outside actor registry")
            if e.sender in e.receivers:
                raise StreamError(
                    f"event at t={e.time} lists sender {e.sender} as receiver")
        if not events:
            raise StreamError("empty event stream")
        self.events = tuple(events)
        self.actor_count = int(actor_count)
        self.traits = traits
        if original_ids is None:
            original_ids = list(range(actor_count))
        self.original_ids = list(original_ids)

    def __len__(self):
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __getitem__(self, m):
        return self.events[m]


class ActorTraits:
    """Binary trait indicators, one row per actor, named columns."""

    def __init__(self, names, matrix):
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[1] != len(names):
            raise StreamError("trait matrix shape does not match names")
        if not np.isin(matrix, (0, 1)).all():
            raise StreamError("trait entries must be 0/1")
        for k, name in enumerate(names):
            if name in names[:k]:
                raise StreamError(f"trait {name!r} named twice")
        self.names = list(names)
        self.matrix = matrix.astype(np.float64)
        self.matrix.setflags(write=False)

    @property
    def actor_count(self):
        return self.matrix.shape[0]

    def column(self, name):
        if name == "1":
            return np.ones(self.actor_count)
        try:
            k = self.names.index(name)
        except ValueError:
            raise StreamError(f"unknown trait {name!r}") from None
        return self.matrix[:, k]

    def with_products(self, pairs):
        """Return a copy with product columns X.Y appended for (X, Y) pairs."""
        names = list(self.names)
        cols = [self.matrix]
        for x, y in pairs:
            names.append(x + y)
            cols.append((self.column(x) * self.column(y))[:, None])
        return ActorTraits(names, np.hstack(cols))


class RiskSetPolicy:
    """Receiver eligibility: who sender i may contact at time t.

    Modes: ``all-but-sender`` (default), ``static`` per-sender sets, or a
    ``callback(t, i) -> iterable`` for time-varying policies.  ``mask`` is
    the one query; it raises StreamError naming the sender when the policy
    gives it no set, or a set holding an id outside the registry or the
    sender itself.
    """

    def __init__(self, mode="all-but-sender", static_sets=None, callback=None):
        if mode not in ("all-but-sender", "static", "callback"):
            raise StreamError(f"unknown risk-set mode {mode!r}")
        if mode == "static" and static_sets is None:
            raise StreamError("static mode requires per-sender sets")
        if mode == "callback" and callback is None:
            raise StreamError("callback mode requires a callable")
        self.mode = mode
        self.static_sets = static_sets
        self.callback = callback

    def mask(self, t, i, actor_count):
        """Boolean eligibility vector of length actor_count, false at the
        sender, whom no event can pick.  Deterministic in (t, i)."""
        if self.mode == "all-but-sender":
            return np.arange(actor_count) != i
        ids = (self.callback(t, i) if self.mode == "callback"
               else self.static_sets.get(i))
        if ids is None:
            raise StreamError(f"no risk set for sender {i}")
        ids = np.asarray(list(ids))
        if ids.size and (ids.dtype.kind not in "iu" or ids.min() < 0
                         or ids.max() >= actor_count):
            raise StreamError(f"risk set of sender {i} holds ids outside "
                              f"0..{actor_count - 1}")
        if i in ids:
            raise StreamError(f"risk set of sender {i} holds the sender")
        return np.isin(np.arange(actor_count), ids)


@dataclass
class IngestReport:
    total_rows: int = 0
    retained: int = 0
    dropped_oversize: int = 0
    id_map: dict = field(default_factory=dict)


def _csv_row(line):
    """(time, sender, receivers) of a CSV row; receivers are ';'-separated."""
    parts = line.split(",", 2)
    if len(parts) != 3:
        raise ValueError("expected 3 fields")
    recv = [tok for tok in parts[2].strip().strip('"').split(";") if tok]
    return float(parts[0]), int(parts[1]), [int(r) for r in recv]


def _json_row(line):
    """(time, sender, receivers) of a JSONL record, refusing a field that is
    not a number, an integer and an array of integers in turn."""
    obj = json.loads(line)
    t, i, recv = obj["time"], obj["sender"], obj["receivers"]
    ints = lambda values: all(type(v) is int for v in values)  # not bool
    for name, ok in (("time", ints([t]) or type(t) is float),
                     ("sender", ints([i])),
                     ("receivers", type(recv) is list and ints(recv))):
        if not ok:
            raise ValueError(f"{name}: mistyped value {obj[name]!r}")
    return float(t), i, recv


def ingest_events(path, format="csv", cutoff=DEFAULT_RECIPIENT_CUTOFF,
                  actor_count=None, traits=None):
    """Read events from csv or jsonl, validate, sort, apply the cutoff.

    Rows with more receivers than ``cutoff`` are dropped and counted.
    Out-of-order rows are sorted with a warning.  Actor ids are densified
    by order of first appearance unless ``actor_count`` pins an existing
    dense registry.  Returns (EventStream, IngestReport).
    """
    rows = []
    with open(path) as fh:
        if format == "csv":
            if not fh.readline().lower().startswith("time"):
                raise MalformedRowError(1, "expected header time,sender,receivers")
            parse, first = _csv_row, 2
        elif format == "jsonl":
            parse, first = _json_row, 1
        else:
            raise StreamError(f"unknown format {format!r}")
        for lineno, line in enumerate(fh, start=first):
            if not line.strip():
                continue
            try:
                rows.append((lineno, *parse(line.strip())))
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise MalformedRowError(lineno, str(exc)) from None

    report = IngestReport(total_rows=len(rows))
    kept = []
    for lineno, t, sender, recv in rows:
        if not math.isfinite(t):
            raise MalformedRowError(lineno, f"time {t!r} is not finite")
        if not recv:
            raise MalformedRowError(lineno, "empty receiver set")
        if len(set(recv)) > cutoff:
            report.dropped_oversize += 1
            continue
        kept.append((lineno, t, sender, recv))
    report.retained = len(kept)
    if not kept:
        raise StreamError("no events retained")

    if actor_count is None:
        id_map = {}
        for _, _, sender, recv in kept:
            for a in [sender, *recv]:
                if a not in id_map:
                    id_map[a] = len(id_map)
        report.id_map = id_map
        actor_count = len(id_map)
        dense = lambda a: id_map[a]
    else:
        report.id_map = {a: a for a in range(actor_count)}
        for lineno, _, sender, recv in kept:
            for a in [sender, *recv]:
                if not (0 <= a < actor_count):
                    raise MalformedRowError(lineno, f"unknown actor id {a}")
        dense = lambda a: a

    times = [t for _, t, _, _ in kept]
    if any(b < a for a, b in zip(times, times[1:])):
        warnings.warn(f"{path}: events out of order; sorting by time")

    events = [Event(t, dense(s), tuple(dense(r) for r in recv))
              for _, t, s, recv in kept]
    inv = {v: k for k, v in report.id_map.items()}
    stream = EventStream(events, actor_count, traits=traits,
                         original_ids=[inv[k] for k in range(actor_count)])
    return stream, report


def export_events(stream, path, format="csv"):
    """Write a stream back to disk in the ingestion format (original ids)."""
    ids = stream.original_ids
    with open(path, "w") as fh:
        if format == "csv":
            fh.write("time,sender,receivers\n")
            for e in stream:
                recv = ";".join(str(ids[j]) for j in e.receivers)
                fh.write(f"{e.time!r},{ids[e.sender]},{recv}\n")
        elif format == "jsonl":
            for e in stream:
                fh.write(json.dumps({"time": e.time, "sender": ids[e.sender],
                                     "receivers": [ids[j] for j in e.receivers]})
                         + "\n")
        else:
            raise StreamError(f"unknown format {format!r}")


def write_id_map(report, path):
    with open(path, "w") as fh:
        json.dump({str(k): v for k, v in report.id_map.items()}, fh, indent=0)


def ingest_traits(path, product_pairs=None):
    """Read a traits csv (header ``actor,<names...>``, 0/1 entries).

    Rows may appear in any order; the ``actor`` column must cover 0..n-1
    exactly once for n rows, and no trait name may repeat.  Product columns
    are appended when ``product_pairs`` is given.
    """
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header[0] != "actor":
            raise MalformedRowError(1, "expected header actor,<trait names...>")
        names = header[1:]
        for k, name in enumerate(names):
            if name in names[:k]:
                raise MalformedRowError(1, f"trait {name!r} named twice")
        rows = {}
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(header):
                raise MalformedRowError(lineno, "field count mismatch")
            try:
                actor = int(parts[0])
                vals = [int(v) for v in parts[1:]]
            except ValueError as exc:
                raise MalformedRowError(lineno, str(exc)) from None
            if any(v not in (0, 1) for v in vals):
                raise MalformedRowError(lineno, "non-binary trait entry")
            if actor in rows:
                raise MalformedRowError(lineno, f"actor {actor} listed twice")
            rows[actor] = vals
    if set(rows) != set(range(len(rows))):
        raise StreamError(f"trait rows must list actors 0..{len(rows) - 1}")
    matrix = np.array([rows[i] for i in range(len(rows))])
    traits = ActorTraits(names, matrix)
    if product_pairs:
        traits = traits.with_products(product_pairs)
    return traits

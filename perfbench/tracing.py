"""Spans recorded around the benchmark's calls into the library.

A span has a name, a start and an end (``time.perf_counter`` seconds), the
span that was open when it began, and the identifier of the run it belongs
to.  Spans are kept in memory and written out once, when the run ends.  The
same context manager also accumulates each name's duration per round, so
untraced rounds get their stage times from it without keeping any spans.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.enabled = False
        self.spans = []         # (id, parent id or None, name, start, end)
        self._open = []         # ids of the spans now open
        self.durations = defaultdict(float)

    def new_round(self, traced):
        """Start a round: clear its per-name durations, switch spans on/off."""
        self.enabled = traced
        self.durations = defaultdict(float)
        return len(self.spans)

    @contextmanager
    def span(self, name):
        if self.enabled:
            sid = len(self.spans)
            parent = self._open[-1] if self._open else None
            self.spans.append(None)
            self._open.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.durations[name] += end - start
            if self.enabled:
                self._open.pop()
                self.spans[sid] = (sid, parent, name, start, end)

    def self_times(self, first=0):
        """Name -> summed self time of the spans recorded since ``first``.

        Self time is a span's duration minus the time its direct children
        cover; children of one span never overlap, since calls are serial.
        """
        spans = self.spans[first:]
        child_time = defaultdict(float)
        for _, parent, _, start, end in spans:
            if parent is not None:
                child_time[parent] += end - start
        out = defaultdict(float)
        for sid, _, name, start, end in spans:
            out[name] += (end - start) - child_time[sid]
        return dict(out)

    def dump(self, path, extra):
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id,
                       "spans": [{"id": s, "parent": p, "name": n,
                                  "start": a, "end": b}
                                 for s, p, n, a, b in self.spans],
                       **extra}, fh, indent=1)

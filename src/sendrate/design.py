"""Prepared designs: one replay of the stream turns covariate state into
flat per-event arrays the likelihood can evaluate repeatedly.

The replay records, for every event, the sender's class, the observed
receiver set, and the sparse dynamic rows (receiver id, dynamic design row,
risk-set eligibility) that add to the sender class's static design over the
full actor set.  Rows exist for every receiver in the sparse support plus
every actor the risk policy excludes at that instant (at minimum the sender
itself): an excluded actor's row carries the risk-set mask, since the
static design covers every actor.

An event whose sparse rows equal those of its sender's previous event
shares that event's block: the two see the same risk-set weights, so the
likelihood evaluates each block's normalizer and moments once.

The covariate state behind the replay is ``DynamicState``: a dense tensor
of per-pair bin counts and visibility flags, 2*A^2*(K+1) doubles, which K
pointers into the time-ordered records keep current at each event time.
An event's rows are one ``DynamicState.rows`` call: a gather of the
tensor at the active receivers and, for triadic terms, one matrix product
over the sender's middle actors per first-leg direction.
"""

from __future__ import annotations

import numpy as np

from .covariates import DynamicState, StaticDesign
from .events import RiskSetPolicy, StreamError


class ReceiverOutsideRiskSet(StreamError):
    pass


class PreparedDesign:
    """Flat arrays describing the stream for likelihood evaluation.

    Attributes (n events, R sparse rows, p columns, A actors):
      ev_class    (n,)  sender class per event
      ev_sender   (n,)
      ev_size     (n,)  receiver-set size
      ev_risk     (n,)  risk-set cardinality
      xsum        (n,p) sum of design rows over the observed receivers
      row_start   (n+1,) CSR offsets into the row arrays
      row_j       (R,)  receiver id per sparse row (sorted within an event)
      row_inrisk  (R,)  eligibility flag
      dX          (R,p) dynamic design rows
      recv_start/(n+1,), recv_j: observed receiver ids, CSR
      ev_block    (n,)  block id per event
      blk_event   (B,)  first event of each block (its rows are the block's)
    """

    def __init__(self, spec, static, stream, policy):
        self.spec = spec
        self.static = static
        self.policy = policy
        self.actor_count = stream.actor_count
        self.term_names = list(spec.term_names)
        self.p = spec.dim
        self._replay(stream)

    # -- construction ------------------------------------------------------

    def _replay(self, stream):
        spec, static, policy = self.spec, self.static, self.policy
        A = self.actor_count
        n = len(stream)
        p = spec.dim
        all_but_sender = policy.mode == "all-but-sender"

        ev_class = np.empty(n, dtype=np.intp)
        ev_sender = np.empty(n, dtype=np.intp)
        ev_size = np.empty(n, dtype=np.intp)
        ev_risk = np.empty(n, dtype=np.intp)
        xsum = np.zeros((n, p))
        row_start = np.zeros(n + 1, dtype=np.intp)
        recv_start = np.zeros(n + 1, dtype=np.intp)
        row_j_parts, row_risk_parts, dx_parts, recv_parts = [], [], [], []
        ev_block = np.empty(n, dtype=np.intp)
        blk_event = []
        last_block = {}     # sender -> (block id, its js, inrisk, dx)

        state = DynamicState(spec, A)
        for m, ev in enumerate(stream):
            i, t = ev.sender, ev.time
            if all_but_sender:
                excluded = {i}
                risk_size = A - 1
            else:
                mask = policy.mask(t, i, A)
                excluded = set(np.flatnonzero(~mask).tolist())
                risk_size = A - len(excluded)
            js, dx = state.delta_rows(t, i)
            extra = excluded.difference(js)
            if extra:
                merged = sorted(set(js) | extra)
                dx_full = np.zeros((len(merged), p))
                pos = {j: r for r, j in enumerate(merged)}
                for r, j in enumerate(js):
                    dx_full[pos[j]] = dx[r]
                js, dx = merged, dx_full
            inrisk = np.array([j not in excluded for j in js], dtype=bool)
            prev = last_block.get(i)
            if (prev is not None and prev[1] == js
                    and np.array_equal(prev[2], inrisk)
                    and np.array_equal(prev[3], dx)):
                ev_block[m] = prev[0]
            else:
                ev_block[m] = len(blk_event)
                last_block[i] = (len(blk_event), js, inrisk, dx)
                blk_event.append(m)

            x0c = static.x0(static.class_of[i])
            rowpos = {j: r for r, j in enumerate(js)}
            for j in ev.receivers:
                if j in excluded:
                    raise ReceiverOutsideRiskSet(
                        f"event {m}: receiver {j} outside risk set of sender {i}")
                xsum[m] += x0c[j]
                if j in rowpos:
                    xsum[m] += dx[rowpos[j]]

            ev_class[m] = static.class_of[i]
            ev_sender[m] = i
            ev_size[m] = ev.size
            ev_risk[m] = risk_size
            row_start[m + 1] = row_start[m] + len(js)
            recv_start[m + 1] = recv_start[m] + ev.size
            row_j_parts.append(np.asarray(js, dtype=np.intp))
            row_risk_parts.append(inrisk)
            dx_parts.append(dx)
            recv_parts.append(np.asarray(ev.receivers, dtype=np.intp))
            state.advance(ev)

        self.n_events = n
        self.ev_class = ev_class
        self.ev_sender = ev_sender
        self.ev_size = ev_size
        self.ev_risk = ev_risk
        self.ev_block = ev_block
        self.blk_event = np.asarray(blk_event, dtype=np.intp)
        self.xsum = xsum
        self.row_start = row_start
        self.recv_start = recv_start
        self.row_j = np.concatenate(row_j_parts) if row_j_parts else np.zeros(0, dtype=np.intp)
        self.row_inrisk = np.concatenate(row_risk_parts) if row_risk_parts else np.zeros(0, dtype=bool)
        self.dX = np.vstack(dx_parts) if dx_parts else np.zeros((0, p))
        self.recv_j = np.concatenate(recv_parts)
        self.row_ev = np.repeat(np.arange(n), np.diff(row_start))

    # -- derived views -----------------------------------------------------

    @property
    def n_decisions(self):
        """Total receiver-selection slots (multicast events count their size)."""
        return int(self.ev_size.sum())

    def event_rows(self, m):
        """(receiver ids, dynamic rows, eligibility) for event m."""
        s, e = self.row_start[m], self.row_start[m + 1]
        return self.row_j[s:e], self.dX[s:e], self.row_inrisk[s:e]

    def receivers(self, m):
        return self.recv_j[self.recv_start[m]:self.recv_start[m + 1]]

    def dense_x(self, m):
        """Full (A, p) design matrix for event m (oracle/exact paths)."""
        x = self.static.x0(self.ev_class[m]).copy()
        js, dx, _ = self.event_rows(m)
        x[js] += dx
        return x

    def risk_mask(self, m):
        mask = np.ones(self.actor_count, dtype=bool)
        js, _, inrisk = self.event_rows(m)
        mask[js[~inrisk]] = False
        return mask

    def xsum_for(self, m, receivers):
        """Design-row sum over an arbitrary receiver set at event m."""
        receivers = np.asarray(receivers, dtype=np.intp)
        x = self.static.x0(self.ev_class[m])[receivers].sum(axis=0)
        js, dx, _ = self.event_rows(m)
        if len(js):
            pos = np.searchsorted(js, receivers).clip(max=len(js) - 1)
            hit = js[pos] == receivers
            if hit.any():
                x = x + dx[pos[hit]].sum(axis=0)
        return x

    def subset(self, cols):
        """Shallow copy restricted to the given columns (deviance tables)."""
        cols = np.asarray(cols, dtype=np.intp)
        out = object.__new__(PreparedDesign)
        out.spec = self.spec
        out.static = _ColumnSubsetStatic(self.static, cols)
        out.policy = self.policy
        out.actor_count = self.actor_count
        out.term_names = [self.term_names[c] for c in cols]
        out.p = len(cols)
        out.n_events = self.n_events
        for name in ("ev_class", "ev_sender", "ev_size", "ev_risk",
                     "ev_block", "blk_event", "row_start", "recv_start",
                     "row_j", "row_inrisk", "recv_j", "row_ev"):
            setattr(out, name, getattr(self, name))
        out.xsum = self.xsum[:, cols]
        out.dX = self.dX[:, cols]
        return out

    def column_indices(self, names):
        return [self.term_names.index(n) for n in names]


class _ColumnSubsetStatic:
    """Column-restricted view of a StaticDesign (used by subset designs)."""

    def __init__(self, base, cols):
        self.class_of = base.class_of
        self.n_classes = base.n_classes
        self._x0 = np.ascontiguousarray(base._x0[:, :, cols])
        self.spec = base.spec

    def x0(self, c):
        return self._x0[c]

    def x0_pair(self, i, j):
        return self._x0[self.class_of[i], j]


def prepare(stream, spec, traits=None, policy=None):
    """Replay a stream once and return the PreparedDesign."""
    policy = policy or RiskSetPolicy()
    traits = traits if traits is not None else stream.traits
    static = StaticDesign(spec, traits, stream.actor_count)
    return PreparedDesign(spec, static, stream, policy)

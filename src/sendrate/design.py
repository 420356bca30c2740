"""Prepared designs: one replay of the stream turns covariate state into
flat per-event arrays the likelihood can evaluate repeatedly.

The replay records, for every event, the sender's class, the observed
receiver set, and the sparse dynamic rows (receiver id, dynamic design row,
risk-set eligibility) that add to the sender class's static design over the
full actor set.  One path builds them from two boolean vectors over the
actors, the policy's eligibility ``mask`` at that instant and the sender's
sparse ``support``: the rows are support | ~mask (under the default policy,
the support plus the sender).  A row outside the mask carries its
eligibility flag, since the static design covers every actor; a row
outside the support has a zero dynamic part.

An event whose sparse rows equal those of its sender's previous event
shares that event's block: the two see the same risk-set weights, so the
likelihood evaluates each block's normalizer and moments once per
receiver-set size (once in all under duplication).

The covariate state behind the replay is ``DynamicState``: a dense tensor
of per-pair bin counts and visibility flags, 2*A^2*(K+1) doubles, which K
pointers into the time-ordered records keep current at each event time.
An event's dynamic rows are one ``DynamicState.rows`` call on its support
members: a gather of the tensor at those receivers and, for triadic terms,
one matrix product over the sender's middle actors per first-leg direction.
"""

from __future__ import annotations

import copy

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
      xsum        (n,p) sum of design rows over the observed receivers
      xtot        (p,)  column totals of xsum
      row_start   (n+1,) CSR offsets into the row arrays
      row_j       (R,)  receiver id per sparse row (sorted within an event):
                        the sender's support and every ineligible actor
      row_inrisk  (R,)  eligibility flag; risk_mask(m) rebuilds the mask
      dX          (R,p) dynamic design rows (static columns zero)
      nz_columns  (K,)  the columns that can hold a non-zero: the dynamic
                        ones
    and, where dX is mostly zero (``_SPARSE_BELOW``), a CSR of its
    non-zeros (else None):
      nz_start    (R+1,) offsets of each row's non-zeros (int32 while they
                        fit)
      nz_col      (N,)  each non-zero's position in nz_columns, in the
                        smallest unsigned dtype that holds K - 1
      nz_val      (N,)  their values, in dX's dtype
      recv_start/(n+1,), recv_j: observed receiver ids, CSR
      ev_block    (n,)  block id per event
      blk_event   (B,)  first event of each block (its rows are the block's)

    Every entry of dX is a count, a product of counts or a 0/1 flag, so
    int16 holds it exactly at a quarter of float64's bytes; the first event
    with an entry above 32,767 widens the rows once to float64.  Readers
    accept any numeric dX and upcast a chunk of rows at a time.  The CSR
    holds the same entries, for readers whose cost should follow the
    non-zeros (the single-receiver moments, see ``likelihood``); a design
    that replaces dX replaces it too.
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
        spec, policy = self.spec, self.policy
        A, n, p = self.actor_count, len(stream), spec.dim
        self.n_events = n
        self.ev_sender = np.array([ev.sender for ev in stream], dtype=np.intp)
        self.ev_class = self.static.class_of[self.ev_sender]
        self.ev_size = np.array([ev.size for ev in stream], dtype=np.intp)
        self.recv_start = recv_start = np.r_[0, np.cumsum(self.ev_size)]
        self.recv_j = recv_j = np.fromiter(
            (j for ev in stream for j in ev.receivers), dtype=np.intp,
            count=recv_start[n])

        self.row_start = row_start = np.zeros(n + 1, dtype=np.intp)
        row_j_parts, row_risk_parts = [], []
        try:    # an event has at most A rows; only those written are resident
            dX = np.empty((n * A, p), dtype=np.int16)
        except MemoryError:     # more than memory could hold: grow in place
            dX = np.empty((n, p), dtype=np.int16)
        self.ev_block = ev_block = np.empty(n, dtype=np.intp)
        blk_event = []
        last_block = {}     # sender -> (block id, its js, inrisk, first row)

        state = DynamicState(spec, A)
        for m, ev in enumerate(stream):
            i, t = ev.sender, ev.time
            mask = policy.mask(t, i, A)
            recv = recv_j[recv_start[m]:recv_start[m + 1]]
            if not mask[recv].all():
                raise ReceiverOutsideRiskSet(
                    f"event {m}: receiver {recv[~mask[recv]][0]} outside "
                    f"risk set of sender {i}")
            support = state.support(i)
            js = np.flatnonzero(support | ~mask)
            inrisk = mask[js]
            # rows only on the support: a masked-out actor outside it keeps
            # a zero row, where rows(t, i, [i]) would count paths i->h->i
            dx = state.rows(t, i, js)
            dx[~support[js]] = 0.0
            prev = last_block.get(i)
            if (prev is not None and np.array_equal(prev[1], js)
                    and np.array_equal(prev[2], inrisk)
                    and np.array_equal(dX[prev[3]:prev[3] + len(js)], dx)):
                ev_block[m] = prev[0]
            else:
                ev_block[m] = len(blk_event)
                last_block[i] = (len(blk_event), js, inrisk, row_start[m])
                blk_event.append(m)
            row_start[m + 1] = row_start[m] + len(js)
            # triadic products of counts can outgrow int16 on a long stream
            if dX.dtype == np.int16 and len(js) and dx.max() > 32767:
                dX = dX[:row_start[m]].astype(np.float64)
            if row_start[m + 1] > len(dX):
                dX.resize((2 * row_start[m + 1], p), refcheck=False)
            dX[row_start[m]:row_start[m + 1]] = dx
            row_j_parts.append(js)
            row_risk_parts.append(inrisk)
            state.advance(ev)

        self.blk_event = np.asarray(blk_event, dtype=np.intp)
        self.row_j = np.concatenate(row_j_parts)
        self.row_inrisk = np.concatenate(row_risk_parts)
        dX.resize((row_start[n], p), refcheck=False)
        self.dX = dX
        self.nz_columns = np.arange(spec.static_dim, p)
        self.nz_start, self.nz_col, self.nz_val = _nonzeros(
            dX, spec.static_dim)
        self.xsum = self.xsum_of(recv_j)
        self.xtot = self.xsum.sum(axis=0)

    # -- derived views -----------------------------------------------------

    @property
    def n_decisions(self):
        """Total receiver-selection slots (multicast events count their size)."""
        return int(self.ev_size.sum())

    def event_rows(self, m):
        """(receiver ids, dynamic rows, eligibility) for event m."""
        s, e = self.row_start[m], self.row_start[m + 1]
        return self.row_j[s:e], self.dX[s:e], self.row_inrisk[s:e]

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

    def xsum_of(self, recv_j):
        """Design-row sums over receiver ids laid out as ``recv_j``.  Entries
        are integers (counts, flags, products): any summing order is exact."""
        n, A = self.n_events, self.actor_count
        ev = np.repeat(np.arange(n), np.diff(self.recv_start))
        # sorted, as row_j is within each event; the last entry is past all
        key = np.append(np.repeat(np.arange(n), np.diff(self.row_start)) * A
                        + self.row_j, n * A)
        pos = np.searchsorted(key, ev * A + recv_j)
        hit = key[pos] == ev * A + recv_j
        rows = self.static._x0[self.ev_class[ev], recv_j]
        rows[hit] += self.dX[pos[hit]]
        return np.add.reduceat(rows, self.recv_start[:-1])

    def subset(self, cols):
        """Shallow copy restricted to the given columns (deviance tables)."""
        cols = np.asarray(cols, dtype=np.intp)
        static = copy.copy(self.static)
        static._x0 = np.ascontiguousarray(self.static._x0[:, :, cols])
        # the non-zeros in kept columns, renumbered; rows keep their order
        at = np.full(self.p, -1)
        at[cols] = np.arange(len(cols))
        at = at[self.nz_columns]        # each stored column's new id, or -1
        stored = at >= 0
        nz = {"nz_start": None, "nz_col": None, "nz_val": None}
        if self.nz_val is not None:
            kept = stored[self.nz_col]
            if kept.sum() < _SPARSE_BELOW * len(self.dX) * len(cols):
                starts = np.zeros(len(kept) + 1, dtype=self.nz_start.dtype)
                np.cumsum(kept, out=starts[1:])
                position = np.cumsum(stored) - 1
                nz = {"nz_start": starts[self.nz_start],
                      "nz_col": position[self.nz_col[kept]].astype(
                          _col_dtype(stored.sum())),
                      "nz_val": self.nz_val[kept]}
        return self.copy_with(static=static, p=len(cols),
                              term_names=[self.term_names[c] for c in cols],
                              xsum=self.xsum[:, cols], dX=self.dX[:, cols],
                              nz_columns=at[stored], **nz)

    def copy_with(self, **fields):
        """Shallow copy with the given attributes replaced; a new ``xsum``
        brings its column totals."""
        out = copy.copy(self)
        out.__dict__.update(fields)
        if "xsum" in fields:
            out.xtot = out.xsum.sum(axis=0)
        return out

    def column_indices(self, names):
        return [self.term_names.index(n) for n in names]


#: dX's non-zero share below which a design keeps the CSR of its non-zeros
#: and the likelihood's single-receiver moments follow them instead of
#: dense designs.  Order-2 time of that sparse path over the dense one
#: (one thread, 2,000 events of the 21-column triadic benchmark spec or
#: 1,000 of the 306-column e-mail spec, by actor count, share in brackets):
#: 21 columns, A = 10-80 (0.38-0.18): 1.8-2.3, A = 156 (0.12): 0.89;
#: 306 columns, A = 10 (0.23): 1.16, 20 (0.18): 0.94, 40 (0.11): 0.73,
#: 80 (0.055): 0.40, 156 (0.021): 0.33.  Order 1 ran faster sparse on all
#: of them.  Below 0.1 the sparse path won everywhere; a design that would
#: gain between 0.1 and its crossover keeps the dense one, and a dense
#: design pays neither the CSR's memory nor its build.
_SPARSE_BELOW = 0.1


def _col_dtype(k):
    """The smallest unsigned dtype that holds positions among k columns."""
    return np.min_scalar_type(max(k - 1, 0))


def _nonzeros(dX, first):
    """CSR of the non-zeros of dX's columns first to p - 1, the ones that
    can hold any: row offsets, column positions counted from ``first``
    (``_col_dtype``) and values in dX's dtype; Nones unless the non-zeros
    are under ``_SPARSE_BELOW`` of dX's entries.  It reads about 1 MB of
    rows, or rows holding about 64k non-zeros if fewer, at a time into
    arrays of their final size, so its int64 scratch stays near 1.5 MB."""
    dyn = dX[:, first:]
    R, q = dyn.shape
    nnz = int(np.count_nonzero(dyn))
    if nnz >= _SPARSE_BELOW * dX.size:
        return None, None, None
    start = np.zeros(R + 1, dtype=np.int32 if nnz < 2 ** 31 else np.int64)
    col = np.empty(nnz, dtype=_col_dtype(q))
    val = np.empty(nnz, dtype=dX.dtype)
    step = max(1, min((1 << 20) // max(1, dX.shape[1]),
                      (R << 16) // max(1, nnz)))
    at = 0
    for lo in range(0, R, step):
        rows = dyn[lo:lo + step]
        row, c = np.divmod(np.flatnonzero(rows != 0), q)
        col[at:at + len(c)] = c
        val[at:at + len(c)] = rows[row, c]
        start[lo + 1:lo + 1 + len(rows)] = np.bincount(row,
                                                       minlength=len(rows))
        at += len(c)
    return np.cumsum(start, out=start), col, val


def prepare(stream, spec, traits=None, policy=None):
    """Replay a stream once and return the PreparedDesign."""
    policy = policy or RiskSetPolicy()
    traits = traits if traits is not None else stream.traits
    static = StaticDesign(spec, traits, stream.actor_count)
    return PreparedDesign(spec, static, stream, policy)

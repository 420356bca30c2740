"""Prepared designs: one replay of the stream turns covariate state into
flat per-event arrays the likelihood can evaluate repeatedly.

The replay records, for every event, the sender's class, the observed
receiver set, and the sparse dynamic rows (receiver id, dynamic design row,
risk-set eligibility) that add to the sender class's static design over the
full actor set.  The rows are support | ~mask, from the policy's
eligibility ``mask`` at that instant and the sender's sparse ``support``
(under the default policy, the support plus the sender): a row outside the
support has a zero dynamic part, and one outside the mask is flagged
ineligible, so the search for the observed receivers' rows that sums
``xsum`` after the replay also finds any receiver outside its risk set.

An event whose sparse rows equal those of its sender's previous event
shares that event's block: the two see the same risk-set weights, so the
likelihood evaluates each block's normalizer and moments once per
receiver-set size (once in all under duplication).  The rows are stored
once per block, so they grow with the state changes, not with the events.
Where the state keeps a change count (no triadic terms, see
``DynamicState``), an event whose sender's count and mask equal those at
the sender's previous event joins that event's block without building its
rows; any other event builds them and compares them with the block's.

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

    Attributes (n events, B blocks, R block rows, p columns, A actors):
      ev_class    (n,)  sender class per event
      ev_sender   (n,)
      ev_size     (n,)  receiver-set size
      xsum        (n,p) sum of design rows over the observed receivers
      xtot        (p,)  column totals of xsum
      blk_start   (B+1,) CSR offsets of each block's rows in the row arrays
      row_j       (R,)  receiver id per sparse row (sorted within a block):
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
      ev_block    (n,)  block id per event; event_rows(m) are its block's
      blk_event   (B,)  first event of each block

    Every entry of dX is a count, a product of counts or a 0/1 flag, so
    int16 holds it exactly at a quarter of float64's bytes; the first event
    with an entry above 32,767 widens the rows once to float64.  The replay
    starts the rows at one per event and grows them in place by an eighth
    (``resize`` zero-fills what it adds) whenever a new block's rows would
    pass the end, then trims them to R.  Readers accept any numeric dX and
    upcast a chunk of rows at a time.  The CSR holds the same entries, for
    readers whose cost should follow the non-zeros (the single-receiver
    moments, see ``likelihood``); ``copy_with`` rebuilds it from a new dX.
    Only this module reads these arrays: others take a chunk's rows through
    ``chunk_rows`` and ``chunk_nonzeros``.
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

        row_j_parts, row_risk_parts, blk_event, blk_start = [], [], [], [0]
        dX = np.empty((n, p), dtype=np.int16)   # grown in place below
        self.ev_block = ev_block = np.empty(n, dtype=np.intp)
        last_block = {}  # sender -> its previous event's (block, stamp, mask)

        state = DynamicState(spec, A)
        for m, ev in enumerate(stream):
            i, t = ev.sender, ev.time
            mask = policy.mask(t, i, A)
            stamp = state._stamp(t, i)
            block, old_stamp, old_mask = last_block.get(i, (None,) * 3)
            if (stamp is None or stamp != old_stamp
                    or not np.array_equal(old_mask, mask)):
                support = state.support(i)
                js = np.flatnonzero(support | ~mask)
                inrisk = mask[js]
                # rows only on the support: a masked-out actor outside
                # it keeps a zero row (rows(t, i, [i]) counts i->h->i)
                dx = state.rows(t, i, js)
                dx[~support[js]] = 0.0
                if (block is None or not np.array_equal(row_j_parts[block], js)
                        or not np.array_equal(row_risk_parts[block], inrisk)
                        or not np.array_equal(
                            dX[blk_start[block]:blk_start[block + 1]], dx)):
                    block, lo = len(row_j_parts), blk_start[-1]
                    hi = lo + len(js)
                    # triadic products of counts can outgrow int16
                    if dX.dtype == np.int16 and dx.max(initial=0) > 32767:
                        dX = dX[:lo].astype(np.float64)
                    if hi > len(dX):
                        dX.resize((hi + hi // 8, p), refcheck=False)
                    dX[lo:hi] = dx
                    blk_start.append(hi)
                    blk_event.append(m)
                    row_j_parts.append(js)
                    row_risk_parts.append(inrisk)
            ev_block[m] = block
            last_block[i] = (block, stamp, mask)
            state.advance(ev)

        self.blk_event = np.asarray(blk_event, dtype=np.intp)
        self.blk_start = np.asarray(blk_start, dtype=np.intp)
        self.row_j = np.concatenate(row_j_parts)
        self.row_inrisk = np.concatenate(row_risk_parts)
        dX.resize((blk_start[-1], p), refcheck=False)
        self.dX = dX
        self.nz_columns = np.arange(spec.static_dim, p)
        self.nz_start, self.nz_col, self.nz_val = _nonzeros(
            dX, self.nz_columns)
        self.xsum = self.xsum_of(recv_j)
        self.xtot = self.xsum.sum(axis=0)

    # -- derived views -----------------------------------------------------

    @property
    def n_decisions(self):
        """Total receiver-selection slots (multicast events count their size)."""
        return int(self.ev_size.sum())

    def event_rows(self, m):
        """(receiver ids, dynamic rows, eligibility) for event m."""
        b = self.ev_block[m]
        s, e = self.blk_start[b], self.blk_start[b + 1]
        return self.row_j[s:e], self.dX[s:e], self.row_inrisk[s:e]

    def dense_x(self, m):
        """Full (A, p) design matrix for event m (dense oracle, checks)."""
        x = self.static.x0(self.ev_class[m]).copy()
        js, dx, _ = self.event_rows(m)
        x[js] += dx
        return x

    def risk_mask(self, m):
        mask = np.ones(self.actor_count, dtype=bool)
        js, _, inrisk = self.event_rows(m)
        mask[js[~inrisk]] = False
        return mask

    @property
    def keeps_nonzeros(self):
        """Whether the design keeps the CSR of dX's non-zeros."""
        return self.nz_val is not None

    def chunk_rows(self, events):
        """A chunk of distinct events' sparse rows: their positions k * A + j
        in the (len(events), A) grid of the events' receivers, their
        dynamic rows (a view of dX when adjacent) and eligibility flags."""
        rows, flat = self._grid(events)
        return flat, self.dX[rows], self.row_inrisk[rows]

    def chunk_nonzeros(self, events):
        """The grid positions of ``chunk_rows`` and, row by row, their
        non-zeros: each one's row among them, its position in ``nz_columns``
        and its float64 value.  Only where the design ``keeps_nonzeros``."""
        rows, flat = self._grid(events)
        ent, row = _ranges(self.nz_start[:-1][rows], self.nz_start[1:][rows])
        return flat, row, self.nz_col[ent], self.nz_val[ent].astype(float)

    def _grid(self, events):
        blocks = self.ev_block[events]
        rows, k = _ranges(self.blk_start[blocks], self.blk_start[blocks + 1])
        return rows, k * self.actor_count + self.row_j[rows]

    def xsum_of(self, recv_j):
        """Design-row sums over receiver ids laid out as ``recv_j`` (integer
        entries: any order sums exactly); refused at the first receiver
        outside its risk set, which is a block row flagged ineligible."""
        A, B = self.actor_count, len(self.blk_event)
        ev = np.repeat(np.arange(self.n_events), np.diff(self.recv_start))
        # sorted, as row_j is within each block; the last entry is past all
        key = np.append(self._grid(self.blk_event)[1], B * A)
        want = self.ev_block[ev] * A + recv_j
        pos = np.searchsorted(key, want)
        hit = key[pos] == want
        out = np.flatnonzero(hit)[~self.row_inrisk[pos[hit]]]
        if len(out):
            m = ev[out[0]]
            raise ReceiverOutsideRiskSet(
                f"event {m}: receiver {recv_j[out[0]]} outside risk set of "
                f"sender {self.ev_sender[m]}")
        rows = self.static._x0[self.ev_class[ev], recv_j]
        rows[hit] += self.dX[pos[hit]]
        return np.add.reduceat(rows, self.recv_start[:-1])

    def subset(self, cols):
        """Shallow copy restricted to the given columns (deviance tables)."""
        cols = np.asarray(cols, dtype=np.intp)
        static = copy.copy(self.static)
        static._x0 = np.ascontiguousarray(self.static._x0[:, :, cols])
        return self.copy_with(static=static, p=len(cols),
                              term_names=[self.term_names[c] for c in cols],
                              xsum=self.xsum[:, cols], dX=self.dX[:, cols],
                              nz_columns=np.flatnonzero(
                                  np.isin(cols, self.nz_columns)))

    def copy_with(self, **fields):
        """Shallow copy with the given attributes replaced; a new ``xsum``
        brings its column totals, and a new ``dX`` the CSR of its non-zeros
        when this design keeps one."""
        out = copy.copy(self)
        out.__dict__.update(fields)
        if "xsum" in fields:
            out.xtot = out.xsum.sum(axis=0)
        if "dX" in fields and self.keeps_nonzeros:
            out.nz_start, out.nz_col, out.nz_val = _nonzeros(out.dX,
                                                             out.nz_columns)
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
#: design pays neither the CSR's memory nor its build.  The share counts
#: each block's rows once, as the likelihood reads them.
_SPARSE_BELOW = 0.1


def _nonzeros(dX, columns):
    """CSR of the non-zeros of dX's ``columns``, the ones that can hold any
    (``nz_columns``): row offsets, positions in ``columns`` in the smallest
    unsigned dtype, and values in dX's dtype; Nones unless the non-zeros
    are under ``_SPARSE_BELOW`` of dX's entries.  It reads about 1 MB of
    rows, or rows holding about 64k non-zeros if fewer, at a time (a view
    where the columns are adjacent, as a prepared design's are) into arrays
    of their final size, so its int64 scratch stays near 1.5 MB."""
    R, q = len(dX), len(columns)
    if q and np.array_equal(columns, np.arange(columns[0], columns[0] + q)):
        columns = slice(columns[0], columns[0] + q)
    block = max(1, (1 << 20) // max(1, dX.shape[1]))
    nnz = sum(int(np.count_nonzero(dX[lo:lo + block][:, columns]))
              for lo in range(0, R, block))
    if nnz >= _SPARSE_BELOW * dX.size:
        return None, None, None
    start = np.zeros(R + 1, dtype=np.int32 if nnz < 2 ** 31 else np.int64)
    col = np.empty(nnz, dtype=np.min_scalar_type(max(q - 1, 0)))
    val = np.empty(nnz, dtype=dX.dtype)
    step = max(1, min(block, (R << 16) // max(1, nnz)))
    at = 0
    for lo in range(0, R, step):
        rows = dX[lo:lo + step][:, columns]
        row, c = np.divmod(np.flatnonzero(rows != 0), q)
        col[at:at + len(c)] = c
        val[at:at + len(c)] = rows[row, c]
        start[lo + 1:lo + 1 + len(rows)] = np.bincount(row,
                                                       minlength=len(rows))
        at += len(c)
    return np.cumsum(start, out=start), col, val


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


def prepare(stream, spec, traits=None, policy=None):
    """Replay a stream once and return the PreparedDesign."""
    policy = policy or RiskSetPolicy()
    traits = traits if traits is not None else stream.traits
    static = StaticDesign(spec, traits, stream.actor_count)
    return PreparedDesign(spec, static, stream, policy)

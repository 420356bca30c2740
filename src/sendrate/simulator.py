"""Model-faithful event-stream generation.

Between events, every pairwise weight is constant except when a past record
crosses an age-bin boundary, so the process is simulated exactly: draw an
exponential waiting time at the current total rate, and if it overshoots
the next bin-crossing epoch, move to the epoch, refresh the affected
weights, and redraw (memorylessness keeps this exact).  At an event, the
sender and set size are drawn proportional to their per-size rates and the
receiver set by an exact fixed-size weighted draw.

The per-size baseline factorizes as rate(i) * size_weight(L); this is a
simulation choice, echoed in the ground-truth metadata, not a constraint of
the fitted model.

Work follows the state changes.  Of a record's affected pairs, only those
whose sender's change count (``DynamicState``; none with triadic terms)
moved since the pair was last computed get their rows and log-weights
recomputed.  A sender's size totals are refreshed only when one of its
log-weights changed bits, and the total rate and the CDF of the (sender,
size) draw are kept until a sender is refreshed.  Every stored value is
the one a full refresh gives, so a stream is the same bit for bit.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import esp
from .covariates import CovariateSpec, DynamicState, StaticDesign
from .events import Event, EventStream, RiskSetPolicy, StreamError, require_keys


@dataclass
class SimConfig:
    actor_count: int
    beta_true: np.ndarray
    spec: CovariateSpec
    seed: int = 0
    baseline: float | np.ndarray = 1.0
    size_weights: dict = field(default_factory=lambda: {1: 1.0})
    n_events: int | None = None
    horizon: float | None = None
    traits: object = None
    policy: RiskSetPolicy = None

    def __post_init__(self):
        if self.n_events is None and self.horizon is None:
            raise StreamError("need a target event count or a horizon")
        if self.horizon is not None and not math.isfinite(self.horizon):
            raise StreamError(f"horizon must be finite, got {self.horizon!r}")
        sizes = sorted(self.size_weights)
        if not sizes or sizes[0] < 1:
            raise StreamError("set sizes must be positive")
        if not all(0 <= q < math.inf for q in self.size_weights.values()):
            raise StreamError("size_weights must be finite and nonnegative")
        self.beta_true = np.asarray(self.beta_true, dtype=np.float64)
        if self.beta_true.shape != (self.spec.dim,):
            raise StreamError("beta_true length does not match the covariate spec")
        if not np.isfinite(self.beta_true).all():
            raise StreamError("beta_true must be finite")

    @property
    def l_max(self):
        return max(self.size_weights)

    def baseline_vector(self):
        lam = np.broadcast_to(np.asarray(self.baseline, dtype=np.float64),
                              (self.actor_count,)).copy()
        if not ((0 <= lam) & (lam < np.inf)).all():
            raise StreamError("baseline must be finite and nonnegative")
        return lam

    def with_seed(self, seed):
        return replace(self, seed=seed)

    def to_json(self):
        return {
            "actor_count": self.actor_count,
            "beta_true": self.beta_true.tolist(),
            "covariates": self.spec.to_json(),
            "seed": self.seed,
            "baseline": np.asarray(self.baseline).tolist(),
            "size_weights": {str(k): v for k, v in self.size_weights.items()},
            "n_events": self.n_events,
            "horizon": self.horizon,
            "baseline_factorized": True,
        }

    @classmethod
    def from_json(cls, obj, traits=None):
        require_keys(obj, ("actor_count", "beta_true", "covariates"),
                     "simulation config")

        def parse(key, default, convert):
            value = obj.get(key, default)
            if value is None and key in ("n_events", "horizon"):
                return None     # either may be null: to_json writes both
            try:
                return convert(value)
            except (TypeError, ValueError, AttributeError) as exc:
                raise StreamError(f"simulation config: {key}: {exc}") from None
        floats = lambda v: np.asarray(v, dtype=np.float64)
        return cls(actor_count=parse("actor_count", None,
                                     lambda v: _count(v, least=1)),
                   beta_true=parse("beta_true", None, floats),
                   spec=CovariateSpec.from_json(obj["covariates"]),
                   seed=parse("seed", 0, _count),
                   baseline=parse("baseline", 1.0, floats),
                   size_weights=parse("size_weights", {"1": 1.0}, lambda v: {
                       int(k): float(q) for k, q in v.items()}),
                   n_events=parse("n_events", None, _count),
                   horizon=parse("horizon", None, float), traits=traits)


def _count(value, least=0):
    """A JSON value that must be an integer of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValueError(f"expected an integer >= {least}, got {value!r}")
    return value


#: Hard ceiling on the log total intensity; beyond this the configuration
#: has run away (self-excitation too strong) and simulation stops honestly.
_LOG_RATE_CAP = 500.0


class _Engine:
    def __init__(self, config):
        self.config = config
        A = config.actor_count
        spec = config.spec
        self.static = StaticDesign(spec, config.traits, A)
        self.state = DynamicState(spec, A)
        policy = config.policy or RiskSetPolicy()
        if policy.mode == "callback":
            raise StreamError("simulation supports static risk policies only")
        self.mask = np.vstack([policy.mask(0.0, i, A) for i in range(A)])
        self.lam = config.baseline_vector()
        self.sizes = np.array(sorted(config.size_weights))
        self.l_max = config.l_max
        self.qvec = np.array([config.size_weights[s] for s in self.sizes])
        risk_sizes = self.mask.sum(axis=1)
        if (self.sizes.max() > risk_sizes[self.lam > 0]).any():
            raise StreamError("a set size exceeds an active sender's risk set")
        beta = config.beta_true
        self.logw = np.einsum("cap,p->ca",
                              self.static._x0, beta)[self.static.class_of]
        self.logw[~self.mask] = -np.inf
        self.logbase = np.log(self.lam)[:, None] + np.log(self.qvec)[None, :]
        self.logS = np.zeros((A, len(self.sizes)))
        self.wrel = np.zeros((A, A))     # exp(logw - row max), 0 off the risk set
        for i in range(A):
            self._refresh_sender(i)
        self.crossings = []
        self.stamped = {}       # pair -> its sender's count when computed
        self.rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=int(config.seed))))

    def _refresh_sender(self, i):
        self.law = None       # (total rate, CDF): see _total_and_cdf
        row = self.logw[i]
        top = row.max()
        if not math.isfinite(top):
            self.logS[i] = -np.inf
            return
        self.wrel[i] = np.exp(row - top)
        e = esp.esp_table(self.wrel[i], self.l_max)[-1]
        self.logS[i] = np.log(e[self.sizes]) + self.sizes * top

    def _refresh_pairs(self, pairs, t_eval):
        fresh = []
        for a, b in pairs:
            if not self.mask[a, b]:
                continue
            # a pair whose sender's change count stands since the pair was
            # last computed keeps its row, so its log-weight is that dot
            stamp = self.state._stamp(t_eval, a)
            if stamp is not None:
                if self.stamped.get((a, b)) == stamp:
                    continue
                self.stamped[(a, b)] = stamp
            fresh.append((a, b))
        if not fresh:
            return
        a, b = np.array(fresh, dtype=np.intp).T
        x = self.static.x0_pair(a, b) + self.state.rows(t_eval, a, b)
        # one dot per row: the sums of a per-pair refresh, bit for bit
        beta = self.config.beta_true
        logw = np.array([row @ beta for row in x])
        moved = _moved(self.logw[a, b], logw)
        self.logw[a[moved], b[moved]] = logw[moved]
        for i in set(a[moved].tolist()):
            self._refresh_sender(i)

    def _total_and_cdf(self):
        """The total rate and the CDF of the (sender, size) pick, as
        ``Generator.choice(p=)`` forms it; kept until a sender refresh."""
        if self.law is not None:
            return self.law
        lograte = self.logbase + self.logS
        peak = lograte.max()
        if not math.isfinite(peak):
            self.law = 0.0, None
            return self.law
        if peak > _LOG_RATE_CAP:
            raise StreamError(
                "total intensity overflowed; the configuration is explosive")
        rel = np.exp(lograte - peak)
        mass = rel.sum()
        cdf = (rel.ravel() / mass).cumsum()
        cdf /= cdf[-1]
        self.law = float(np.exp(peak) * mass), cdf
        return self.law

    def run(self):
        config = self.config
        events = []
        t = 0.0
        horizon = config.horizon if config.horizon is not None else np.inf
        target = config.n_events if config.n_events is not None else np.inf
        while len(events) < target:
            total, cdf = self._total_and_cdf()
            next_cross = self.crossings[0][0] if self.crossings else np.inf
            if total <= 0.0:
                if next_cross < horizon:
                    self._process_crossings(next_cross)
                    t = next_cross
                    continue
                if config.n_events is not None and len(events) < target:
                    raise StreamError("all intensities are zero; cannot reach "
                                      "the target event count")
                break
            t_cand = t + self.rng.exponential(1.0 / total)
            if t_cand >= next_cross:
                self._process_crossings(next_cross)
                t = next_cross
                continue
            if t_cand > horizon:
                break
            t = t_cand
            pick = _pick(cdf, self.rng)
            i, li = divmod(pick, len(self.sizes))
            L = int(self.sizes[li])
            recv = esp.sample_fixed_size(self.wrel[i], L, self.rng)
            ev = Event(t, int(i), tuple(int(j) for j in recv))
            events.append(ev)
            self.state.advance(ev)
            t_eval = math.nextafter(t, math.inf)
            dirty = set()
            for b in ev.receivers:
                dirty.update(self.state.affected_pairs(i, b))
                if config.spec.has_binned:
                    for bnd in config.spec.scheme.boundaries:
                        heapq.heappush(self.crossings, (t + bnd, i, b))
            self._refresh_pairs(dirty, t_eval)
        if not events:
            raise StreamError("no events generated")
        return EventStream(events, config.actor_count, traits=config.traits)

    def _process_crossings(self, tc):
        t_eval = math.nextafter(tc, math.inf)
        dirty = set()
        while self.crossings and self.crossings[0][0] <= tc:
            _, a, b = heapq.heappop(self.crossings)
            dirty.update(self.state.affected_pairs(a, b))
        self._refresh_pairs(dirty, t_eval)


def _moved(old, new):
    """Where two float64 arrays differ in bits (so -0.0 against 0.0 too)."""
    return old.view(np.int64) != new.view(np.int64)


def _pick(cdf, rng):
    """An index drawn by the CDF: ``Generator.choice(p=)``'s own steps, one
    ``random()`` and a right-sided search, without its check of p."""
    return int(cdf.searchsorted(rng.random(), side="right"))


def simulate(config):
    """Generate an event stream from the model; deterministic per seed."""
    # a zero rate or size-L total has log -inf, which the engine handles
    with np.errstate(divide="ignore"):
        return _Engine(config).run()


def write_truth(config, path):
    with open(path, "w") as fh:
        json.dump(config.to_json(), fh, indent=2)

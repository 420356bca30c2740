import numpy as np
import pytest

from sendrate import (ActorTraits, CovariateSpec, Event, EventStream,
                      SimConfig, prepare, simulate)

MASTER = 20260810


def substream_seed(seed, r):
    """Stable seed derived from (seed, r), for seeding run r of a study."""
    ss = np.random.SeedSequence(entropy=(int(seed), int(r)))
    return int(ss.generate_state(1, np.uint64)[0])


def random_stream(rng, actors=8, n=100, max_size=1, gap=100.0, traits=None):
    events = []
    t = 0.0
    for _ in range(n):
        t += rng.exponential(gap)
        i = int(rng.integers(actors))
        others = [j for j in range(actors) if j != i]
        size = int(rng.integers(1, max_size + 1))
        recv = tuple(rng.choice(others, size=min(size, len(others)),
                                replace=False).tolist())
        events.append(Event(t, i, recv))
    return EventStream(events, actors, traits=traits)


def random_traits(rng, actors, names=("a", "b")):
    return ActorTraits(list(names), rng.integers(0, 2, size=(actors, len(names))))


# The recovery study of acceptance criteria 5, 6 and 9: run r simulates
# 5,000 pairwise events among 25 actors at RECOVERY_TRUE, seeded by
# substream_seed(MASTER + 5, r) alone, so runs can be made in any order.

RECOVERY_TRUE = np.array([0.4, 0.6, -0.3, 0.5, 1.2, 0.7])


def recovery_spec():
    return CovariateSpec(static_terms=["1*g", "g*g", "1*h", "h*h"],
                         dyadic=[("send", "indicator"),
                                 ("receive", "indicator")])


def recovery_traits():
    rng = np.random.default_rng(MASTER + 5)
    return ActorTraits(["g", "h"], rng.integers(0, 2, size=(25, 2)))


def recovery_design(traits, run):
    spec = recovery_spec()
    cfg = SimConfig(actor_count=traits.actor_count, beta_true=RECOVERY_TRUE,
                    spec=spec, seed=substream_seed(MASTER + 5, run),
                    baseline=0.001, n_events=5000, traits=traits)
    return prepare(simulate(cfg), spec, traits=traits)


def covariate_vector(state, static, t, i, j):
    """Full design vector of pair (i, j) at time t: static plus dynamic."""
    return static.x0_pair(i, j) + state.rows(t, i, [j])[0]


def brute_covariates(stream, spec, static, t, i, j):
    """Design vector recomputed from the raw event list.

    Independent of the incremental state: every record and record pair is
    enumerated directly.  Bin k holds records with time in
    [t - boundary[k], t - boundary[k-1]), i.e. age in (b[k-1], b[k]].
    """
    recs = [(e.time, e.sender, r) for e in stream if e.time < t
            for r in e.receivers]
    K = spec.scheme.K
    bounds = (0.0,) + tuple(spec.scheme.boundaries) + (np.inf,)

    def binned(a, b):
        out = np.zeros(K)
        for (s, x, y) in recs:
            if x == a and y == b:
                age = t - s
                for k in range(1, K + 1):
                    if bounds[k - 1] < age <= bounds[k]:
                        out[k - 1] += 1
                        break
        return out

    def ever(a, b):
        return any(x == a and y == b for (_, x, y) in recs)

    legs = {
        "2-send": lambda h: ((i, h), (h, j)),
        "2-receive": lambda h: ((h, i), (j, h)),
        "sibling": lambda h: ((h, i), (h, j)),
        "cosibling": lambda h: ((i, h), (j, h)),
    }

    x = static.x0_pair(i, j).copy()
    pos = spec.static_dim
    for effect, form in spec.dyadic:
        pair = (i, j) if effect == "send" else (j, i)
        if form in ("indicator", "both"):
            x[pos] = 1.0 if ever(*pair) else 0.0
            pos += 1
        if form in ("binned", "both"):
            x[pos:pos + K] = binned(*pair)
            pos += K
    for effect, form in spec.triadic:
        hs = [h for h in range(static.actor_count) if h not in (i, j)]
        if form in ("indicator", "both"):
            x[pos] = float(any(ever(*legs[effect](h)[0]) and
                               ever(*legs[effect](h)[1]) for h in hs))
            pos += 1
        if form in ("binned", "both"):
            m = np.zeros((K, K))
            for h in hs:
                first, second = legs[effect](h)
                m += np.outer(binned(*first), binned(*second))
            x[pos:pos + K * K] = m.ravel()
            pos += K * K
    return x


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)

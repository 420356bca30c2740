"""Seeded input generator for the benchmark workloads.

Writes the files the library reads (traits CSV, covariate spec JSON and,
except for ``recovery``, which simulates its events, an events CSV) from
the workload seed alone.  It uses only numpy, so the library receives
nothing but the generated files.
"""

from __future__ import annotations

import json
import os

import numpy as np

MIN = 60.0
WORKLOAD_IDS = {"recovery": 1, "multicast": 2, "paper": 3}

# Per workload: actors, base trait names, events, largest receiver set, mean
# gap between events (seconds).  ``small`` is the self-test's size.
SHAPES = {
    "recovery": {"full": dict(actors=25, events=10_000),
                 "small": dict(actors=25, events=1_500)},
    "multicast": {"full": dict(actors=20, events=2_000, max_size=3, gap=15 * MIN),
                  "small": dict(actors=20, events=300, max_size=3, gap=15 * MIN)},
    "paper": {"full": dict(actors=156, events=1_000, max_size=5, gap=3600.0),
              "small": dict(actors=40, events=150, max_size=5, gap=3600.0)},
}
BASE_TRAITS = {"recovery": ["g", "h"], "multicast": ["a", "b"],
               "paper": ["L", "T", "J", "F"]}
# Product traits of the e-mail model, appended by the library at ingestion.
PAPER_PRODUCTS = [("L", "J"), ("T", "J"), ("L", "F"), ("T", "F"), ("J", "F")]


def _paper_static_terms():
    names = BASE_TRAITS["paper"] + [x + y for x, y in PAPER_PRODUCTS]
    return [f"1*{y}" for y in names] + [f"{x}*{y}" for x in names for y in names]


SPECS = {
    "recovery": {"static": ["1*g", "g*g", "1*h", "h*h"],
                 "dyadic": [{"effect": "send", "form": "indicator"},
                            {"effect": "receive", "form": "indicator"}],
                 "triadic": []},
    "multicast": {"static": ["1*a", "b*a"],
                  "dyadic": [{"effect": "send", "form": "both"},
                             {"effect": "receive", "form": "both"}],
                  "triadic": [{"effect": "2-send", "form": "both"},
                              {"effect": "sibling", "form": "indicator"}],
                  "intervals_seconds": [30 * MIN, 2 * 3600.0]},
    "paper": {"static": _paper_static_terms(),
              "dyadic": [{"effect": "send", "form": "both"},
                         {"effect": "receive", "form": "both"}],
              "triadic": [{"effect": e, "form": "both"} for e in
                          ("2-send", "2-receive", "sibling", "cosibling")]},
}


def rng_for(workload, seed, *key):
    """Generator for one purpose of one workload run, fixed by the seed."""
    return np.random.default_rng([int(seed), WORKLOAD_IDS[workload], *key])


def random_events(rng, actors, n, max_size, gap):
    """(time, sender, receivers) rows: exponential gaps, uniform senders,
    uniform set sizes 1..max_size drawn without replacement."""
    rows, t = [], 0.0
    for _ in range(n):
        t += rng.exponential(gap)
        i = int(rng.integers(actors))
        others = [j for j in range(actors) if j != i]
        size = int(rng.integers(1, max_size + 1))
        recv = sorted(rng.choice(others, size=size, replace=False).tolist())
        rows.append((t, i, recv))
    return rows


def input_paths(workload, out_dir):
    """Paths of the files ``make_inputs`` writes for the workload."""
    paths = {"traits": os.path.join(out_dir, "traits.csv"),
             "spec": os.path.join(out_dir, "spec.json")}
    if workload != "recovery":
        paths["events"] = os.path.join(out_dir, "events.csv")
    return paths


def make_inputs(workload, seed, out_dir, size="full"):
    """Write the workload's inputs into ``out_dir``; return their paths."""
    shape = SHAPES[workload][size]
    rng = rng_for(workload, seed, 0)
    os.makedirs(out_dir, exist_ok=True)
    names = BASE_TRAITS[workload]
    traits = rng.integers(0, 2, size=(shape["actors"], len(names)))
    paths = input_paths(workload, out_dir)
    with open(paths["traits"], "w") as fh:
        fh.write(",".join(["actor"] + names) + "\n")
        for a, row in enumerate(traits):
            fh.write(",".join(str(v) for v in [a, *row]) + "\n")
    with open(paths["spec"], "w") as fh:
        json.dump(SPECS[workload], fh, indent=1)
    if "events" in paths:
        rows = random_events(rng, shape["actors"], shape["events"],
                             shape["max_size"], shape["gap"])
        with open(paths["events"], "w") as fh:
            fh.write("time,sender,receivers\n")
            for t, i, recv in rows:
                fh.write(f"{t!r},{i},{';'.join(map(str, recv))}\n")
    return paths


def read_events(path):
    """Raw (time, sender, receivers) rows of an events CSV, in file order,
    parsed without the library (used by the independent checks)."""
    rows = []
    with open(path) as fh:
        next(fh)
        for line in fh:
            t, i, recv = line.strip().split(",", 2)
            rows.append((float(t), int(i), [int(r) for r in recv.split(";")]))
    return rows


def read_traits(path):
    """(names, 0/1 matrix indexed by actor) of a traits CSV."""
    with open(path) as fh:
        names = fh.readline().strip().split(",")[1:]
        rows = {}
        for line in fh:
            parts = [int(v) for v in line.strip().split(",")]
            rows[parts[0]] = parts[1:]
    return names, np.array([rows[a] for a in range(len(rows))], dtype=float)

"""Each input check of the public API refuses its input with its own
message.  The checks that ingestion, the CLI or a workload reach are tested
where those live; these are reached by no other test."""

import numpy as np
import pytest

from sendrate import (ActorTraits, BootstrapConfig, CovariateSpec, Event,
                      EventStream, RiskSetPolicy, SimConfig, SolverConfig,
                      StreamError, evaluate, expected_counts, export_events,
                      ingest_events, ingest_traits, prepare, residual_summary,
                      residuals, simulate)
from sendrate.diagnostics import PairCounts
from sendrate.esp import sample_fixed_size, sample_fixed_size_rows
from sendrate.solver import SingularInformationError, _newton_direction

SEND = CovariateSpec(dyadic=[("send", "indicator")])


def small_stream():
    return EventStream([Event(1.0, 0, (1,)), Event(2.0, 1, (0,))], 3)


def small_design():
    return prepare(small_stream(), SEND)


def sim(**fields):
    return SimConfig(**dict(dict(actor_count=3, beta_true=[0.0], spec=SEND,
                                 n_events=5), **fields))


def write(tmp_path, text):
    path = tmp_path / "in.csv"
    path.write_text(text)
    return str(path)


CASES = {
    "spec not an object": (
        lambda: CovariateSpec.from_json([]), StreamError, "JSON object"),
    "unknown effect": (
        lambda: CovariateSpec(dyadic=[("reply", "indicator")]), StreamError,
        "unknown effect"),
    "unknown form": (
        lambda: CovariateSpec(triadic=[("2-send", "count")]), StreamError,
        "unknown form"),
    "static terms without traits": (
        lambda: prepare(small_stream(),
                        CovariateSpec(static_terms=["1*a"])),
        StreamError, "require actor traits"),
    "trait rows short": (
        lambda: prepare(small_stream(),
                        CovariateSpec(static_terms=["1*a"]),
                        traits=ActorTraits(["a"], [[0], [1]])),
        StreamError, "trait row count"),
    "no actors": (
        lambda: EventStream([Event(1.0, 0, (1,))], 0), StreamError,
        "must be positive"),
    "sender outside": (
        lambda: EventStream([Event(1.0, 3, (1,))], 3), StreamError,
        "sender 3 outside"),
    "receiver outside": (
        lambda: EventStream([Event(1.0, 0, (3,))], 3), StreamError,
        "receiver 3 outside"),
    "no events": (lambda: EventStream([], 3), StreamError, "empty"),
    "trait shape": (
        lambda: ActorTraits(["a"], [[0, 1]]), StreamError, "shape"),
    "trait not 0/1": (
        lambda: ActorTraits(["a"], [[2]]), StreamError, "0/1"),
    "risk-set mode": (
        lambda: RiskSetPolicy("nearest"), StreamError, "unknown risk-set"),
    "static without sets": (
        lambda: RiskSetPolicy("static"), StreamError, "per-sender sets"),
    "callback without callable": (
        lambda: RiskSetPolicy("callback"), StreamError, "callable"),
    "beta length": (
        lambda: evaluate(small_design(), np.zeros(2)), ValueError, "length 1"),
    "variant": (
        lambda: evaluate(small_design(), np.zeros(1), "exact"), ValueError,
        "unknown variant"),
    "convention": (
        lambda: expected_counts(small_design(), np.zeros(1), "event"),
        ValueError, "unknown convention"),
    "no finite residual": (
        lambda: residual_summary(residuals(PairCounts(
            np.zeros((2, 2)), np.zeros((2, 2)), "duplication"))),
        ValueError, "no finite residuals"),
    "negative weight": (
        lambda: sample_fixed_size([1.0, -1.0], 1, None), ValueError,
        "negative"),
    "negative weight in a row": (
        lambda: sample_fixed_size_rows(np.array([[1.0, -1.0]]), [1], None),
        ValueError, "negative"),
    "no replicate": (
        lambda: BootstrapConfig(replicates=0), ValueError, "replicate"),
    "no Newton step": (
        lambda: SolverConfig(max_iters=0), ValueError, "max_iters"),
    "ridge cannot make a direction": (
        lambda: _newton_direction(-np.eye(2), np.ones(2)),
        SingularInformationError, "maximal ridge"),
    "no target or horizon": (
        lambda: sim(n_events=None), StreamError, "horizon"),
    "set size 0": (
        lambda: sim(size_weights={0: 1.0}), StreamError, "positive"),
    "negative size weight": (
        lambda: sim(size_weights={1: -1.0}), StreamError, "nonnegative"),
    "beta_true length": (
        lambda: sim(beta_true=[0.0, 0.0]), StreamError, "does not match"),
    "negative baseline": (
        lambda: simulate(sim(baseline=-1.0)), StreamError, "nonnegative"),
    "callback policy in simulation": (
        lambda: simulate(sim(policy=RiskSetPolicy(
            "callback", callback=lambda t, i: {(i + 1) % 3}))),
        StreamError, "static risk policies"),
    "nothing before the horizon": (
        lambda: simulate(sim(n_events=None, horizon=1e-9)), StreamError,
        "no events generated"),
    "no rate before the horizon": (
        lambda: simulate(sim(n_events=None, horizon=10.0, baseline=0.0)),
        StreamError, "no events generated"),
}


@pytest.mark.parametrize("case", CASES)
def test_refused(case):
    call, error, message = CASES[case]
    with pytest.raises(error, match=message):
        call()


FILES = {
    "events without header": (
        lambda p: ingest_events(p), "t,s,r\n1.0,0,1\n", "line 1"),
    "events row short": (
        lambda p: ingest_events(p), "time,sender,receivers\n1.0,0\n",
        "line 2: expected 3 fields"),
    "events without receivers": (
        lambda p: ingest_events(p), "time,sender,receivers\n1.0,0,\n",
        "line 2: empty receiver set"),
    "events format": (
        lambda p: ingest_events(p, format="xml"), "", "unknown format"),
    "traits without header": (
        lambda p: ingest_traits(p), "id,a\n0,1\n", "line 1"),
    "traits row short": (
        lambda p: ingest_traits(p), "actor,a,b\n0,1\n",
        "line 2: field count"),
    "traits id not a number": (
        lambda p: ingest_traits(p), "actor,a\nx,1\n", "line 2"),
}


@pytest.mark.parametrize("case", FILES)
def test_refused_file(tmp_path, case):
    call, text, message = FILES[case]
    with pytest.raises(StreamError, match=message):
        call(write(tmp_path, text))


def test_export_format_refused(tmp_path):
    with pytest.raises(StreamError, match="unknown format"):
        export_events(small_stream(), str(tmp_path / "e"), "xml")

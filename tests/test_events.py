import json

import numpy as np
import pytest

from sendrate import (ActorTraits, CovariateSpec, Event, EventStream,
                      RiskSetPolicy, StreamError, export_events, ingest_events,
                      ingest_traits, prepare)
from sendrate.events import MalformedRowError


def risk_ids(policy, t, i, actor_count):
    """Eligible receiver ids of sender i at time t, ascending."""
    return np.flatnonzero(policy.mask(t, i, actor_count)).tolist()


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestIngest:
    def test_csv_row_maps_to_event(self, tmp_path):
        path = write(tmp_path, "e.csv",
                     'time,sender,receivers\n100.0,3,"5;7"\n')
        stream, report = ingest_events(path, actor_count=8)
        ev = stream.events[0]
        assert ev.time == 100.0 and ev.sender == 3 and ev.receivers == (5, 7)
        assert report.retained == 1

    def test_out_of_order_rows_sorted_with_warning(self, tmp_path):
        path = write(tmp_path, "e.csv",
                     "time,sender,receivers\n2.0,0,1\n1.0,1,0\n")
        with pytest.warns(UserWarning):
            stream, _ = ingest_events(path, actor_count=2)
        assert [e.time for e in stream] == [1.0, 2.0]

    def test_recipient_cutoff_drops_and_counts(self, tmp_path):
        path = write(tmp_path, "e.csv",
                     'time,sender,receivers\n1.0,0,"1;2;3;4;5;6"\n2.0,0,1\n')
        stream, report = ingest_events(path, cutoff=5, actor_count=7)
        assert len(stream) == 1
        assert report.dropped_oversize == 1
        assert report.retained + report.dropped_oversize == report.total_rows

    def test_jsonl_roundtrip_is_idempotent(self, tmp_path, rng):
        rows = [{"time": float(m), "sender": int(rng.integers(4)),
                 "receivers": [int((rng.integers(4) + 1 + m) % 5)]}
                for m in range(20)]
        for r in rows:
            if r["sender"] in r["receivers"]:
                r["receivers"] = [(r["sender"] + 1) % 5]
        path = write(tmp_path, "e.jsonl",
                     "\n".join(json.dumps(r) for r in rows) + "\n")
        stream, _ = ingest_events(path, format="jsonl")
        out1 = str(tmp_path / "o1.jsonl")
        export_events(stream, out1, format="jsonl")
        stream2, _ = ingest_events(out1, format="jsonl")
        out2 = str(tmp_path / "o2.jsonl")
        export_events(stream2, out2, format="jsonl")
        assert open(out1).read() == open(out2).read()

    def test_csv_roundtrip_is_idempotent(self, tmp_path):
        path = write(tmp_path, "e.csv",
                     'time,sender,receivers\n1.5,0,"1;2"\n2.25,2,0\n')
        stream, _ = ingest_events(path)
        out1 = str(tmp_path / "o1.csv")
        export_events(stream, out1)
        stream2, _ = ingest_events(out1)
        out2 = str(tmp_path / "o2.csv")
        export_events(stream2, out2)
        assert open(out1).read() == open(out2).read()

    def test_malformed_row_reports_line(self, tmp_path):
        path = write(tmp_path, "e.csv", "time,sender,receivers\n1.0,x,1\n")
        with pytest.raises(MalformedRowError, match="line 2"):
            ingest_events(path)

    def test_blank_lines_skipped_and_counted(self, tmp_path):
        path = write(tmp_path, "e.csv", "time,sender,receivers\n1.0,0,1\n\n")
        assert len(ingest_events(path)[0]) == 1
        path = write(tmp_path, "e.csv", "time,sender,receivers\n\n1.0,x,1\n")
        with pytest.raises(MalformedRowError, match="line 3"):
            ingest_events(path)
        path = write(tmp_path, "t.csv", "actor,a\n0,1\n\n1,2\n")
        with pytest.raises(MalformedRowError, match="line 4"):
            ingest_traits(path)

    @pytest.mark.parametrize("time", ["nan", "inf", "-inf"])
    def test_nonfinite_time_names_line(self, tmp_path, time):
        path = write(tmp_path, "e.csv",
                     f"time,sender,receivers\n1.0,0,1\n{time},1,0\n")
        with pytest.raises(MalformedRowError, match="line 3: time"):
            ingest_events(path)
        path = write(tmp_path, "e.jsonl", '{"time": NaN, "sender": 0, '
                     '"receivers": [1]}\n')
        with pytest.raises(MalformedRowError, match="line 1: time"):
            ingest_events(path, format="jsonl")
        # a JSON integer past float64's range
        path = write(tmp_path, "e.jsonl", '{"time": 1%s, "sender": 0, '
                     '"receivers": [1]}\n' % ("0" * 400))
        with pytest.raises(MalformedRowError, match="line 1"):
            ingest_events(path, format="jsonl")

    @pytest.mark.parametrize("field, value", [
        ("receivers", '"12"'), ("receivers", "[1.5]"), ("receivers", "3"),
        ("sender", "1.7"), ("sender", '"0"'), ("sender", "true"),
        ("time", '"5"')])
    def test_mistyped_jsonl_field_names_it(self, tmp_path, field, value):
        row = {"time": "5.0", "sender": "0", "receivers": "[1, 2]"}
        row[field] = value
        text = "{" + ", ".join(f'"{k}": {v}' for k, v in row.items()) + "}"
        path = write(tmp_path, "e.jsonl",
                     '{"time": 1.0, "sender": 2, "receivers": [0]}\n'
                     + text + "\n")
        with pytest.raises(MalformedRowError, match=f"line 2: {field}"):
            ingest_events(path, format="jsonl")

    def test_unknown_actor_id(self, tmp_path):
        path = write(tmp_path, "e.csv", "time,sender,receivers\n1.0,9,1\n")
        with pytest.raises(MalformedRowError, match="unknown actor"):
            ingest_events(path, actor_count=3)

    def test_empty_stream(self, tmp_path):
        path = write(tmp_path, "e.csv", "time,sender,receivers\n")
        with pytest.raises(StreamError):
            ingest_events(path)

    def test_densification_preserves_labels(self, tmp_path):
        path = write(tmp_path, "e.csv",
                     "time,sender,receivers\n1.0,100,200\n2.0,200,100\n")
        stream, report = ingest_events(path)
        assert stream.actor_count == 2
        assert stream.original_ids == [100, 200]
        out = str(tmp_path / "o.csv")
        export_events(stream, out)
        assert "100,200" in open(out).read()


class TestEventInvariants:
    def test_receivers_deduplicated_and_sorted(self):
        assert Event(1.0, 0, (3, 1, 3)).receivers == (1, 3)

    def test_empty_receivers_rejected(self):
        with pytest.raises(StreamError):
            Event(1.0, 0, ())

    def test_self_loop_rejected_by_stream(self):
        with pytest.raises(StreamError):
            EventStream([Event(1.0, 0, (0, 1))], 2)

    def test_time_regression_not_allowed_in_state(self):
        from sendrate.covariates import CovariateSpec, DynamicState
        spec = CovariateSpec(dyadic=[("send", "indicator")])
        state = DynamicState(spec, 3)
        state.advance(Event(5.0, 0, (1,)))
        with pytest.raises(StreamError):
            state.advance(Event(4.0, 1, (2,)))


class TestTraits:
    def test_products(self):
        traits = ActorTraits(["L", "J", "T", "F"],
                             [[1, 1, 0, 0], [0, 0, 0, 1]])
        full = traits.with_products([("L", "J"), ("T", "F")])
        assert full.column("LJ").tolist() == [1, 0]
        assert full.column("TF").tolist() == [0, 0]

    def test_repeated_name_refused(self):
        with pytest.raises(StreamError, match="trait 'a' named twice"):
            ActorTraits(["a", "b", "a"], [[1, 0, 1]])

    def test_product_shadowing_a_trait_refused(self, tmp_path):
        # the product of L and J would be named LJ, which column("LJ")
        # would never read
        traits = ActorTraits(["L", "J", "LJ"], [[1, 1, 0], [0, 1, 1]])
        with pytest.raises(StreamError, match="trait 'LJ' named twice"):
            traits.with_products([("L", "J")])
        p = write(tmp_path, "t.csv", "actor,L,J,LJ\n0,1,1,0\n1,0,1,1\n")
        with pytest.raises(StreamError, match="trait 'LJ' named twice"):
            ingest_traits(p, product_pairs=[("L", "J")])

    def test_enron_style_counts_validate(self):
        # Department (L/T/other) x seniority (J/S) x gender (F/M) cell
        # counts chosen to match the published marginals.
        cells = {
            ("L", "J", "F"): 6, ("L", "J", "M"): 6,
            ("L", "S", "F"): 7, ("L", "S", "M"): 6,
            ("T", "J", "F"): 5, ("T", "J", "M"): 19,
            ("T", "S", "F"): 5, ("T", "S", "M"): 31,
            ("O", "J", "F"): 16, ("O", "J", "M"): 30,
            ("O", "S", "F"): 4, ("O", "S", "M"): 21,
        }
        rows = []
        for (dept, sen, gen), count in cells.items():
            row = [int(dept == "L"), int(dept == "T"),
                   int(sen == "J"), int(gen == "F")]
            rows += [row] * count
        traits = ActorTraits(["L", "T", "J", "F"], rows).with_products(
            [("L", "J"), ("T", "J"), ("L", "F"), ("T", "F"), ("J", "F")])
        counts = dict(zip(traits.names, traits.matrix.sum(axis=0)))
        assert traits.actor_count == 156
        assert counts == {"L": 25, "T": 60, "J": 82, "F": 43, "LJ": 12,
                          "TJ": 24, "LF": 13, "TF": 10, "JF": 27}

    def test_ingest_traits_rejects_non_binary(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("actor,a\n0,2\n")
        with pytest.raises(StreamError):
            ingest_traits(str(p))

    def test_ingest_traits_repeated_actor(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("actor,a\n0,1\n1,0\n1,1\n2,0\n")
        with pytest.raises(MalformedRowError, match="line 4: actor 1 listed"):
            ingest_traits(str(p))

    def test_ingest_traits_repeated_name(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("actor,a,a\n0,1,0\n1,0,1\n")
        with pytest.raises(MalformedRowError, match="line 1: trait 'a' named"):
            ingest_traits(str(p))

    def test_ingest_traits_row_mismatch(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("actor,a\n0,1\n2,0\n")
        with pytest.raises(StreamError, match="actors 0..1"):
            ingest_traits(str(p))


class TestRiskSets:
    def test_all_but_sender(self):
        policy = RiskSetPolicy()
        assert risk_ids(policy, 0.0, 2, 4) == [0, 1, 3]

    def test_all_but_sender_size_155(self):
        policy = RiskSetPolicy()
        rs = risk_ids(policy, 10.0, 17, 156)
        assert len(rs) == 155 and 17 not in rs

    def test_static_passthrough(self):
        policy = RiskSetPolicy("static", static_sets={0: {1, 2}})
        assert risk_ids(policy, 0.0, 0, 5) == [1, 2]
        assert risk_ids(policy, 99.0, 0, 5) == [1, 2]

    def test_deterministic(self):
        policy = RiskSetPolicy("callback", callback=lambda t, i: {1, 3})
        assert risk_ids(policy, 1.0, 0, 5) == risk_ids(policy, 1.0, 0, 5)


class TestBadRiskSets:
    """A policy that gives a sender no set, or a set naming an id outside
    the registry, fails in ``prepare`` with a StreamError naming it."""

    def prepare_with(self, policy, first=(1,)):
        events = [Event(1.0, 0, first), Event(2.0, 1, (0,)),
                  Event(3.0, 2, (0,))]
        return prepare(EventStream(events, 3),
                       CovariateSpec(dyadic=[("send", "indicator")]),
                       policy=policy)

    def test_static_set_missing_for_sender(self):
        policy = RiskSetPolicy("static", static_sets={0: {1}, 2: {0}})
        with pytest.raises(StreamError, match="sender 1"):
            self.prepare_with(policy)

    def test_id_past_registry(self):
        for policy in (
                RiskSetPolicy("static", static_sets={0: {1, 3}, 1: {0},
                                                     2: {0}}),
                RiskSetPolicy("callback", callback=lambda t, i: {1, 3} - {i})):
            with pytest.raises(StreamError, match="sender 0"):
                self.prepare_with(policy)

    def test_set_holding_the_sender(self):
        # the sender would count as a receiver no event can pick
        for policy in (
                RiskSetPolicy("static", static_sets={0: {0, 1}, 1: {0},
                                                     2: {0}}),
                RiskSetPolicy("callback", callback=lambda t, i: {0, 1, 2})):
            with pytest.raises(StreamError, match="sender 0 holds the sender"):
                self.prepare_with(policy)

    def test_negative_id_does_not_wrap(self):
        # -1 would index actor 2 and make the event 0 -> 2 look eligible
        policy = RiskSetPolicy("static", static_sets={0: {-1}, 1: {0}, 2: {0}})
        with pytest.raises(StreamError, match="sender 0"):
            self.prepare_with(policy, first=(2,))

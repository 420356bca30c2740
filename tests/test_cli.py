import json
import os

import numpy as np
import pytest

from sendrate import (CovariateSpec, SolverConfig, fit, ingest_events,
                      ingest_traits, prepare, solver)
from sendrate.cli import main

SIM_CONFIG = {
    "actor_count": 10,
    "beta_true": [0.8, 0.4],
    "covariates": {
        "static": [],
        "dyadic": [{"effect": "send", "form": "indicator"},
                   {"effect": "receive", "form": "indicator"}],
        "triadic": [],
        "intervals_seconds": [1800.0],
    },
    "seed": 99,
    "baseline": 0.01,
    "size_weights": {"1": 1.0, "2": 0.08},
    "n_events": 400,
}


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sim.json").write_text(json.dumps(SIM_CONFIG))
    (tmp_path / "spec.json").write_text(json.dumps(SIM_CONFIG["covariates"]))
    return tmp_path


def run(*argv):
    return main(list(argv))


class TestSimulateAndFit:
    def test_end_to_end(self, workdir, capsys):
        assert run("simulate", "--config", "sim.json", "--out", "e.csv",
                   "--truth", "truth.json") == 0
        assert os.path.exists("e.csv") and os.path.exists("truth.json")
        assert os.path.exists("e.csv.manifest.json")

        assert run("fit", "--events", "e.csv", "--spec", "spec.json",
                   "--variant", "approx", "--out", "fit.json") == 0
        fit = json.loads(open("fit.json").read())
        assert fit["converged"] is True
        assert len(fit["beta"]) == 2
        # recovered within 4 standard errors of the generating values
        for bh, se, bt in zip(fit["beta"], fit["se"], SIM_CONFIG["beta_true"]):
            assert abs(bh - bt) < 4 * se

        assert run("diagnose", "--fit", "fit.json", "--events", "e.csv",
                   "--spec", "spec.json", "--out", "diag.") == 0
        assert os.path.exists("diag.residuals.csv")
        summary = json.loads(open("diag.summary.json").read())
        assert "x2" in summary

        assert run("bootstrap", "--events", "e.csv", "--spec", "spec.json",
                   "--fit", "fit.json", "--replicates", "5", "--seed", "7",
                   "--out", "boot.json") == 0
        boot = json.loads(open("boot.json").read())
        assert len(boot["replicates"]) == 5

    def test_simulate_deterministic(self, workdir):
        run("simulate", "--config", "sim.json", "--out", "a.csv")
        run("simulate", "--config", "sim.json", "--out", "b.csv")
        assert open("a.csv").read() == open("b.csv").read()
        run("simulate", "--config", "sim.json", "--out", "c.csv",
            "--seed", "123")
        assert open("c.csv").read() != open("a.csv").read()

    def test_bootstrap_rerun_identical(self, workdir):
        run("simulate", "--config", "sim.json", "--out", "e.csv")
        run("fit", "--events", "e.csv", "--spec", "spec.json",
            "--out", "fit.json")
        for out in ("b1.json", "b2.json"):
            run("bootstrap", "--events", "e.csv", "--spec", "spec.json",
                "--fit", "fit.json", "--replicates", "4", "--seed", "42",
                "--out", out)
        assert open("b1.json").read() == open("b2.json").read()

    def test_bootstrap_fits_without_fit_file(self, workdir):
        run("simulate", "--config", "sim.json", "--out", "e.csv")
        run("fit", "--events", "e.csv", "--spec", "spec.json",
            "--out", "fit.json")
        for out, given in (("b1.json", ["--fit", "fit.json"]), ("b2.json", [])):
            assert run("bootstrap", "--events", "e.csv", "--spec", "spec.json",
                       "--replicates", "3", "--seed", "5", "--out", out,
                       *given) == 0
        assert open("b1.json").read() == open("b2.json").read()

    def test_exact_fit_of_sets_up_to_nine(self, workdir):
        # the exact variant takes any set size the cutoff keeps
        sim = dict(SIM_CONFIG, actor_count=14, n_events=300,
                   size_weights={"1": 1.0, "5": 1e-4, "9": 1e-5})
        (workdir / "big.json").write_text(json.dumps(sim))
        assert run("simulate", "--config", "big.json", "--out", "e.csv") == 0
        stream, _ = ingest_events("e.csv", cutoff=9)
        assert max(e.size for e in stream) == 9
        assert run("fit", "--events", "e.csv", "--spec", "spec.json",
                   "--variant", "exact", "--cutoff", "9",
                   "--out", "fit.json") == 0

    def test_deviance_table_output(self, workdir):
        run("simulate", "--config", "sim.json", "--out", "e.csv")
        assert run("fit", "--events", "e.csv", "--spec", "spec.json",
                   "--out", "fit.json", "--deviance", "send,receive") == 0
        lines = open("fit.json.deviance.csv").read().splitlines()
        assert lines[0] == "Term,Df,Deviance,Resid. Df,Resid. Dev"
        assert [l.split(",")[0] for l in lines[1:]] == ["Null", "send", "receive"]


class TestTraits:
    @pytest.fixture
    def traited(self, workdir):
        (workdir / "traits.csv").write_text(
            "actor,g\n" + "\n".join(f"{i},{int(i < 3)}" for i in range(10)))
        spec = dict(SIM_CONFIG["covariates"], static=["1*g"])
        (workdir / "tspec.json").write_text(json.dumps(spec))
        sim = dict(SIM_CONFIG, covariates=spec, beta_true=[1.5, 0.8, 0.4],
                   traits="traits.csv", n_events=600)
        (workdir / "tsim.json").write_text(json.dumps(sim))
        assert run("simulate", "--config", "tsim.json", "--out", "t.csv") == 0
        return workdir

    def test_trait_rows_follow_actor_ids(self, traited):
        # ids first appear out of order, so numbering actors by first
        # appearance would pair them with other actors' trait rows
        stream, _ = ingest_events("t.csv")
        assert stream.original_ids != sorted(stream.original_ids)
        assert run("fit", "--events", "t.csv", "--spec", "tspec.json",
                   "--traits", "traits.csv", "--out", "fit.json") == 0
        traits = ingest_traits("traits.csv")
        stream, _ = ingest_events("t.csv", actor_count=traits.actor_count,
                                  traits=traits)
        design = prepare(stream, CovariateSpec.load("tspec.json"), traits=traits)
        want = fit(design, "approx_multicast", SolverConfig(max_iters=100))
        assert json.loads(open("fit.json").read())["beta"] == want.beta.tolist()

    @pytest.mark.parametrize("text, where", [
        ("actor,g\n0,1\n1,0\n1,1\n2,0\n", "line 4: actor 1 listed twice"),
        ("actor,g,g\n0,1,0\n1,0,1\n", "line 1: trait 'g' named twice")],
        ids=["actor", "trait"])
    def test_repeated_trait_row_or_name_is_1(self, traited, capsys, text,
                                             where):
        (traited / "dup.csv").write_text(text)
        assert run("fit", "--events", "t.csv", "--spec", "tspec.json",
                   "--traits", "dup.csv", "--out", "fit.json") == 1
        assert where in capsys.readouterr().err

    @pytest.mark.parametrize("terms, name", [
        (dict(static=["1*g", "1*g"]), "1*g"),
        (dict(dyadic=[{"effect": "send", "form": "both"},
                      {"effect": "send", "form": "indicator"}]), "send")],
        ids=["static", "dyadic"])
    def test_repeated_covariate_column_is_1(self, traited, capsys, terms,
                                            name):
        spec = dict(SIM_CONFIG["covariates"], **terms)
        (traited / "dup_spec.json").write_text(json.dumps(spec))
        assert run("fit", "--events", "t.csv", "--spec", "dup_spec.json",
                   "--traits", "traits.csv", "--out", "fit.json") == 1
        assert f"column '{name}' listed twice" in capsys.readouterr().err

    def test_static_deviance_group(self, traited):
        assert run("fit", "--events", "t.csv", "--spec", "tspec.json",
                   "--traits", "traits.csv", "--out", "fit.json",
                   "--deviance", "static,send,receive") == 0
        lines = open("fit.json.deviance.csv").read().splitlines()
        assert [l.split(",")[0] for l in lines[1:]] == [
            "Null", "static", "send", "receive"]

    def test_actor_outside_traits_is_1(self, traited):
        (traited / "short.csv").write_text(
            "actor,g\n" + "\n".join(f"{i},{int(i < 3)}" for i in range(9)))
        assert run("fit", "--events", "t.csv", "--spec", "tspec.json",
                   "--traits", "short.csv", "--out", "fit.json") == 1


class TestExitCodes:
    def test_usage_error_is_64(self, workdir):
        assert run("fit", "--spec", "spec.json") == 64
        # replicates draw from the one fixed-size law: no sampler option
        assert run("bootstrap", "--events", "e.csv", "--spec", "spec.json",
                   "--sampler", "conditional_poisson") == 64
        # a seed is a non-negative integer
        assert run("simulate", "--config", "sim.json", "--seed", "-1") == 64
        assert run("bootstrap", "--events", "e.csv", "--spec", "spec.json",
                   "--seed", "-1") == 64

    def test_missing_file_is_1(self, workdir):
        assert run("fit", "--events", "nope.csv", "--spec", "spec.json") == 1

    def test_malformed_events_is_1(self, workdir):
        (workdir / "bad.csv").write_text("time,sender,receivers\n1.0,x,y\n")
        assert run("fit", "--events", "bad.csv", "--spec", "spec.json") == 1

    def test_nonconvergence_is_2(self, workdir):
        run("simulate", "--config", "sim.json", "--out", "e.csv")
        assert run("fit", "--events", "e.csv", "--spec", "spec.json",
                   "--out", "fit.json", "--max-iters", "1") == 2

    def test_identifiability_failure_is_3(self, workdir):
        run("simulate", "--config", "sim.json", "--out", "e.csv")
        (workdir / "traits.csv").write_text(
            "actor,g,one\n" + "\n".join(f"{i},{i % 2},1" for i in range(10)))
        spec = dict(SIM_CONFIG["covariates"])
        spec["static"] = ["g*one"]
        (workdir / "bad_spec.json").write_text(json.dumps(spec))
        assert run("fit", "--events", "e.csv", "--spec", "bad_spec.json",
                   "--traits", "traits.csv", "--out", "fit.json") == 3


    def test_spec_entry_without_effect_is_1(self, workdir):
        run("simulate", "--config", "sim.json", "--out", "e.csv")
        spec = dict(SIM_CONFIG["covariates"], dyadic=[{"form": "indicator"}])
        (workdir / "bad_spec.json").write_text(json.dumps(spec))
        assert run("fit", "--events", "e.csv", "--spec", "bad_spec.json",
                   "--out", "fit.json") == 1

    def test_sim_config_without_field_is_1(self, workdir):
        sim = {k: v for k, v in SIM_CONFIG.items() if k != "beta_true"}
        (workdir / "bad_sim.json").write_text(json.dumps(sim))
        assert run("simulate", "--config", "bad_sim.json", "--out", "e.csv") == 1

    def test_sim_config_not_an_object_is_1(self, workdir, capsys):
        (workdir / "bad_sim.json").write_text("[1, 2]")
        assert run("simulate", "--config", "bad_sim.json", "--out", "e.csv") == 1
        assert "expected a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("traits", [5, True, ["t.csv"], False, 0, []])
    def test_sim_config_traits_not_a_path_is_1(self, workdir, capsys, traits):
        # an integer would be opened as a file descriptor
        (workdir / "bad_sim.json").write_text(
            json.dumps(dict(SIM_CONFIG, traits=traits)))
        assert run("simulate", "--config", "bad_sim.json", "--out", "e.csv") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "traits" in err

    @pytest.mark.parametrize("time", ["nan", "inf"])
    def test_nonfinite_event_time_is_1(self, workdir, capsys, time):
        run("simulate", "--config", "sim.json", "--out", "e.csv")
        lines = open("e.csv").read().splitlines()
        lines.insert(3, f"{time},1,0")
        (workdir / "bad.csv").write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run("fit", "--events", "bad.csv", "--spec", "spec.json",
                   "--out", "fit.json") == 1
        assert "line 4: time" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("receivers", '"12"'),
                                              ("sender", "1.7")])
    def test_mistyped_jsonl_field_is_1(self, workdir, capsys, field, value):
        row = {"time": "5.0", "sender": "0", "receivers": "[1, 2]"}
        row[field] = value
        (workdir / "bad.jsonl").write_text(
            '{"time": 1.0, "sender": 2, "receivers": [0]}\n{'
            + ", ".join(f'"{k}": {v}' for k, v in row.items()) + "}\n")
        assert run("fit", "--events", "bad.jsonl", "--format", "jsonl",
                   "--spec", "spec.json", "--out", "fit.json") == 1
        assert f"line 2: {field}" in capsys.readouterr().err

    def test_nonfinite_interval_is_1(self, workdir, capsys):
        run("simulate", "--config", "sim.json", "--out", "e.csv")
        spec = dict(SIM_CONFIG["covariates"], intervals_seconds=[float("nan")])
        (workdir / "bad_spec.json").write_text(json.dumps(spec))
        capsys.readouterr()
        assert run("fit", "--events", "e.csv", "--spec", "bad_spec.json",
                   "--out", "fit.json") == 1
        assert "intervals_seconds" in capsys.readouterr().err

    def test_nonfinite_horizon_is_1(self, workdir, capsys):
        # with no event target such a horizon never ends the simulation
        (workdir / "bad_sim.json").write_text(
            json.dumps(dict(SIM_CONFIG, horizon=float("nan"))))
        assert run("simulate", "--config", "bad_sim.json", "--out", "e.csv") == 1
        assert "horizon" in capsys.readouterr().err

    def test_deviance_group_without_terms_is_1(self, workdir, capsys):
        run("simulate", "--config", "sim.json", "--out", "e.csv")
        assert run("fit", "--events", "e.csv", "--spec", "spec.json",
                   "--deviance", "send,sibling") == 1
        assert "'sibling' matches no terms" in capsys.readouterr().err

    def test_singular_information_is_3(self, workdir, monkeypatch):
        def singular(info, score):
            raise solver.SingularInformationError("no direction")
        monkeypatch.setattr(solver, "_newton_direction", singular)
        run("simulate", "--config", "sim.json", "--out", "e.csv")
        assert run("fit", "--events", "e.csv", "--spec", "spec.json") == 3

    def test_spec_without_terms_is_1(self, workdir, capsys):
        run("simulate", "--config", "sim.json", "--out", "e.csv")
        (workdir / "empty.json").write_text("{}")
        assert run("fit", "--events", "e.csv", "--spec", "empty.json") == 1
        assert "no covariate columns" in capsys.readouterr().err

    def test_fit_file_without_field_is_1(self, workdir):
        run("simulate", "--config", "sim.json", "--out", "e.csv")
        (workdir / "bad_fit.json").write_text(json.dumps({"beta": [0.0, 0.0]}))
        assert run("diagnose", "--fit", "bad_fit.json", "--events", "e.csv",
                   "--spec", "spec.json", "--out", "diag.") == 1

    def test_nonpositive_count_is_64(self, workdir):
        run("simulate", "--config", "sim.json", "--out", "e.csv")
        assert run("fit", "--events", "e.csv", "--spec", "spec.json",
                   "--max-iters", "0") == 64
        for cutoff in ("0", "-2"):
            assert run("fit", "--events", "e.csv", "--spec", "spec.json",
                       "--cutoff", cutoff) == 64
        assert run("bootstrap", "--events", "e.csv", "--spec", "spec.json",
                   "--replicates", "0") == 64

    @pytest.mark.parametrize("field, value", [
        ("size_weights", {"x": 1.0}),
        ("baseline", "abc"),
        ("covariates", dict(SIM_CONFIG["covariates"], intervals_seconds=["a"])),
        ("covariates", dict(SIM_CONFIG["covariates"], static=[5])),
        ("size_weights", [1.0]),
        ("actor_count", "x"),
        ("actor_count", 10.5),
        ("n_events", "x"),
        ("seed", "x"),
        ("horizon", "x"),
        ("beta_true", [float("nan"), 0.4]),
        ("size_weights", {"1": float("nan")}),
        ("size_weights", {"1": 1.0, "2": float("inf")}),
        ("baseline", float("inf")),
        ("baseline", [float("nan")] * 10),
        ("baseline", [1, 2, 3]),
        ("baseline", [[0.01] * 10])])
    def test_sim_config_with_bad_value_is_1(self, workdir, capsys, field, value):
        (workdir / "bad_sim.json").write_text(
            json.dumps(dict(SIM_CONFIG, **{field: value})))
        assert run("simulate", "--config", "bad_sim.json", "--out", "e.csv") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        # the covariate spec's errors name its own fields
        assert field in err or field == "covariates"

    @pytest.mark.parametrize("command, value", [("diagnose", "nan"),
                                                ("bootstrap", "inf"),
                                                ("bootstrap", "-inf")])
    def test_fit_file_with_nonfinite_beta_is_1(self, workdir, capsys,
                                               command, value):
        run("simulate", "--config", "sim.json", "--out", "e.csv")
        run("fit", "--events", "e.csv", "--spec", "spec.json",
            "--out", "fit.json")
        obj = json.loads(open("fit.json").read())
        obj["beta"][0] = float(value)      # written as NaN / Infinity
        (workdir / "bad_fit.json").write_text(json.dumps(obj))
        capsys.readouterr()
        extra = ["--replicates", "2"] if command == "bootstrap" else []
        assert run(command, "--fit", "bad_fit.json", "--events", "e.csv",
                   "--spec", "spec.json", *extra) == 1
        assert "beta" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["diagnose", "bootstrap"])
    @pytest.mark.parametrize("field, value", [
        ("cov", "short"), ("cov", "abc"), ("se", "short"), ("se", "x"),
        ("terms", 5), ("terms", ["send", "other"])])
    def test_malformed_fit_file_is_1(self, workdir, capsys, command,
                                     field, value):
        run("simulate", "--config", "sim.json", "--out", "e.csv")
        run("fit", "--events", "e.csv", "--spec", "spec.json",
            "--out", "fit.json")
        obj = json.loads(open("fit.json").read())
        obj[field] = obj[field][:-1] if value == "short" else value
        (workdir / "bad_fit.json").write_text(json.dumps(obj))
        capsys.readouterr()
        extra = ["--replicates", "2"] if command == "bootstrap" else []
        assert run(command, "--fit", "bad_fit.json", "--events", "e.csv",
                   "--spec", "spec.json", *extra) == 1
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("variant", ["exact", "nonsense"])
    def test_bootstrap_of_fit_it_cannot_correct_is_1(self, workdir, capsys,
                                                     variant):
        # an exact fit carries no duplication bias to subtract
        run("simulate", "--config", "sim.json", "--out", "e.csv")
        run("fit", "--events", "e.csv", "--spec", "spec.json", "--out",
            "fit.json", "--variant", "approx" if variant == "nonsense"
            else variant)
        obj = json.loads(open("fit.json").read())
        if variant == "nonsense":
            obj["variant"] = variant
        (workdir / "fit.json").write_text(json.dumps(obj))
        capsys.readouterr()
        assert run("bootstrap", "--fit", "fit.json", "--events", "e.csv",
                   "--spec", "spec.json", "--replicates", "2") == 1
        assert "variant" in capsys.readouterr().err

    def test_programming_error_propagates(self, workdir, monkeypatch):
        def broken(args):
            raise KeyError("a bug, not bad data")
        monkeypatch.setattr("sendrate.cli.cmd_simulate", broken)
        with pytest.raises(KeyError):
            run("simulate", "--config", "sim.json", "--out", "e.csv")


class TestManifest:
    def test_contents(self, workdir):
        run("simulate", "--config", "sim.json", "--out", "e.csv")
        run("fit", "--events", "e.csv", "--spec", "spec.json",
            "--out", "fit.json")
        man = json.loads(open("fit.json.manifest.json").read())
        assert man["command"] == "fit"
        assert "e.csv" in man["inputs"] and "spec.json" in man["inputs"]
        assert len(man["inputs"]["e.csv"]) == 64
        assert man["artifact_version"]
        assert man["outputs"]["primary"] == "fit.json"
        assert man["wall_clock_sec"] >= 0

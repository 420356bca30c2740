"""Seeded benchmark of sendrate, layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload recovery|multicast|paper \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

A run sets the workload up several times in child processes (``setup_s``),
then repeats rounds of the workload's pipeline until ``--seconds`` of wall
time have passed, checking every round's outputs after its timed calls.
It prints one line per metric and, as its last line, a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A
traced run alternates traced and untraced rounds and writes its spans to
``perfbench/out/``.  ``--selftest`` sends every workload, at a reduced size,
through one round and the same checks.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import inputs      # noqa: E402
import tracing     # noqa: E402
import workloads   # noqa: E402

SETUP_REPEATS = 5

DESIGN_OPS = {"events.ingest_traits", "covariates.load_spec",
              "events.ingest_events", "design.prepare"}
MAIN_VARIANT = {"recovery": "pairwise", "multicast": "approx_multicast",
                "paper": "approx_multicast"}
UNITS = {"setup_s": "s", "design_s": "s", "total_s": "s",
         "peak_rss_mb": "MB", "design.rows": "count", "design.blocks": "count",
         "design.block_share": "ratio", "design.dX_mb": "MB",
         "design.nonzero_share": "ratio", "design.rss_mb": "MB",
         "trace.overhead_share": "ratio"}


def import_library():
    """Import sendrate from this checkout's ``src``, and from nowhere else."""
    if not (SRC / "sendrate" / "__init__.py").is_file():
        sys.exit(f"perfbench: no sendrate package under {SRC}")
    sys.path.insert(0, str(SRC))
    import sendrate
    if Path(sendrate.__file__).resolve().parent != SRC / "sendrate":
        sys.exit(f"perfbench: sendrate imported from {sendrate.__file__}")
    return sendrate


def blas_info():
    """BLAS library of this numpy and its thread count, where it says."""
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        name = "unknown"
    threads = None
    try:
        # numpy's wheels bundle OpenBLAS next to the package; loading it again
        # returns the handle numpy already uses
        for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
            handle = ctypes.CDLL(str(lib))
            for sym in ("scipy_openblas_get_num_threads64_",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(handle, sym):
                    threads = int(getattr(handle, sym)())
                    break
    except OSError:
        pass
    env = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                      "MKL_NUM_THREADS") if k in os.environ}
    return {"blas": name, "blas_threads": threads, "thread_env": env,
            "cpus": os.cpu_count()}


def stages(durations, ops):
    """End-to-end stage seconds of one round from its per-call durations."""
    def total(names):
        return sum(durations.get(op, 0.0) for op in ops if op in names)
    return {"design_s": total(DESIGN_OPS), "total_s": total(set(ops))}


def layer_metrics(self_times, facts, workload):
    """Per-layer metrics of one traced round, from span self times."""
    evals = {k: [v for name, v in self_times.items() if name.startswith(
        f"likelihood.evaluate.{MAIN_VARIANT[workload]}.o{k}")] for k in range(3)}
    out = {
        "events.ingest_s": self_times["events.ingest_traits"]
        + self_times["events.ingest_events"],
        "design.prepare_s": self_times["design.prepare"],
        **{f"likelihood.o{k}_s": statistics.fmean(v) for k, v in evals.items()},
        "likelihood.selection_probabilities_s":
            self_times["likelihood.selection_probabilities"],
        "diagnostics.expected_counts_s": self_times["diagnostics.expected_counts"],
        "diagnostics.residuals_s": self_times["diagnostics.residuals"],
    }
    for key in ("design.rows", "design.blocks", "design.block_share",
                "design.dX_mb", "design.nonzero_share"):
        out[key] = facts[key]
    return out


def span_cost_s():
    """Seconds one traced span adds over an untraced one, measured here."""
    probe = tracing.Tracer("calibration")
    costs = []
    for traced in (True, False):
        probe.new_round(traced)
        start = time.perf_counter()
        for _ in range(20_000):
            with probe.span("x"):
                pass
        costs.append((time.perf_counter() - start) / 20_000)
    return max(0.0, costs[0] - costs[1])


def run_round(sr, ctx, workload, tracer, r, traced):
    round_fn, ops = workloads.WORKLOADS[workload]
    first = tracer.new_round(traced)
    rd = workloads.Round(tracer, ops)
    try:
        with tracer.span("round"):
            round_fn(sr, rd, ctx, r)
    except Exception:       # the round's remaining operations count as failed
        traceback.print_exc(file=sys.stderr)
    for op, what in rd.bad.items():
        print(f"check failed: round {r} {op}: {what}", file=sys.stderr)
    return {"round": r, "traced": traced, "ops": len(ops),
            "failed": rd.failed_ops(), "checks_ok": not rd.bad,
            "durations": dict(tracer.durations), "facts": rd.facts,
            "self": tracer.self_times(first) if traced else None,
            "spans": len(tracer.spans) - first}


def setup(workload, seed, workdir):
    """Set the workload up SETUP_REPEATS times in fresh processes, each from
    process start to its inputs on disk; return the times and the paths of
    the last one."""
    times = []
    for k in range(SETUP_REPEATS):
        out = workdir / f"setup{k}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               str(out), "--workload", workload, "--seed", str(seed)]
        start = time.perf_counter()
        # no timeout: with one, the wait polls in sleeps of up to 50 ms,
        # which rounds every set-up time up to that grid
        subprocess.run(cmd, check=True)
        times.append(time.perf_counter() - start)
    return times, inputs.input_paths(workload, str(out))


def make_ctx(seed, paths, workdir, size):
    with open(paths["spec"]) as fh:
        spec_json = json.load(fh)
    return {"paths": paths, "seed": seed, "size": size, "workdir": str(workdir),
            "spec_json": spec_json}


def median_of(records, key_fn):
    return statistics.median(key_fn(rec) for rec in records)


def benchmark(workload, seed, seconds, trace):
    workdir = HERE / "work" / f"{workload}-s{seed}-t{trace}-p{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    sr = import_library()
    try:
        setup_times, paths = setup(workload, seed, workdir)
        ctx = make_ctx(seed, paths, workdir, "full")
        tracer = tracing.Tracer(f"{workload}-s{seed}-p{os.getpid()}-{time.time_ns()}")
        records = []
        start = time.perf_counter()
        # At least two rounds (a traced run alternates traced and untraced
        # ones); a further round starts only if one more round of the mean
        # length so far, checks included, still ends within the run's seconds.
        while len(records) < 2 or (
                time.perf_counter() - start) * (len(records) + 1) / len(records) <= seconds:
            r = len(records)
            records.append(run_round(sr, ctx, workload, tracer, r,
                                     traced=bool(trace) and r % 2 == 0))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    _, ops = workloads.WORKLOADS[workload]
    plain = [rec for rec in records if not rec["traced"]]
    traced = [rec for rec in records if rec["traced"]]
    e2e = {"setup_s": statistics.median(setup_times)}
    for key in ("design_s", "total_s"):
        e2e[key] = median_of(plain, lambda rec: stages(rec["durations"], ops)[key])
    e2e["peak_rss_mb"] = workloads.peak_rss_mb()

    info = blas_info()
    print(f"workload {workload} seed {seed} rounds {len(records)} "
          f"({len(traced)} traced) blas {info['blas']} threads "
          f"{info['blas_threads']} {info['thread_env'] or ''} cpus {info['cpus']}")
    print(f"setup_s runs: {' '.join(f'{t:.4f}' for t in setup_times)}")
    for name, value in e2e.items():
        print(f"metric {name} {value:.6g} {UNITS[name]}")
    # Every call's median time over the untraced rounds: the stages that only
    # some workloads run (simulation, fits, exact refit, bootstrap) show here.
    calls = {op: median_of(plain, lambda rec: rec["durations"].get(op, 0.0))
             for op in ops}
    for op, value in calls.items():
        print(f"call {op} {value:.6g} s")
    facts = records[0]["facts"]
    if "simulator.events" in facts:
        facts["simulator.events_per_s"] = facts["simulator.events"] / calls["simulator.simulate"]
    if "bootstrap.replicates" in facts:
        facts["bootstrap.replicate_s"] = calls["bootstrap.bootstrap_bias"] / facts["bootstrap.replicates"]
    for key, value in sorted(facts.items()):
        print(f"count {key} {value:.6g}")

    metrics = e2e
    if trace:
        layers = [layer_metrics(rec["self"], rec["facts"], workload) for rec in traced]
        metrics = {key: statistics.median(layer[key] for layer in layers)
                   for key in layers[0]}
        metrics["design.rss_mb"] = facts["design.rss_mb"]
        spans = statistics.median(rec["spans"] for rec in traced)
        metrics["trace.overhead_share"] = spans * span_cost_s() / e2e["total_s"]
        traced_total = median_of(traced, lambda rec: stages(rec["durations"], ops)["total_s"])
        print(f"trace: {spans:g} spans per round; traced rounds' total_s "
              f"{traced_total:.6g} s against untraced {e2e['total_s']:.6g} s")
        for name, value in metrics.items():
            print(f"layer {name} {value:.6g} {UNITS.get(name, 's')}")
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"{workload}-s{seed}-p{os.getpid()}.json",
                    {"workload": workload, "seed": seed, "metrics": metrics,
                     "rounds": records, "environment": info})

    failed = sum(len(rec["failed"]) for rec in records)
    attempted = sum(rec["ops"] for rec in records)
    print(f"operations attempted {attempted} failed {failed}")
    result = {"correct": all(rec["checks_ok"] for rec in records),
              "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": UNITS.get(name, "s")}
                          for name, value in metrics.items()}}
    print(json.dumps(result))


def selftest():
    sr = import_library()
    ok = True
    for workload in workloads.WORKLOADS:
        workdir = HERE / "work" / f"selftest-{workload}-p{os.getpid()}"
        try:
            paths = inputs.make_inputs(workload, 0, str(workdir), size="small")
            ctx = make_ctx(0, paths, workdir, "small")
            start = time.perf_counter()
            rec = run_round(sr, ctx, workload, tracing.Tracer("selftest"), 0, True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        passed = rec["checks_ok"] and not rec["failed"]
        ok &= passed
        print(f"selftest {workload}: {'ok' if passed else 'FAILED'} "
              f"({rec['ops']} operations, {len(rec['failed'])} failed, "
              f"{time.perf_counter() - start:.1f} s)")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--setup-only", metavar="DIR",
                        help="(internal) import the library, write inputs, exit")
    args = parser.parse_args(argv)
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_only:
        import_library()
        inputs.make_inputs(args.workload, args.seed, args.setup_only)
        return 0
    benchmark(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())

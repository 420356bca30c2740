"""Command-line front end: reproducible fit / bootstrap / simulate /
diagnose runs with a manifest for every invocation.

Exit codes: 0 success, 64 usage, 1 ingestion or validation failure,
2 non-convergence, 3 identifiability failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

from . import __version__, bootstrap, diagnostics, solver
from .covariates import CovariateSpec
from .design import prepare
from .events import (StreamError, export_events, ingest_events, ingest_traits,
                     require_keys, write_id_map)
from .simulator import SimConfig, simulate, write_truth

EX_OK, EX_DATA, EX_NOCONV, EX_IDENT, EX_USAGE = 0, 1, 2, 3, 64

VARIANT_ALIASES = {
    "pairwise": "pairwise",
    "approx": "approx_multicast",
    "approx_multicast": "approx_multicast",
    "exact": "exact_multicast",
    "exact_multicast": "exact_multicast",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EX_USAGE)


def positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text} is not a positive integer")
    return value


def nonnegative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text} is not a non-negative integer")
    return value


def _digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(command, args_dict, inputs, outputs, seed, started):
    cfg = json.dumps(args_dict, sort_keys=True, default=str)
    manifest = {
        "command": command,
        "config_hash": hashlib.sha256(cfg.encode()).hexdigest(),
        "inputs": {p: _digest(p) for p in inputs if p and os.path.exists(p)},
        "seed": seed,
        "artifact_version": __version__,
        "wall_clock_sec": round(time.monotonic() - started, 6),
        "outputs": outputs,
    }
    base = outputs.get("primary") or f"{command}.out"
    path = base + ".manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2)
    return path


def _load_inputs(args):
    spec = CovariateSpec.load(args.spec)
    traits = ingest_traits(args.traits) if getattr(args, "traits", None) else None
    # trait rows are indexed by actor id, so the ids stay as written
    pinned = {} if traits is None else {"actor_count": traits.actor_count,
                                        "traits": traits}
    stream, report = ingest_events(args.events, format=args.format,
                                   cutoff=args.cutoff, **pinned)
    return stream, report, spec, traits


def _group_terms(term_names, tokens):
    groups = []
    for token in tokens:
        if token == "static":
            terms = [n for n in term_names if "*" in n]
        else:
            terms = [n for n in term_names
                     if n == token or n.startswith(token + "[")]
        if not terms:
            raise StreamError(f"deviance group {token!r} matches no terms")
        groups.append((token, terms))
    return groups


def _load_fit(path, design):
    """The fit result at ``path``, refused unless it has the design's terms."""
    result = solver.FitResult.load(path)
    if list(result.term_names) != list(design.term_names):
        raise StreamError("fit terms do not match the covariate spec")
    return result


def cmd_fit(args):
    started = time.monotonic()
    stream, report, spec, traits = _load_inputs(args)
    design = prepare(stream, spec, traits=traits)
    variant = VARIANT_ALIASES[args.variant]
    cfg = solver.SolverConfig(max_iters=args.max_iters)
    result = solver.fit(design, variant, cfg)
    outputs = {"primary": args.out}
    result.save(args.out)
    write_id_map(report, args.out + ".ids.json")
    outputs["id_map"] = args.out + ".ids.json"
    if args.deviance:
        groups = _group_terms(design.term_names, args.deviance.split(","))
        table = solver.deviance_table(design, groups, variant, cfg)
        dev_path = args.out + ".deviance.csv"
        table.to_csv(dev_path)
        outputs["deviance"] = dev_path
    _write_manifest("fit", vars(args), [args.events, args.spec, args.traits],
                    outputs, seed=None, started=started)
    if result.unidentifiable:
        print("unidentifiable terms: " + ", ".join(result.unidentifiable),
              file=sys.stderr)
        return EX_IDENT
    if not result.converged:
        print(f"did not converge in {result.iterations} iterations "
              f"(grad norm {result.grad_norm:.3e}, stopped by "
              f"{result.stop_reason})", file=sys.stderr)
        return EX_NOCONV
    print(f"fit: {result.n_events} events, logpl {result.logpl:.6f}, "
          f"{result.iterations} iterations -> {args.out}")
    return EX_OK


def cmd_bootstrap(args):
    started = time.monotonic()
    stream, _, spec, traits = _load_inputs(args)
    design = prepare(stream, spec, traits=traits)
    fit_result = _load_fit(args.fit, design) if args.fit else None
    cfg = bootstrap.BootstrapConfig(replicates=args.replicates, seed=args.seed)
    report = bootstrap.bootstrap_bias(design, fit_result, cfg)
    report.save(args.out)
    summary = args.out + ".residuals.csv"
    report.summary_csv(summary)
    _write_manifest("bootstrap", vars(args),
                    [args.events, args.spec, args.traits, args.fit],
                    {"primary": args.out, "residual_summary": summary},
                    seed=args.seed, started=started)
    flag = " (flagged: excess replicate failures)" if report.flagged else ""
    print(f"bootstrap: {len(report.replicate_estimates)} replicates, "
          f"{report.skipped} skipped{flag} -> {args.out}")
    return EX_OK


def cmd_simulate(args):
    started = time.monotonic()
    with open(args.config) as fh:
        obj = json.load(fh)
    require_keys(obj, (), "simulation config")
    traits = obj.get("traits")
    if not isinstance(traits, (str, type(None))):
        raise StreamError("simulation config: traits: expected a file path")
    traits = ingest_traits(traits) if traits else None
    config = SimConfig.from_json(obj, traits=traits)
    if args.seed is not None:
        config = config.with_seed(args.seed)
    stream = simulate(config)
    export_events(stream, args.out, format=args.format)
    outputs = {"primary": args.out}
    if args.truth:
        write_truth(config, args.truth)
        outputs["truth"] = args.truth
    _write_manifest("simulate", vars(args), [args.config],
                    outputs, seed=config.seed, started=started)
    print(f"simulate: {len(stream)} events over {stream.actor_count} actors "
          f"-> {args.out}")
    return EX_OK


def cmd_diagnose(args):
    started = time.monotonic()
    stream, _, spec, traits = _load_inputs(args)
    design = prepare(stream, spec, traits=traits)
    result = _load_fit(args.fit, design)
    counts = diagnostics.expected_counts(design, result.beta,
                                         convention=args.convention)
    report = diagnostics.residuals(counts)
    report.df_approx = diagnostics.residual_df(design.actor_count, design.p)
    res_path = args.out + "residuals.csv"
    sum_path = args.out + "summary.json"
    diagnostics.write_residual_csv(counts, report, res_path)
    diagnostics.write_summary_json(
        diagnostics.residual_summary(report), sum_path)
    _write_manifest("diagnose", vars(args),
                    [args.events, args.spec, args.traits, args.fit],
                    {"primary": res_path, "summary": sum_path},
                    seed=None, started=started)
    print(f"diagnose: X2 {report.x2:.3f}, df approx {report.df_approx:.0f} "
          f"-> {res_path}")
    return EX_OK


def _add_common_inputs(p, events_required=True):
    p.add_argument("--events", required=events_required)
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.add_argument("--spec", required=True)
    p.add_argument("--traits")
    p.add_argument("--cutoff", type=positive_int, default=5)


def build_parser():
    parser = _Parser(prog="sendrate",
                     description="Fit intensity models to interaction streams")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="maximize the partial likelihood")
    _add_common_inputs(p)
    p.add_argument("--variant", choices=sorted(VARIANT_ALIASES),
                   default="approx")
    p.add_argument("--out", default="fit.json")
    p.add_argument("--deviance",
                   help="comma-separated term groups for the deviance table")
    p.add_argument("--max-iters", type=positive_int, default=100)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("bootstrap", help="parametric bias correction")
    _add_common_inputs(p)
    p.add_argument("--fit", help="existing fit JSON (refits when absent)")
    p.add_argument("--replicates", type=positive_int, default=300)
    p.add_argument("--seed", type=nonnegative_int, default=0)
    p.add_argument("--out", default="bootstrap.json")
    p.set_defaults(func=cmd_bootstrap)

    p = sub.add_parser("simulate", help="generate a stream from the model")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="events.csv")
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.add_argument("--truth", help="write generating-parameter JSON here")
    p.add_argument("--seed", type=nonnegative_int)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("diagnose", help="residuals for an existing fit")
    _add_common_inputs(p)
    p.add_argument("--fit", required=True)
    p.add_argument("--convention", choices=("duplication", "message"),
                   default="duplication")
    p.add_argument("--out", default="diagnostics.")
    p.set_defaults(func=cmd_diagnose)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EX_USAGE
    try:
        return args.func(args)
    except solver.SingularInformationError as exc:
        print(f"identifiability failure: {exc}", file=sys.stderr)
        return EX_IDENT
    except (StreamError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_DATA


if __name__ == "__main__":
    sys.exit(main())

import dataclasses
import inspect
import re
from pathlib import Path

import sendrate

# The package's public names.  A name added here is a deliberate addition to
# the API; helpers that only tests call belong in the tests.
PUBLIC = [
    "ActorTraits", "BootstrapConfig", "BootstrapReport", "CovariateSpec",
    "DevianceTable", "DynamicState", "Event", "EventStream", "FitResult",
    "IntervalScheme", "LikelihoodReport", "PairCounts", "PreparedDesign",
    "ResidualReport", "RiskSetPolicy", "SimConfig", "SolverConfig",
    "StaticDesign", "StreamError", "bootstrap", "bootstrap_bias",
    "covariates", "dense_oracle", "design", "deviance_table", "diagnostics",
    "esp", "evaluate", "events", "expected_counts", "export_events", "fit",
    "ingest_events", "ingest_traits", "likelihood", "prepare",
    "residual_summary", "residuals", "second_order_static_terms", "simulate",
    "simulator", "solver", "wald_tests",
]


def test_public_names_are_pinned():
    assert sorted(sendrate.__all__) == PUBLIC

# The options of the public names: the parameters of every public function,
# class and public method, and the fields of every public dataclass.  An
# option added here is a deliberate choice, as is one taken away.
OPTIONS = {
    "ActorTraits": ["names", "matrix"],
    "ActorTraits.column": ["name"],
    "ActorTraits.with_products": ["pairs"],
    "BootstrapConfig": ["replicates", "seed"],
    "BootstrapReport": [
        "beta_tilde", "replicate_estimates", "bias_hat", "beta_corrected",
        "residual_mean", "residual_sd", "skipped", "skip_reasons",
        "term_names", "flagged"],
    "BootstrapReport.save": ["path"],
    "BootstrapReport.summary_csv": ["path"],
    "BootstrapReport.to_json": [],
    "CovariateSpec": ["static_terms", "dyadic", "triadic", "scheme"],
    "CovariateSpec.from_json": ["obj"],
    "CovariateSpec.load": ["path"],
    "CovariateSpec.save": ["path"],
    "CovariateSpec.to_json": [],
    "DevianceTable": ["rows", "variant"],
    "DevianceTable.to_csv": ["path"],
    "DynamicState": ["spec", "actor_count"],
    "DynamicState.advance": ["event"],
    "DynamicState.affected_pairs": ["a", "b"],
    "DynamicState.rows": ["t", "i", "js"],
    "DynamicState.support": ["i"],
    "Event": ["time", "sender", "receivers"],
    "EventStream": ["events", "actor_count", "traits", "original_ids"],
    "FitResult": [
        "beta", "se", "cov", "logpl", "n_events", "n_decisions", "iterations",
        "converged", "term_names", "variant", "grad_norm", "overdispersion",
        "unidentifiable", "logpl_trace", "stop_reason"],
    "FitResult.from_json": ["obj"],
    "FitResult.load": ["path"],
    "FitResult.save": ["path"],
    "FitResult.to_json": [],
    "IntervalScheme": ["boundaries"],
    "LikelihoodReport": ["logpl", "score", "info"],
    "PairCounts": ["observed", "expected", "convention"],
    "PreparedDesign": ["spec", "static", "stream", "policy"],
    "PreparedDesign.chunk_nonzeros": ["events"],
    "PreparedDesign.chunk_rows": ["events"],
    "PreparedDesign.column_indices": ["names"],
    "PreparedDesign.copy_with": ["fields"],
    "PreparedDesign.dense_x": ["m"],
    "PreparedDesign.event_rows": ["m"],
    "PreparedDesign.risk_mask": ["m"],
    "PreparedDesign.subset": ["cols"],
    "PreparedDesign.xsum_of": ["recv_j"],
    "ResidualReport": [
        "pearson", "martingale", "x2", "df_approx", "anomalies"],
    "RiskSetPolicy": ["mode", "static_sets", "callback"],
    "RiskSetPolicy.mask": ["t", "i", "actor_count"],
    "SimConfig": [
        "actor_count", "beta_true", "spec", "seed", "baseline", "size_weights",
        "n_events", "horizon", "traits", "policy"],
    "SimConfig.baseline_vector": [],
    "SimConfig.from_json": ["obj", "traits"],
    "SimConfig.to_json": [],
    "SimConfig.with_seed": ["seed"],
    "SolverConfig": ["max_iters"],
    "StaticDesign": ["spec", "traits", "actor_count"],
    "StaticDesign.x0": ["c"],
    "StaticDesign.x0_pair": ["i", "j"],
    "StreamError": [],
    "bootstrap_bias": ["design", "fit_result", "config"],
    "dense_oracle": ["design", "beta", "variant", "order"],
    "deviance_table": ["design", "term_groups", "variant", "config"],
    "evaluate": ["design", "beta", "variant", "order"],
    "expected_counts": ["design", "beta", "convention"],
    "export_events": ["stream", "path", "format"],
    "fit": ["design", "variant", "config", "beta0"],
    "ingest_events": ["path", "format", "cutoff", "actor_count", "traits"],
    "ingest_traits": ["path", "product_pairs"],
    "prepare": ["stream", "spec", "traits", "policy"],
    "residual_summary": ["report"],
    "residuals": ["counts"],
    "second_order_static_terms": ["names"],
    "simulate": ["config"],
    "wald_tests": ["result", "alpha"],
}


def options():
    """The parameter or field names of each public callable, by name."""
    out = {}
    for name in sendrate.__all__:
        obj = getattr(sendrate, name)
        if inspect.isclass(obj):
            out[name] = _parameters(obj)
            for attr, member in vars(obj).items():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                if not attr.startswith("_") and inspect.isfunction(member):
                    out[f"{name}.{attr}"] = _parameters(member)
        elif inspect.isfunction(obj):
            out[name] = _parameters(obj)
    return out


def _parameters(obj):
    if dataclasses.is_dataclass(obj):
        return [f.name for f in dataclasses.fields(obj)]
    if inspect.isclass(obj) and issubclass(obj, Exception):
        return []
    return [p for p in inspect.signature(obj).parameters
            if p not in ("self", "cls")]


def test_public_options_are_pinned():
    assert options() == OPTIONS


# How a design stores its rows: only ``design.py`` reads these attributes;
# other modules go through ``PreparedDesign.chunk_rows`` and
# ``chunk_nonzeros``, so a new store changes one module.
ROW_STORE = re.compile(r"\.(dX|blk_start|row_j|row_inrisk|nz_start|nz_col|nz_val)\b")


def test_only_design_reads_the_row_store():
    src = Path(sendrate.__file__).parent
    readers = [f"{path.name}:{k}: {line.strip()}"
               for path in sorted(src.glob("*.py")) if path.name != "design.py"
               for k, line in enumerate(path.read_text().splitlines(), 1)
               if ROW_STORE.search(line)]
    assert readers == []

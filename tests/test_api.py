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

# How a design stores its rows: only ``design.py`` reads these attributes;
# other modules go through ``PreparedDesign.chunk_rows`` and
# ``chunk_nonzeros``, so a new store changes one module.
ROW_STORE = re.compile(r"\.(dX|row_start|row_j|row_inrisk|nz_start|nz_col|nz_val)\b")


def test_only_design_reads_the_row_store():
    src = Path(sendrate.__file__).parent
    readers = [f"{path.name}:{k}: {line.strip()}"
               for path in sorted(src.glob("*.py")) if path.name != "design.py"
               for k, line in enumerate(path.read_text().splitlines(), 1)
               if ROW_STORE.search(line)]
    assert readers == []

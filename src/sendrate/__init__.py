"""Cox multiplicative-intensity models for directed interaction streams."""

__version__ = "0.1.0"

from .bootstrap import BootstrapConfig, BootstrapReport, bootstrap_bias
from .covariates import (CovariateSpec, DynamicState, IntervalScheme,
                         StaticDesign, second_order_static_terms)
from .design import PreparedDesign, prepare
from .diagnostics import (PairCounts, ResidualReport, expected_counts,
                          residual_summary, residuals)
from .events import (ActorTraits, Event, EventStream, RiskSetPolicy,
                     StreamError, export_events, ingest_events, ingest_traits)
from .likelihood import LikelihoodReport, dense_oracle, evaluate
from .simulator import SimConfig, simulate
from .solver import (DevianceTable, FitResult, SolverConfig, deviance_table,
                     fit, wald_tests)

__all__ = [name for name in dir() if not name.startswith("_")]

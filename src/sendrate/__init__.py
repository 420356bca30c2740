"""Cox multiplicative-intensity models for directed interaction streams."""

__version__ = "0.1.0"

from .bootstrap import (BootstrapConfig, BootstrapReport, bootstrap_bias,
                        coverage_study, draw_replicate)
from .covariates import (CovariateSpec, DynamicState, IntervalScheme,
                         StaticDesign, covariate_vector,
                         second_order_static_terms)
from .design import PreparedDesign, prepare
from .diagnostics import (PairCounts, ResidualReport, expected_counts,
                          residual_summary, residuals)
from .events import (ActorTraits, Event, EventStream, RiskSetPolicy,
                     StreamError, export_events, ingest_events, ingest_traits,
                     risk_set)
from .likelihood import (DegenerateSenderError, GrowthSequence,
                         LikelihoodReport, dense_oracle, evaluate,
                         growth_sequence)
from .simulator import SimConfig, simulate
from .solver import (DevianceTable, FitResult, SolverConfig, deviance_table,
                     fit, standard_errors, wald_tests)

__all__ = [name for name in dir() if not name.startswith("_")]

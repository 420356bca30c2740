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

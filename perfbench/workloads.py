"""The three workloads: one round of each through the public API, with the
checks of its outputs made afterwards, outside the timed calls.

A round is a fixed list of operations (``OPS``).  Each is one timed call
into the library, named ``<module>.<call>``; an operation fails when the
call raises or when a check of its output fails, and an operation that
never ran because an earlier one raised fails too, so every round attempts
the same operations.
"""

from __future__ import annotations

import os
import resource

import numpy as np

import inputs
import reference

RECOVERY_TRUE = np.array([0.4, 0.6, -0.3, 0.5, 1.2, 0.7])
RECOVERY_BASELINE = 0.001
# A correct fit lands beyond 4 SE on some coefficient in about 1 of 2,000
# replications, which a benchmark that runs a few hundred of them per check
# would report as a failed operation now and then; beyond 5 SE, about 1 in
# 170,000.
CONSISTENCY_SE = 5
BOOTSTRAP_REPLICATES = {"full": 5, "small": 2}
BRUTE_EVENTS = {"full": 12, "small": 6}   # events sampled for brute rows
ORACLE_TOL = 1e-10


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


class Round:
    def __init__(self, tracer, ops):
        self.tracer = tracer
        self.ops = ops
        self.done = set()
        self.bad = {}           # op -> first failed check
        self.facts = {}

    def call(self, op, fn, *args, **kwargs):
        with self.tracer.span(op):
            out = fn(*args, **kwargs)
        self.done.add(op)
        return out

    def check(self, op, what, test):
        """Run ``test`` (a no-argument callable returning bool) for ``op``."""
        with self.tracer.span("check." + op):
            try:
                ok = bool(test())
            except Exception as exc:    # a check that raises has failed
                ok, what = False, f"{what}: {type(exc).__name__}: {exc}"
        if not ok:
            self.bad.setdefault(op, what)

    def failed_ops(self):
        return [op for op in self.ops if op not in self.done or op in self.bad]


def _design_facts(rd, design, first_round):
    n = design.n_events
    blocks = len(design.blk_event)
    rd.facts.update({
        "design.rows": len(design.row_j),
        "design.blocks": blocks,
        "design.block_share": 1.0 - blocks / n,
        "design.dX_mb": design.dX.nbytes / 1e6,
        "design.nonzero_share": np.count_nonzero(design.dX) / max(1, design.dX.size),
        "design.p": design.p,
        "design.events": n,
    })
    if first_round:
        # the process's peak so far, before any evaluation has run
        rd.facts["design.rss_mb"] = peak_rss_mb()


def _conserved(counts):
    obs, exp = counts.observed.sum(axis=1), counts.expected.sum(axis=1)
    return np.abs(obs - exp).max() <= 1e-10 * max(1.0, obs.max())


def _probs_ok(probs, design):
    senders = design.ev_sender
    return (np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-12
            and (probs[np.arange(len(senders)), senders] == 0.0).all())


def _oracle_agrees(fast, slow, design):
    # The score's floor is the size of the observed-design totals it
    # cancels against: near an optimum the score itself is close to zero.
    floor = max(1.0, np.abs(design.xsum).sum(axis=0).max())
    return (reference.rel_diff(fast.logpl, slow.logpl) <= ORACLE_TOL
            and reference.rel_diff(fast.score, slow.score, floor) <= ORACLE_TOL
            and reference.rel_diff(fast.info, slow.info) <= ORACLE_TOL)


# ---------------------------------------------------------------------------
# recovery: simulate -> export -> ingest -> prepare -> pairwise fit -> diagnose

RECOVERY_OPS = (
    "events.ingest_traits", "covariates.load_spec", "simulator.simulate",
    "events.export_events", "events.ingest_events", "design.prepare",
    "solver.fit.pairwise", "likelihood.evaluate.pairwise.o0",
    "likelihood.evaluate.pairwise.o1", "likelihood.evaluate.pairwise.o2",
    "likelihood.selection_probabilities", "diagnostics.expected_counts",
    "diagnostics.residuals")


def recovery_round(sr, rd, ctx, r):
    paths, seed, size = ctx["paths"], ctx["seed"], ctx["size"]
    events_path = os.path.join(ctx["workdir"], f"events-{r}.csv")
    traits = rd.call("events.ingest_traits", sr.ingest_traits, paths["traits"])
    spec = rd.call("covariates.load_spec", sr.CovariateSpec.load, paths["spec"])
    sim_seed = int(inputs.rng_for("recovery", seed, 1, r).integers(2 ** 62))
    cfg = sr.SimConfig(actor_count=traits.actor_count, beta_true=RECOVERY_TRUE,
                       spec=spec, seed=sim_seed, baseline=RECOVERY_BASELINE,
                       n_events=inputs.SHAPES["recovery"][size]["events"],
                       traits=traits)
    sim = rd.call("simulator.simulate", sr.simulate, cfg)
    rd.call("events.export_events", sr.export_events, sim, events_path)
    stream, _ = rd.call("events.ingest_events", sr.ingest_events, events_path,
                        actor_count=traits.actor_count, traits=traits)
    design = rd.call("design.prepare", sr.prepare, stream, spec, traits=traits)
    res = rd.call("solver.fit.pairwise", sr.fit, design, "pairwise")
    reps = [rd.call(f"likelihood.evaluate.pairwise.o{k}", sr.evaluate, design,
                    res.beta, "pairwise", k) for k in (0, 1, 2)]
    probs = rd.call("likelihood.selection_probabilities",
                    sr.likelihood.selection_probabilities, design, res.beta)
    counts = rd.call("diagnostics.expected_counts", sr.expected_counts,
                     design, res.beta)
    resid = rd.call("diagnostics.residuals", sr.residuals, counts)

    _design_facts(rd, design, r == 0)
    rd.facts.update({"simulator.events": len(sim),
                     "solver.iterations.pairwise": res.iterations})

    rows = inputs.read_events(events_path)
    names, tmat = inputs.read_traits(paths["traits"])
    spec_json = ctx["spec_json"]

    def own_recomputation():
        logpl, score, scale = reference.pairwise_logpl_score(
            rows, names, tmat, spec_json, res.beta)
        return (reference.rel_diff(reps[1].logpl, logpl) <= 1e-9
                and reference.rel_diff(reps[1].score, score,
                                       scale.max()) <= 1e-9)
    rd.check("likelihood.evaluate.pairwise.o1",
             "logpl and score at the estimate differ from the recomputation",
             own_recomputation)
    rd.check("likelihood.evaluate.pairwise.o0", "order-0 logpl differs from order 1",
             lambda: reference.rel_diff(reps[0].logpl, reps[1].logpl) <= 1e-12)
    rd.check("likelihood.evaluate.pairwise.o2", "order-2 score differs from order 1",
             lambda: reference.rel_diff(reps[2].score, reps[1].score) <= 1e-12)
    rd.check("solver.fit.pairwise", "not converged or a coefficient is over "
             f"{CONSISTENCY_SE} SE from the truth",
             lambda: res.converged and
             (np.abs(res.beta - RECOVERY_TRUE) <= CONSISTENCY_SE * res.se).all())
    rd.check("likelihood.selection_probabilities", "rows do not sum to one",
             lambda: _probs_ok(probs, design))
    rd.check("diagnostics.expected_counts", "per-sender expected != observed",
             lambda: _conserved(counts))
    rd.check("diagnostics.residuals", "martingale residuals do not sum to 0 per sender",
             lambda: np.abs(resid.martingale.sum(axis=1)).max() <= 1e-10 * len(stream))
    os.remove(events_path)


# ---------------------------------------------------------------------------
# multicast: ingest -> prepare -> approx fit -> exact fit -> deviance table
#            -> bootstrap -> diagnose

MULTICAST_OPS = (
    "events.ingest_traits", "covariates.load_spec", "events.ingest_events",
    "design.prepare", "solver.fit.approx_multicast", "solver.fit.exact_multicast",
    "likelihood.evaluate.approx_multicast.o0",
    "likelihood.evaluate.approx_multicast.o1",
    "likelihood.evaluate.approx_multicast.o2",
    "likelihood.evaluate.exact_multicast.o0",
    "likelihood.evaluate.exact_multicast.o2", "solver.deviance_table",
    "bootstrap.bootstrap_bias", "likelihood.selection_probabilities",
    "diagnostics.expected_counts", "diagnostics.residuals")

MULTICAST_GROUPS = ("send", "receive", "2-send", "sibling")


def multicast_round(sr, rd, ctx, r):
    paths, size = ctx["paths"], ctx["size"]
    traits = rd.call("events.ingest_traits", sr.ingest_traits, paths["traits"])
    spec = rd.call("covariates.load_spec", sr.CovariateSpec.load, paths["spec"])
    stream, _ = rd.call("events.ingest_events", sr.ingest_events, paths["events"],
                        actor_count=traits.actor_count, traits=traits)
    design = rd.call("design.prepare", sr.prepare, stream, spec, traits=traits)
    fa = rd.call("solver.fit.approx_multicast", sr.fit, design, "approx_multicast")
    fe = rd.call("solver.fit.exact_multicast", sr.fit, design, "exact_multicast")
    approx = [rd.call(f"likelihood.evaluate.approx_multicast.o{k}", sr.evaluate,
                      design, fa.beta, "approx_multicast", k) for k in (0, 1, 2)]
    exact = [rd.call(f"likelihood.evaluate.exact_multicast.o{k}", sr.evaluate,
                     design, fe.beta, "exact_multicast", k) for k in (0, 2)]
    names = design.term_names
    groups = [("static", [n for n in names if "*" in n])]
    groups += [(g, [n for n in names if n == g or n.startswith(g + "[")])
               for g in MULTICAST_GROUPS]
    table = rd.call("solver.deviance_table", sr.deviance_table, design, groups)
    boot_cfg = sr.BootstrapConfig(replicates=BOOTSTRAP_REPLICATES[size],
                                  seed=ctx["seed"])
    boot = rd.call("bootstrap.bootstrap_bias", sr.bootstrap_bias, design, fa, boot_cfg)
    probs = rd.call("likelihood.selection_probabilities",
                    sr.likelihood.selection_probabilities, design, fa.beta)
    counts = rd.call("diagnostics.expected_counts", sr.expected_counts,
                     design, fa.beta)
    resid = rd.call("diagnostics.residuals", sr.residuals, counts)

    _design_facts(rd, design, r == 0)
    rd.facts.update({"solver.iterations.approx_multicast": fa.iterations,
                     "solver.iterations.exact_multicast": fe.iterations,
                     "bootstrap.replicates": boot_cfg.replicates,
                     "bootstrap.replicates_kept": len(boot.replicate_estimates)})
    if r == 0:
        rd.facts["solver.rss_mb"] = peak_rss_mb()

    rd.check("likelihood.evaluate.approx_multicast.o2",
             "sparse approx evaluate differs from dense_oracle",
             lambda: _oracle_agrees(approx[2], sr.dense_oracle(
                 design, fa.beta, "approx_multicast"), design))
    rd.check("likelihood.evaluate.exact_multicast.o2",
             "batched exact evaluate differs from dense_oracle",
             lambda: _oracle_agrees(exact[1], sr.dense_oracle(
                 design, fe.beta, "exact_multicast"), design))
    for k in (0, 1):
        rd.check(f"likelihood.evaluate.approx_multicast.o{k}",
                 f"order-{k} logpl differs from order 2",
                 lambda: reference.rel_diff(approx[k].logpl, approx[2].logpl) <= 1e-12)
    rd.check("likelihood.evaluate.exact_multicast.o0", "order-0 logpl differs from order 2",
             lambda: reference.rel_diff(exact[0].logpl, exact[1].logpl) <= 1e-12)
    for op, res in (("solver.fit.approx_multicast", fa),
                    ("solver.fit.exact_multicast", fe)):
        rd.check(op, "not converged, or a positive logpl in the Newton trace",
                 lambda res=res: res.converged and max(res.logpl_trace) <= 0.0)

    def table_ok():
        dev = [row.resid_dev for row in table.rows]
        tol = 1e-9 * abs(dev[0])
        return (all(b <= a + tol for a, b in zip(dev, dev[1:]))
                and abs(dev[-1] - (-2.0 * fa.logpl)) <= 1e-8 * abs(dev[-1]))
    rd.check("solver.deviance_table", "deviances increase, or the last row is not "
             "-2 logpl of the full fit", table_ok)
    rd.check("bootstrap.bootstrap_bias", "a replicate was skipped or the bias is "
             "not finite",
             lambda: boot.skipped == 0 and np.isfinite(boot.bias_hat).all())
    rd.check("likelihood.selection_probabilities", "rows do not sum to one",
             lambda: _probs_ok(probs, design))
    rd.check("diagnostics.expected_counts", "per-sender expected != observed",
             lambda: _conserved(counts))
    rd.check("diagnostics.residuals", "martingale residuals do not sum to 0 per sender",
             lambda: np.abs(resid.martingale.sum(axis=1)).max()
             <= 1e-10 * design.n_decisions)


# ---------------------------------------------------------------------------
# paper: ingest -> prepare -> evaluate at orders 0/1/2 at two beta -> diagnose

PAPER_BETAS = ("beta0", "beta1")
PAPER_OPS = (
    ("events.ingest_traits", "covariates.load_spec", "events.ingest_events",
     "design.prepare")
    + tuple(f"likelihood.evaluate.approx_multicast.o{k}.{b}"
            for b in PAPER_BETAS for k in (0, 1, 2))
    + ("likelihood.selection_probabilities", "diagnostics.expected_counts",
       "diagnostics.residuals"))


def paper_beta(design, seed):
    """Random coefficients at fitted-model scale, as in acceptance
    criterion 2: count covariates get proportionally smaller weights."""
    col_scale = np.maximum(1.0, np.maximum(design.dX.max(axis=0),
                                           -design.dX.min(axis=0)))
    rng = inputs.rng_for("paper", seed, 2)
    return rng.normal(0.0, 0.3, size=design.p) / col_scale


def paper_round(sr, rd, ctx, r):
    paths = ctx["paths"]
    traits = rd.call("events.ingest_traits", sr.ingest_traits, paths["traits"],
                     product_pairs=inputs.PAPER_PRODUCTS)
    spec = rd.call("covariates.load_spec", sr.CovariateSpec.load, paths["spec"])
    stream, _ = rd.call("events.ingest_events", sr.ingest_events, paths["events"],
                        actor_count=traits.actor_count, traits=traits)
    design = rd.call("design.prepare", sr.prepare, stream, spec, traits=traits)
    _design_facts(rd, design, r == 0)
    betas = {"beta0": np.zeros(design.p), "beta1": paper_beta(design, ctx["seed"])}
    reps = {b: [rd.call(f"likelihood.evaluate.approx_multicast.o{k}.{b}",
                        sr.evaluate, design, betas[b], "approx_multicast", k)
                for k in (0, 1, 2)] for b in PAPER_BETAS}
    probs = rd.call("likelihood.selection_probabilities",
                    sr.likelihood.selection_probabilities, design, betas["beta1"])
    counts = rd.call("diagnostics.expected_counts", sr.expected_counts,
                     design, betas["beta1"])
    resid = rd.call("diagnostics.residuals", sr.residuals, counts)

    for b in PAPER_BETAS:
        op = f"likelihood.evaluate.approx_multicast.o2.{b}"
        rep = reps[b][2]
        rd.check(op, "sparse evaluate differs from dense_oracle",
                 lambda: _oracle_agrees(rep, sr.dense_oracle(
                     design, betas[b], "approx_multicast"), design))

        def info_ok():
            info = rep.info
            eig = np.linalg.eigvalsh(info)
            norm = np.abs(eig).max()
            return (np.abs(info - info.T).max() <= 1e-12 * norm
                    and eig.min() >= -1e-8 * norm)
        rd.check(op, "information not symmetric positive semi-definite", info_ok)
        for k in (0, 1):
            rd.check(f"likelihood.evaluate.approx_multicast.o{k}.{b}",
                     f"order-{k} logpl differs from order 2",
                     lambda: reference.rel_diff(reps[b][k].logpl, rep.logpl) <= 1e-12)

    def rows_ok():
        raw = inputs.read_events(paths["events"])
        base_names, base = inputs.read_traits(paths["traits"])
        col = {n: base[:, k] for k, n in enumerate(base_names)}
        tmat = np.column_stack([base] + [col[x] * col[y] for x, y in inputs.PAPER_PRODUCTS])
        names = base_names + [x + y for x, y in inputs.PAPER_PRODUCTS]
        rng = inputs.rng_for("paper", ctx["seed"], 3)
        queries = []
        for m in rng.choice(design.n_events, BRUTE_EVENTS[ctx["size"]], replace=False):
            i = design.ev_sender[m]
            js = [j for j in design.event_rows(m)[0] if j != i]
            picks = list(rng.choice(js, min(2, len(js)), replace=False)) if js else []
            picks.append(int(rng.choice([j for j in range(design.actor_count) if j != i])))
            queries += [(int(m), int(j)) for j in picks]
        brute = reference.brute_rows(raw, names, tmat, ctx["spec_json"], queries)
        return all(np.array_equal(design.dense_x(m)[j], x)
                   for (m, j), x in zip(queries, brute))
    rd.check("design.prepare", "design rows differ from the brute-force recomputation",
             rows_ok)
    rd.check("likelihood.selection_probabilities", "rows do not sum to one",
             lambda: _probs_ok(probs, design))
    rd.check("diagnostics.expected_counts", "per-sender expected != observed",
             lambda: _conserved(counts))
    rd.check("diagnostics.residuals", "martingale residuals do not sum to 0 per sender",
             lambda: np.abs(resid.martingale.sum(axis=1)).max()
             <= 1e-10 * design.n_decisions)


WORKLOADS = {
    "recovery": (recovery_round, RECOVERY_OPS),
    "multicast": (multicast_round, MULTICAST_OPS),
    "paper": (paper_round, PAPER_OPS),
}

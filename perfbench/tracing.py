"""Spans and counters around koszulrank's layer boundaries, from outside the package.

``instrument`` swaps each listed public function for a recording wrapper at the
place its caller looks it up (a module global or a class attribute) and puts
the originals back on exit, so ``src/`` stays untouched.  Spans live in memory
as ``[name, start, end, parent, trial]`` lists and are written out at the end.
Functions called about 10^4 or more times per trial are counted, not timed.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import workloads  # noqa: F401  (puts the checkout's src first on sys.path)
from koszulrank import cancellation, certificates, chain_maps, cli, hb_model, koszul, linalg, polynomials
from koszulrank.polynomials import Char

ROOT_SPAN = "trial"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.trial = None
        # (trial, name) -> count, for count-only functions and result tallies
        self.counts: Counter = Counter()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[(self.trial, name)] += amount

    @contextmanager
    def span(self, name: str):
        parent = self.stack[-1] if self.stack else None
        record = [name, 0.0, 0.0, parent, self.trial]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        try:
            yield
        finally:
            record[2] = perf_counter()
            self.stack.pop()

    def timed(self, name, fn, on_result=None):
        """Wrapper recording a span; ``name`` may be a function of the arguments."""
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            with self.span(label):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(self, args, result)
            return result
        return traced

    def counted(self, name: str, fn):
        def traced(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)
        return traced

    def write(self, path) -> None:
        with open(path, "w") as handle:
            handle.write(json.dumps({"fields": ["name", "start", "end", "parent", "trial"]}) + "\n")
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


def _image_terms(tracer, args, gamma):
    tracer.count(
        "chain_maps.image_terms",
        sum(len(poly.terms) for img in gamma.images.values() for poly in img.coeffs.values()),
    )


def _rank_shape(tracer, args, result):
    matrix = args[0]
    rows, cols = len(matrix), len(matrix[0]) if matrix else 0
    tracer.count("linalg.evaluation_rank.cells", rows * cols)
    tracer.count("linalg.evaluation_rank.full", int(result == min(rows, cols)))


def _injective(tracer, args, report):
    tracer.count("certificates.injective", int(report.injective))


def _edges(tracer, args, witness):
    tracer.count("cancellation.edges", len(witness.analysis.graph.edges))


def _evaluation_rank_name(matrix, char, *args, **kwargs):
    return "linalg.evaluation_rank.modp" if char is Char.ZERO else "linalg.evaluation_rank.gf2k"


def _instrumentation(tracer: Tracer):
    """(owner, attribute, wrapper factory) for every boundary the trace records."""
    def timed(name, on_result=None):
        return lambda fn: tracer.timed(name, fn, on_result)

    def counted(name):
        return lambda fn: tracer.counted(name, fn)

    rank_eval = timed(_evaluation_rank_name, _rank_shape)
    bareiss = timed("linalg.bareiss")
    return [
        (polynomials.Poly, "__mul__", counted("polynomials.mul")),
        (polynomials.Poly, "__add__", counted("polynomials.add")),
        (koszul.KElem, "differential", timed("koszul.differential")),
        (koszul, "truncated_homology_dim", timed("koszul.homology")),
        (cli, "random_chain_map", timed("chain_maps.generate", _image_terms)),
        (chain_maps, "homotopy_perturb", timed("chain_maps.homotopy_perturb")),
        (chain_maps.ChainMap, "apply", timed("chain_maps.apply")),
        (certificates, "chain_map_rank", timed("chain_maps.rank")),
        (chain_maps, "verify_chain_map", timed("chain_maps.verify")),
        (cli, "verify_chain_map", timed("chain_maps.verify")),
        (chain_maps, "evaluation_rank", rank_eval),
        (certificates, "evaluation_rank", rank_eval),
        (linalg, "random_prime", counted("linalg.random_prime")),
        (koszul, "field_rank", timed("linalg.field_rank")),
        (hb_model, "field_rank", timed("linalg.field_rank")),
        (hb_model, "solve_linear", timed("linalg.solve_linear")),
        (chain_maps, "bareiss_rank", bareiss),
        (certificates, "bareiss_rank", bareiss),
        (certificates, "kernel_vector", bareiss),
        (linalg, "bareiss_det", bareiss),
        (cli, "certificate_generators", timed("certificates.generators")),
        (cli, "check_injectivity", timed("certificates.check_injectivity", _injective)),
        (cli, "bound_report", timed("certificates.bound_report")),
        (certificates, "bound_report", timed("certificates.bound_report")),
        (cli, "contradiction_witness", timed("cancellation.witness", _edges)),
        (cancellation, "classify_terms", timed("cancellation.classify")),
        (cancellation, "build_cancellation_graph", timed("cancellation.graph")),
        (hb_model, "construct_alpha", timed("hb_model.construct_alpha")),
        (hb_model.FiltComplex, "homology_dims", timed("hb_model.homology_dims")),
        (hb_model, "verify_alpha", timed("hb_model.verify_alpha")),
        (hb_model, "compose_to_gamma", timed("hb_model.compose", _image_terms)),
        (cli, "main", timed("cli.main")),
    ]


@contextmanager
def instrument(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    saved = []
    try:
        for owner, attr, wrap in _instrumentation(tracer):
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrap(original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# metric name -> unit, all per trial; "calls" and the tallies are counts, ".s"
# is inclusive time of the outermost span of that name, ".self_s" excludes
# the time of child spans
LAYER_METRICS = {
    "polynomials.mul.calls": "count/trial",
    "polynomials.add.calls": "count/trial",
    "koszul.differential.calls": "count/trial",
    "koszul.differential.self_s": "s/trial",
    "koszul.homology.self_s": "s/trial",
    "chain_maps.generate.s": "s/trial",
    "chain_maps.generate.self_s": "s/trial",
    "chain_maps.homotopy_perturb.s": "s/trial",
    "chain_maps.apply.calls": "count/trial",
    "chain_maps.apply.self_s": "s/trial",
    "chain_maps.image_terms": "count/trial",
    "chain_maps.rank.s": "s/trial",
    "chain_maps.verify.s": "s/trial",
    "linalg.evaluation_rank.modp.s": "s/trial",
    "linalg.evaluation_rank.gf2k.s": "s/trial",
    "linalg.evaluation_rank.calls": "count/trial",
    "linalg.evaluation_rank.cells": "count/trial",
    "linalg.evaluation_rank.full_frac": "fraction",
    "linalg.random_prime.calls": "count/trial",
    "linalg.field_rank.calls": "count/trial",
    "linalg.field_rank.s": "s/trial",
    "linalg.solve_linear.calls": "count/trial",
    "linalg.solve_linear.s": "s/trial",
    "linalg.bareiss.calls": "count/trial",
    "linalg.bareiss.s": "s/trial",
    "certificates.generators.s": "s/trial",
    "certificates.check_injectivity.calls": "count/trial",
    "certificates.check_injectivity.self_s": "s/trial",
    "certificates.bound_report.self_s": "s/trial",
    "certificates.injective_frac": "fraction",
    "cancellation.witness.s": "s/trial",
    "cancellation.classify.s": "s/trial",
    "cancellation.graph.s": "s/trial",
    "cancellation.edges": "count/trial",
    "hb_model.construct_alpha.self_s": "s/trial",
    "hb_model.homology_dims.calls": "count/trial",
    "hb_model.homology_dims.s": "s/trial",
    "hb_model.verify_alpha.s": "s/trial",
    "hb_model.compose.s": "s/trial",
    "cli.main.self_s": "s/trial",
    "trial.self_s": "s/trial",
    "trace.overhead_s": "s/trial",
}


def span_totals(spans: list[list]):
    """Per span name: outermost inclusive seconds, self seconds, and calls per trial."""
    inclusive: Counter = Counter()
    self_time: Counter = Counter()
    calls: Counter = Counter()
    for name, start, end, parent, trial in spans:
        duration = end - start
        self_time[name] += duration
        calls[(trial, name)] += 1
        if parent is not None:
            self_time[spans[parent][0]] -= duration
        ancestor = parent
        while ancestor is not None and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor is None:
            inclusive[name] += duration
    return inclusive, self_time, calls


def layer_metrics(tracer: Tracer, count_trials, timed_trials: int, overhead_s: float) -> dict:
    """Per-trial layer metrics.

    Times are means over all ``timed_trials`` traced trials.  Counts and the
    ratios built from them cover only the trials in ``count_trials`` (a fixed
    prefix of trial indices), so they repeat exactly for a given seed.
    """
    inclusive, self_time, calls = span_totals(tracer.spans)
    counted = set(count_trials)
    tally: Counter = Counter()
    for (trial, name), value in list(calls.items()) + list(tracer.counts.items()):
        if trial in counted:
            tally[name] += value
    k = len(counted)
    eval_calls = tally["linalg.evaluation_rank.modp"] + tally["linalg.evaluation_rank.gf2k"]
    checks = tally["certificates.check_injectivity"]
    values = {
        "linalg.evaluation_rank.calls": eval_calls / k,
        "linalg.evaluation_rank.full_frac": tally["linalg.evaluation_rank.full"] / eval_calls if eval_calls else 1.0,
        # vacuously 1.0 on workloads that run no certificate
        "certificates.injective_frac": tally["certificates.injective"] / checks if checks else 1.0,
        "trace.overhead_s": overhead_s,
    }
    for metric in LAYER_METRICS:
        if metric in values:
            continue
        base, _, kind = metric.rpartition(".")
        if kind == "calls":
            values[metric] = tally[base] / k
        elif kind == "s":
            values[metric] = inclusive[base] / timed_trials
        elif kind == "self_s":
            values[metric] = self_time[base] / timed_trials
        else:
            values[metric] = tally[metric] / k
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS.items()}


def layer_shares(tracer: Tracer) -> dict:
    """Share of traced trial time whose self time falls in each module."""
    _, self_time, _ = span_totals(tracer.spans)
    total = sum(end - start for name, start, end, parent, _ in tracer.spans if parent is None)
    shares: Counter = Counter()
    for name, seconds in self_time.items():
        shares["bench" if name == ROOT_SPAN else name.split(".")[0]] += seconds
    return {module: round(seconds / total, 4) for module, seconds in sorted(shares.items())}

"""Traced wrappers around the public functions of each qmodular module.

A traced worker process installs one wrapper per entry of TARGETS.  The
wrapper replaces every binding of the original function that a caller
can look up: the defining module's attribute, each `from .x import y`
copy in another qmodular module (such as `verify.mul` or `cli.euler_product`),
and values of module-level dicts (such as `verify.SUITES`).  Nothing in
the library is edited.

Wrappers come in three kinds:

* ``span`` records (name, start, end, parent span, pass id, argument) per
  call, kept in memory until the worker ends;
* ``count`` only counts calls, for functions hit millions of times
  (`forms.tau` is read about 3.25 M times by one `verify all`);
* ``timed`` counts calls and sums their time without recording spans.

The parent process turns the dumps into the per-layer metrics with
:func:`layer_metrics`.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time

MODULES = ("qseries", "forms", "theta_partitions", "lseries", "geometry", "verify", "cli")

# (metric prefix, module, attribute, kind)
TARGETS = [
    ("qseries.euler_product", "qseries", "euler_product", "span"),
    ("qseries.mul", "qseries", "mul", "span"),
    ("qseries.to_json_obj", "qseries", "to_json_obj", "span"),
    ("forms.tau", "forms", "tau", "count"),
    ("forms.delta", "forms", "delta", "span"),
    ("forms.sigma", "forms", "sigma", "timed"),
    ("forms.eisenstein_e12", "forms", "eisenstein_e12", "span"),
    ("forms.hecke_compose_check", "forms", "hecke_compose_check", "span"),
    ("forms.is_eigenform", "forms", "is_eigenform", "span"),
    ("forms.tau_properties_check", "forms", "tau_properties_check", "span"),
    ("theta_partitions.rank_generating", "theta_partitions", "rank_generating", "span"),
    ("theta_partitions.rank_table", "theta_partitions", "rank_table", "span"),
    ("theta_partitions.mock_theta_f", "theta_partitions", "mock_theta_f", "span"),
    ("theta_partitions.theta_diagonal", "theta_partitions", "theta_diagonal", "span"),
    ("theta_partitions.specialize_omega", "theta_partitions", "specialize_omega", "span"),
    ("theta_partitions.partition_count", "theta_partitions", "partition_count", "count"),
    ("lseries.completed_lambda_integral", "lseries", "completed_lambda_integral", "span"),
    ("lseries.zeta_zero_spacings", "lseries", "zeta_zero_spacings", "span"),
    ("lseries.z_function", "lseries", "z_function", "count"),
    ("lseries.dirichlet_eval", "lseries", "dirichlet_eval", "span"),
    ("lseries.mellin_coeffs", "lseries", "mellin_coeffs", "span"),
    ("lseries.euler_product_coeffs", "lseries", "euler_product_coeffs", "span"),
    ("geometry.torus_term", "geometry", "torus_term", "span"),
    ("geometry.weak_maass_series", "geometry", "weak_maass_series", "span"),
    ("geometry.ellipse_perimeter", "geometry", "ellipse_perimeter", "count"),
    ("verify.tau", "verify", "verify_tau", "span"),
    ("verify.hecke", "verify", "verify_hecke", "span"),
    ("verify.rank", "verify", "verify_rank", "span"),
    ("verify.theta", "verify", "verify_theta", "span"),
    ("verify.lfunc", "verify", "verify_lfunc", "span"),
    ("verify.geometry", "verify", "verify_geometry", "span"),
    ("cli.main", "cli", "main", "span"),
]

# Spans of this function also record their first argument (the point s),
# so the trace can tell repeated evaluations from distinct ones.
ARG_RECORDED = {"lseries.completed_lambda_integral"}

# Wrappers each workload is predicted to reach.  A traced run asserts a
# nonzero count for every one of them, so a wrapper installed where no
# caller looks reads as a failure instead of a silent zero.
PREDICTED = {
    "verify_all": {name for name, *_ in TARGETS} - {"qseries.to_json_obj"},
    "exact_series": {
        "qseries.euler_product",
        "qseries.to_json_obj",
        "forms.tau",
        "forms.delta",
        "forms.sigma",
        "forms.eisenstein_e12",
        "forms.tau_properties_check",
        "theta_partitions.mock_theta_f",
        "theta_partitions.rank_table",
        "verify.tau",
        "cli.main",
    },
    "rank_series": {
        "theta_partitions.rank_generating",
        "theta_partitions.rank_table",
        "theta_partitions.mock_theta_f",
        "theta_partitions.specialize_omega",
        "theta_partitions.partition_count",
    },
}

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("qseries.euler_product.s", "s", "lower"),
    ("qseries.euler_product.calls", "count", "lower"),
    ("qseries.mul.s", "s", "lower"),
    ("qseries.to_json_obj.s", "s", "lower"),
    ("qseries.self.s", "s", "lower"),
    ("forms.tau.calls", "count", "lower"),
    ("forms.delta.s", "s", "lower"),
    ("forms.delta.calls", "count", "lower"),
    ("forms.sigma.calls", "count", "lower"),
    ("forms.sigma.s", "s", "lower"),
    ("forms.eisenstein_e12.s", "s", "lower"),
    ("forms.hecke_compose_check.s", "s", "lower"),
    ("forms.hecke_compose_check.calls", "count", "lower"),
    ("forms.is_eigenform.s", "s", "lower"),
    ("forms.tau_properties_check.s", "s", "lower"),
    ("forms.self.s", "s", "lower"),
    ("theta_partitions.rank_generating.s", "s", "lower"),
    ("theta_partitions.rank_table.s", "s", "lower"),
    ("theta_partitions.mock_theta_f.s", "s", "lower"),
    ("theta_partitions.theta_diagonal.s", "s", "lower"),
    ("theta_partitions.specialize_omega.s", "s", "lower"),
    ("theta_partitions.partition_count.calls", "count", "lower"),
    ("theta_partitions.self.s", "s", "lower"),
    ("lseries.completed_lambda_integral.s", "s", "lower"),
    ("lseries.completed_lambda_integral.calls", "count", "lower"),
    ("lseries.completed_lambda_integral.distinct_ratio", "ratio", "higher"),
    ("lseries.zeta_zero_spacings.s", "s", "lower"),
    ("lseries.z_function.calls", "count", "lower"),
    ("lseries.dirichlet_eval.s", "s", "lower"),
    ("lseries.mellin_coeffs.s", "s", "lower"),
    ("lseries.euler_product_coeffs.s", "s", "lower"),
    ("lseries.self.s", "s", "lower"),
    ("geometry.torus_term.s", "s", "lower"),
    ("geometry.weak_maass_series.s", "s", "lower"),
    ("geometry.ellipse_perimeter.calls", "count", "lower"),
    ("geometry.self.s", "s", "lower"),
    ("verify.tau.s", "s", "lower"),
    ("verify.hecke.s", "s", "lower"),
    ("verify.rank.s", "s", "lower"),
    ("verify.theta.s", "s", "lower"),
    ("verify.lfunc.s", "s", "lower"),
    ("verify.geometry.s", "s", "lower"),
    ("verify.self.s", "s", "lower"),
    ("cli.main.s", "s", "lower"),
    ("cli.self.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


class Recorder:
    """In-memory spans and counters of one traced worker process."""

    def __init__(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self.spans: list[list] = []  # [name, start, end, parent index, pass id, arg]
        self.counts = {name: 0 for name, *_ in TARGETS}
        self.times: dict[str, float] = {}
        self._stack: list[int] = []

    def _wrap(self, name: str, kind: str, fn):
        counts, spans, stack, clock = self.counts, self.spans, self._stack, time.perf_counter

        if kind == "count":
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

        elif kind == "timed":
            times = self.times
            times[name] = 0.0

            def wrapper(*args, **kwargs):
                counts[name] += 1
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    times[name] += clock() - t0

        else:
            pass_id = self.pass_id
            record_arg = name in ARG_RECORDED

            def wrapper(*args, **kwargs):
                counts[name] += 1
                arg = args[0] if record_arg and args else None
                span = [name, clock(), 0.0, stack[-1] if stack else -1, pass_id, arg]
                stack.append(len(spans))
                spans.append(span)
                try:
                    return fn(*args, **kwargs)
                finally:
                    stack.pop()
                    span[2] = clock()

        return functools.wraps(fn)(wrapper)

    def install(self) -> None:
        """Wrap every target at each binding its callers look up."""
        mods = [importlib.import_module("qmodular." + m) for m in MODULES]
        mods.append(sys.modules["qmodular"])
        for name, module, attr, kind in TARGETS:
            orig = getattr(sys.modules["qmodular." + module], attr, None)
            if orig is None:
                continue  # reads as a zero count, which the coverage check reports
            wrapper = self._wrap(name, kind, orig)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                    elif type(value) is dict:
                        for k, v in value.items():
                            if v is orig:
                                value[k] = wrapper

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "times": self.times}


def _pass_metrics(dumps: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one pass from the dumps of its worker processes."""
    out = {name: 0 for name, _, _ in PER_LAYER}
    s_values: list = []
    for dump in dumps:
        spans = dump["spans"]
        covered = [0.0] * len(spans)
        for name, start, end, parent, _, arg in spans:
            if parent >= 0:
                covered[parent] += end - start
            if arg is not None:
                s_values.append(arg)
        for i, (name, start, end, parent, _, _) in enumerate(spans):
            dur = end - start
            out[name.split(".")[0] + ".self.s"] += dur - covered[i]
            # inclusive time counts only the outermost span of a name
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                out[name + ".s"] = out.get(name + ".s", 0.0) + dur
        for name, n in dump["counts"].items():
            if name + ".calls" in out:
                out[name + ".calls"] += n
        for name, t in dump["times"].items():
            out[name + ".s"] += t
    calls = out["lseries.completed_lambda_integral.calls"]
    out["lseries.completed_lambda_integral.distinct_ratio"] = len(set(s_values)) / calls if calls else 0.0
    return {name: out[name] for name, _, _ in PER_LAYER}


def layer_metrics(passes: list[list[dict]]) -> dict[str, float]:
    """Median over traced passes of each per-layer metric; the caller sets trace.overhead_s."""
    per_pass = [_pass_metrics(dumps) for dumps in passes]
    return {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}


def coverage_gaps(workload: str, passes: list[list[dict]]) -> list[str]:
    """Predicted wrappers that no traced pass of the workload reached."""
    reached = {name for dumps in passes for d in dumps for name, n in d["counts"].items() if n}
    return sorted(PREDICTED[workload] - reached)

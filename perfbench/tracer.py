"""Span tracer installed from outside the package, and the per-layer metrics it yields.

Each wrapped function or method records a span (name, start, end, parent,
job id, thread id, attributes) in memory.  Function wrappers are installed
in every ``fermiwalk`` module namespace that holds the same object, so calls
through ``from .x import name`` bindings are seen too.  A target that no
longer exists is reported as absent instead of failing the run.

A span's self time is its duration minus the union of its children's
intervals.  Spans opened on a worker thread (the disorder thread pool) have
no parent on their own thread; they take the innermost open span of the
main thread as parent, which is the call that is waiting for them.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

MODULES = ("walk", "environment", "coupling", "asymptotics", "simulate", "disorder",
           "config", "cli")


def _steps(args, kwargs) -> int:
    return int(args[1] if len(args) > 1 else kwargs.get("steps", 1))


def _cov_step_attrs(args, kwargs, result):
    return {"steps": _steps(args, kwargs), "N": int(args[0].sigma.shape[0])}


def _oracle_step_attrs(args, kwargs, result):
    oracle = args[0]
    return {"steps": _steps(args, kwargs), "D": int(oracle.D),
            "K": int(oracle.states.shape[1]), "E": int(oracle.E), "d": int(oracle.d)}


def _oracle_init_attrs(args, kwargs, result):
    return {"D": int(args[0].D), "K": int(args[0].states.shape[1])}


# (span name, module, attribute path, attributes from (args, kwargs, result))
TARGETS = (
    ("walk.build", "walk", "build_cycle_walk", None),
    ("walk.build", "walk", "build_regular_graph_walk", None),
    ("walk.cyclic", "walk", "is_cyclic", None),
    ("environment.eval_series", "environment", "eval_series",
     lambda a, k, r: {"d": int(np.shape(a[1])[0])}),
    ("environment.truncated_symbol", "environment", "build_truncated_symbol", None),
    ("environment.validate_symbol", "environment", "validate_symbol", None),
    ("coupling.contraction", "coupling", "build_contraction", None),
    ("coupling.spectral_radius", "coupling", "spectral_radius", lambda a, k, r: {"spr": r}),
    ("coupling.certificate", "coupling", "decay_certificate",
     lambda a, k, r: {"d": int(np.shape(a[0])[0])}),
    ("coupling.horizon", "coupling", "ContractionM.truncation_horizon",
     lambda a, k, r: {"T": int(r)}),
    ("coupling.moller", "coupling", "moller_sample_block", None),
    ("asymptotics.symbol", "asymptotics", "asymptotic_symbol", None),
    ("asymptotics.flux", "asymptotics", "flux_expectations", None),
    ("asymptotics.statistics", "asymptotics", "particle_number_distribution", None),
    ("asymptotics.statistics", "asymptotics", "node_profile", None),
    ("asymptotics.statistics", "asymptotics", "node_correlations", None),
    ("simulate.cov_init", "simulate", "CovarianceState.__post_init__", None),
    ("simulate.cov_step", "simulate", "CovarianceState.step", _cov_step_attrs),
    ("simulate.flux_finite", "simulate", "flux_finite_time", None),
    ("simulate.oracle_init", "simulate", "FockOracle.__init__", _oracle_init_attrs),
    ("simulate.oracle_step", "simulate", "FockOracle.step", _oracle_step_attrs),
    ("simulate.two_point", "simulate", "FockOracle.two_point_matrix", None),
    ("disorder.sample_walk", "disorder", "sample_disordered_walk", None),
    ("disorder.eigensolve", "disorder", "_eigenphases",
     lambda a, k, r: {"n": int(np.shape(a[0])[0]) // 2}),
    ("config.parse", "config", "load_config", None),
    ("cli.serialize", "config", "canonical_json", None),
    ("cli.serialize", "cli", "matrix_to_csv", None),
    ("cli.serialize", "cli", "_write_csv", None),
    ("cli.serialize", "cli", "emit_plot_data", None),
    ("cli.command", "cli", "run", None),
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    job: int
    thread: int
    attrs: dict


class Tracer:
    """Collects spans from wrapped ``fermiwalk`` callables while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job = -1
        self.absent: dict[str, str] = {}
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list = []
        self._restore: list = []

    def _stack(self) -> list:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, name, fn, attrs):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.job < 0:          # outside a timed job (checks, set-up)
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main else None
            with tracer._lock:
                sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            extra = attrs(args, kwargs, result) if attrs else {}
            span = Span(sid, name, start, end, parent, tracer.job,
                        threading.get_ident(), extra)
            with tracer._lock:
                tracer.spans.append(span)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self):
        modules = {m: importlib.import_module(f"fermiwalk.{m}") for m in MODULES}
        for name, mod, path, attrs in TARGETS:
            owner_name, _, attr = path.rpartition(".")
            home = modules[mod]
            owner = getattr(home, owner_name, None) if owner_name else home
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent[f"{mod}.{path}"] = f"fermiwalk.{mod} has no {path}"
                continue
            wrapper = self._wrap(name, original, attrs)
            if owner_name:
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules.values():
                if module.__dict__.get(attr) is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def absent_spans(self) -> dict:
        """Span names none of whose targets could be installed, with the reason."""
        installed = {name for name, mod, path, _ in TARGETS
                     if f"{mod}.{path}" not in self.absent}
        return {name: self.absent[f"{mod}.{path}"] for name, mod, path, _ in TARGETS
                if name not in installed}

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


# ---------------------------------------------------------------------------
# per-layer metrics


def self_times(spans: list) -> dict:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out[s.id] = (s.end - s.start) - covered
    return out


def _fit_exponent(points):
    """Slope of log(median time) against log(size), over distinct sizes."""
    by_size = defaultdict(list)
    for size, t in points:
        by_size[size].append(t)
    if len(by_size) < 2:
        return None, f"needs two sizes, saw {sorted(by_size)}"
    sizes = sorted(by_size)
    times = [float(np.median(by_size[s])) for s in sizes]
    slope = np.polyfit(np.log(sizes), np.log(times), 1)[0]
    return float(slope), f"fit over sizes {sizes}"


def layer_metrics(spans: list, job_pass: dict, passes: int, jobs_per_pass: int,
                  job_info: list) -> tuple[dict, dict]:
    """Per-layer metrics from the spans of ``passes`` identical traced passes.

    Times are per-pass self time (median over passes) unless named per step;
    counts are per pass and repeat exactly.  Returns ``(values, notes)``;
    ``notes`` explains metrics that are absent or derived.
    """
    selft = self_times(spans)
    per_pass = defaultdict(lambda: np.zeros(passes))
    calls = defaultdict(int)
    by_name = defaultdict(list)
    for s in spans:
        per_pass[s.name][job_pass[s.job]] += selft[s.id]
        calls[s.name] += 1
        by_name[s.name].append(s)

    def secs(name):
        return float(np.median(per_pass[name])) if name in per_pass else 0.0

    def count(name):
        return calls[name] / passes

    def per_step(name):
        vals = [selft[s.id] / s.attrs["steps"] for s in by_name[name] if s.attrs["steps"]]
        return float(np.median(vals)) if vals else 0.0

    def attr_max(name, key):
        return max((s.attrs[key] for s in by_name[name]), default=0)

    notes = {}
    v = {
        "walk.build_s": secs("walk.build"),
        "walk.build_calls": count("walk.build"),
        "walk.builds_per_job": count("walk.build") / jobs_per_pass,
        "walk.cyclic_s": secs("walk.cyclic"),
        "environment.eval_series_s": secs("environment.eval_series"),
        "environment.eval_series_calls": count("environment.eval_series"),
        "environment.eval_series_dim.max": attr_max("environment.eval_series", "d"),
        "environment.truncated_symbol_s": secs("environment.truncated_symbol"),
        "environment.validate_symbol_s": secs("environment.validate_symbol"),
        "coupling.contraction_s": secs("coupling.contraction"),
        "coupling.contraction_calls": count("coupling.contraction"),
        "coupling.spectral_radius_s": secs("coupling.spectral_radius"),
        "coupling.spectral_radius_calls": count("coupling.spectral_radius"),
        "coupling.certificate_s": secs("coupling.certificate"),
        "coupling.certificate_calls": count("coupling.certificate"),
        "coupling.horizon_steps.sum": sum(s.attrs["T"] for s in by_name["coupling.horizon"]) / passes,
        "coupling.horizon_steps.max": attr_max("coupling.horizon", "T"),
        "coupling.spr_gap.min": min((1.0 - s.attrs["spr"] for s in by_name["coupling.spectral_radius"]),
                                    default=0.0),
        "coupling.moller_s": secs("coupling.moller"),
        "asymptotics.symbol_s": secs("asymptotics.symbol"),
        "asymptotics.flux_s": secs("asymptotics.flux"),
        "asymptotics.statistics_s": secs("asymptotics.statistics"),
        "simulate.cov_init_s": secs("simulate.cov_init"),
        "simulate.cov_step_s": per_step("simulate.cov_step"),
        "simulate.cov_steps": sum(s.attrs["steps"] for s in by_name["simulate.cov_step"]) / passes,
        "simulate.cov_dim.max": attr_max("simulate.cov_step", "N"),
        "simulate.flux_finite_s": secs("simulate.flux_finite"),
        "simulate.oracle_init_s": secs("simulate.oracle_init"),
        "simulate.oracle_step_s": per_step("simulate.oracle_step"),
        "simulate.oracle_steps": sum(s.attrs["steps"] for s in by_name["simulate.oracle_step"]) / passes,
        "simulate.oracle_modes.max": attr_max("simulate.oracle_init", "D"),
        "simulate.oracle_ensemble.max": attr_max("simulate.oracle_init", "K"),
        "simulate.two_point_s": secs("simulate.two_point"),
        "simulate.two_point_calls": count("simulate.two_point"),
        "disorder.sample_walk_s": secs("disorder.sample_walk"),
        "disorder.eigensolve_s": secs("disorder.eigensolve"),
        "disorder.draws": count("disorder.sample_walk"),
        "config.parse_s": secs("config.parse"),
        "cli.serialize_s": secs("cli.serialize"),
        "cli.command_self_s": secs("cli.command"),
    }
    draws = sum(i.get("draws", 0) for i in job_info)
    skipped = sum(i.get("skipped", 0) for i in job_info)
    v["disorder.kept_ratio"] = (draws - skipped) / draws if draws else 0.0
    if not draws:
        notes["disorder.kept_ratio"] = "no averaged-density draws on this workload"
    v["cli.result_bytes"] = sum(i.get("result_bytes", 0) for i in job_info) / passes

    # computed from array shapes, at the largest size seen: one pass over the
    # complex128 joint covariance in and one out per step; the oracle's three
    # dense kernels (k4 on pairs, Gamma(W) on the sample, Gamma(S x U) on the
    # reservoir) at 8 flops per complex multiply-add
    N = v["simulate.cov_dim.max"]
    v["simulate.cov_step_bytes"] = 2 * 16 * N * N
    big = max(by_name["simulate.oracle_step"], key=lambda s: s.attrs["D"], default=None)
    v["simulate.oracle_step_flops"] = (
        8 * big.attrs["K"] * 2 ** big.attrs["D"] * (4 + 2 ** big.attrs["d"] + 2 ** big.attrs["E"])
        if big else 0)
    notes["simulate.cov_step_bytes"] = f"computed: 2 x 16 B x N^2 at N = {N}"
    notes["simulate.oracle_step_flops"] = (
        f"computed: 8 K 2^D (4 + 2^d + 2^E) at D = {big.attrs['D']}, K = {big.attrs['K']}"
        if big else "computed: no oracle step on this workload")

    fits = {
        "simulate.cov_step.scaling_exp": [
            (s.attrs["N"], selft[s.id] / s.attrs["steps"])
            for s in by_name["simulate.cov_step"] if s.attrs["steps"]],
        "simulate.oracle_step.scaling_exp": [
            (2 ** s.attrs["D"] * s.attrs["K"], selft[s.id] / s.attrs["steps"])
            for s in by_name["simulate.oracle_step"] if s.attrs["steps"]],
        "coupling.certificate.scaling_exp": [
            (s.attrs["d"], selft[s.id]) for s in by_name["coupling.certificate"]],
        "disorder.eigensolve.scaling_exp": [
            (s.attrs["n"], selft[s.id]) for s in by_name["disorder.eigensolve"]],
    }
    for metric, points in fits.items():
        v[metric], notes[metric] = _fit_exponent(points)
        if v[metric] is None:
            v[metric] = 0.0
    return v, notes


def top_layers(spans: list, k: int = 5) -> list:
    """The ``k`` span names with the largest total self time."""
    selft = self_times(spans)
    total = defaultdict(float)
    for s in spans:
        total[s.name] += selft[s.id]
    return sorted(total.items(), key=lambda kv: -kv[1])[:k]

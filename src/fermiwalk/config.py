"""Experiment configuration: strict JSON parsing and canonical serialisation.

Configs are plain JSON with complex numbers written as ``[re, im]`` pairs.
Unknown fields are rejected with the offending path, so typos fail loudly.
The canonical writer (sorted keys, floats at 17 significant digits) makes
result files byte-reproducible and gives configs a stable content hash.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .coupling import CouplingSpec
from .disorder import DisorderModel
from .environment import EnvironmentSpec, SymbolFunction
from .walk import (WalkSpec, check_unit_vector, cycle_star_vector, hadamard_coin, random_coin,
                   rotation_coin)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "parse_config",
    "load_config",
    "read_json",
    "canonical_json",
    "config_hash",
    "encode_complex_matrix",
    "encode_complex_vector",
]

# the options each command reads; the runner rejects any other
COMMAND_OPTIONS = {
    "validate": frozenset({"export_matrices"}),
    "asymptotic": frozenset({"export_matrices"}),
    "flux": frozenset(),
    "profile": frozenset(),
    "simulate": frozenset({"steps"}),
    "oracle_check": frozenset({"window", "steps"}),
    "disorder_dos": frozenset({"samples", "bins"}),
    "averaged_density": frozenset({"samples"}),
}
COMMANDS = tuple(COMMAND_OPTIONS)
# the config sections each command reads; the runner refuses a config without one
COMMAND_SECTIONS = dict.fromkeys(COMMANDS, ("walk", "environment", "coupling")) | {
    "validate": (), "disorder_dos": ("disorder",),
    "averaged_density": ("disorder", "environment", "coupling")}


class ConfigError(ValueError):
    """Malformed experiment configuration; the message carries the field path."""


# ---------------------------------------------------------------------------
# canonical JSON


def _format_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ConfigError("non-finite floats cannot be serialised")
    if float(x).is_integer() and abs(x) < 1e16:
        return f"{x:.1f}"
    return f"{x:.17g}"


def _canonical(obj, out: list):
    if isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise ConfigError("JSON object keys must be strings")
            if i:
                out.append(",")
            out.append(json.dumps(key))
            out.append(":")
            _canonical(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _canonical(item, out)
        out.append("]")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_format_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    else:
        raise ConfigError(f"cannot serialise {type(obj).__name__}")


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, 17-significant-digit floats."""
    out: list = []
    _canonical(obj, out)
    return "".join(out)


def config_hash(obj) -> str:
    """Content hash of the canonicalised configuration."""
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def encode_complex_vector(v) -> list:
    return [[float(np.real(z)), float(np.imag(z))] for z in np.asarray(v).ravel()]


def encode_complex_matrix(M) -> list:
    return [encode_complex_vector(row) for row in np.asarray(M)]


# ---------------------------------------------------------------------------
# parsing helpers


def _check_keys(section: dict, allowed, path: str):
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"{path}.{sorted(unknown)[0]}: unknown field")


def _number(value, path: str, kind: type = float, minimum: int | None = None):
    """Every numeric field: a finite float, or with ``kind=int`` an integer ``>= minimum``."""
    if kind is int:
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or (
                minimum is not None and value < minimum):
            what = {None: "an integer", 0: "a non-negative integer"}.get(
                minimum, f"an integer >= {minimum}")
            raise ConfigError(f"{path}: expected {what}")
        return int(value)
    if (not isinstance(value, (int, float, np.integer, np.floating)) or isinstance(value, bool)
            or not np.isfinite(value)):
        raise ConfigError(f"{path}: expected a finite number")
    return float(value)


def _numbers(value, path: str, length: int | None = None, kind: type = float) -> list:
    """A list of :func:`_number` entries, of ``length`` entries if given."""
    if not isinstance(value, list) or (length is not None and len(value) != length):
        size = "" if length is None else f" of {length} entries"
        raise ConfigError(f"{path}: expected a list{size}")
    return [_number(x, f"{path}[{i}]", kind) for i, x in enumerate(value)]


def _check_option(key: str, value):
    """Refuse an option value that its command cannot run with."""
    path = f"config.options.{key}"
    if key == "export_matrices":
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: expected true or false")
    elif key == "window":
        if not (isinstance(value, list) and len(value) == 2
                and all(type(x) is int for x in value) and value[0] <= value[1]):
            raise ConfigError(f"{path}: expected two integers [a, b] with a <= b")
    else:                                       # steps, samples, bins
        _number(value, path, int, minimum=1)


def _complex_scalar(value, path: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if (isinstance(value, (list, tuple)) and len(value) == 2
            and all(isinstance(x, (int, float)) for x in value)):
        return complex(value[0], value[1])
    raise ConfigError(f"{path}: expected a number or an [re, im] pair")


def _complex_vector(value, path: str) -> np.ndarray:
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list")
    return np.array([_complex_scalar(x, f"{path}[{i}]") for i, x in enumerate(value)])


def _complex_matrix(value, path: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a non-empty list of rows")
    return np.array([_complex_vector(row, f"{path}[{i}]") for i, row in enumerate(value)])


def _parse_coins(section, n: int, dim: int, path: str) -> list:
    _check_keys(section, {"kind", "thetas", "seed", "matrices"}, path)
    kind = section.get("kind")
    if kind == "hadamard":
        if dim != 2:
            raise ConfigError(f"{path}: hadamard coins are 2x2")
        return [hadamard_coin()] * n
    if kind == "rotation":
        return [rotation_coin(t) for t in _numbers(section.get("thetas"), f"{path}.thetas", n)]
    if kind == "random":
        rng = np.random.default_rng(_number(section.get("seed", 0), f"{path}.seed", int, 0))
        return [random_coin(dim, rng) for _ in range(n)]
    if kind == "explicit":
        mats = section.get("matrices")
        if not isinstance(mats, list) or len(mats) != n:
            raise ConfigError(f"{path}.matrices: need {n} matrices")
        return [_complex_matrix(mat, f"{path}.matrices[{i}]") for i, mat in enumerate(mats)]
    raise ConfigError(f"{path}.kind: unknown coin kind {kind!r}")


def _parse_walk(section, path="walk") -> WalkSpec:
    _check_keys(section, {"kind", "n", "r", "coins", "edge_coloring", "matrix",
                          "star_site", "star_spin", "star_vector"}, path)
    kind = section.get("kind")
    star = None
    if "star_vector" in section:
        star = _complex_vector(section["star_vector"], f"{path}.star_vector")
    if kind == "cycle":
        n = _number(section.get("n", 0), f"{path}.n", int)
        coins = _parse_coins(section.get("coins", {}), n, 2, f"{path}.coins")
        if star is None and ("star_site" in section or "star_spin" in section):
            site = _number(section.get("star_site", 0), f"{path}.star_site", int)
            star = cycle_star_vector(n, site, _number(section.get("star_spin", -1),
                                                      f"{path}.star_spin", int))
        return WalkSpec(kind="cycle", n=n, coins=coins, star_vector=star)
    if kind == "regular_graph":
        n = _number(section.get("n", 0), f"{path}.n", int)
        r = _number(section.get("r", 0), f"{path}.r", int)
        coloring = section.get("edge_coloring")
        if not isinstance(coloring, list) or len(coloring) != n:
            raise ConfigError(f"{path}.edge_coloring: need an n x r table of targets")
        table = {(nu, a): target for nu, row in enumerate(coloring) for a, target in
                 enumerate(_numbers(row, f"{path}.edge_coloring[{nu}]", r, int))}
        coins = _parse_coins(section.get("coins", {}), n, r, f"{path}.coins")
        return WalkSpec(kind="regular_graph", n=n, r=r, coins=coins,
                        edge_coloring=table, star_vector=star)
    if kind == "raw":
        if "matrix" not in section or star is None:
            raise ConfigError(f"{path}: raw walks need matrix and star_vector")
        return WalkSpec(kind="raw", star_vector=star,
                        matrix=_complex_matrix(section["matrix"], f"{path}.matrix"))
    raise ConfigError(f"{path}.kind: unknown walk kind {kind!r}")


def _parse_environment(section, path="environment") -> EnvironmentSpec:
    _check_keys(section, {"m", "unitary", "symbol_functions"}, path)
    m = _number(section.get("m", 1), f"{path}.m", int)
    unitary = section.get("unitary", {"kind": "identity"})
    _check_keys(unitary, {"kind", "matrix", "phases", "vectors"}, f"{path}.unitary")
    if unitary.get("kind") == "identity" or (not unitary.get("kind") and "matrix" not in unitary
                                             and "phases" not in unitary):
        if m != 1:
            raise ConfigError(f"{path}.unitary: identity has degenerate spectrum for m > 1")
        U = np.eye(1)
    elif "matrix" in unitary:
        U = _complex_matrix(unitary["matrix"], f"{path}.unitary.matrix")
    elif "phases" in unitary:
        phases = _numbers(unitary["phases"], f"{path}.unitary.phases")
        if "vectors" in unitary:
            X = _complex_matrix(unitary["vectors"], f"{path}.unitary.vectors")
        else:
            X = np.eye(len(phases))
        U = X @ np.diag(np.exp(1j * np.array(phases))) @ X.conj().T
    else:
        raise ConfigError(f"{path}.unitary: give a kind, matrix, or phase list")
    funcs = section.get("symbol_functions")
    if not isinstance(funcs, list) or len(funcs) != m:
        raise ConfigError(f"{path}.symbol_functions: need {m} entries")
    functions = []
    for i, f in enumerate(funcs):
        _check_keys(f, {"coefficients"}, f"{path}.symbol_functions[{i}]")
        coeffs = [_complex_scalar(c, f"{path}.symbol_functions[{i}].coefficients[{j}]")
                  for j, c in enumerate(f.get("coefficients", []))]
        functions.append(SymbolFunction(tuple(coeffs)))
    return EnvironmentSpec(U, functions)


def _parse_disorder(section, path="disorder") -> DisorderModel:
    _check_keys(section, {"t", "r", "n", "distribution", "theta0", "halfwidth", "seed"}, path)
    def number(key, kind=float, minimum=None):
        return _number(section.get(key, 0), f"{path}.{key}", kind, minimum)

    return DisorderModel(t=number("t"), r=number("r"), n=number("n", int),
                         distribution=section.get("distribution", "point"),
                         theta0=number("theta0"), halfwidth=number("halfwidth"),
                         seed=number("seed", int, 0))


OPTION_FIELDS = frozenset().union(*COMMAND_OPTIONS.values())


@dataclass
class ExperimentConfig:
    """Parsed experiment description."""

    command: str | None
    raw: dict
    output_dir: str | None = None
    walk: WalkSpec | None = None
    environment: EnvironmentSpec | None = None
    alpha_values: list = field(default_factory=list)
    coupling_v: np.ndarray | None = None
    disorder: DisorderModel | None = None
    options: dict = field(default_factory=dict)

    @cached_property
    def built_walk(self) -> tuple[np.ndarray, np.ndarray]:
        """``(W, psi*)`` from :meth:`WalkSpec.build`, built once per config."""
        return self.walk.build()

    def coupling(self, alpha: float | None = None) -> CouplingSpec:
        if alpha is None:
            if len(self.alpha_values) != 1:
                raise ConfigError("this command needs a single alpha (not a sweep)")
            alpha = self.alpha_values[0]
        psi = None if self.walk is None else self.built_walk[1]
        return CouplingSpec(alpha, self.coupling_v, psi)

    @property
    def inputs_hash(self) -> str:
        return config_hash(self.raw)


def parse_config(data: dict) -> ExperimentConfig:
    _check_keys(data, {"command", "seed", "output_dir", "walk", "environment",
                       "coupling", "disorder", "options"}, "config")
    command = data.get("command")
    if command is not None and command not in COMMANDS:
        raise ConfigError(f"config.command: unknown command {command!r}")
    _number(data.get("seed", 0), "config.seed", int, 0)
    options = data.get("options", {})
    _check_keys(options, OPTION_FIELDS, "config.options")
    for key, value in options.items():
        _check_option(key, value)

    cfg = ExperimentConfig(command=command, raw=data,
                           output_dir=data.get("output_dir"),
                           options=dict(options))
    if "walk" in data:
        cfg.walk = _parse_walk(data["walk"])
    if "environment" in data:
        cfg.environment = _parse_environment(data["environment"])
    if "coupling" in data:
        section = data["coupling"]
        _check_keys(section, {"alpha", "alpha_sweep", "v"}, "config.coupling")
        if "alpha" in section and "alpha_sweep" in section:
            raise ConfigError("config.coupling: give alpha or alpha_sweep, not both")
        if "alpha" in section:
            cfg.alpha_values = [_number(section["alpha"], "config.coupling.alpha")]
        elif isinstance(section.get("alpha_sweep"), list) and section["alpha_sweep"]:
            cfg.alpha_values = _numbers(section["alpha_sweep"], "config.coupling.alpha_sweep")
        else:
            raise ConfigError("config.coupling: give alpha or a non-empty alpha_sweep")
        if "v" in section:
            v = _complex_vector(section["v"], "config.coupling.v")
            if cfg.environment is not None and len(v) != cfg.environment.m:
                raise ConfigError(f"config.coupling.v: expected {cfg.environment.m} entries "
                                  f"(environment.m), got {len(v)}")
            v = check_unit_vector(v, "config.coupling.v", ConfigError)
        elif cfg.environment is None:
            raise ConfigError("config.environment: needed for the default coupling.v")
        elif cfg.environment.m != 1:
            raise ConfigError("config.coupling.v: required unless m = 1")
        else:
            v = np.array([1.0 + 0.0j])
        cfg.coupling_v = v
    if "disorder" in data:
        cfg.disorder = _parse_disorder(data["disorder"])
    return cfg


def read_json(path, flag: str):
    """The JSON document at ``path``; a file that cannot be read as JSON is a :class:`ConfigError`.

    A missing path, a directory, an unreadable file and invalid JSON each give
    a message that starts with ``flag``, the option that named the path.
    """
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"{flag}: file not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"{flag}: cannot read {path}: {exc.strerror}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{flag}: {path} is not valid JSON: {exc}") from None


def load_config(path) -> ExperimentConfig:
    return parse_config(read_json(path, "--config"))

"""Command-line experiment runner.

    fermiwalk <command> --config <path> [--out <dir>] [--seed <u64>] [--threads <k>]

Commands: validate, asymptotic, flux, profile, simulate, oracle_check,
disorder_dos, averaged_density, plus ``emit`` to cut plot-ready CSV out of a
result file.  Each command's handler returns its results; :func:`run` alone
writes them, as canonical JSON carrying the config hash and a provenance
block, followed by the plot CSV of every kind the results carry.  Matrices
export as CSV with quoted ``re,im`` cells.

Exit codes: 0 success, 2 configuration or validation failure, 3 numerical
domain error (non-contractive coupling and the like).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import stat
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .asymptotics import (asymptotic_symbol, flux_expectations,
                          node_correlations, node_profile,
                          particle_number_distribution)
from .config import (COMMAND_OPTIONS, COMMAND_SECTIONS, COMMANDS, ConfigError,
                     ExperimentConfig, canonical_json, encode_complex_matrix, load_config,
                     read_json)
from .coupling import CouplingError, Window, is_contractive, is_cyclic, spectral_radius
from .disorder import (averaged_density, density_of_states,
                       enlarged_band_intervals, exact_band_intervals,
                       phases_in_bands)
from .environment import ReservoirError, validate_symbol
from .simulate import CovarianceState, FockOracle
from .walk import WalkError, check_unitary

__all__ = ["main", "run", "emit_plot_data", "matrix_to_csv"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DOMAIN = 3


def _create(path: str):
    """Open ``path`` for writing, replacing a regular file there with a new one.

    Every result file is written through here.  Truncating an existing file
    in place makes ext4 wait for the writeback its previous close started
    (``auto_da_alloc``; 40-60 ms per file on a 2-vCPU VM), and a rename over
    it waits the same way; a new inode does not wait.  Only a regular file is
    unlinked, so a reader holding it keeps its bytes.  A symlink, FIFO or
    device (``/dev/stdout``, ``/dev/null``) is opened and written through, and
    so is a file whose directory refuses the unlink.
    """
    try:
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.unlink(path)
    except (FileNotFoundError, PermissionError):
        pass
    return open(path, "w", newline="")


def matrix_to_csv(matrix: np.ndarray, path: str):
    """Row-major CSV export with one ``re,im`` cell per entry."""
    with _create(path) as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_ALL)
        for row in np.atleast_2d(np.asarray(matrix)):
            writer.writerow([f"{z.real:.17g},{z.imag:.17g}" for z in row])


def _write_csv(path: str, header: list, rows):
    with _create(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _cmd_validate(cfg, outdir, seed, threads):
    report = {}
    if cfg.walk is not None:
        W, psi = cfg.built_walk
        cyclic, gap = is_cyclic(W, psi)
        report["walk"] = {"dimension": W.shape[0],
                          "unitarity_deviation": float(check_unitary(W, "walk matrix", "W")),
                          "cyclic": bool(cyclic), "cyclic_gap": gap}
        if cfg.options.get("export_matrices"):
            matrix_to_csv(W, os.path.join(outdir, "walk_matrix.csv"))
    if cfg.environment is not None:
        rep = validate_symbol(cfg.environment)
        report["environment"] = {
            "passed": rep.passed,
            "minima": list(rep.minima),
            "maxima": list(rep.maxima),
            "worst_phi": list(rep.worst_phi),
            "bound": "0 <= 2 Re F_i(e^{i phi}) <= 1",
        }
        if not rep.passed:
            report["environment"]["violations"] = [
                {"sector": i, "min": rep.minima[i], "max": rep.maxima[i],
                 "worst_phi": rep.worst_phi[i]} for i in rep.violations]
    if cfg.coupling_v is not None and cfg.environment is not None:
        coup = cfg.coupling(cfg.alpha_values[0])
        report["coupling"] = {
            "alpha": coup.alpha,
            "weights": list(map(float, coup.weights(cfg.environment))),
        }
        if cfg.walk is not None:
            report["coupling"]["contractive"] = is_contractive(spectral_radius(W, psi, coup.alpha))
    return report


def _cmd_asymptotic(cfg, outdir, seed, threads):
    W, _ = cfg.built_walk
    coup = cfg.coupling()
    state = asymptotic_symbol(cfg.environment, W, coup)
    pb = particle_number_distribution(state)
    flux = flux_expectations(cfg.environment, W, coup, contraction=state.contraction)
    results = {
        "alpha": coup.alpha,
        "spectral_radius": state.contraction.spectral_radius,
        "delta": encode_complex_matrix(state.delta),
        "eigenvalues": [float(x) for x in state.eigenvalues],
        "number_pmf": [float(x) for x in pb.pmf],
        "number_mean": pb.mean(),
        "number_variance": pb.variance(),
        "fluxes": [float(x) for x in flux.phi],
        "rates": None if flux.rates is None else [float(x) for x in flux.rates],
    }
    if cfg.walk.kind == "cycle":
        results["profile"] = [float(x) for x in node_profile(state)]
        results["correlations"] = [[float(x) for x in row]
                                   for row in node_correlations(state)]
    if cfg.options.get("export_matrices"):
        matrix_to_csv(state.delta, os.path.join(outdir, "delta.csv"))
        matrix_to_csv(state.contraction.matrix, os.path.join(outdir, "contraction.csv"))
    return results


def _cmd_profile(cfg, outdir, seed, threads):
    if cfg.walk.kind != "cycle":
        raise ConfigError("profile needs a cycle walk")
    W, _ = cfg.built_walk
    coup = cfg.coupling()
    profile = node_profile(asymptotic_symbol(cfg.environment, W, coup))
    return {"alpha": coup.alpha, "profile": [float(x) for x in profile]}


def _cmd_flux(cfg, outdir, seed, threads):
    W, _ = cfg.built_walk
    records = []
    for alpha in cfg.alpha_values:
        res = flux_expectations(cfg.environment, W, cfg.coupling(alpha))
        records.append({"alpha": alpha,
                        "phi": [float(x) for x in res.phi],
                        "total": res.total,
                        "rates": None if res.rates is None else
                        [float(x) for x in res.rates]})
    return {"sweep": records,
            "weights": list(map(float, cfg.coupling(cfg.alpha_values[0])
                                .weights(cfg.environment)))}


def _cmd_simulate(cfg, outdir, seed, threads):
    W, _ = cfg.built_walk
    coup = cfg.coupling()
    state = asymptotic_symbol(cfg.environment, W, coup)
    window = Window(0, cfg.environment.max_degree, cfg.environment.m)
    cov = CovarianceState(window, cfg.environment, W, coup)
    if "steps" in cfg.options:
        steps = cfg.options["steps"]
    else:
        steps = cov.relaxation_horizon(1e-9)
    # t = 1, 2, 4, ..., 2^floor(log2 steps) and steps: each doubling level is built once
    ts = sorted({1 << k for k in range(steps.bit_length())} | {steps})
    traces, errors = [], []
    for t in ts:
        block = cov.step(t - cov.t).sample_block()
        traces.append(float(np.trace(block).real))
        errors.append(float(np.linalg.norm(block - state.delta)))
    _write_csv(os.path.join(outdir, "simulate_trace.csv"),
               ["t", "sample_trace", "error_to_delta"], zip(ts, traces, errors))
    return {
        "steps": steps,
        "window": [window.a, window.b],
        "final_error_to_delta": errors[-1],
        "final_sample_block": encode_complex_matrix(block),
        "convergence": [[t, err] for t, err in zip(ts, errors)],
    }


def _cmd_oracle_check(cfg, outdir, seed, threads):
    W, _ = cfg.built_walk
    coup = cfg.coupling()
    a, b = cfg.options.get("window", (-2, 1))
    window = Window(a, b, cfg.environment.m)
    steps = cfg.options.get("steps", 20)
    try:
        FockOracle.check_size(window.env_dim, W.shape[0])
    except CouplingError as exc:
        raise ConfigError(f"oracle_check: {exc}; shrink the window or the sample") from exc
    oracle = FockOracle(cfg.environment, W, coup, window)
    cov = CovarianceState(window, cfg.environment, W, coup, periodic=True)
    worst = float(np.abs(oracle.two_point_matrix() - cov.sigma).max())
    per_step = []
    for t in range(1, steps + 1):
        oracle.step()
        cov.step()
        dev = float(np.abs(oracle.two_point_matrix() - cov.sigma).max())
        per_step.append([t, dev])
        worst = max(worst, dev)
    return {"modes": oracle.D, "steps": steps,
            "max_two_point_deviation": worst,
            "deviation_by_step": per_step,
            "total_number_drift": float(abs(
                oracle.total_number()
                - float(np.trace(cov.sigma).real)))}


def _reseeded_model(cfg, seed):
    """An explicit top-level seed (config field or --seed) wins over the model seed."""
    return cfg.disorder if seed is None else dataclasses.replace(cfg.disorder, seed=seed)


def _cmd_disorder_dos(cfg, outdir, seed, threads):
    model = _reseeded_model(cfg, seed)
    samples = cfg.options.get("samples", 50)
    bins = cfg.options.get("bins", 512)
    dos = density_of_states(model, samples, bins=bins, threads=threads)
    intervals = (exact_band_intervals(model) if model.distribution == "point"
                 else enlarged_band_intervals(model))
    width = float(dos.bin_edges[1] - dos.bin_edges[0])
    nz = dos.mass > 0
    supported = bool(phases_in_bands(dos.bin_centers[nz], intervals,
                                     dilation=width).all())
    return {
        "samples": samples, "bins": bins,
        "band_intervals": [[float(lo), float(hi)] for lo, hi in intervals],
        "support_within_bands": supported,
        "total_mass": float(dos.mass.sum()),
        "histogram": {"theta": [float(x) for x in dos.bin_centers],
                      "mass": [float(x) for x in dos.mass],
                      "stderr": [float(x) for x in dos.stderr]},
    }


def _cmd_averaged_density(cfg, outdir, seed, threads):
    model = _reseeded_model(cfg, seed)
    if cfg.environment.m != 1:
        raise ConfigError("averaged_density needs an m = 1 environment")
    samples = cfg.options.get("samples", 50)
    res = averaged_density(model, cfg.environment.symbol_functions[0],
                           cfg.coupling().alpha, samples, threads=threads)
    return {
        "samples": samples,
        "trace_mean": res.trace_mean, "trace_stderr": res.trace_stderr,
        "dos_mean": res.dos_mean, "dos_stderr": res.dos_stderr,
        "discrepancy": res.discrepancy,
        "combined_stderr": res.combined_stderr,
        "skipped_samples": res.skipped,
        "skipped_gaps": res.skipped_gaps,
    }


# Each handler returns its results dict and writes only the files that are not
# cut from it (matrix exports, the simulate trace); run writes the rest.
_HANDLERS = {
    "validate": _cmd_validate,
    "asymptotic": _cmd_asymptotic,
    "flux": _cmd_flux,
    "profile": _cmd_profile,
    "simulate": _cmd_simulate,
    "oracle_check": _cmd_oracle_check,
    "disorder_dos": _cmd_disorder_dos,
    "averaged_density": _cmd_averaged_density,
}

# plot kind -> the results entry its CSV is cut from
PLOT_KINDS = {"profile": "profile", "correlations": "correlations",
              "convergence": "convergence", "dos": "histogram", "flux_vs_alpha": "sweep"}


def run(cfg: ExperimentConfig, command: str | None = None, outdir: str | None = None,
        seed: int | None = None, threads: int | None = None) -> int:
    """Execute a command on a parsed config; returns the process exit code.

    Writes ``<command>.json`` (config hash, provenance, the handler's
    results), prints its path, and writes ``<kind>.csv`` for every plot kind
    whose entry the results carry.
    """
    command = command or cfg.command
    if command not in _HANDLERS:
        raise ConfigError(f"unknown command {command!r}")
    unread = sorted(set(cfg.options) - COMMAND_OPTIONS[command])
    if unread:
        raise ConfigError(f"config.options.{unread[0]}: not read by {command}")
    missing = [name for name in COMMAND_SECTIONS[command] if name not in cfg.raw]
    if missing:
        raise ConfigError(f"config.{missing[0]}: {command} needs the {missing[0]} section")
    if seed is not None and seed < 0:
        raise ConfigError("--seed: expected a non-negative integer")
    if threads is not None and threads < 1:
        raise ConfigError("--threads: expected a positive integer")
    outdir = outdir or cfg.output_dir or "."
    os.makedirs(outdir, exist_ok=True)
    if seed is None:
        seed = cfg.raw.get("seed")  # None when the config carries no seed
    results = _HANDLERS[command](cfg, outdir, seed, threads)
    payload = {
        "command": command,
        "inputs_hash": cfg.inputs_hash,
        "provenance": {
            "tool": "fermiwalk",
            "version": __version__,
            "seed": 0 if seed is None else int(seed),
            "threads": threads or 1,
            "timestamp": datetime.now(timezone.utc).isoformat(),
        },
        "results": results,
    }
    path = os.path.join(outdir, f"{command}.json")
    with _create(path) as fh:
        fh.write(canonical_json(payload))
        fh.write("\n")
    print(path)
    for kind, entry in PLOT_KINDS.items():
        if entry in results:
            emit_plot_data(payload, kind, os.path.join(outdir, f"{kind}.csv"))
    # only validate's results carry an environment check; a failed one exits 2
    return EXIT_OK if results.get("environment", {}).get("passed", True) else EXIT_VALIDATION


def emit_plot_data(result: dict, kind: str, path: str):
    """Write plot-ready CSV extracted from a completed result payload."""
    if kind not in PLOT_KINDS:
        raise ConfigError(f"unknown plot kind {kind!r}")
    results = result.get("results") if isinstance(result, dict) else None
    if not isinstance(results, dict) or PLOT_KINDS[kind] not in results:
        raise ConfigError(f"result carries no {PLOT_KINDS[kind]} data")
    if kind == "profile":
        _write_csv(path, ["node", "density"],
                   list(enumerate(results["profile"])))
    elif kind == "correlations":
        rows = [[i, j, val] for i, row in enumerate(results["correlations"])
                for j, val in enumerate(row)]
        _write_csv(path, ["node_a", "node_b", "covariance"], rows)
    elif kind == "convergence":
        rows = [[t, float(np.log(max(err, 1e-300)))] for t, err in results["convergence"]]
        _write_csv(path, ["t", "log_error"], rows)
    elif kind == "dos":
        hist = results["histogram"]
        rows = list(zip(hist["theta"], hist["mass"], hist["stderr"]))
        _write_csv(path, ["theta", "mass", "stderr"], rows)
    elif kind == "flux_vs_alpha":
        m = len(results["sweep"][0]["phi"])
        header = ["alpha"] + [f"phi_{i + 1}" for i in range(m)]
        rows = [[rec["alpha"]] + rec["phi"] for rec in results["sweep"]]
        _write_csv(path, header, rows)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fermiwalk",
        description="fermionic walkers coupled to a structured reservoir")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=None)
    emit = sub.add_parser("emit")
    emit.add_argument("--result", required=True)
    emit.add_argument("--kind", required=True, choices=PLOT_KINDS)
    emit.add_argument("--out", default=None)
    return parser


def _env_threads(value: str) -> int:
    """The thread count that ``FERMIWALK_THREADS`` holds; anything but a positive integer is refused."""
    try:
        threads = int(value)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ConfigError(f"FERMIWALK_THREADS: expected a positive integer, got {value!r}")
    return threads


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "emit":
            out = args.out or f"{args.kind}.csv"
            emit_plot_data(read_json(args.result, "--result"), args.kind, out)
            return EXIT_OK
        threads = args.threads
        if threads is None and os.environ.get("FERMIWALK_THREADS"):
            threads = _env_threads(os.environ["FERMIWALK_THREADS"])
        cfg = load_config(args.config)
        return run(cfg, command=args.command, outdir=args.out,
                   seed=args.seed, threads=threads)
    except (ConfigError, WalkError, ReservoirError, FileNotFoundError) as exc:
        print(f"fermiwalk: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except CouplingError as exc:
        print(f"fermiwalk: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())

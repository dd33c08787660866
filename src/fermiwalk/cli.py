"""Command-line experiment runner.

    fermiwalk <command> --config <path> [--out <dir>] [--seed <u64>] [--threads <k>]

Commands: validate, asymptotic, flux, profile, simulate, oracle_check,
disorder_dos, averaged_density, plus ``emit`` to cut plot-ready CSV out of a
result file.  Results are written as canonical JSON carrying the config hash
and a provenance block; matrices export as CSV with quoted ``re,im`` cells.

Exit codes: 0 success, 2 configuration or validation failure, 3 numerical
domain error (non-contractive coupling and the like).
"""

from __future__ import annotations

import argparse
import csv
import os
import stat
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .asymptotics import (asymptotic_symbol, flux_expectations,
                          node_correlations, node_profile,
                          particle_number_distribution)
from .config import (COMMAND_OPTIONS, COMMANDS, ConfigError, ExperimentConfig,
                     canonical_json, encode_complex_matrix, load_config)
from .coupling import CouplingError, Window
from .disorder import (averaged_density, density_of_states,
                       enlarged_band_intervals, exact_band_intervals,
                       phases_in_bands)
from .environment import ReservoirError, validate_symbol
from .simulate import CovarianceState, FockOracle
from .walk import WalkError, is_cyclic

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


def _result_payload(cfg: ExperimentConfig, command: str, seed: int, threads: int | None,
                    results: dict) -> dict:
    return {
        "command": command,
        "inputs_hash": cfg.inputs_hash,
        "provenance": {
            "tool": "fermiwalk",
            "version": __version__,
            "seed": 0 if seed is None else int(seed),
            "threads": threads if threads else 1,
            "timestamp": datetime.now(timezone.utc).isoformat(),
        },
        "results": results,
    }


def _write_result(outdir: str, name: str, payload: dict) -> str:
    path = os.path.join(outdir, name)
    with _create(path) as fh:
        fh.write(canonical_json(payload))
        fh.write("\n")
    print(path)
    return path


def _cycle_vertex_count(cfg: ExperimentConfig) -> int | None:
    if cfg.walk is not None and cfg.walk.kind == "cycle":
        return cfg.walk.n
    return None


def _cmd_validate(cfg, outdir, seed, threads):
    report = {}
    ok = True
    if cfg.walk is not None:
        W, psi = cfg.walk.build()
        cyclic, rank = is_cyclic(W, psi, tol=cfg.options.get("krylov_tol", 1e-10))
        unit_dev = float(np.linalg.norm(W.conj().T @ W - np.eye(W.shape[0])))
        report["walk"] = {"dimension": W.shape[0], "unitarity_deviation": unit_dev,
                          "cyclic": bool(cyclic), "krylov_rank": rank}
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
            ok = False
            bad = [i for i, (lo, hi) in enumerate(zip(rep.minima, rep.maxima))
                   if lo < -rep.slack or hi > 1 + rep.slack]
            report["environment"]["violations"] = [
                {"sector": i, "min": rep.minima[i], "max": rep.maxima[i],
                 "worst_phi": rep.worst_phi[i]} for i in bad]
    if cfg.coupling_v is not None and cfg.environment is not None and cfg.alpha_values:
        coup = cfg.coupling(cfg.alpha_values[0])
        report["coupling"] = {
            "alpha": coup.alpha,
            "weights": list(map(float, coup.weights(cfg.environment))),
            "effectively_coupled": coup.effectively_coupled,
        }
    payload = _result_payload(cfg, "validate", seed, threads, report)
    _write_result(outdir, "validate.json", payload)
    return EXIT_OK if ok else EXIT_VALIDATION


def _asymptotic_results(cfg):
    W, _ = cfg.walk.build()
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
    n = _cycle_vertex_count(cfg)
    if n is not None:
        results["profile"] = [float(x) for x in node_profile(state)]
        results["correlations"] = [[float(x) for x in row]
                                   for row in node_correlations(state)]
    return state, results, n


def _cmd_asymptotic(cfg, outdir, seed, threads):
    state, results, n = _asymptotic_results(cfg)
    payload = _result_payload(cfg, "asymptotic", seed, threads, results)
    path = _write_result(outdir, "asymptotic.json", payload)
    if n is not None:
        emit_plot_data(payload, "profile", os.path.join(outdir, "profile.csv"))
        emit_plot_data(payload, "correlations", os.path.join(outdir, "correlations.csv"))
    if cfg.options.get("export_matrices"):
        matrix_to_csv(state.delta, os.path.join(outdir, "delta.csv"))
        matrix_to_csv(state.contraction.matrix, os.path.join(outdir, "contraction.csv"))
    return EXIT_OK


def _cmd_profile(cfg, outdir, seed, threads):
    state, results, n = _asymptotic_results(cfg)
    if n is None:
        raise ConfigError("profile needs a cycle walk")
    payload = _result_payload(cfg, "profile", seed, threads,
                              {"alpha": results["alpha"], "profile": results["profile"]})
    _write_result(outdir, "profile.json", payload)
    emit_plot_data(payload, "profile", os.path.join(outdir, "profile.csv"))
    return EXIT_OK


def _cmd_flux(cfg, outdir, seed, threads):
    W, _ = cfg.walk.build()
    rows = []
    records = []
    for alpha in cfg.alpha_values:
        coup = cfg.coupling(alpha)
        res = flux_expectations(cfg.environment, W, coup)
        records.append({"alpha": alpha,
                        "phi": [float(x) for x in res.phi],
                        "total": res.total,
                        "rates": None if res.rates is None else
                        [float(x) for x in res.rates]})
        rows.append([alpha] + [float(x) for x in res.phi])
    results = {"sweep": records,
               "weights": list(map(float, cfg.coupling(cfg.alpha_values[0])
                                   .weights(cfg.environment)))}
    payload = _result_payload(cfg, "flux", seed, threads, results)
    _write_result(outdir, "flux.json", payload)
    emit_plot_data(payload, "flux_vs_alpha", os.path.join(outdir, "flux_vs_alpha.csv"))
    return EXIT_OK


def _cmd_simulate(cfg, outdir, seed, threads):
    W, _ = cfg.walk.build()
    coup = cfg.coupling()
    state = asymptotic_symbol(cfg.environment, W, coup)
    window = Window(0, cfg.environment.max_degree, cfg.environment.m)
    cov = CovarianceState(window, cfg.environment, W, coup)
    if "steps" in cfg.options:
        steps = int(cfg.options["steps"])
    else:
        steps = cov.relaxation_horizon(1e-9)
    trace_rows = []
    for t in range(1, steps + 1):
        cov.step(1)
        block = cov.sample_block()
        err = float(np.linalg.norm(block - state.delta))
        trace_rows.append([t, float(np.trace(block).real), err])
    results = {
        "steps": steps,
        "window": [window.a, window.b],
        "final_error_to_delta": trace_rows[-1][2],
        "final_sample_block": encode_complex_matrix(cov.sample_block()),
        "convergence": [[int(r[0]), r[2]] for r in trace_rows],
    }
    payload = _result_payload(cfg, "simulate", seed, threads, results)
    _write_result(outdir, "simulate.json", payload)
    _write_csv(os.path.join(outdir, "simulate_trace.csv"),
               ["t", "sample_trace", "error_to_delta"], trace_rows)
    emit_plot_data(payload, "convergence", os.path.join(outdir, "convergence.csv"))
    return EXIT_OK


def _cmd_oracle_check(cfg, outdir, seed, threads):
    W, _ = cfg.walk.build()
    coup = cfg.coupling()
    if "window" in cfg.options:
        a, b = cfg.options["window"]
        window = Window(int(a), int(b), cfg.environment.m)
    else:
        window = Window(-2, 1, cfg.environment.m)
    steps = int(cfg.options.get("steps", 20))
    try:
        FockOracle.check_size(window.env_dim, W.shape[0])
    except CouplingError as exc:
        raise ConfigError(f"oracle_check: {exc}; shrink the window or the sample") from exc
    oracle = FockOracle(cfg.environment, W, coup, window)
    cov = CovarianceState(window, cfg.environment, W, coup, boundary="periodic")
    worst = float(np.abs(oracle.two_point_matrix() - cov.sigma).max())
    per_step = []
    for t in range(1, steps + 1):
        oracle.step()
        cov.step()
        dev = float(np.abs(oracle.two_point_matrix() - cov.sigma).max())
        per_step.append([t, dev])
        worst = max(worst, dev)
    results = {"modes": oracle.D, "steps": steps,
               "max_two_point_deviation": worst,
               "deviation_by_step": per_step,
               "total_number_drift": float(abs(
                   oracle.total_number()
                   - float(np.trace(cov.sigma).real)))}
    payload = _result_payload(cfg, "oracle_check", seed, threads, results)
    _write_result(outdir, "oracle_check.json", payload)
    return EXIT_OK


def _reseeded_model(cfg, seed):
    """An explicit top-level seed (config field or --seed) wins over the model seed."""
    import dataclasses
    model = cfg.disorder
    if model is not None and seed is not None:
        model = dataclasses.replace(model, seed=int(seed))
    return model


def _cmd_disorder_dos(cfg, outdir, seed, threads):
    model = _reseeded_model(cfg, seed)
    if model is None:
        raise ConfigError("disorder_dos needs a disorder section")
    samples = int(cfg.options.get("samples", 50))
    bins = int(cfg.options.get("bins", 512))
    dos = density_of_states(model, samples, bins=bins, threads=threads)
    intervals = (exact_band_intervals(model) if model.distribution == "point"
                 else enlarged_band_intervals(model))
    width = float(dos.bin_edges[1] - dos.bin_edges[0])
    nz = dos.mass > 0
    supported = bool(phases_in_bands(dos.bin_centers[nz], intervals,
                                     dilation=width).all())
    results = {
        "samples": samples, "bins": bins,
        "band_intervals": [[float(lo), float(hi)] for lo, hi in intervals],
        "support_within_bands": supported,
        "total_mass": float(dos.mass.sum()),
        "histogram": {"theta": [float(x) for x in dos.bin_centers],
                      "mass": [float(x) for x in dos.mass],
                      "stderr": [float(x) for x in dos.stderr]},
    }
    payload = _result_payload(cfg, "disorder_dos", seed, threads, results)
    _write_result(outdir, "disorder_dos.json", payload)
    emit_plot_data(payload, "dos", os.path.join(outdir, "dos.csv"))
    return EXIT_OK


def _cmd_averaged_density(cfg, outdir, seed, threads):
    model = _reseeded_model(cfg, seed)
    if model is None:
        raise ConfigError("averaged_density needs a disorder section")
    if cfg.environment is None or cfg.environment.m != 1:
        raise ConfigError("averaged_density needs an m = 1 environment")
    if len(cfg.alpha_values) != 1:
        raise ConfigError("averaged_density needs a single alpha")
    samples = int(cfg.options.get("samples", 50))
    res = averaged_density(model, cfg.environment.symbol_functions[0],
                           cfg.alpha_values[0], samples, threads=threads)
    results = {
        "samples": samples,
        "trace_mean": res.trace_mean, "trace_stderr": res.trace_stderr,
        "dos_mean": res.dos_mean, "dos_stderr": res.dos_stderr,
        "discrepancy": res.discrepancy,
        "combined_stderr": res.combined_stderr,
        "skipped_samples": res.skipped,
        "skipped_gaps": res.skipped_gaps,
    }
    payload = _result_payload(cfg, "averaged_density", seed, threads, results)
    _write_result(outdir, "averaged_density.json", payload)
    return EXIT_OK


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


def run(cfg: ExperimentConfig, command: str | None = None, outdir: str | None = None,
        seed: int | None = None, threads: int | None = None) -> int:
    """Execute a command on a parsed config; returns the process exit code."""
    command = command or cfg.command
    if command not in _HANDLERS:
        raise ConfigError(f"unknown command {command!r}")
    unread = sorted(set(cfg.options) - COMMAND_OPTIONS[command])
    if unread:
        raise ConfigError(f"config.options.{unread[0]}: not read by {command}")
    outdir = outdir or cfg.output_dir or "."
    os.makedirs(outdir, exist_ok=True)
    if seed is None:
        seed = cfg.raw.get("seed")  # None when the config carries no seed
    return _HANDLERS[command](cfg, outdir, seed, threads)


PLOT_KINDS = ("profile", "correlations", "convergence", "dos", "flux_vs_alpha")


def emit_plot_data(result: dict, kind: str, path: str):
    """Write plot-ready CSV extracted from a completed result payload."""
    if kind not in PLOT_KINDS:
        raise ConfigError(f"unknown plot kind {kind!r}")
    results = result.get("results", {})
    if kind == "profile":
        if "profile" not in results:
            raise ConfigError("result carries no profile data")
        _write_csv(path, ["node", "density"],
                   list(enumerate(results["profile"])))
    elif kind == "correlations":
        if "correlations" not in results:
            raise ConfigError("result carries no correlation data")
        rows = [[i, j, val] for i, row in enumerate(results["correlations"])
                for j, val in enumerate(row)]
        _write_csv(path, ["node_a", "node_b", "covariance"], rows)
    elif kind == "convergence":
        if "convergence" not in results:
            raise ConfigError("result carries no convergence trace")
        rows = [[t, float(np.log(max(err, 1e-300)))] for t, err in results["convergence"]]
        _write_csv(path, ["t", "log_error"], rows)
    elif kind == "dos":
        if "histogram" not in results:
            raise ConfigError("result carries no density-of-states histogram")
        hist = results["histogram"]
        rows = list(zip(hist["theta"], hist["mass"], hist["stderr"]))
        _write_csv(path, ["theta", "mass", "stderr"], rows)
    elif kind == "flux_vs_alpha":
        if "sweep" not in results:
            raise ConfigError("result carries no flux sweep")
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


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "emit":
            import json
            with open(args.result) as fh:
                payload = json.load(fh)
            out = args.out or f"{args.kind}.csv"
            emit_plot_data(payload, args.kind, out)
            return EXIT_OK
        threads = args.threads
        if threads is None and os.environ.get("FERMIWALK_THREADS"):
            threads = int(os.environ["FERMIWALK_THREADS"])
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

"""Smoke check for the benchmark, on the one-job-per-kind list of every workload.

    python3 perfbench/smoke.py

Checks that each workload runs, untraced and traced, with exit code 0 and no
failed job; that the result line carries every metric named in
``BENCHMARK.json`` with its unit; that tracing changes no job's outcome or
output; that the tracer reports a deleted name as absent instead of failing;
and that spans recorded on the disorder thread pool get a parent and a
non-negative self time.  Takes about half a minute.
"""

import contextlib
import json
import os
import shutil
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_runs(spec):
    import workloads as wl
    for workload in wl.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", "7", "--seconds", "0", "--trace", str(trace), "--tiny"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
            assert done.returncode == 0, done.stderr[-2000:]
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
            assert result["correct"] and result["failed"] == 0, done.stderr[-2000:]
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (workload, trace, set(want) ^ set(got))
            with open(os.path.join(ROOT, ".bench_out",
                                   f"{workload}-seed7-trace{trace}.json")) as fh:
                record = json.load(fh)
            assert not record["outcome_changed"], (workload, record["outcome_changed"])
            print(f"ok  {workload:12s} trace {trace}: {len(got)} metrics, "
                  f"{result['attempted']} jobs, outcomes equal across passes")


def check_tracer():
    import tracer as tr
    from fermiwalk import cli, coupling
    from fermiwalk.config import parse_config

    saved = coupling.decay_certificate
    del coupling.decay_certificate
    t = tr.Tracer()
    try:
        t.install()
        assert "coupling.certificate" in t.absent_spans(), t.absent
    finally:
        t.uninstall()
        coupling.decay_certificate = saved
    print("ok  deleted coupling.decay_certificate reported absent")

    cfg = parse_config({"disorder": {"t": 0.8, "r": 0.6, "n": 32, "distribution": "uniform",
                                     "theta0": 0.7, "halfwidth": 0.05},
                        "options": {"samples": 8, "bins": 64}})
    outdir = os.path.join(ROOT, ".bench_out", "smoke")
    t = tr.Tracer()
    t.install()
    try:
        t.job = 0
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            cli.run(cfg, command="disorder_dos", outdir=outdir, threads=2)
    finally:
        t.job = -1
        t.uninstall()
        shutil.rmtree(outdir, ignore_errors=True)
    main = threading.main_thread().ident
    workers = [s for s in t.spans if s.thread != main]
    assert workers and all(s.parent is not None for s in workers)
    assert min(tr.self_times(t.spans).values()) >= 0.0
    print(f"ok  {len(workers)} spans from pool threads, all parented")


if __name__ == "__main__":
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        check_runs(json.load(fh))
    check_tracer()
    print("smoke check passed")

"""fermiwalk benchmark: user-shaped jobs through the public entry points.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the package is imported from ``src/``.
Workloads (see ``workloads.py``): ``relaxation``, ``oracle`` and
``disorder`` are in ``BENCHMARK.json``; ``closed_form``, the control with no
engine, runs by hand.  Each runs as a closed loop, one caller in one
process: the job list is run pass after pass, each job starting when the
previous one ends, and a pass is started only while a whole typical pass
fits in ``--seconds``.  Every job starts after a garbage collection, outside
its timed region.  The first pass after set-up runs 10-40% slower than the
rest; its jobs are checked and counted, but its times are left out of the
statistics.  Times quoted here and in
``workloads.py`` were measured on a 2-vCPU x86_64 VM with OpenBLAS 0.3.31.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of five
set-ups, each in a fresh process: import, input generation, config parsing
and warm-up), ``wall_s`` (median time to finish one pass of the job list),
``job_s.p50`` and ``job_s.tail`` (per-job times pooled over the passes; the
tail percentile is fixed per workload and recorded in the report) and
``peak_rss_mb``.
``failed_frac`` is printed in the report and carried by ``attempted`` and
``failed`` in the result line.  ``--trace 1`` times one untraced pass, then
traces passes with spans around each layer's public callables and prints
the per-layer metrics.

The last line of standard output is the JSON result; a readable report goes
to standard error, and a full record (environment, per-job inputs hashes,
outcomes and times, absent metrics with reasons) to
``.bench_out/<workload>-seed<n>-trace<t>.json``.

Jobs run single-threaded, the plain baseline: BLAS is pinned to one thread
here, before NumPy is imported (one thread was as fast as two on the
relaxation workload, and steadier), and commands run without ``--threads``,
as the CLI does by default.  ``--trace 1`` adds one untraced pass with the
disorder thread pool at ``min(2, nproc)`` threads, so BLAS threads times pool
threads never exceed the core count.  With the pool, the disorder figures
spread about twice as wide from run to run.
"""

import os
import sys
import time

_T0 = time.perf_counter()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import warnings  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 5
THREADS = 1
POOL = min(2, os.cpu_count() or 1)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit (used for setup_s)")
    p.add_argument("--tiny", action="store_true",
                   help="one job of each kind, one pass (smoke check)")
    return p.parse_args(argv)


def _environment_record():
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "blas": blas.get("name"), "blas_version": blas.get("version"),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]), "pool_threads": THREADS,
        "pool_pass_threads": POOL,
        "nproc": os.cpu_count(), "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


class Runner:
    """Runs a job list in passes and keeps one record per job execution."""

    def __init__(self, wl, jobs, tracer=None):
        self.wl, self.jobs, self.tracer = wl, jobs, tracer
        self.records = []

    def one_pass(self, threads, tag):
        total = 0.0
        for job in self.jobs:
            exec_id = len(self.records)
            if self.tracer is not None:
                self.tracer.job = exec_id
            # start every job from an empty collector, so garbage left by the
            # previous job's check is not collected inside this job's time
            gc.collect()
            t0 = time.perf_counter()
            try:
                output = self.wl.run_job(job, threads)
                error = None
            except Exception as exc:  # a failing job is counted, not fatal
                output, error = None, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            if self.tracer is not None:
                self.tracer.job = -1
            info = {}
            if error is None:
                try:
                    info = self.wl.check_job(job, output)
                except self.wl.CheckFailed as exc:
                    error = f"check: {exc}"
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
            self.records.append({"job": job.index, "tag": tag, "seconds": dt,
                                 "ok": error is None, "error": error, "info": info})
            total += dt
        return total

    def passes_until(self, start, seconds, threads, tag):
        """Run passes until ``seconds`` after ``start``; a pass is started only
        while a whole typical pass still fits."""
        walls = []
        while True:
            walls.append(self.one_pass(threads, tag))
            typical = sorted(walls)[len(walls) // 2]
            if time.perf_counter() - start >= seconds - typical:
                return walls


def _setup(wl, args, rundir):
    jobs = wl.make_jobs(args.workload, args.seed)
    if args.tiny:
        jobs = wl.first_of_each_kind(jobs)
    wl.prepare(jobs, rundir)
    warm = Runner(wl, jobs[:1])
    warm.one_pass(THREADS, "warmup")
    bad = [r for r in warm.records if not r["ok"]]
    return jobs, time.perf_counter() - _T0, bad


def _setup_in_fresh_process(args):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"set-up subprocess failed: {done.stderr.strip()[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def main(argv=None):
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "fermiwalk", "__init__.py")):
        print(f"perfbench: no fermiwalk sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    warnings.filterwarnings("ignore", message="window of")
    import workloads as wl
    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {wl.WORKLOADS}",
              file=sys.stderr)
        return 2

    rundir = os.path.join(OUT, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(rundir, exist_ok=True)
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            result, report = _measure(wl, args, rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    if result is None:
        print(json.dumps(report))
        return 0
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, default=float)
    _print_report(report, path)
    print(json.dumps(result))
    return 0


def _measure(wl, args, rundir):
    import numpy as np
    jobs, setup_s, warm_bad = _setup(wl, args, rundir)
    if args.setup_only:
        return None, {"setup_s": setup_s}
    setups = [setup_s]
    if args.trace == 0 and not args.tiny:
        setups += [_setup_in_fresh_process(args) for _ in range(SETUP_REPEATS - 1)]

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": _environment_record(), "setup_runs_s": setups,
              "warmup_failures": warm_bad,
              "jobs": [{"index": j.index, "kind": j.kind, "label": j.label,
                        "inputs_hash": j.inputs_hash} for j in jobs]}
    uses_pool = any(j.kind in ("disorder_dos", "averaged_density") for j in jobs)
    seconds = 0.0 if args.tiny else args.seconds
    metrics = {}
    if args.trace == 0:
        runner = Runner(wl, jobs)
        start = time.perf_counter()
        first = runner.one_pass(THREADS, "first")
        walls = runner.passes_until(start, seconds, THREADS, "run")
        times = [r["seconds"] for r in runner.records if r["tag"] == "run"]
        q = wl.TAIL_PERCENTILE[args.workload]
        tail = float(np.percentile(times, q))
        metrics = {
            "setup_s": (float(np.median(setups)), "s"),
            "wall_s": (float(np.median(walls)), "s"),
            "job_s.p50": (float(np.median(times)), "s"),
            "job_s.tail": (tail, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        report.update(passes=len(walls), first_pass_s=first, pass_walls_s=walls,
                      timed_jobs=len(times), tail_percentile=q,
                      jobs_beyond_tail=sum(t > tail for t in times))
    else:
        import tracer as tr
        runner = Runner(wl, jobs)
        start = time.perf_counter()
        runner.one_pass(THREADS, "first")
        untraced = runner.one_pass(THREADS, "untraced")
        pooled = runner.one_pass(POOL, "pool") if uses_pool else untraced
        tracer = tr.Tracer()
        runner.tracer = tracer
        traced_from = len(runner.records)
        tracer.install()
        try:
            walls = runner.passes_until(start, seconds, THREADS, "traced")
        finally:
            tracer.uninstall()
        job_pass = {i: (i - traced_from) // len(jobs)
                    for i in range(traced_from, len(runner.records))}
        values, notes = tr.layer_metrics(tracer.spans, job_pass, len(walls), len(jobs),
                                         [r["info"] for r in runner.records[traced_from:]])
        values["trace.overhead_s"] = float(np.median(walls)) - untraced
        values["threads.pool_wall_s"] = pooled
        notes["threads.pool_wall_s"] = (
            f"one untraced pass with a {POOL}-thread pool" if uses_pool
            else "no thread pool on this workload: the untraced pass")
        for span, reason in tracer.absent_spans().items():
            for name in values:
                if name.startswith(span):
                    notes[name] = f"absent: {reason}"
        units = _per_layer_units()
        metrics = {name: (float(val), units.get(name, "1")) for name, val in values.items()}
        report.update(passes=len(walls), untraced_wall_s=untraced, traced_walls_s=walls,
                      notes=notes, absent_targets=tracer.absent,
                      top_self_time_s=tr.top_layers(tracer.spans))
    attempted = len(runner.records)
    failed = sum(not r["ok"] for r in runner.records)
    # every pass runs the same inputs, so a job whose outcome or output digest
    # differs between passes (traced or not) is nondeterministic or disturbed
    outcomes = {}
    for r in runner.records:
        outcomes.setdefault(r["job"], set()).add((r["ok"], r["error"], r["info"].get("digest")))
    label = {j.index: j.label for j in jobs}
    report["outcome_changed"] = [label[j] for j, seen in outcomes.items() if len(seen) > 1]
    failures = {}
    for r in runner.records:
        if not r["ok"]:
            failures.setdefault(label[r["job"]], r["error"])
    printed = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    report.update(attempted=attempted, failed=failed, failed_frac=failed / attempted,
                  failures=failures, records=runner.records, metrics=printed)
    result = {"correct": failed == 0 and not warm_bad, "attempted": attempted,
              "failed": failed, "metrics": printed}
    return result, report


def _per_layer_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def _print_report(report, path):
    err = sys.stderr
    env = report["environment"]
    print(f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}  "
          f"passes {report['passes']}  jobs {report['attempted']}", file=err)
    print(f"environment: {env}", file=err)
    if report["trace"] == 0:
        print(f"job_s.p50 over {report['timed_jobs']} jobs; job_s.tail is "
              f"p{report['tail_percentile']}, {report['jobs_beyond_tail']} jobs beyond it",
              file=err)
    for name, m in report["metrics"].items():
        note = report.get("notes", {}).get(name, "")
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}  {note}", file=err)
    print(f"  {'failed_frac':36s} {report['failed_frac']:.6g} 1", file=err)
    for label in report["outcome_changed"]:
        print(f"  OUTCOME CHANGED between passes: {label}", file=err)
    for label, reason in report["failures"].items():
        print(f"  FAILED {label}: {reason}", file=err)
    for name, secs in report.get("top_self_time_s", []):
        print(f"  self time {name:28s} {secs:.4f} s", file=err)
    print(f"record: {path}", file=err)


if __name__ == "__main__":
    sys.exit(main())

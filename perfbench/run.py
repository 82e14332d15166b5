"""Benchmark of the osrb-lab command line, end to end and per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's inputs are generated from the seed (``workloads.py``) into
a scratch directory under ``.bench_out/``.  A pass runs every job of the
workload through ``osrb_lab.cli.main`` in one fresh interpreter
(``passrun.py``), so it pays the imports and no cache outlives it; MC and
wiretap jobs get ``--threads`` equal to the CPUs in this process's
affinity mask.  Passes repeat until S seconds have gone (at least three),
and each metric is the median over passes.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: interpreter launch to the start of the first job (importing
  osrb_lab with numpy and scipy), median over passes and extra launches;
* ``wall_s``: first job start to last job end;
* ``peak_rss_mb``: the pass's peak resident set size.

``--trace 1`` alternates untraced passes with passes in which ``spans.py``
wraps the package's cross-module calls, re-runs the threaded jobs at one
thread inside each traced pass, and reports the per-layer metrics.

Every job's output is checked once (``checks.py``) and every later
execution must reproduce its exit code, stdout and output file byte for
byte, traced or not and at one thread or many; a job execution that does
not counts as failed.  The last stdout line is the JSON result; the same
result with the environment record, the samples and the check report is
written to ``.bench_out/``, and a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import copy
import ctypes
import glob
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import checks
import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
PASSRUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "passrun.py")
MIN_PASSES = 3
MIN_SETUP_SAMPLES = 8
RUN_LIMIT_S = 170.0            # a run must end well inside 180 s
# One BLAS thread per interpreter thread: with --threads at the CPU count,
# BLAS workers on top would oversubscribe the CPUs, and spinning OpenBLAS
# threads then slow a pass down by up to tenfold when the machine is busy.
BLAS_THREADS = {name: "1" for name in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
PASS_ENV = dict(os.environ, **BLAS_THREADS)
CORRUPT_FIELD = {"exact": "mean", "enum": "mean", "mc": "mean",
                 "rates": "value_bits", "wiretap": "leakage"}


def metric_units(section: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


class PassError(RuntimeError):
    """A pass interpreter exited abnormally."""


def _affinity_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _blas() -> dict:
    import numpy as np

    info = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cap = None
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                cap = fn()
                break
    return {"name": info.get("name"), "version": info.get("version"),
            "default_thread_cap": cap, "pass_env": BLAS_THREADS}


def _commit() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path) as fh:
            return fh.read().strip()
    return None


def environment(threads: int, seed: int) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": _blas(),
        "nproc": _affinity_cpus(),
        "cpu_count": os.cpu_count(),
        "threads": threads,
        "commit": _commit(),
        "seed": seed,
    }


def launch(spec: dict, workdir: str, tag: str, deadline: float) -> dict:
    """Run one pass interpreter; returns its result with ``setup_s`` added."""
    spec_path = os.path.join(workdir, f"spec-{tag}.json")
    result_path = os.path.join(workdir, f"result-{tag}.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    timeout = max(1.0, deadline - time.monotonic())
    start = time.monotonic()
    proc = subprocess.run([sys.executable, PASSRUN, spec_path, result_path], cwd=ROOT,
                          env=PASS_ENV, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise PassError(f"pass {tag} exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    with open(result_path) as fh:
        result = json.load(fh)
    os.unlink(result_path)
    result["setup_s"] = result["ready"] - start
    return result


def _read(path: str) -> bytes | None:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return None


def _one_thread(job) -> list:
    """The job's argv at --threads 1, writing a separate output file."""
    argv = list(job.argv)
    argv[argv.index("--threads") + 1] = "1"
    argv[argv.index("--out") + 1] = job.out + ".t1"
    return argv


class Ledger:
    """Job executions, each compared with the job's first execution."""

    def __init__(self):
        self.reference: dict = {}      # job name -> (code, stdout, file bytes)
        self.executions: list = []     # (job name, problem or None)

    def record(self, results: list, jobs, paths: list, label: str) -> None:
        for job, res, path in zip(jobs, results, paths):
            seen = (res["code"], res["stdout"], _read(path))
            first = self.reference.setdefault(job.name, seen)
            problem = None
            if res["code"] != 0:
                problem = f"{label} {job.name}: exit {res['code']} {res['stderr'][-300:]}"
            elif seen != first:
                problem = f"{label} {job.name}: output differs from the first pass"
            self.executions.append((job.name, problem))

    def records(self) -> dict:
        out = {}
        for name, (_, _, data) in self.reference.items():
            try:
                out[name] = json.loads(data) if data is not None else None
            except ValueError:
                out[name] = None
        return out

    def failed(self, bad_jobs) -> int:
        """Executions that failed, differed, or reproduced a failing output."""
        return sum(1 for name, problem in self.executions if problem or name in bad_jobs)

    def problems(self) -> list:
        return [problem for _, problem in self.executions if problem]


def self_check(jobs, records: dict) -> str | None:
    """Corrupt one checked value; return the failure it raised, or None."""
    job = jobs[0]
    field = CORRUPT_FIELD[job.kind]
    bad = copy.deepcopy(records)
    bad[job.name][0][field] = float(bad[job.name][0][field]) + 0.5
    problems = checks.check(jobs, bad).problems.get(job.name)
    return f"{job.name} {field} + 0.5 -> {problems[0]}" if problems else None


def _median(values) -> float:
    return float(statistics.median(values))


def measure(workload: str, seed: int, seconds: float, trace: bool, hard_stop: float) -> dict:
    """Run one workload's passes and checks; returns the summary record."""
    threads = _affinity_cpus()
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR)
    try:
        jobs = workloads.build(workload, seed, workdir, threads)
        threaded = [job for job in jobs if job.threaded]
        plain = {"src": SRC, "trace": False, "jobs": [job.argv for job in jobs]}
        traced = {"src": SRC, "trace": True, "jobs": plain["jobs"],
                  "baseline": [_one_thread(job) for job in threaded]}
        probe = {"src": SRC, "trace": False, "jobs": []}
        launch(probe, workdir, "warmup", hard_stop)      # fills the bytecode cache

        ledger = Ledger()
        out_paths = [job.out for job in jobs]
        plain_samples, traced_samples, layer_samples = [], [], []
        setup_samples = []
        last_spans = None
        measure_until = time.monotonic() + seconds
        k = 0
        while True:
            want_traced = trace and k % 2 == 1
            enough = (len(plain_samples) >= MIN_PASSES if not trace else
                      min(len(plain_samples), len(traced_samples)) >= MIN_PASSES - 1)
            if enough and time.monotonic() >= measure_until:
                break
            res = launch(traced if want_traced else plain, workdir, f"p{k}", hard_stop)
            label = f"pass {k}{' traced' if want_traced else ''}"
            ledger.record(res["jobs"], jobs, out_paths, label)
            wall = res["jobs"][-1]["end"] - res["jobs"][0]["start"]
            if want_traced:
                ledger.record(res["baseline"], threaded, [job.out + ".t1" for job in threaded],
                              label + " 1-thread")
                if not res["restored"]:
                    ledger.executions.append(("", f"{label}: a wrapped name was not restored"))
                traced_samples.append(wall)
                layer_samples.append(spans.layer_metrics(res["spans"]))
                last_spans = res
            else:
                plain_samples.append({"setup_s": res["setup_s"], "wall_s": wall,
                                      "peak_rss_mb": res["peak_rss_kb"] / 1024.0})
                setup_samples.append(res["setup_s"])
            k += 1
        while not trace and len(setup_samples) < MIN_SETUP_SAMPLES:
            setup_samples.append(launch(probe, workdir, f"s{len(setup_samples)}",
                                        hard_stop)["setup_s"])

        records = ledger.records()
        report = checks.check(jobs, records)
        corrupted = self_check(jobs, records)
        failed = ledger.failed(set(report.problems))
        attempted = len(ledger.executions)

        if trace:
            metrics = {name: _median(s[name] for s in layer_samples) for name in layer_samples[0]}
            metrics["trace.overhead_frac"] = (_median(traced_samples)
                                              / _median(s["wall_s"] for s in plain_samples) - 1.0)
            metrics["trace.missing_names"] = len(last_spans["missing"])
            metrics["rates.oracle_margin_min"] = report.oracle_margin_min or 0.0
            metrics["checks.known_defects"] = len(report.known)
            units = metric_units("per_layer")
        else:
            metrics = {
                "setup_s": _median(setup_samples),
                "wall_s": _median(s["wall_s"] for s in plain_samples),
                "peak_rss_mb": _median(s["peak_rss_mb"] for s in plain_samples),
            }
            units = metric_units("end_to_end")
        result = {
            "correct": failed == 0 and corrupted is not None,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        }
        summary = {
            "workload": workload, "seconds": seconds, "trace": trace,
            "env": environment(threads, seed), "jobs_per_pass": len(jobs),
            "passes": len(plain_samples), "traced_passes": len(traced_samples),
            "setup_samples": setup_samples, "samples": plain_samples,
            "traced_wall_s": traced_samples,
            "checks": {"comparisons": report.checked, "problems": report.problems,
                       "known_defects": report.known, "self_check": corrupted},
            "execution_failures": ledger.problems(),
            "metrics": metrics, "units": units, "result": result,
        }
        tag = f"{workload}-seed{seed}-trace{int(trace)}"
        with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w") as fh:
            json.dump(summary, fh, indent=1)
        if last_spans is not None:
            with open(os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.json"), "w") as fh:
                json.dump({"missing": last_spans["missing"],
                           "attr_errors": last_spans["attr_errors"],
                           "spans": last_spans["spans"]}, fh)
        return summary
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def print_summary(summary: dict) -> None:
    env, res, checked = summary["env"], summary["result"], summary["checks"]
    print(f"== {summary['workload']}: seed={env['seed']} seconds={summary['seconds']} "
          f"trace={int(summary['trace'])}")
    print("env: " + json.dumps(env))
    print(f"jobs: {summary['jobs_per_pass']} per pass; {summary['passes']} untraced and "
          f"{summary['traced_passes']} traced passes; {res['attempted']} executions")
    print(f"checks: {checked['comparisons']} comparisons, {len(checked['problems'])} jobs "
          f"failing; known defects counted: {len(checked['known_defects'])}")
    for job, problems in checked["problems"].items():
        more = f" (+{len(problems) - 1} more)" if len(problems) > 1 else ""
        print(f"  FAIL {job}: {problems[0]}{more}")
    for text in checked["known_defects"][:5]:
        print(f"  known defect: {text}")
    for text in summary["execution_failures"][:5]:
        print(f"  FAIL {text}")
    print("self-check: " + (f"corrupted value counted as failed ({checked['self_check']})"
                            if checked["self_check"] else "corrupted value NOT detected"))
    print(f"{'fail_frac':40s} {res['failed'] / res['attempted']:.6g} ratio "
          f"({res['failed']} of {res['attempted']} job executions)")
    for name, unit in summary["units"].items():
        print(f"{name:40s} {summary['metrics'][name]:.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",),
                        help="one workload, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "osrb_lab", "cli.py")):
        print(f"error: no osrb_lab package under {SRC}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = []
    for name in names:
        try:
            summaries.append(measure(name, args.seed, args.seconds, bool(args.trace),
                                     time.monotonic() + RUN_LIMIT_S))
        except PassError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print_summary(summaries[-1])
    if len(summaries) == 1:
        print(json.dumps(summaries[0]["result"]))
        return 0
    results = [s["result"] for s in summaries]
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {f"{s['workload']}.{name}": value for s in summaries
                    for name, value in s["result"]["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

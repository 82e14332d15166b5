"""One benchmark pass in a fresh interpreter.

Usage: python3 passrun.py SPEC.json RESULT.json

SPEC holds ``src`` (the directory that contains ``osrb_lab``), ``trace``
(install span wrappers), ``jobs`` and ``baseline`` (argv lists for
``osrb_lab.cli.main``; the baseline jobs run after the others, traced, in
phase "baseline").  RESULT receives the CLOCK_MONOTONIC time at which the
first job was ready to start, each job's exit code, stdout and times, the
peak resident set size, and the spans of a traced pass.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _run_jobs(cli, argvs):
    results = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        start = time.monotonic()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
        except SystemExit as exc:            # argparse rejects the argv
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:                    # a crash fails this job, not the pass
            code = -1
            err.write(traceback.format_exc())
        end = time.monotonic()
        results.append({"code": code, "start": start, "end": end,
                        "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:]})
    return results


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    src = os.path.abspath(spec["src"])
    sys.path.insert(0, src)
    from osrb_lab import cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"osrb_lab imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    ready = time.monotonic()
    result = {"ready": ready, "jobs": _run_jobs(cli, spec["jobs"])}
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.phase = "baseline"
        result["baseline"] = _run_jobs(cli, spec["baseline"])
        result["restored"] = tracer.uninstall()
        result["spans"] = tracer.spans
        result["missing"] = tracer.missing
        result["attr_errors"] = tracer.attr_errors
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))

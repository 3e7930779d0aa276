"""Replays one workload batch in a fresh, single-threaded process.

Reads a JSON job on stdin: the checkout root, the argument vectors, and the
phases to run. Each phase issues the batch's verdicts one after another
through ``dynstar.cli.run(argv + ["--canonical"])``, a closed loop with one
client, and repeats the batch until the phase's seconds are used. An
untraced phase runs at least two whole passes: the first warms the process
up (sympy's lazy imports and ring caches, the interpreter's specialized
code), as a batch verifier pays that once per batch, and is left out of
the timings. A phase with ``trace`` set runs exactly one pass with the
layer wrappers installed. Before every verdict the calibration kernel
(calibrate.py) is timed, so that run.py can scale the verdict's time
to the reference host speed. Prints one JSON object on stdout.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time

import calibrate
import tracer as tracing


def _load(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import dynstar.cli
    where = os.path.realpath(dynstar.cli.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"dynstar was imported from {where}, not {src}")
    return dynstar.cli


def _verdict(cli, argv: list[str]) -> tuple[object, str]:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(argv + ["--canonical"])
    except SystemExit as e:
        rc = e.code
    except Exception as e:  # a crash is a verdict too; the checker counts it
        rc = f"{type(e).__name__}: {e}"
    return rc, out.getvalue()


def _phase(cli, argvs, seconds, passes, tracer=None) -> list[dict]:
    """Samples of at least ``passes`` whole passes and of ``seconds``:
    verdict index, pass, seconds, the calibration kernel's seconds just
    before, exit status and the report's digest; the first pass also keeps
    the report text."""
    samples = []
    start = time.perf_counter()
    n_pass = 0
    while True:
        for i, argv in enumerate(argvs):
            if n_pass >= passes and time.perf_counter() - start >= seconds:
                return samples
            gc.collect()
            # the host's speed just before the verdict; the kernel leaves
            # the sympy cache empty, so no verdict reuses another's
            # expressions
            kernel = calibrate.kernel_s()
            if tracer is not None:
                tracer.verdict = i
            t0 = time.perf_counter()
            rc, text = _verdict(cli, argv)
            dt = time.perf_counter() - t0
            sample = {"i": i, "pass": n_pass, "s": dt, "kernel": kernel,
                      "rc": rc,
                      "sha": hashlib.sha256(text.encode()).hexdigest()}
            if n_pass == 0:
                sample["report"] = text
            samples.append(sample)
        n_pass += 1
        if n_pass >= passes and time.perf_counter() - start >= seconds:
            return samples


def main() -> None:
    job = json.load(sys.stdin)
    cli = _load(job["root"])
    argvs = job["argvs"]
    result = {"phases": []}
    for phase in job["phases"]:
        if not phase["trace"]:
            leaked = tracing.installed_wrappers()
            if leaked:
                raise SystemExit(f"untraced phase found wrappers: {leaked}")
            result["phases"].append(
                _phase(cli, argvs, phase["seconds"], 2))
            continue
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
        try:
            samples = _phase(cli, argvs, 0, 1, tracer)
        finally:
            uninstall()
        result["phases"].append(samples)
        result["layers"] = tracing.summarize(tracer)
        result["counters"] = tracer.counters
        with open(phase["spans_out"], "w") as fh:
            for rec in tracer.spans:
                fh.write(json.dumps(rec) + "\n")
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()

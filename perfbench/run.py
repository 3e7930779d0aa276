"""Verdict benchmark for dynstar.

    python3 perfbench/run.py --workload twist-tower --seed 1 --seconds 36 --trace 0

Run from the root of a checkout. The seed draws a batch of CLI inputs
(see workloads.py), each with the verdict the mathematics predicts. A fresh
worker process replays the batch through ``dynstar.cli.run`` for about
``--seconds`` and every verdict is checked against its known answer, on
every pass. The first pass over the batch warms the worker up and is not
timed; each verdict's time is the median over the later passes.

Times are reported at a fixed reference host speed: a calibration kernel
timed before every verdict (and around every set-up probe) measures how
fast the shared host is running at that moment, and each time is scaled by
``calibrate.REFERENCE_S`` over the kernel's local median (see
calibrate.py). The unscaled figures are printed beside them.

``--trace 0`` prints the end-to-end metrics; set-up time is the median of
several fresh interpreters importing dynstar and sympy. ``--trace 1`` runs
the batch untraced for a third of the time, then once with every layer
wrapped, and prints the per-layer metrics; spans go to ``.perfbench/``.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics. ``attempted`` counts the batch's inputs and ``failed`` those
whose verdict missed its known answer on any pass, so both depend on the
seed alone, not on how many passes fitted in the run. The report digest
printed before it hashes the batch's ``--canonical`` reports, so two
commits can be compared byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time

import calibrate
import tracer as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 7
DEADLINE_S = 170            # a run must end within 180 s
IMPORT_PROBE = "import sys; sys.path.insert(0, 'src'); import dynstar.cli"


class BenchError(RuntimeError):
    pass


def measure_setup(root: str) -> tuple[float, float]:
    """Median wall time of fresh interpreters that import dynstar (and with
    it sympy) from the checkout, at the reference host speed and unscaled.
    Each probe is scaled by the mean of the local kernel times just before
    and after it. The exit is awaited on a pidfd, which wakes at once;
    ``Popen.wait(timeout)`` polls and would round up to 50 ms."""
    times, kernels = [], []
    calibrate.kernel_s()            # sympy's lazy imports, once
    kernels.append(calibrate.kernel_s())
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", IMPORT_PROBE], cwd=root)
        fd = os.pidfd_open(proc.pid)
        try:
            exited, _, _ = select.select([fd], [], [], 60)
            times.append(time.perf_counter() - t0)
        finally:
            os.close(fd)
            if proc.poll() is None:
                proc.kill()
        if proc.wait() != 0 or not exited:
            raise BenchError("importing dynstar failed")
        kernels.append(calibrate.kernel_s())
    local = calibrate.local_kernel_s(kernels, radius=1)
    scaled = [calibrate.normalize(t, (k0 + k1) / 2)
              for t, k0, k1 in zip(times, local, local[1:])]
    return statistics.median(scaled), statistics.median(times)


def run_worker(job: dict, timeout: float) -> dict:
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(json.dumps(job), timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {timeout:.0f} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{err[-2000:]}")
    return json.loads(out)


def per_verdict(samples: list[dict],
                n: int) -> tuple[list[float], list[float]]:
    """Median seconds of each verdict over its timed repeats (pass > 0), at
    the reference host speed and unscaled. ``samples`` are one phase's, in
    the order they ran."""
    local = calibrate.local_kernel_s([s["kernel"] for s in samples])
    scaled, raw = [[] for _ in range(n)], [[] for _ in range(n)]
    for s, k in zip(samples, local):
        if s["pass"] > 0:
            scaled[s["i"]].append(calibrate.normalize(s["s"], k))
            raw[s["i"]].append(s["s"])
    return ([statistics.median(v) for v in scaled],
            [statistics.median(v) for v in raw])


def tail(values: list[float]) -> tuple[float, float]:
    """The highest value with at least ten values beyond it, and its
    percentile; the largest value when there are fewer than eleven."""
    ordered = sorted(values)
    k = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def check_sample(inp: workloads.Input, sample: dict, first_sha: str) -> str:
    """Empty when the verdict equals its known answer, else why not."""
    if sample["sha"] != first_sha:
        return "report differs from the first pass"
    rc = sample["rc"]
    if rc != inp.expect:
        return f"exit {rc!r}, known answer {inp.expect}"
    if inp.expect == workloads.BAD_INPUT or "report" not in sample:
        return ""
    head, _, body = sample["report"].partition("\n")
    want = "PASS" if inp.expect == workloads.PASS else "FAIL"
    try:
        report = json.loads(body)
    except ValueError:
        return "report is not JSON"
    if head != f"{inp.argv[0]}: {want}" or report["ok"] != (want == "PASS"):
        return f"report says {head!r}"
    if inp.witness is not None:
        found = {(frozenset(w["simple"]), frozenset(w["delta"]))
                 for w in report["witnesses"]}
        if inp.witness not in found:
            return "generating (simple, delta) missing from the witnesses"
    return ""


def check(inputs: list[workloads.Input], samples: list[dict]):
    """The inputs with a sample that missed its known answer, and the
    failures no documented defect explains."""
    first = {s["i"]: s["sha"] for s in samples if "report" in s}
    bad_inputs, unexpected = set(), []
    for s in samples:
        inp = inputs[s["i"]]
        why = check_sample(inp, s, first[s["i"]])
        if not why:
            continue
        bad_inputs.add(s["i"])
        if not (inp.defect and s["rc"] == inp.defect_exit):
            unexpected.append(f"{' '.join(inp.argv)}: {why}")
    for i in sorted(bad_inputs):
        if inputs[i].defect:
            print(f"known defect: {' '.join(inputs[i].argv)}: "
                  f"{inputs[i].defect}")
    return bad_inputs, unexpected


def report_digest(inputs: list[workloads.Input], samples: list[dict]) -> str:
    h = hashlib.sha256()
    for s in sorted((s for s in samples if "report" in s),
                    key=lambda s: s["i"]):
        h.update(f"{' '.join(inputs[s['i']].argv)}\n{s['rc']}\n".encode())
        h.update(s["report"].encode())
    return h.hexdigest()


def layer_metrics(layers: dict, counters: dict, overhead: float,
                  scale: float = 1.0) -> dict:
    """Per-layer metrics; self times are multiplied by ``scale``, which
    brings them to the reference host speed."""
    m = {}
    for name, s in layers.items():
        m[f"{name}_calls"] = s["calls"]
        m[f"{name}_s"] = s["self_s"] * scale
    for key in ("enveloping.tensor_terms_out", "classify.recover_witnesses",
                "rootsystems.positive_systems_found"):
        m[key] = counters.get(key, 0)
    calls = layers["enveloping.normal_form"]["calls"]
    repeats = counters.get("enveloping.normal_form_repeats", 0)
    m["enveloping.normal_form_repeat_ratio"] = repeats / calls if calls else 0.0
    m["cli.self_s"] = layers["cli.run"]["self_s"] * scale
    m["trace_overhead"] = overhead
    return m


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    if not os.path.isfile(os.path.join(ROOT, "src", "dynstar", "cli.py")):
        raise BenchError(f"no dynstar sources under {ROOT}/src")
    spec = _spec()
    inputs = workloads.batch(workload, seed)
    job = {"root": ROOT, "argvs": [list(i.argv) for i in inputs]}
    setup_s = raw_setup_s = None
    if trace:
        os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
        spans = os.path.join(ROOT, ".perfbench",
                             f"spans-{workload}-{seed}.jsonl")
        job["phases"] = [{"trace": False, "seconds": seconds / 3},
                         {"trace": True, "spans_out": spans}]
    else:
        setup_s, raw_setup_s = measure_setup(ROOT)
        job["phases"] = [{"trace": False, "seconds": seconds}]
    result = run_worker(job, DEADLINE_S - (time.perf_counter() - started))

    plain = result["phases"][0]
    everything = [s for phase in result["phases"] for s in phase]
    bad_inputs, unexpected = check(inputs, everything)
    medians, raw_medians = per_verdict(plain, len(inputs))
    wall = sum(medians)
    tail_s, tail_pct = tail(medians)
    passes = max(s["pass"] for s in plain)
    print(f"workload {workload} seed {seed}: {len(inputs)} inputs, "
          f"{len(plain)} untraced verdicts: a warm-up pass and {passes} timed")
    print(f"report digest sha256 {report_digest(inputs, plain)}")
    print(f"tail: p{tail_pct:.0f} of {len(medians)} per-input medians")
    print(f"unscaled: verdict wall {sum(raw_medians):.4f} s, "
          f"p50 {statistics.median(raw_medians):.4f} s, "
          f"tail {tail(raw_medians)[0]:.4f} s"
          + (f", set-up {raw_setup_s:.4f} s" if raw_setup_s else ""))
    for why in unexpected:
        print(f"UNEXPECTED {why}")

    if trace:
        calls = {g: v["calls"] for g, v in result["layers"].items()}
        errors = workloads.coverage_errors(workload, calls)
        if errors:
            raise BenchError("layer coverage check failed:\n  "
                             + "\n  ".join(errors))
        samples = result["phases"][1]
        traced = sum(s["s"] for s in samples)
        scale = calibrate.normalize(1.0, statistics.median(
            s["kernel"] for s in samples))
        values = layer_metrics(result["layers"], result["counters"],
                               traced * scale / wall, scale)
        _print_split(result["layers"], traced)
        wanted = spec["per_layer"]
    else:
        values = {
            "verdict_wall_s": wall,
            "verdict_p50_s": statistics.median(medians),
            "verdict_tail_s": tail_s,
            "setup_s": setup_s,
            "peak_rss_mb": result["peak_rss_mb"],
            "known_answer_share": 1 - len(bad_inputs) / len(inputs),
        }
        wanted = spec["end_to_end"]
    return {
        "correct": not unexpected,
        "attempted": len(inputs),
        "failed": len(bad_inputs),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


def _print_split(layers: dict, traced_wall: float) -> None:
    """Share of the traced pass's time that each group's self time takes."""
    print(f"self-time split of the traced pass ({traced_wall:.3f} s):")
    rows = sorted(layers.items(), key=lambda kv: -kv[1]["self_s"])
    for name, s in rows:
        if s["calls"]:
            print(f"  {name:30s} {s['self_s']:8.3f} s "
                  f"{100 * s['self_s'] / traced_wall:5.1f}% {s['calls']:9d} calls")
    other = traced_wall - sum(s["self_s"] for s in layers.values())
    print(f"  {'outside cli.run':30s} {other:8.3f} s "
          f"{100 * other / traced_wall:5.1f}%")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # a terminated run unwinds, so the cleanup above stops its children
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        out = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError, subprocess.SubprocessError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself: seeded inputs, known answers, tracing.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import json
import os

import pytest

import calibrate
import run
import tracer
import workloads
from workloads import BAD_INPUT, FAIL, PASS

SEEDS = range(12)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_argv_other_seed_other_argv(workload):
    argvs = lambda seed: [i.argv for i in workloads.batch(workload, seed)]
    assert argvs(7) == argvs(7)
    assert argvs(7) != argvs(8)


def _flag(argv, name):
    return argv[argv.index(name) + 1] if name in argv else None


def _indices(text, prefix):
    if text in (None, "none"):
        return set()
    return {int(tok.strip()[len(prefix):]) for tok in text.split(",")}


def _rule(argv):
    """The known answer by the control rules, read from the argv alone."""
    cmd = argv[0]
    if cmd in ("classify", "verify-rmatrix", "lagrangian"):
        delta = _indices(_flag(argv, "--delta"), "a")
        u = _indices(_flag(argv, "--u"), "pm-a")
        t = dict(item.split("=") for item in
                 (_flag(argv, "--t") or "").split(",") if item)
        t = {int(k[1:]): int(v) for k, v in t.items()}
        if not u <= delta:
            return BAD_INPUT
        if any(v == 1 for k, v in t.items() if k not in u):
            return BAD_INPUT
        return PASS
    if cmd == "verma-oracle":
        if int(_flag(argv, "--v")) % 2 or int(_flag(argv, "--w")) % 2:
            return BAD_INPUT
        return FAIL if "--mutate" in argv else PASS
    return PASS


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_known_answers_follow_the_control_rules(workload, seed):
    for inp in workloads.batch(workload, seed):
        assert inp.expect == _rule(inp.argv), inp.argv
        if inp.argv[0] == "star":
            assert int(_flag(inp.argv, "--order")) <= 3


@pytest.mark.parametrize("seed", SEEDS)
def test_valid_classification_data_and_generating_witness(seed):
    for inp in workloads.batch("root-recovery", seed):
        argv = inp.argv
        family, rank = _flag(argv, "--type"), int(_flag(argv, "--rank"))
        delta = _indices(_flag(argv, "--delta"), "a")
        u = _indices(_flag(argv, "--u"), "pm-a")
        t = tuple(tuple(map(int, item[1:].split("=")))
                  for item in (_flag(argv, "--t") or "").split(",") if item)
        data = workloads.ClassData(family, rank, tuple(sorted(delta)),
                                   tuple(sorted(u)), t)
        assert data.is_valid() == (inp.expect == PASS), argv
        if "--recover" in argv:
            assert rank <= 3
            simple, levi = inp.witness
            assert len(simple) == rank and levi <= simple
            assert levi == {workloads._simple_str(k, rank) for k in delta}
        else:
            assert inp.witness is None


@pytest.mark.parametrize("seed", SEEDS)
def test_every_control_kind_and_the_chevalley_finding_stay_in_the_draw(seed):
    tower = workloads.batch("twist-tower", seed)
    projections = [i for i in tower if i.argv[0] == "project-twist"]
    chevalley = [i for i in projections if "chevalley" in i.argv]
    assert len(chevalley) == len(projections) // 2 > 0
    assert all(i.expect == PASS and i.defect_exit == FAIL for i in chevalley)
    assert {int(_flag(i.argv, "--order")) for i in tower} == {4, 5, 6, 7}

    roots = workloads.batch("root-recovery", seed)
    assert any(i.expect == BAD_INPUT and "--t" in i.argv for i in roots)
    assert any(i.expect == BAD_INPUT and "--t" not in i.argv for i in roots)
    assert any("--recover" in i.argv for i in roots)

    orbit = workloads.batch("orbit-oracle", seed)
    assert {i.expect for i in orbit} == {PASS, FAIL, BAD_INPUT}


def test_self_times_on_a_synthetic_nested_trace():
    # run [0, 10] > cmd [1, 9] > {build [2, 4], check [5, 8] > shift [6, 7]};
    # counted scalar calls cover 0.5 s directly inside build and 1 s in cmd
    spans = [
        ["cli.run", 0.0, 10.0, None, 0, 0.0],
        ["cli.cmd", 1.0, 9.0, 0, 0, 1.0],
        ["twist.build", 2.0, 4.0, 1, 0, 0.5],
        ["twist.cocycle", 5.0, 8.0, 1, 0, 0.0],
        ["twist.shift", 6.0, 7.0, 3, 0, 0.0],
    ]
    assert tracer.self_times(spans) == pytest.approx([2.0, 2.0, 1.5, 2.0, 1.0])
    assert sum(tracer.self_times(spans)) + 1.5 == pytest.approx(10.0)


def test_live_tracer_self_times_add_up_to_the_outer_call():
    t = tracer.Tracer()
    leaf = t.count_wrapper("scalars.arith", lambda: sum(range(2000)))
    inner = t.span_wrapper("twist.shift", lambda: [leaf() for _ in range(5)])
    outer = t.span_wrapper("twist.cocycle", lambda: (inner(), leaf()))
    outer()
    totals = tracer.summarize(t)
    assert totals["scalars.arith"]["calls"] == 6
    assert totals["twist.shift"]["calls"] == 1
    wall = t.spans[0][2] - t.spans[0][1]
    assert sum(v["self_s"] for v in totals.values()) == pytest.approx(wall)
    with pytest.raises(tracer.TraceError):
        t.count_wrapper("scalars.arith", t.span_wrapper("cli.run", len))([])


def test_install_patches_every_binding_and_uninstall_restores_them():
    import dynstar.cli as cli
    import dynstar.twist as twist

    original = cli._COMMANDS["classify"]
    assert tracer.installed_wrappers() == []
    uninstall = tracer.install(tracer.Tracer())
    try:
        assert hasattr(cli.abrr_twist, tracer.MARK)      # from .twist import
        assert cli.abrr_twist is twist.abrr_twist
        assert hasattr(cli._COMMANDS["classify"], tracer.MARK)
        assert "FieldElement.__radd__" in tracer.installed_wrappers()
    finally:
        uninstall()
    assert tracer.installed_wrappers() == []
    assert cli._COMMANDS["classify"] is original


def test_coverage_check_names_missing_and_unexpected_layers():
    calls = {g.name: 1 for g in tracer.GROUPS}
    assert workloads.coverage_errors("orbit-oracle", {
        **calls, "classify.recover": 0, "rootsystems.chevalley": 0,
        "classify.build": 0, "classify.levi_roots": 0,
        "classify.conditions": 0, "classify.membership": 0,
        "classify.lagrangian": 0, "rootsystems.positive_systems": 0,
    }) == []
    errors = workloads.coverage_errors("twist-tower", {
        **calls, "enveloping.change_generators": 0})
    assert any(e.startswith("enveloping.change_generators: no calls")
               for e in errors)
    assert any(e.startswith("classify.recover: 1 calls") for e in errors)


def test_local_kernel_time_is_a_windowed_median():
    kernels = [1.0, 1.0, 9.0, 1.0, 2.0, 2.0, 2.0]
    assert calibrate.local_kernel_s(kernels, radius=1) == [
        1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]
    ref = calibrate.REFERENCE_S
    assert calibrate.normalize(0.3, ref) == pytest.approx(0.3)
    assert calibrate.normalize(0.3, 2 * ref) == pytest.approx(0.15)


def test_per_verdict_scales_each_timed_sample_and_skips_the_warm_up():
    ref = calibrate.REFERENCE_S
    # the warm-up pass is slow; the host runs at half the reference speed
    samples = [{"i": i % 2, "pass": i // 2,
                "s": (0.1 * (i % 2 + 1) + i // 2 / 100) * (3 if i < 2 else 1),
                "kernel": 2 * ref} for i in range(6)]
    scaled, raw = run.per_verdict(samples, 2)
    assert raw == pytest.approx([0.115, 0.215])
    assert scaled == pytest.approx([0.0575, 0.1075])


def test_failures_count_inputs_not_repeats():
    inputs = [workloads.Input(("abrr-check", "--order", "4"), PASS),
              workloads.Input(("project-twist", "--order", "4", "--variant",
                               "chevalley"), PASS,
                              defect=workloads.CHEVALLEY_CLOSED_FORM,
                              defect_exit=FAIL)]
    for passes in (2, 5):
        samples = [{"i": i, "pass": p, "rc": i, "sha": "x"}
                   for p in range(passes) for i in range(2)]
        for s, head in zip(samples, ("abrr-check: PASS",
                                     "project-twist: FAIL")):
            s["report"] = head + '\n{"ok": %s}' % str(not s["rc"]).lower()
        bad, unexpected = run.check(inputs, samples)
        assert bad == {1} and unexpected == []
    samples[0] = {**samples[0], "rc": FAIL}
    assert run.check(inputs, samples)[1]


def test_tail_has_ten_values_beyond_it():
    values = [float(v) for v in range(36)]
    assert run.tail(values) == (25.0, pytest.approx(100 * 26 / 36))
    assert run.tail([1.0, 2.0])[0] == 2.0


def test_benchmark_json_names_what_the_benchmark_prints():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == [
        "twist-tower", "root-recovery", "orbit-oracle"]
    layers = {g.name: {"calls": 1, "self_s": 0.0} for g in tracer.GROUPS}
    produced = run.layer_metrics(layers, {}, 1.0)
    assert {m["name"] for m in spec["per_layer"]} <= set(produced)

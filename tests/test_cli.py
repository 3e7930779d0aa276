import json

import pytest

from dynstar import classify, cli, orbits, projection, rootsystems, twist, verma
from dynstar.cli import run


def _capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    lines = out.splitlines()
    report = json.loads("\n".join(lines[1:])) if len(lines) > 1 else {}
    return code, lines[0] if lines else "", report


class TestClassify:
    def test_levi_with_u(self, capsys):
        code, head, rep = _capture(capsys, [
            "classify", "--type", "A", "--rank", "2",
            "--delta", "a1", "--u", "pm-a1", "--canonical"])
        assert code == 0
        assert head == "classify: PASS"
        assert rep["ok"]
        assert rep["coefficients"]["(1,0)"] == "0"
        assert rep["coefficients"]["(0,1)"] == "(1)/(2)"

    def test_generic_t(self, capsys):
        code, _, rep = _capture(capsys, [
            "classify", "--type", "A", "--rank", "2",
            "--delta", "a1", "--t", "a1=t1", "--canonical"])
        assert code == 0
        assert rep["coefficients"]["(1,0)"] == "(t1+1)/(2*t1-2)"

    def test_bad_family(self, capsys):
        code = run(["classify", "--type", "E", "--rank", "2", "--delta", "a1"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_bad_token(self, capsys):
        code = run(["classify", "--type", "A", "--rank", "2", "--delta", "b1"])
        assert code == 2

    def test_t_outside_delta_rejected(self, capsys):
        # a binding that the spec would never read is bad input
        code = run(["classify", "--type", "A", "--rank", "2",
                    "--delta", "a1", "--t", "a2=3"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "(0, 1)" in captured.err and "not in Delta" in captured.err

    def test_t_one_outside_u(self, capsys):
        code = run(["classify", "--type", "A", "--rank", "2",
                    "--delta", "a1", "--t", "a1=1"])
        assert code == 2

    @pytest.mark.parametrize("delta,t,root", [
        ("a1", "a1=hbar/hbar", "(1, 0)"),
        ("a1,a2", "a1=2,a2=1/2", "(1, 1)"),
    ], ids=["simple", "sum"])
    def test_coth_pole_names_the_positive_root(self, capsys, delta, t, root):
        # t_{-a} = 1/t_a is 1 as well; the message names the positive root
        code = run(["classify", "--type", "A", "--rank", "2",
                    "--delta", delta, "--t", t])
        assert code == 2
        assert f"t_alpha = 1 at {root} outside U" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["sin(t1)", "(", "t9"])
    def test_malformed_t_value(self, capsys, value):
        code = run(["classify", "--type", "A", "--rank", "2",
                    "--delta", "a1", "--t", f"a1={value}"])
        assert code == 2
        assert "bad t value" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--delta", "a1", "--t", "a1=2,a1=3"],
        ["--delta", "a1,a1"],
        ["--delta", "a1", "--u", "pm-a1,pm-a1"],
    ], ids=["t", "delta", "u"])
    def test_repeated_token_rejected(self, capsys, flags):
        # a repeated token is bad input, never silently merged or dropped
        assert run(["classify", "--type", "A", "--rank", "2", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "repeated token" in captured.err


class TestVerifyAndLagrangian:
    def test_verify_with_recovery(self, capsys):
        code, _, rep = _capture(capsys, [
            "verify-rmatrix", "--type", "A", "--rank", "2",
            "--delta", "a1", "--u", "pm-a1", "--recover", "--canonical"])
        assert code == 0
        assert rep["in_M_Omega"] and rep["quasi_unitary"]
        assert rep["witnesses"]

    def test_lagrangian_report(self, capsys):
        code, _, rep = _capture(capsys, [
            "lagrangian", "--type", "A", "--rank", "2",
            "--delta", "a1", "--u", "pm-a1", "--canonical"])
        assert code == 0
        assert rep["dim"] == 8
        assert rep["diag_intersection_dim"] == 4


def _double_theta(monkeypatch):
    """theta doubled at the first root a of N \\ U (t_a only, t_{-a} kept)."""
    real = classify.DynrSpec.t_of

    def t_of(spec, b):
        a = min(spec.levi_roots() - spec.U)
        return real(spec, b) * 2 if tuple(b) == a else real(spec, b)

    monkeypatch.setattr(classify.DynrSpec, "t_of", t_of)


def _flip_gamma(monkeypatch):
    """The first root of R+ \\ N that is not simple swapped for its
    negative in R+, which leaves a set that is no positive system."""
    real = classify.make_spec

    def make_spec(*args, **kwargs):
        spec = real(*args, **kwargs)
        c = min(spec.positive - spec.levi_roots() - set(spec.simple))
        spec.positive = (spec.positive - {c}) | {tuple(-x for x in c)}
        assert spec.positive not in rootsystems.positive_systems(spec.system)
        return spec

    monkeypatch.setattr(classify, "make_spec", make_spec)


class TestLagrangianMutations:
    B3 = ["--type", "B", "--rank", "3", "--delta", "a2,a3", "--u", "pm-a2"]

    def test_unmutated_passes(self, capsys):
        code, head, rep = _capture(capsys, ["lagrangian", *self.B3,
                                            "--canonical"])
        assert (code, head) == (0, "lagrangian: PASS")
        assert rep["isotropic"] and rep["bracket_closed"] and rep["ok"]

    @pytest.mark.parametrize("mutate,isotropic", [
        (_double_theta, False), (_flip_gamma, True)], ids=["theta", "gamma"])
    def test_mutation_fails_with_exit_1(self, capsys, monkeypatch, mutate,
                                        isotropic):
        mutate(monkeypatch)
        code, head, rep = _capture(capsys, ["lagrangian", *self.B3,
                                            "--canonical"])
        assert (code, head) == (1, "lagrangian: FAIL")
        assert rep["isotropic"] is isotropic
        assert rep["bracket_closed"] is False and rep["ok"] is False


def _double_star_coefficient(n):
    """c_n of the star series doubled, in both modes."""
    def mutate(monkeypatch):
        real = orbits.star_coefficients
        monkeypatch.setattr(orbits, "star_coefficients", lambda ctx, mode, count: [
            c * 2 if i == n else c for i, c in enumerate(real(ctx, mode, count))])
    return mutate


def _double_resolvent_shift(monkeypatch):
    """The resolvent factors of the closed-form twist at shift 2j, not j."""
    real = twist._h_powers
    monkeypatch.setattr(twist, "_h_powers",
                        lambda alg, shift, kmax: real(alg, 2 * shift, kmax))


def _double_first_coefficient(monkeypatch):
    """x_a doubled at the first root a of the family."""
    real = classify.build_coefficients

    def build_coefficients(spec):
        fam = real(spec)
        a = min(fam.x)
        fam.x[a] = fam.x[a] * 2
        return fam

    monkeypatch.setattr(classify, "build_coefficients", build_coefficients)


def _double_theta_at_11(monkeypatch):
    """t_a doubled at a = (1, 1) only, t_{-a} kept."""
    real = classify.DynrSpec.t_of
    monkeypatch.setattr(classify.DynrSpec, "t_of", lambda spec, b: (
        real(spec, b) * 2 if tuple(b) == (1, 1) else real(spec, b)))


def _swap_closed_form_slots(monkeypatch):
    """The projected closed form with its two slots swapped: v_n built as
    the rising factorial of the second v-generator, then of the first."""
    real = projection.closed_form_jv

    def closed_form_jv(sp, N):
        swapped = real(sp, N).series.map_orders(lambda t: t._like(
            {(e2, e1): c for (e1, e2), c in t.terms.items()}))
        return projection.ProjectedTwist(swapped, sp)

    monkeypatch.setattr(projection, "closed_form_jv", closed_form_jv)


def _bump_module_x_entry(monkeypatch):
    """x u_1 = x[0] u_0 in every finite module, with x[0] one too large."""
    real = verma.FiniteModule.__init__

    def init(module, ctx, m):
        real(module, ctx, m)
        module.x = (module.x[0] + 1, *module.x[1:])

    monkeypatch.setattr(verma.FiniteModule, "__init__", init)


A2 = ["--type", "A", "--rank", "2"]

# One row per constructing helper: the command whose verdict reads what the
# helper builds, and the exit code when the helper is corrupted (1: the
# check fails; 3: the module's own relation check raises first).
HELPER_MUTATIONS = [
    pytest.param(_double_star_coefficient(1), ["star"], 1, id="star-c1"),
    pytest.param(_double_star_coefficient(2), ["star"], 1, id="star-c2",
                 marks=pytest.mark.xfail(strict=True, reason=(
                     "the star sweep's associativity runs over basis "
                     "triples only, whose towers never reach c_2"))),
    pytest.param(_double_resolvent_shift, ["abrr-check", "--order", "4"], 1,
                 id="resolvent-shift"),
    pytest.param(_double_first_coefficient, ["classify", *A2, "--delta", "a1"], 1,
                 id="coefficient-x"),
    pytest.param(_double_theta_at_11, ["lagrangian", *A2, "--delta", "a1,a2"], 1,
                 id="lagrangian-theta"),
    pytest.param(_swap_closed_form_slots, ["project-twist", "--order", "4"], 1,
                 id="closed-form-slots"),
    pytest.param(_swap_closed_form_slots,
                 ["project-twist", "--order", "4", "--variant", "chevalley"], 1,
                 id="closed-form-slots-chevalley"),
    pytest.param(_bump_module_x_entry, ["verma-oracle", "--v", "4", "--w", "4"], 3,
                 id="module-x-table"),
]


@pytest.mark.parametrize("mutate,argv,code", HELPER_MUTATIONS)
def test_corrupted_helper_changes_the_exit_code(capsys, monkeypatch, mutate,
                                                argv, code):
    assert run(argv + ["--canonical"]) == 0
    mutate(monkeypatch)
    assert run(argv + ["--canonical"]) == code
    capsys.readouterr()


class TestTableOnlyWhereRead:
    A2 = ["--type", "A", "--rank", "2", "--delta", "a1"]

    @pytest.mark.parametrize("argv,code,calls", [
        (["classify", *A2, "--u", "pm-a1"], 0, 0),
        (["lagrangian", *A2, "--t", "a1=1"], 2, 0),    # t = 1 outside U
        (["verify-rmatrix", *A2, "--u", "pm-a1"], 0, 1),
        (["lagrangian", *A2, "--u", "pm-a1"], 0, 1),
    ])
    def test_chevalley_calls(self, capsys, monkeypatch, argv, code, calls):
        from dynstar import rootsystems
        built, real = [], rootsystems.chevalley_constants
        monkeypatch.setattr(rootsystems, "chevalley_constants",
                            lambda rs: built.append(rs) or real(rs))
        assert run(argv + ["--canonical"]) == code
        assert len(built) == calls


class TestTwistCommands:
    def test_abrr_check(self, capsys):
        code, _, rep = _capture(capsys, ["abrr-check", "--order", "3",
                                         "--canonical"])
        assert code == 0
        assert rep["cocycle"]["ok"] and rep["counit_ok"] and rep["h_invariant"]

    def test_abrr_check_fails_without_h_invariance(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "check_h_invariance", lambda J: False)
        code, head, rep = _capture(capsys, ["abrr-check", "--order", "2",
                                            "--canonical"])
        assert code == 1
        assert head == "abrr-check: FAIL"
        assert rep["cocycle"]["ok"] and rep["counit_ok"]
        assert rep["h_invariant"] is False and rep["ok"] is False

    def test_cdybe_check(self, capsys):
        code, _, rep = _capture(capsys, ["cdybe-check", "--canonical"])
        assert code == 0
        assert rep["classical_limit_is_u_lambda"]
        assert rep["cdybe"]["ok"]

    def test_project_twist(self, capsys):
        code, _, rep = _capture(capsys, ["project-twist", "--order", "3",
                                         "--canonical"])
        assert code == 0
        assert rep["matches_closed_form"]
        assert rep["axioms"]["ok"]


class TestStar:
    def test_single_identity(self, capsys):
        code, _, rep = _capture(capsys, ["star", "--identity", "casimir",
                                         "--canonical"])
        assert code == 0
        assert rep["identity"] == "casimir"

    @pytest.mark.parametrize("order", ["4", "-1"])
    def test_order_out_of_range_rejected(self, capsys, order):
        assert run(["star", "--order", order, "--identity", "casimir"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--order" in err

    def test_unknown_identity_is_schema_error(self, capsys):
        # argparse rejects the choice before the command runs
        with pytest.raises(SystemExit) as e:
            run(["star", "--identity", "bogus"])
        assert e.value.code == 2


class TestVermaOracle:
    def test_match(self, capsys):
        code, _, rep = _capture(capsys, ["verma-oracle", "--v", "2", "--w", "4",
                                         "--canonical"])
        assert code == 0
        assert rep["status"] == "match"

    def test_mutation_fails_with_exit_1(self, capsys):
        code, head, rep = _capture(capsys, ["verma-oracle", "--mutate",
                                            "--canonical"])
        assert code == 1
        assert head == "verma-oracle: FAIL"
        assert rep["status"] == "mismatch"

    def test_odd_weight_rejected(self, capsys):
        assert run(["verma-oracle", "--v", "3"]) == 2


class TestPlumbing:
    def test_no_command_prints_help(self, capsys):
        assert run([]) == 2

    @pytest.mark.parametrize("argv", [
        ["abrr-check", "--order", "-1"],
        ["project-twist", "--order", "-2"],
        ["verma-oracle", "--v", "-2", "--w", "2"],
        ["verma-oracle", "--v", "2", "--w", "-2"],
        ["cdybe-check", "--order", "0"],
    ])
    def test_bad_size_is_bad_input(self, capsys, argv):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "must be at least" in captured.err

    @pytest.mark.parametrize("argv", [
        ["cdybe-check", "--order", "17"],
        ["project-twist", "--order", "17"],
        ["abrr-check", "--order", "17"],
    ])
    def test_degree_cap_is_bad_input(self, capsys, argv):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: word length 17 exceeds degree cap 16\n"

    def test_canonical_is_deterministic(self, capsys):
        argv = ["classify", "--type", "B", "--rank", "2", "--delta", "a1",
                "--canonical"]
        run(argv)
        first = capsys.readouterr().out
        run(argv)
        second = capsys.readouterr().out
        assert first == second
        assert "elapsed_seconds" not in first

    def test_timing_present_without_canonical(self, capsys):
        _, _, rep = _capture(capsys, ["cdybe-check", "--order", "1"])
        assert "elapsed_seconds" in rep

    def test_json_out(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, _, rep = _capture(capsys, [
            "abrr-check", "--order", "2", "--canonical",
            "--json-out", str(target)])
        assert code == 0
        on_disk = json.loads(target.read_text())
        assert on_disk == rep

    def test_job_file(self, capsys, tmp_path):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({
            "command": "classify", "type": "A", "rank": 2,
            "delta": "a1", "u": "pm-a1", "canonical": True}))
        code, head, rep = _capture(capsys, ["--job", str(job)])
        assert code == 0
        assert rep["command"] == "classify"
        assert rep["ok"]

    def test_shared_parser_leaks_nothing(self, capsys, tmp_path):
        # one parser serves every run in a process: each report must equal
        # the report of a run with a freshly built parser
        job = tmp_path / "job.json"
        job.write_text(json.dumps({
            "command": "verify-rmatrix", "type": "A", "rank": 2,
            "delta": "a1", "canonical": True}))
        argv = ["verify-rmatrix", "--type", "A", "--rank", "2",
                "--delta", "a1", "--u", "pm-a1", "--canonical"]
        argvs = [argv + ["--recover"], argv, ["--job", str(job)]]
        fresh = []
        for a in argvs:
            cli.build_parser.cache_clear()
            fresh.append(_capture(capsys, a))
        cli.build_parser.cache_clear()
        shared = [_capture(capsys, a) for a in argvs]
        assert cli.build_parser.cache_info().misses == 1
        assert shared == fresh
        assert fresh[0][2]["witnesses"] and not fresh[1][2]["witnesses"]
        assert fresh[2][2]["tensor"] != fresh[1][2]["tensor"]

    def test_job_file_missing_command(self, capsys, tmp_path):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"rank": 2}))
        assert run(["--job", str(job)]) == 2
        assert "missing command" in capsys.readouterr().err

    def test_job_file_command_not_a_string(self, capsys, tmp_path):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"command": 5}))
        assert run(["--job", str(job)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: job file command must be a string\n"

    def test_job_file_unreadable(self, capsys, tmp_path):
        assert run(["--job", str(tmp_path / "absent.json")]) == 2

    @pytest.mark.parametrize("content", ["[1, 2]", '"classify"', "3", "null"])
    def test_job_file_not_an_object(self, capsys, tmp_path, content):
        job = tmp_path / "job.json"
        job.write_text(content)
        assert run(["--job", str(job)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: cannot read job file: "
                                "not a JSON object\n")

    def test_json_out_unwritable(self, capsys, tmp_path):
        target = tmp_path / "absent" / "report.json"
        code = run(["cdybe-check", "--canonical", "--json-out", str(target)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out.startswith("cdybe-check: PASS\n")
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot write report:")
        assert not target.exists()

    def test_internal_error_exits_3(self, capsys, monkeypatch):
        # a fault inside a command is not blamed on the input
        def broken(args):
            raise KeyError("boom")

        monkeypatch.setitem(cli._COMMANDS, "classify", broken)
        assert run(["classify", "--type", "A", "--rank", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: KeyError: 'boom'\n"

    @pytest.mark.parametrize("report", [
        {"ok": True, "x": object()},
        {"ok": True, "x": {(1, 2): "a"}},
    ], ids=["non-json-value", "tuple-key"])
    def test_unserializable_report_exits_3(self, capsys, monkeypatch, report):
        # the report is built but cannot be written: a fault of the program
        monkeypatch.setitem(cli._COMMANDS, "classify", lambda args: report)
        assert run(["classify", "--type", "A", "--rank", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("internal error: TypeError: ")


def test_one_context_algebra_and_splitting_per_process(capsys):
    assert cli._context(4) is cli._context(4) is not cli._context(3)
    U = cli._sl2_pbw()
    assert U is cli._sl2_pbw() and U.ctx is cli._context(0)
    assert run(["project-twist", "--order", "3", "--canonical"]) == 0
    capsys.readouterr()
    spl = cli._splitting("standard")
    assert spl is cli._splitting("standard") is not cli._splitting("chevalley")
    assert spl.images and spl.pbw.ctx is U.ctx


class TestTValues:
    """A plain rational literal t-value becomes a constant without sympy's
    parser; every other string still goes through it, with the same value
    or error."""

    @pytest.mark.parametrize("value,code,coeff", [
        ("6", 0, "(7)/(10)"),
        (" 6", 0, "(7)/(10)"),
        ("+6", 0, "(7)/(10)"),
        ("1.5", 0, "(5)/(2)"),
        ("6/4", 0, "(5)/(2)"),
        ("-2", 0, "(1)/(6)"),
        ("t1", 0, "(t1+1)/(2*t1-2)"),
        ("2*t1", 0, "(2*t1+1)/(4*t1-2)"),
        ("0", 2, "error: t-parameter is zero at (1, 0)"),
        ("3/0", 2, "error: bad t value in 'a1=3/0': '3/0' is not a rational function"),
        ("007", 2, "error: bad t value in 'a1=007': cannot parse '007'"),
        ("٣", 2, "error: bad t value in 'a1=٣': cannot parse '٣'"),
    ])
    def test_classify_t_value(self, capsys, value, code, coeff):
        argv = ["classify", "--type", "A", "--rank", "2", "--delta", "a1",
                "--t", f"a1={value}", "--canonical"]
        if code:
            assert run(argv) == code
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err == coeff + "\n"
        else:
            got, head, rep = _capture(capsys, argv)
            assert (got, head) == (0, "classify: PASS")
            assert rep["coefficients"]["(1,0)"] == coeff

    # sha256 of the canonical output, recorded while every t-value went
    # through sympy's parser
    LITERAL_REPORTS = [
        (["classify", "--type", "C", "--rank", "3", "--delta", "a2,a3",
          "--t", "a2=5/3,a3=3"],
         "e1b5ca56b7472c611c3a4acdc142086b45e0ffac67c1ae3bb70d11cf7b5dd06f"),
        (["classify", "--type", "A", "--rank", "2", "--delta", "a1",
          "--t", "a1=-2"],
         "e668cb769d549ff089b4bcc5dc7892955e4655ad2382630de1dd41dd4542474c"),
        (["verify-rmatrix", "--type", "B", "--rank", "3", "--delta", "a1,a3",
          "--u", "pm-a3", "--t", "a1=-7/2", "--recover"],
         "fad10e1b792afe06d492b9b8549bf5879cac75064b3101fe7c9fec4f32c3e4a4"),
        (["verify-rmatrix", "--type", "D", "--rank", "4", "--delta", "a1,a3",
          "--t", "a1=4,a3=2/5"],
         "d3f686a24c6f476b1d56b69254a1c3d8df7c10b91f746b57058f9f083041f63e"),
        (["lagrangian", "--type", "A", "--rank", "3", "--delta", "a1,a2",
          "--t", "a1=2,a2=-1/3"],
         "8989733600f062274dbe8d0bac2b43c4da32cc3a11d3e7af33f0d98dd029456f"),
        (["lagrangian", "--type", "B", "--rank", "3", "--delta", "a2",
          "--t", "a2=3"],
         "3eeeda36b2f2c5713c1a28933777553b7306fb78ef6bf68b2c6bfc4b93d7ee64"),
    ]

    def test_literal_t_values_need_no_parser(self, capsys, monkeypatch):
        import hashlib

        import dynstar.scalars

        def refuse(*args, **kwargs):
            raise RuntimeError("sympy parser called")

        monkeypatch.setattr(dynstar.scalars.sp, "sympify", refuse)
        with pytest.raises(RuntimeError):
            cli._context(2)("t1")
        for argv, digest in self.LITERAL_REPORTS:
            assert run(argv + ["--canonical"]) == 0, argv
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode()).hexdigest() == digest, argv

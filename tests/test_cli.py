import json
import os
import subprocess
import sys

import pytest

from schubring.cli import main
from schubring.gammaring import GammaElement
from schubring.serialize import (
    document_to_gamma,
    gamma_to_document,
    gamma_to_latex,
    parse_document,
    render_document,
)


def run_cli(*args, capsys=None):
    code = main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


def test_compute_sign_change_generator(capsys):
    code, out, err = run_cli("compute", "--lie-type", "C", "--w", "[-1]", "--double", capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["terms"] == [["1", [1], [], []]]


def test_compute_theta(capsys):
    code, out, _ = run_cli("compute", "--theta", "1", "1", capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["terms"] == [["1", [], [1], []], ["1", [1], [], []]]


def test_compute_type_a(capsys):
    code, out, _ = run_cli("compute", "--lie-type", "A", "--w", "[2,1]", "--double", capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["terms"] == [["-1", [], [], [1]], ["1", [], [1], []]]


def test_compute_method_both(capsys):
    code, out, _ = run_cli(
        "compute", "--lie-type", "C", "--w", "[3,-1,2]", "--double", "--method", "both",
        capsys=capsys,
    )
    assert code == 0
    assert json.loads(out)["metadata"]["methods_agree"]


def test_exit_code_parse_error(capsys):
    code, _, err = run_cli("compute", "--lie-type", "C", "--w", "[what]", capsys=capsys)
    assert code == 2
    # a partition is split on commas only: "2 1" is not the part 21
    for args in (
        ("--theta", "2", "2 1"),
        ("--eta", "2", "2 1", "0"),
        ("--pfaffian", "1 0", "-1,0", "3,1"),
        ("--theta", "x", "2,1"),
        ("--eta", "2", "2", "x"),
    ):
        code, out, _ = run_cli("compute", *args, capsys=capsys)
        assert (code, out) == (2, ""), args
    assert run_cli("compute", "--theta", "1", "3, 1", capsys=capsys) == run_cli(
        "compute", "--theta", "1", "3,1", capsys=capsys
    )


@pytest.mark.parametrize("args", [("--theta", "4", "1"), ("--theta", "5", "2"), ("--eta", "4", "1", "0")])
def test_compute_grassmannian_support_above_level(args, capsys):
    # the n-Grassmannian element of these shapes has support n + 1
    code, out, _ = run_cli("compute", *args, capsys=capsys)
    assert code == 0
    assert json.loads(out)["terms"]


def test_exit_code_precondition(capsys):
    code, _, err = run_cli("compute", "--lie-type", "C", "--w", "[1,1]", capsys=capsys)
    assert code == 3
    code, _, err = run_cli("compute", "--theta", "1", "2,2", capsys=capsys)
    assert code == 3


def test_latex_output(capsys):
    code, out, _ = run_cli("compute", "--theta", "1", "1", "--latex", capsys=capsys)
    assert code == 0
    assert out.strip() == "x_{1} + c_{1}"


def test_determinism(capsys):
    a = run_cli("compute", "--lie-type", "D", "--w", "[-2,3,-1]", "--double", capsys=capsys)
    b = run_cli("compute", "--lie-type", "D", "--w", "[-2,3,-1]", "--double", capsys=capsys)
    assert a == b


def test_serialization_roundtrip():
    from schubring.schubert import schubert_poly
    from schubring.weyl import SignedPermutation

    for win, flavor in [((2, -1), "BC"), ((-2, 3, -1), "D")]:
        f = schubert_poly(SignedPermutation(win, flavor), flavor)
        doc = gamma_to_document(f, "b" if flavor == "D" else "c", {"w": list(win)})
        text = render_document(doc)
        doc2 = parse_document(text)
        assert render_document(doc2) == text
        assert document_to_gamma(doc2) == f


def test_latex_coefficients():
    from schubring.polyring import Dyadic

    # b_2 / 2 - 3 x_1, with b_2 = c_2 / 2
    f = GammaElement({((2,), (), ()): Dyadic(1, 2), ((), (1,), ()): Dyadic(-3)})
    s = gamma_to_latex(f, "b")
    assert r"\frac{1}{2^{1}}" in s and "b_{2}" in s and "-" in s


def test_expand_command(tmp_path, capsys):
    f = GammaElement.generator(1) * GammaElement.generator(1)
    path = tmp_path / "f.json"
    path.write_text(render_document(gamma_to_document(f)))
    code, out, _ = run_cli("expand", "--in", str(path), "--basis", "schubert-single", capsys=capsys)
    assert code == 0
    assert json.loads(out)["coefficients"] == {"[-2,1]": 2}


def test_expand_theta_basis(tmp_path, capsys):
    from schubring.gammaring import level_c

    path = tmp_path / "g.json"
    path.write_text(render_document(gamma_to_document(level_c(2, 3))))
    code, out, _ = run_cli("expand", "--in", str(path), "--basis", "theta", "--n", "2", capsys=capsys)
    assert code == 0
    assert json.loads(out)["coefficients"] == {"[3]": 1}


_DOCUMENT = render_document(gamma_to_document(GammaElement.monomial(xk=(2, 1))))


@pytest.mark.parametrize("text", ["[]", '{"schema": 1}',
                                  pytest.param(_DOCUMENT[: len(_DOCUMENT) // 2], id="truncated")])
def test_expand_rejects_non_document(text, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run_cli("expand", "--in", str(path), "--basis", "schubert-single", capsys=capsys)
    assert (code, out) == (3, "")
    assert len(err.splitlines()) == 1


def test_expand_rejects_y(tmp_path, capsys):
    f = GammaElement.monomial(yk=(1,))
    path = tmp_path / "y.json"
    path.write_text(render_document(gamma_to_document(f)))
    code, _, err = run_cli("expand", "--in", str(path), "--basis", "schubert-single", capsys=capsys)
    assert code == 3


def test_verify_suite_shapes(capsys):
    code, out, _ = run_cli("verify", "--suite", "shapes", capsys=capsys)
    assert code == 0
    assert "4/4 checks passed" in out


def test_verify_suite_oracle(capsys):
    code, out, _ = run_cli("verify", "--suite", "oracle", capsys=capsys)
    assert code == 0


def test_verify_suite_kernel_honours_n(capsys):
    code, out, _ = run_cli("verify", "--suite", "kernel", "--n", "3", "--max-degree", "3",
                           capsys=capsys)
    assert code == 0
    assert "PASS kernel/D-n3-d3" in out
    assert "6/6 checks passed" in out


def test_verify_suite_anchors(capsys):
    code, out, _ = run_cli("verify", "--suite", "anchors", "--n", "3", capsys=capsys)
    assert code == 0
    ids = [line.split()[1] for line in out.strip().splitlines()[:-1]]
    assert ids == ["anchors/BC-m1", "anchors/BC-m2", "anchors/BC-m3", "anchors/BC-m4",
                   "anchors/D-m2", "anchors/D-m3", "anchors/D-m4"]


def test_verify_transitions_honours_n4():
    from schubring.verify import Bounds, _suite_transitions
    from schubring.weyl import enumerate_group

    got = {cid: (ok, detail) for cid, ok, detail in _suite_transitions(Bounds(4, 3, None, 0))}
    for kind, cid in (("W", "transitions-vs-divdiff/BC-n4"), ("Wtilde", "transitions-vs-divdiff/D-n4")):
        count = sum(1 for w in enumerate_group(kind, 4) if w.length() <= 3)
        assert got[cid] == (True, f"{count} checked; first failures []"), cid


def test_verify_output_sorted(capsys):
    code, out, _ = run_cli("verify", "--suite", "shapes", capsys=capsys)
    lines = [l.split(" ", 1)[1] for l in out.strip().splitlines()[:-1]]
    assert lines == sorted(lines)


def test_type_b_divdiff_runs_the_divided_difference_route(monkeypatch, capsys):
    from schubring import schubert as sch

    def forbidden(*args, **kwargs):
        raise ArithmeticError("the divided-difference route ran")

    monkeypatch.setattr(sch, "_SINGLE", {})
    monkeypatch.setattr(sch, "schubert_divdiff", forbidden)
    monkeypatch.setattr(sch, "_single", forbidden)
    args = ("compute", "--lie-type", "B", "--w", "[2,-1]", "--double")
    code, out, err = run_cli(*args, "--method", "divdiff", capsys=capsys)
    assert (code, out) == (4, ""), err
    code, out, err = run_cli(*args, capsys=capsys)
    assert code == 0 and json.loads(out)["metadata"]["provenance"] == "transition", err


def _wrong_at(orig, flavor, window):
    """orig, plus one at the given element only."""
    def wrong(v, *args):
        f = orig(v, *args)
        return f + GammaElement.const(1) if (v.flavor, v.window) == (flavor, window) else f
    return wrong


def test_verify_reports_route_disagreement_as_fail(monkeypatch, capsys):
    from schubring import schubert as sch

    monkeypatch.setattr(sch, "_single", _wrong_at(sch._single, "BC", (2, -1)))
    code, out, err = run_cli("verify", "--suite", "transitions-vs-divdiff", "--n", "2",
                             capsys=capsys)
    assert code == 1, err
    assert "FAIL transitions-vs-divdiff/BC-n2  counterexample: 8 checked; first failures " \
        "[(2, -1), (1, -2)]" in out.splitlines()
    assert "PASS transitions-vs-divdiff/D-n2" in out.splitlines()


@pytest.mark.parametrize("route", ["transition", "divdiff"])
def test_method_both_exits_4_when_routes_disagree(route, monkeypatch, capsys):
    from schubring import schubert as sch

    if route == "transition":
        # a constant, so the transition memo never sees the wrong value
        monkeypatch.setattr(sch, "schubert_transition", lambda w, flavor=None: GammaElement.const(1))
    else:
        monkeypatch.setattr(sch, "_single", _wrong_at(sch._single, "BC", (2, -1)))
    code, out, err = run_cli("compute", "--lie-type", "C", "--w", "[2,-1]", "--double",
                             "--method", "both", capsys=capsys)
    assert (code, out) == (4, "")
    assert err == "internal mismatch: the two routes disagree at (2, -1)\n"


def _run_python(*args):
    """Run python with the package under test importable."""
    import schubring

    src = os.path.dirname(os.path.dirname(os.path.abspath(schubring.__file__)))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


def _run_optimized(*args):
    """Run python -O with the package under test importable."""
    return _run_python("-O", *args)


def test_store_checks_survive_optimize():
    # the packed term store raises ValueError, never asserts, on its paths
    code = """
from schubring.gammaring import GammaElement
big = GammaElement.monomial(xk=(40000,))
for bad in (lambda: big * big, lambda: GammaElement.monomial(xk=(-1,)),
            lambda: GammaElement.monomial(yk=(2, -3))):
    try:
        bad()
    except ValueError:
        continue
    raise SystemExit("no ValueError")
print("ok")
"""
    proc = _run_optimized("-c", code)
    assert (proc.returncode, proc.stdout) == (0, "ok\n"), proc.stderr


@pytest.mark.parametrize(
    "args",
    [("compute", "--lie-type", "C", "--w", "[2,-1]", "--double"), ("verify", "--suite", "hilbert")],
    ids=["compute", "verify-hilbert"],
)
def test_benchmark_tracer_finds_every_target(args, tmp_path):
    # a renamed or removed target would make its per-layer metrics absent;
    # the tracer runs in a subprocess so that it wraps nothing in this one
    bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
    out = tmp_path / "trace.json"
    proc = _run_python("-B", os.path.join(bench, "traced_cli.py"), str(out), "0", "--", *args)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert (report["absent"], report["hook_errors"]) == ([], {})
    assert report["agg"] and report["strictify"] is not None


def test_type_a_method_both_is_rejected(capsys):
    # type A has one route only, so there is no agreement to claim
    args = ("compute", "--lie-type", "A", "--w", "[2,1]", "--method", "both")
    code, out, err = run_cli(*args, capsys=capsys)
    assert (code, out) == (3, "")
    assert len(err.strip().splitlines()) == 1
    proc = _run_optimized("-m", "schubring.cli", *args)
    assert (proc.returncode, proc.stdout) == (3, ""), proc.stderr


@pytest.mark.parametrize("window", ["[2,2]", "[-1,3]", "[0,1]"])
def test_window_validation_survives_optimize(window):
    proc = _run_optimized("-m", "schubring.cli", "compute", "--lie-type", "D", "--w", window)
    assert proc.returncode == 3, (proc.stdout, proc.stderr)
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "args",
    [
        ("--pfaffian", "2,2,1,1,0", "-1,-1,0,0,1", "7,5,3,2,1", "--hatted"),
        ("--eta", "3", "3,3,1", "1"),
    ],
)
def test_ring_arithmetic_output_survives_optimize(args):
    # the term kernel must not depend on assert statements
    plain = _run_python("-m", "schubring.cli", "compute", *args)
    optimized = _run_optimized("-m", "schubring.cli", "compute", *args)
    assert plain.returncode == 0, plain.stderr
    assert (optimized.returncode, optimized.stdout) == (0, plain.stdout), optimized.stderr


@pytest.mark.parametrize("lie_type, basis", [("C", "theta"), ("D", "eta")])
def test_expand_grassmannian_check_survives_optimize(lie_type, basis, tmp_path, capsys):
    # S_[1,3,2] is not invariant at level 1, so it has no theta/eta expansion
    code, out, _ = run_cli("compute", "--lie-type", lie_type, "--w", "[1,3,2]", capsys=capsys)
    assert code == 0
    path = tmp_path / "f.json"
    path.write_text(out)
    proc = _run_optimized("-m", "schubring.cli", "expand", "--in", str(path),
                          "--basis", basis, "--n", "1")
    assert proc.returncode == 3, (proc.stdout, proc.stderr)
    assert proc.stdout == ""
    assert "not in the level-1 invariant span" in proc.stderr


@pytest.mark.parametrize("check", [False, True])
def test_pfaffian_formula_precondition_survives_optimize(check):
    # [1,3,2] is not 1-Grassmannian: a precondition error, not a value
    proc = _run_optimized("-c", (
        "from schubring.schubert import pfaffian_formula\n"
        "from schubring.weyl import SignedPermutation\n"
        "try:\n"
        f"    pfaffian_formula(SignedPermutation((1, 3, 2), 'BC'), 1, check={check})\n"
        "except ValueError as exc:\n"
        "    print('ValueError:', exc)\n"
    ))
    assert proc.returncode == 0, (proc.stdout, proc.stderr)
    assert proc.stdout == "ValueError: (1, 3, 2) is not 1-Grassmannian\n"


def test_single_expansion_precondition_survives_optimize():
    proc = _run_optimized("-c", (
        "from schubring.gammaring import GammaElement\n"
        "from schubring.schubert import schubert_expand_single\n"
        "try:\n"
        "    schubert_expand_single(GammaElement.monomial(yk=(1,)))\n"
        "except ValueError as exc:\n"
        "    print('ValueError:', exc)\n"
    ))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ValueError: single expansion needs a y-free element\n"


def test_pfaffian_check_survives_optimize():
    # with every Pfaffian doubled, the Pfaffian formula check must still fail
    proc = _run_optimized("-c", (
        "import sys\n"
        "from schubring import schubert as sch\n"
        "from schubring.cli import main\n"
        "pf = sch.multi_schur_pfaffian\n"
        "sch.multi_schur_pfaffian = lambda *a, **k: pf(*a, **k) * 2\n"
        "sys.exit(main(['verify', '--suite', 'pfaffian-props']))\n"
    ))
    assert proc.returncode == 1, (proc.stdout, proc.stderr)
    assert "FAIL pfaffian-props/BC-m3-n0" in proc.stdout


@pytest.mark.parametrize("args", [
    ("--theta", "-1", "1"),
    ("--eta", "-1", "1", "0"),
    ("--lie-type", "C", "--w", "[2,-1]", "--restrict", "-1"),
])
def test_compute_rejects_negative_level_or_restrict(args, capsys):
    code, out, err = run_cli("compute", *args, capsys=capsys)
    assert (code, out) == (3, "")
    assert len(err.splitlines()) == 1 and "nonnegative" in err
    proc = _run_optimized("-m", "schubring.cli", "compute", *args)
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", err)


def test_compute_rejects_eta_level_zero(capsys):
    # the type of a D element is read from w(1), which means nothing at level 0
    args = ("--eta", "0", "1", "0")
    code, out, err = run_cli("compute", *args, capsys=capsys)
    assert (code, out) == (3, "")
    assert len(err.splitlines()) == 1 and "not 0" in err
    proc = _run_optimized("-m", "schubring.cli", "compute", *args)
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", err)


@pytest.mark.parametrize("lie_type, window, basis", [("C", "[-1]", "eta"), ("D", "[-2,-1]", "theta")])
def test_expand_rejects_other_family_before_work(lie_type, window, basis, tmp_path, monkeypatch,
                                                 capsys):
    from schubring import schubert as sch

    code, out, _ = run_cli("compute", "--lie-type", lie_type, "--w", window, capsys=capsys)
    assert code == 0
    path = tmp_path / "f.json"
    path.write_text(out)
    args = ("expand", "--in", str(path), "--basis", basis, "--n", "1")
    monkeypatch.setattr(sch, "theta_expand", lambda *a: pytest.fail("expansion ran"))
    code, out, err = run_cli(*args, capsys=capsys)
    assert (code, out) == (3, "")
    assert len(err.splitlines()) == 1 and f"--basis {basis}" in err
    proc = _run_optimized("-m", "schubring.cli", *args)
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", err)


def test_suite_names_match_verify_suites(capsys):
    from schubring import cli, verify

    assert sorted(cli.SUITE_NAMES) == sorted(verify.SUITES)
    code, out, _ = run_cli("verify", "--suite", "no-such-suite", capsys=capsys)
    assert (code, out) == (2, "")


def test_lean_import():
    import schubring

    proc = _run_python("-c", (
        "import schubring.cli, sys\n"
        "unused = ('dataclasses', 'hashlib', 'fractions', 'schubring.verify')\n"
        "print(sorted(m for m in unused if m in sys.modules))\n"
        "print(sorted(m[10:] for m in sys.modules if m.startswith('schubring.')))\n"
    ))
    assert proc.returncode == 0, proc.stderr
    absent, loaded = proc.stdout.splitlines()
    assert absent == "[]"
    for name in ("polyring", "gammaring", "raising", "schubert", "invariants", "weyl", "serialize"):
        # bench/tracer.py wraps these modules only when this import loads them
        assert repr(name) in loaded, name
    src = os.path.dirname(os.path.abspath(schubring.__file__))
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                assert "dataclass" not in fh.read(), name

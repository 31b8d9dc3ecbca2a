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
        doc = gamma_to_document(f, metadata={"w": list(win)})
        text = render_document(doc)
        doc2 = parse_document(text)
        assert render_document(doc2) == text
        assert document_to_gamma(doc2) == f


def test_latex_coefficients():
    from schubring.polyring import Dyadic

    f = GammaElement("b", {((2,), (), ()): Dyadic(1, 1), ((), (1,), ()): Dyadic(-3)})
    s = gamma_to_latex(f)
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
    path.write_text(render_document(gamma_to_document(level_c(2, 3, "c"))))
    code, out, _ = run_cli("expand", "--in", str(path), "--basis", "theta", "--n", "2", capsys=capsys)
    assert code == 0
    assert json.loads(out)["coefficients"] == {"[3]": 1}


@pytest.mark.parametrize("text", ["[]", '{"schema": 1}'])
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


def test_verify_output_sorted(capsys):
    code, out, _ = run_cli("verify", "--suite", "shapes", capsys=capsys)
    lines = [l.split(" ", 1)[1] for l in out.strip().splitlines()[:-1]]
    assert lines == sorted(lines)


def test_disk_cache_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setenv("SCHUBERT_CACHE_DIR", str(tmp_path))
    from schubring import schubert as sch
    from schubring.weyl import SignedPermutation

    fresh = sch.CachedTable()
    monkeypatch.setattr(sch, "_TABLE", fresh)
    w = SignedPermutation((3, -2, 1), "BC")
    val = sch.schubert_transition(w)
    assert any(p.suffix == ".json" for p in tmp_path.iterdir())
    # a second (cold) table reads the same value back from disk
    monkeypatch.setattr(sch, "_TABLE", sch.CachedTable())
    assert sch.schubert_transition(w) == val


def _check_damaged_entry_is_a_miss(damage, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SCHUBERT_CACHE_DIR", str(tmp_path))
    from schubring import schubert as sch

    args = ("compute", "--lie-type", "C", "--w", "[2,-1]", "--double")
    monkeypatch.setattr(sch, "_TABLE", sch.CachedTable())
    code, first, _ = run_cli(*args, capsys=capsys)
    assert code == 0
    entry = tmp_path / (sch._disk_key(("BC", (2, -1), "double")) + ".json")
    good = entry.read_text()
    entry.write_text(good[: len(good) // 2] if damage == "truncated" else damage)
    # a cold table meets the damaged entry, recomputes and rewrites it
    monkeypatch.setattr(sch, "_TABLE", sch.CachedTable())
    code, again, _ = run_cli(*args, capsys=capsys)
    assert code == 0
    assert again == first
    assert entry.read_text() == good
    assert not list(tmp_path.glob("*.tmp"))


def test_disk_cache_truncated_entry_is_a_miss(tmp_path, monkeypatch, capsys):
    _check_damaged_entry_is_a_miss("truncated", tmp_path, monkeypatch, capsys)


@pytest.mark.parametrize("damage", ["[]", '{"schema": 1}'])
def test_disk_cache_non_document_entry_is_a_miss(damage, tmp_path, monkeypatch, capsys):
    _check_damaged_entry_is_a_miss(damage, tmp_path, monkeypatch, capsys)


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


@pytest.mark.parametrize("window", ["[2,2]", "[-1,3]", "[0,1]"])
def test_window_validation_survives_optimize(window):
    proc = _run_optimized("-m", "schubring.cli", "compute", "--lie-type", "D", "--w", window)
    assert proc.returncode == 3, (proc.stdout, proc.stderr)
    assert proc.stdout == ""


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


def test_disk_cache_entry_under_old_name_is_a_miss(tmp_path, monkeypatch, capsys):
    import hashlib

    from schubring import schubert as sch

    # the sha256 file name of earlier versions, holding a wrong value
    key = ("BC", (2, -1), "double")
    old = hashlib.sha256(json.dumps(key, sort_keys=True).encode()).hexdigest()
    (tmp_path / (old + ".json")).write_text(render_document(gamma_to_document(GammaElement.const(7))))
    monkeypatch.setenv("SCHUBERT_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(sch, "_TABLE", sch.CachedTable())
    code, out, _ = run_cli("compute", "--lie-type", "C", "--w", "[2,-1]", "--double", capsys=capsys)
    assert code == 0
    monkeypatch.delenv("SCHUBERT_CACHE_DIR")
    monkeypatch.setattr(sch, "_TABLE", sch.CachedTable())
    assert run_cli("compute", "--lie-type", "C", "--w", "[2,-1]", "--double", capsys=capsys)[1] == out
    assert sch._disk_key(key) == "v2_BC_2_-1_double"
    assert (tmp_path / "v2_BC_2_-1_double.json").exists()


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

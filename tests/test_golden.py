"""Golden outputs: replay every compute/expand request recorded in
bench/expected.json in-process and compare the exit code and the sha256 of
stdout with the recorded ones; replay every recorded verify invocation and
compare its PASS ids with the recorded ones."""

import hashlib
import json
import os
import shlex

import pytest

from schubring.cli import main

EXPECTED = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "expected.json")
with open(EXPECTED) as fh:
    EXPECTED_DATA = json.load(fh)
RECORDS = EXPECTED_DATA["compute"]
CHECKS = EXPECTED_DATA["checks"]


def _replay(key, tmp_path, capsys):
    """(exit code, stdout) of one request; an expand request reads the
    stdout of its source request, replayed first, through a file."""
    args, _, source = key.partition(" < ")
    argv = shlex.split(args)
    if source:
        _, text = _replay(source, tmp_path, capsys)
        path = tmp_path / "source.json"
        path.write_text(text)
        argv += ["--in", str(path)]
    code = main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("key", sorted(RECORDS))
def test_golden_replay(key, tmp_path, capsys):
    code, out = _replay(key, tmp_path, capsys)
    assert code == RECORDS[key]["rc"]
    assert hashlib.sha256(out.encode()).hexdigest() == RECORDS[key]["sha256"]


@pytest.mark.parametrize("key", sorted(CHECKS))
def test_golden_verify_replay(key, capsys):
    """A recorded key is the ``verify --suite`` argument list, e.g. "braid --n 3"."""
    code = main(["verify", "--suite", *shlex.split(key)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert not [line for line in lines if line.startswith("FAIL")]
    passed = {line.split(" ", 1)[1] for line in lines if line.startswith("PASS ")}
    assert passed == set(CHECKS[key])

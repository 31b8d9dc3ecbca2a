"""Golden outputs: replay every compute/expand request recorded in
bench/expected.json in-process and compare the exit code and the sha256 of
stdout with the recorded ones."""

import hashlib
import json
import os
import shlex

import pytest

from schubring.cli import main

EXPECTED = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "expected.json")
with open(EXPECTED) as fh:
    RECORDS = json.load(fh)["compute"]

# each takes over 1 s in-process
SLOW = {
    "compute --lie-type B --w '[-4,-3,-2,-1]' --double --method both",
    "compute --lie-type C --w '[2,-4,1,-3]' --double --method both",
    "compute --lie-type D --w '[-1,-2,4,3]' --double --method divdiff",
}


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


@pytest.mark.parametrize(
    "key",
    [
        pytest.param(k, marks=pytest.mark.skip(reason="over 1 s in-process")) if k in SLOW else k
        for k in sorted(RECORDS)
    ],
)
def test_golden_replay(key, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("SCHUBERT_CACHE_DIR", raising=False)
    code, out = _replay(key, tmp_path, capsys)
    assert code == RECORDS[key]["rc"]
    assert hashlib.sha256(out.encode()).hexdigest() == RECORDS[key]["sha256"]

"""Write expected.json, the benchmark's correctness oracle.

    python3 bench/make_expected.py

Runs every compute/expand request of the compute pool once and records its
exit code and stdout sha256; runs every verify suite of the verify and
oracle workloads once and records its check ids, all of which must PASS.
Run it only on the commit that defines the expected outputs: the
benchmark counts any later difference as a failed request.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

from run import BENCH, program_env, spawn
from workloads import LIGHT, ORACLE_SEEDS, TAIL, VERIFY_SUITES, suite_key


def _run(args: list[str], env: dict, out: str) -> tuple[int, bytes]:
    rc, *_ = spawn([sys.executable, "-m", "schubring.cli", *args], env, out, out + ".err", 600)
    with open(out, "rb") as fh:
        return rc, fh.read()


def main() -> int:
    compute, checks = {}, {}
    with tempfile.TemporaryDirectory(dir=BENCH) as work:
        env = program_env(os.path.join(work, "cache"))
        outputs = {}
        # sources run before the expand requests that read their output
        for i, req in enumerate(sorted(dict.fromkeys(LIGHT + TAIL), key=lambda r: r.source is not None)):
            args = list(req.args)
            if req.source is not None:
                args += ["--in", outputs[req.source]]
            outputs[req.key] = os.path.join(work, f"{i}.out")
            rc, data = _run(args, env, outputs[req.key])
            compute[req.key] = {"rc": rc, "sha256": hashlib.sha256(data).hexdigest()}
            print(f"{rc} {req.key}", flush=True)
        env = program_env(None)
        suites = [(suite_key(s, extra), ["verify", "--suite", s, *extra]) for s, extra in VERIFY_SUITES]
        suites.append(("oracle", ["verify", "--suite", "oracle", "--seed", str(ORACLE_SEEDS[0])]))
        for suite, args in suites:
            rc, data = _run(args, env, os.path.join(work, f"{len(checks)}.out"))
            lines = data.decode().splitlines()
            if rc != 0 or not lines or any(not line.startswith("PASS ") for line in lines[:-1]):
                print(f"suite {suite} does not pass:\n{data.decode()}", file=sys.stderr)
                return 1
            checks[suite] = sorted(line[5:] for line in lines[:-1])
            print(f"{suite}: {len(checks[suite])} checks", flush=True)
    with open(os.path.join(BENCH, "expected.json"), "w") as fh:
        json.dump({"compute": compute, "checks": checks}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

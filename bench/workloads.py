"""Request lists of the benchmark's workloads.

Each workload turns (seed, seconds) into a deterministic list of CLI
requests.  The seed chooses the inputs; ``seconds`` sizes the list from
the request costs measured at the commit that defined the benchmark
(Python 3.11, 2-core x86-64 container), so one run does a fixed amount of
work and a faster program finishes it sooner.
"""

from __future__ import annotations

import random
import shlex
from dataclasses import dataclass


@dataclass(frozen=True)
class Request:
    """One CLI invocation: ``python -m schubring.cli *args``.

    ``key`` names the request in the correctness oracle.  An ``expand``
    request reads the stdout of the earlier request ``source`` through
    ``--in``.  ``check`` is ``"digest"`` (exit code and stdout sha256) or
    ``"checks"`` (a verify suite: every expected check id PASSes).
    """

    key: str
    args: tuple
    source: str | None = None
    check: str = "digest"
    cost_s: float = 0.0  # compute requests only: sizes the light draw


def _compute(args: str, cost_s: float = 0.0) -> Request:
    argv = ("compute", *shlex.split(args))
    return Request(shlex.join(argv), argv, cost_s=cost_s)


def _expand(source: Request, basis: str, n: int | None = None) -> Request:
    argv = ("expand", "--basis", basis) + (("--n", str(n)) if n is not None else ())
    return Request(f"{shlex.join(argv)} < {source.key}", argv, source=source.key)


# -- compute ------------------------------------------------------------------

# Sources of the expand requests: single (y-free) polynomials.
_SOURCES = {
    "c2": _compute('--lie-type C --w "[2,-1]"'),
    "c3": _compute('--lie-type C --w "[-2,3,-1]"'),
    "d3": _compute('--lie-type D --w "[2,-3,-1]"'),
    "b3": _compute('--lie-type B --w "[-3,1,2]"'),
    "t2": _compute('--theta 2 "2,1"'),
    "t1": _compute('--theta 1 "3,1"'),
    "e2": _compute('--eta 2 "2" 1'),
    "e1": _compute('--eta 1 "2,1" 1'),
}

# Requests dominated by interpreter start-up (about 0.13-0.45 s each), in
# order of popularity: the seed draws them with Zipf weights 1/rank, so
# popular ones repeat and their disk-cache keys are read back.  The ranking
# is fixed so that the mix, and with it the median request, does not
# depend on the seed.
LIGHT = tuple(_SOURCES.values()) + (
    _compute('--lie-type A --w "[3,1,2]" --double'),
    _compute('--lie-type A --w "[2,4,1,3]" --double'),
    _compute('--lie-type A --w "[4,3,2,1]"'),
    _compute('--lie-type A --w "[1,4,3,2]" --double --latex'),
    _compute('--lie-type B --w "[2,-1]" --double'),
    _compute('--lie-type B --w "[-2,3,-1]" --double --method both'),
    _compute('--lie-type B --w "[2,-4,1,-3]" --double'),
    _compute('--lie-type C --w "[2,-1]" --double'),
    _compute('--lie-type C --w "[-1]" --latex'),
    _compute('--lie-type C --w "[-2,3,-1]" --double --method divdiff'),
    _compute('--lie-type C --w "[3,-1,2]" --method both'),
    _compute('--lie-type C --w "[2,-4,1,-3]" --double'),
    _compute('--lie-type C --w "[-4,-3,-2,-1]" --double'),
    _compute('--lie-type C --w "[1,-3,2,-4]" --double --restrict 2'),
    _compute('--lie-type C --w "[-3,-1,2]" --double --restrict 1 --latex'),
    _compute('--lie-type D --w "[-2,3,-1]" --double --method both'),
    _compute('--lie-type D --w "[-1,-2,4,3]" --double'),
    _compute('--lie-type D --w "[-2,-1]" --double --latex'),
    _compute('--theta 1 "2,1" --double'),
    _compute('--theta 2 "2,1" --latex'),
    _compute('--eta 2 "2,2" 2 --double'),
    _compute('--eta 2 "2" 1 --latex'),
    _compute('--pfaffian "1,0" "-1,0" "3,1"'),
    _compute('--pfaffian "1,0" "-1,0" "3,1" --hatted'),
    _compute('--pfaffian "0,0,0" "0,0,0" "3,2,1"'),
    _compute('--pfaffian "1,1,0" "-1,0,1" "4,2,1" --hatted'),
    _compute('--pfaffian "0,0,0,0" "0,0,0,0" "4,3,2,1"'),
    _compute('--pfaffian "1,1,0,0" "0,-1,0,1" "5,3,2,1" --hatted'),
    _compute('--pfaffian "0,0,0,0,0" "0,0,0,0,0" "5,4,3,2,1"'),
    _expand(_SOURCES["c2"], "schubert-single"),
    _expand(_SOURCES["c3"], "schubert-single"),
    _expand(_SOURCES["d3"], "schubert-single"),
    _expand(_SOURCES["b3"], "schubert-single"),
    _expand(_SOURCES["t2"], "schubert-single"),
    _expand(_SOURCES["t2"], "theta", 2),
    _expand(_SOURCES["t1"], "theta", 1),
    _expand(_SOURCES["e2"], "eta", 2),
    _expand(_SOURCES["e1"], "eta", 1),
    _compute('--pfaffian "2,1,1,0,0" "-1,0,0,1,1" "6,4,3,2,1" --hatted'),
    _compute('--theta 3 "3,2,1" --double'),
    _compute('--theta 2 "3,2,1" --double --restrict 2'),
)
LIGHT_COST_S = 0.17

# Requests that do real ring work (0.8-5 s: rank-4 divided differences,
# level-3 theta/eta, long Pfaffians).  Every compute run issues the heaviest
# once and each of the others twice (the repeat reads the disk cache), so the
# run's total work does not depend on the seed, and the tail percentile
# falls in the middle of the repeated group rather than at its edge, where
# one request's noise would move it.
_MEDIUM = (
    _compute('--lie-type B --w "[-4,-3,-2,-1]" --double --method both', 1.3),
    _compute('--lie-type C --w "[-4,-3,-2,-1]" --double --method divdiff', 1.4),
    _compute('--lie-type D --w "[-1,-2,4,3]" --double --method divdiff', 1.4),
    _compute('--eta 3 "3,3,1" 1', 1.1),
    _compute('--eta 3 "3,3,1" 2', 1.0),
    _compute('--eta 2 "4,2,1" 1', 1.0),
    _compute('--theta 3 "4,2,1"', 0.93),
    _compute('--pfaffian "2,2,1,1,0" "-1,-1,0,0,1" "7,5,3,2,1" --hatted', 0.94),
    _compute('--theta 2 "4,2,1"', 0.8),
)
TAIL = (_compute('--lie-type C --w "[2,-4,1,-3]" --double --method both', 5.0),) + _MEDIUM * 2
MIN_LIGHT = 30


def compute_requests(seed: int, seconds: float) -> list[Request]:
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) for rank in range(len(LIGHT))]
    budget = seconds - sum(r.cost_s for r in TAIL)
    n_light = max(MIN_LIGHT, round(budget / LIGHT_COST_S))
    drawn = rng.choices(LIGHT, weights, k=n_light) + list(TAIL)
    rng.shuffle(drawn)
    by_key = {r.key: r for r in LIGHT}
    out, seen = [], set()
    for r in drawn:
        if r.source is not None and r.source not in seen:
            out.append(by_key[r.source])
            seen.add(r.source)
        out.append(r)
        seen.add(r.key)
    return out


# -- verify -------------------------------------------------------------------

# Eleven suites: with an odd count the median request of a run is one suite
# (pfaffian-props, next to orthogonality at about 0.2 s), not the midpoint
# between two suites of different cost.
VERIFY_SUITES = (
    ("shapes", ()),
    ("braid", ("--n", "3")),
    ("transitions-vs-divdiff", ("--n", "2")),
    ("transitions-vs-divdiff", ("--n", "3", "--max-length", "9")),
    ("pfaffian-props", ()),
    ("alternants", ()),
    ("kernel", ("--max-degree", "5")),
    ("hilbert", ("--n", "3")),
    ("orthogonality", ()),
    ("invariance", ("--max-degree", "5")),
    ("straightening", ()),
)
VERIFY_PASS_S = 16.7


def suite_key(suite: str, extra: tuple) -> str:
    return shlex.join((suite, *extra))


def verify_requests(seed: int, seconds: float) -> list[Request]:
    rng = random.Random(seed)
    out = []
    for _ in range(max(1, round(seconds / VERIFY_PASS_S))):
        order = list(VERIFY_SUITES)
        rng.shuffle(order)
        for suite, extra in order:
            args = ("verify", "--suite", suite, *extra)
            if suite == "braid":
                args += ("--seed", str(rng.randrange(1, 10**6)))
            out.append(Request(suite_key(suite, extra), args, check="checks"))
    return out


# -- oracle -------------------------------------------------------------------

# The oracle suite's cost depends on its --seed through the largest
# q_p(z_1..z_N) products it draws: 19 s on seed 7, 52 s on the default seed
# and 60 s on seed 1.  These seeds were measured at 15.3-16.2 s each (mean
# of three runs), so a run's work does not depend on the benchmark seed that
# picks them.
ORACLE_SEEDS = (989, 1449, 4, 1595, 1431)
ORACLE_COST_S = 15.8


def oracle_requests(seed: int, seconds: float) -> list[Request]:
    rng = random.Random(seed)
    count = max(1, round(seconds / ORACLE_COST_S))
    return [
        Request("oracle", ("verify", "--suite", "oracle", "--seed", str(rng.choice(ORACLE_SEEDS))),
                check="checks")
        for _ in range(count)
    ]


WORKLOADS = {
    "compute": compute_requests,
    "verify": verify_requests,
    "oracle": oracle_requests,
}

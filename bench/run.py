"""Benchmark of the schubring CLI: cold requests in a closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --steady K [--workload NAME] [--seed N] [--seconds S]

One client sends requests one at a time; each request is a fresh
``python -m schubring.cli`` process and the next starts when it exits,
which is how a CLI user pays for a run.  Every output is checked against
``expected.json``.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  A traced run first runs the same request list
untraced, then runs it with ``traced_cli.py`` wrapping the layers, and
reports the difference of the two wall times as the tracing overhead.

Timings are normalized for the host's speed: a fixed pure-Python probe
runs between requests, and each request of up to five seconds has its time
scaled by the probe's reference time over its time around the request (see
``host_probe``).
The results file keeps the raw timings too.  The benchmark pins itself and
its requests to one CPU so the probes sample the CPU the requests run on.

``--steady K`` runs each workload (or the one named) with K consecutive
seeds and prints the median, quartiles and spread of every end-to-end
metric next to its bound.

Each run writes ``results/<workload>-seed<N>-trace<T>.json`` beside this
file, with the commit, Python version, CPU count and load averages.
The program is run from ``src`` in the checkout; nothing is installed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict

from workloads import WORKLOADS, Request

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
RESULTS = os.path.join(BENCH, "results")
WORK = os.path.join(BENCH, "work")
SETUP_REPEATS = 5
# Seconds of one host_probe() on the host that defined the benchmark, in its
# usual (slower) state; see host_probe.
REF_PROBE_S = 0.0033
# Requests longer than this keep their raw time (see host_probe).
PROBE_HORIZON_S = 5.0
RUN_DEADLINE_S = 165.0
MODULES = ("polyring", "gammaring", "raising", "schubert", "invariants", "weyl", "serialize", "cli")


class SetupError(Exception):
    pass


# -- statistics ----------------------------------------------------------------


def tail_rank(n: int) -> tuple[int, float]:
    """Index into n sorted samples of the highest percentile that has at
    least ten samples beyond it, and that percentile.  With fewer than 11
    samples no such percentile exists and the maximum is used."""
    i = n - 11 if n >= 11 else n - 1
    return i, 100.0 * (i + 1) / n


def spread(values: list[float]) -> dict:
    """Median, quartiles and the quartile distance as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("inf")}


# -- host speed ------------------------------------------------------------------


def _probe_kernel() -> int:
    # dict of tuple keys with integer products, like the program's term loops
    a = {(i, j): (i * 7 + j) % 11 + 1 for i in range(12) for j in range(12)}
    b = list(a.items())[:100]
    out: dict = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b:
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, 0) + c1 * c2
    return len(out)


def host_probe(reps: int = 3) -> float:
    """Seconds for a fixed pure-Python kernel (best of ``reps``).

    A shared host changes speed under its other tenants: on the 2-vCPU host
    that defined this benchmark this probe took from 2.3 to 4.5 ms depending
    on the moment, a state that held for one to several seconds, and short
    requests moved with it (correlation about 0.9 with the probes around
    them).  A request up to PROBE_HORIZON_S long has its time multiplied by
    REF_PROBE_S over the mean of the probes just before and just after it,
    the time it would take on the reference host.  Longer requests keep
    their raw time: the probes at their ends do not sample the host during
    them, and scaling by them made those times noisier, not steadier.  The
    raw times are kept in the results file.  The probe does not touch the
    program, so a change to the program moves the normalized times as it
    moves the raw ones.
    """
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        _probe_kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def pin_to_one_cpu() -> None:
    """Keep the benchmark and its requests on one CPU, so that the probes
    sample the CPU the requests run on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


# -- running requests ------------------------------------------------------------


def program_env(cache_dir: str | None) -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("SCHUBERT_CACHE_DIR", None)
    if cache_dir is not None:
        env["SCHUBERT_CACHE_DIR"] = cache_dir
    return env


def spawn(argv: list[str], env: dict, out_path: str, err_path: str, timeout: float):
    """Run one process to completion; return (exit code, wall s, cpu s,
    peak RSS MB, timed out).  The child's own rusage gives cpu and RSS."""
    killed = threading.Event()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, killed.is_set()


def check_output(req: Request, rc: int, out: bytes, expected: dict) -> str | None:
    """None if the request's output is correct, else the reason it is not."""
    if req.check == "digest":
        exp = expected["compute"].get(req.key)
        if exp is None:
            return "no expected output recorded"
        if rc != exp["rc"]:
            return f"exit code {rc}, expected {exp['rc']}"
        if hashlib.sha256(out).hexdigest() != exp["sha256"]:
            return "stdout digest mismatch"
        return None
    ids = expected["checks"].get(req.key)
    if ids is None:
        return "no expected checks recorded"
    if rc != 0:
        return f"exit code {rc}, expected 0"
    lines = out.decode(errors="replace").splitlines()
    if any(line.startswith("FAIL") for line in lines):
        return "FAIL line"
    passed = {line[5:] for line in lines if line.startswith("PASS ")}
    if passed != set(ids):
        return f"check ids differ: missing {sorted(set(ids) - passed)[:3]}"
    if not lines or lines[-1] != f"{len(ids)}/{len(ids)} checks passed":
        return "summary line"
    return None


def run_list(requests: list[Request], expected: dict, work: str, deadline: float,
             cache: bool, traced: bool) -> tuple[list[dict], float]:
    """Closed loop over the list; returns per-request records and the wall
    time of the whole list, without the host probes taken between requests.
    Each record's ``speed`` is the factor that normalizes its times (see
    host_probe)."""
    os.makedirs(work)
    cache_dir = os.path.join(work, "cache") if cache else None
    env = program_env(cache_dir)
    latest_out: dict[str, str] = {}
    records = []
    t0 = time.perf_counter()
    probe_s = 0.0
    before = host_probe()
    for i, req in enumerate(requests):
        rec = {"key": req.key, "error": None}
        records.append(rec)
        remaining = deadline - time.monotonic()
        if remaining < 1.0:
            rec["error"] = "not started: run deadline"
            continue
        args = list(req.args)
        if req.source is not None:
            args += ["--in", latest_out[req.source]]
        if traced:
            rec["trace"] = os.path.join(work, f"{i}.trace.json")
            argv = [sys.executable, os.path.join(BENCH, "traced_cli.py"), rec["trace"], str(i), "--", *args]
        else:
            argv = [sys.executable, "-m", "schubring.cli", *args]
        out_path = os.path.join(work, f"{i}.out")
        err_path = os.path.join(work, f"{i}.err")
        rc, wall, cpu, rss, timed_out = spawn(argv, env, out_path, err_path, remaining)
        t1 = time.perf_counter()
        after = host_probe()
        probe_s += time.perf_counter() - t1
        latest_out[req.key] = out_path
        speed = 2 * REF_PROBE_S / (before + after) if wall <= PROBE_HORIZON_S else 1.0
        rec.update(rc=rc, wall_s=wall, cpu_s=cpu, rss_mb=rss, speed=speed)
        before = after
        if timed_out:
            rec["error"] = f"killed at the run deadline after {wall:.0f} s"
        else:
            with open(out_path, "rb") as fh:
                rec["error"] = check_output(req, rc, fh.read(), expected)
        if rec["error"] is not None:
            with open(err_path, "rb") as fh:
                rec["stderr"] = fh.read()[-400:].decode(errors="replace")
    return records, time.perf_counter() - t0 - probe_s


def measure_setup(repeats: int = SETUP_REPEATS) -> list[float]:
    """Wall times of fresh interpreters importing the CLI module, each
    normalized by the host probes around it."""
    if not os.path.isfile(os.path.join(ROOT, "src", "schubring", "cli.py")):
        raise SetupError(f"no program source under {os.path.join(ROOT, 'src')}")
    env = program_env(None)
    times = []
    before = host_probe()
    for _ in range(repeats):
        t0 = time.perf_counter()
        p = subprocess.run([sys.executable, "-c", "import schubring.cli"], cwd=ROOT, env=env,
                           stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                           stderr=subprocess.PIPE, timeout=60)
        wall = time.perf_counter() - t0
        after = host_probe()
        times.append(wall * 2 * REF_PROBE_S / (before + after))
        before = after
        if p.returncode != 0:
            raise SetupError(f"cannot import schubring.cli: {p.stderr.decode(errors='replace')[-400:]}")
    return times


# -- metrics ---------------------------------------------------------------------


def end_to_end(records: list[dict], wall: float, setup: list[float]) -> tuple[dict, dict]:
    """Host-normalized end-to-end metrics (see host_probe), and the same
    timings unnormalized under ``raw``."""
    ran = [r for r in records if "wall_s" in r]
    # the benchmark's own time between requests is left unnormalized
    between = wall - sum(r["wall_s"] for r in ran)

    def timings(scale) -> dict:
        walls = sorted(r["wall_s"] * scale(r) for r in ran) or [0.0]
        return {
            "wall_s": sum(walls) + between,
            "cpu_s": sum(r["cpu_s"] * scale(r) for r in ran),
            "req_p50_s": statistics.median(walls),
            "req_tail_s": walls[tail_rank(len(walls))[0]],
        }

    metrics = {
        "setup_s": statistics.median(setup),
        **timings(lambda r: r["speed"]),
        "peak_rss_mb": max((r["rss_mb"] for r in ran), default=0.0),
    }
    info = {"tail_percentile": tail_rank(max(len(ran), 1))[1], "samples": len(ran),
            "raw": timings(lambda r: 1.0)}
    return metrics, info


def _disk_usage(cache_dir: str) -> tuple[int, int]:
    if not os.path.isdir(cache_dir):
        return 0, 0
    names = os.listdir(cache_dir)
    return len(names), sum(os.path.getsize(os.path.join(cache_dir, n)) for n in names)


def layer_metrics(names: list[str], reports: list[dict], requests: list[Request],
                  cache_dir: str, overhead_s: float) -> tuple[dict, list[str]]:
    """Per-layer values for the metric names, from the traced requests'
    reports; returns the values and the names left out as absent."""
    calls, self_s, total_s, distinct = defaultdict(int), defaultdict(float), defaultdict(float), defaultdict(int)
    counters = defaultdict(lambda: defaultdict(int))
    absent, broken = set(), set()
    hits = misses = 0
    strictify_seen = False
    for rep in reports:
        for name, _parent, c, _s, ss in rep["agg"]:
            calls[name] += c
            self_s[name] += ss
        for name, s in rep["outer"].items():
            total_s[name] += s
        for name, box in rep["counters"].items():
            for k, v in box.items():
                counters[name][k] += v
        for name, n in rep["distinct"].items():
            distinct[name] += n
        absent.update(rep["absent"])
        broken.update(rep["hook_errors"])
        if rep["strictify"] is not None:
            strictify_seen = True
            hits += rep["strictify"][0]
            misses += rep["strictify"][1]
    all_self = sum(self_s.values())

    def module_self(mod: str) -> float:
        return sum(v for k, v in self_s.items() if k.split(".", 1)[0] == mod)

    files, nbytes = _disk_usage(cache_dir)
    seen, repeats = set(), 0
    for r in requests:
        repeats += r.key in seen
        seen.add(r.key)
    special = {
        "gammaring.strictify.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "schubert.disk.files": files,
        "schubert.disk.bytes": nbytes,
        "schubert.disk.repeat_frac": repeats / len(requests) if requests else 0.0,
        "cli.startup_s": statistics.median(r["startup_s"] for r in reports) if reports else 0.0,
        "trace.overhead_s": overhead_s,
    }
    values, missing = {}, []
    for metric in names:
        base, _, stat = metric.rpartition(".")
        if any(metric.startswith(a + ".") for a in absent) or (
            metric == "gammaring.strictify.hit_ratio" and not strictify_seen
        ):
            missing.append(metric)
        elif metric in special:
            values[metric] = special[metric]
        elif stat == "self_share":
            values[metric] = module_self(base) / all_self if all_self else 0.0
        elif base in MODULES and stat == "self_s":
            values[metric] = module_self(base)
        elif stat == "calls":
            values[metric] = calls[base]
        elif stat == "self_s":
            values[metric] = self_s[base]
        elif stat == "total_s":
            values[metric] = total_s[base]
        elif base in broken:
            missing.append(metric)
        elif stat == "reuse_ratio":
            values[metric] = 1 - distinct[base] / calls[base] if calls[base] else 0.0
        elif stat == "density":
            box = counters[base]
            values[metric] = box["nonzero"] / box["cells"] if box["cells"] else 0.0
        else:
            values[metric] = counters[base][stat]
    return values, missing


# -- one run ---------------------------------------------------------------------


def environment() -> dict:
    commit = None
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
    except (OSError, subprocess.SubprocessError):
        out = []
    # a checkout that is not itself a git work tree has no commit to record
    if len(out) == 2 and os.path.realpath(out[0]) == os.path.realpath(ROOT):
        commit = out[1]
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_once(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    """One benchmark run; returns the result record (also written to results/)."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    with open(os.path.join(BENCH, "expected.json")) as fh:
        expected = json.load(fh)
    result = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              **environment(), "loadavg_start": os.getloadavg()}
    requests = WORKLOADS[workload](seed, seconds)
    setup = measure_setup()
    work = os.path.join(WORK, f"{workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    cache = workload == "compute"
    try:
        records, wall = run_list(requests, expected, os.path.join(work, "plain"), deadline, cache, False)
        e2e, info = end_to_end(records, wall, setup)
        result.update(info)
        result["setup_runs_s"] = setup
        result["end_to_end"] = e2e
        if trace:
            traced_work = os.path.join(work, "traced")
            traced, traced_wall = run_list(requests, expected, traced_work, deadline, cache, True)
            reports = []
            for rec in traced:
                if os.path.exists(rec.get("trace", "")):
                    with open(rec["trace"]) as fh:
                        reports.append(json.load(fh))
            traced_wall = end_to_end(traced, traced_wall, setup)[0]["wall_s"]
            names = [m["name"] for m in spec["per_layer"]]
            layers, missing = layer_metrics(names, reports, requests, os.path.join(traced_work, "cache"),
                                            traced_wall - e2e["wall_s"])
            result["per_layer"] = layers
            result["absent"] = missing
            result["traced_wall_s"] = traced_wall
            result["spans"] = [s for rep in reports for s in rep["spans"]]
            records += traced
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:  # another run's directory is still there
            pass
    for rec in records:
        rec.pop("trace", None)
    result["requests"] = records
    result["attempted"] = len(records)
    result["failed"] = sum(r["error"] is not None for r in records)
    result["fail_frac"] = result["failed"] / len(records)
    result["loadavg_end"] = os.getloadavg()
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def contract_line(result: dict, spec: dict) -> str:
    kind = "per_layer" if result["trace"] else "end_to_end"
    values = result[kind]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[kind] if m["name"] in values}
    return json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def summary(result: dict) -> list[str]:
    lines = [
        f"workload {result['workload']} seed {result['seed']} trace {result['trace']}: "
        f"{result['attempted']} requests, {result['failed']} failed",
        f"fail_frac {result['fail_frac']:.4f}; req_tail_s is p{result['tail_percentile']:.1f} "
        f"of {result['samples']} untraced requests",
    ]
    lines.append("unnormalized: " + " ".join(f"{k}={v:.4g}" for k, v in result["raw"].items()))
    for rec in result["requests"]:
        if rec["error"] is not None:
            lines.append(f"FAILED {rec['key']}: {rec['error']}")
    if result["trace"]:
        lines.append(f"tracing overhead {result['per_layer'].get('trace.overhead_s', 0.0):.3f} s "
                     f"(traced {result['traced_wall_s']:.3f} s, untraced {result['end_to_end']['wall_s']:.3f} s)")
        if result["absent"]:
            lines.append("absent: " + " ".join(result["absent"]))
    return lines


# -- steadiness ------------------------------------------------------------------


def steady(workloads: list[str], first_seed: int, runs: int, seconds: float, spec: dict) -> bool:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for w in workloads:
        values = defaultdict(list)
        for seed in range(first_seed, first_seed + runs):
            res = run_once(w, seed, seconds, False, spec)
            print(f"{w} seed {seed}: failed {res['failed']}/{res['attempted']} "
                  + " ".join(f"{k}={v:.4g}" for k, v in res["end_to_end"].items()), flush=True)
            ok &= res["failed"] == 0
            for k, v in res["end_to_end"].items():
                values[k].append(v)
        table = {}
        for name, vals in values.items():
            s = spread(vals)
            s["bound"] = bounds.get(name)
            s["values"] = vals
            table[name] = s
            target = s["bound"] / 3 if s["bound"] is not None else None
            steady_enough = name == "setup_s" or target is None or s["spread"] <= target
            ok &= steady_enough
            print(f"  {w:8s} {name:12s} median {s['median']:.4g}  q1 {s['q1']:.4g}  q3 {s['q3']:.4g}  "
                  f"spread {s['spread']:.3f}  bound {s['bound']}  {'ok' if steady_enough else 'WIDE'}",
                  flush=True)
        os.makedirs(RESULTS, exist_ok=True)
        with open(os.path.join(RESULTS, f"steady-{w}.json"), "w") as fh:
            json.dump({"workload": w, "first_seed": first_seed, "runs": runs, "seconds": seconds,
                       **environment(), "metrics": table}, fh, indent=1)
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, metavar="K", help="runs per workload, one seed each")
    args = ap.parse_args(argv)
    pin_to_one_cpu()
    try:
        spec = load_spec()
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        if args.steady:
            names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
            return 0 if steady(names, args.seed, args.steady, seconds, spec) else 1
        if args.workload is None:
            ap.error("--workload is required")
        result = run_once(args.workload, args.seed, seconds, bool(args.trace), spec)
    except (SetupError, OSError) as e:
        print(f"benchmark set-up failed: {e}", file=sys.stderr)
        return 2
    for line in summary(result):
        print(line)
    print(contract_line(result, spec), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""kernelcalc benchmark launcher.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 12 --trace 0

Run from the root of a kernelcalc checkout (the directory holding `src/`
and `BENCHMARK.json`).  The launcher caps the BLAS thread pools at the
number of usable CPUs, runs the workload in a child process (worker.py)
that imports kernelcalc from `src/`, and prints:

- on stderr, a human-readable summary: every metric with its unit, the
  sample counts, the tail percentile, fail_frac and any failed checks;
- on stdout, one provenance line (`{"provenance": ...}`) and, as the last
  line, the result object `{"correct", "attempted", "failed", "metrics"}`.

With `--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json;
setup_s is the median over SETUP_REPS set-ups (extra set-up-only children
plus the measuring child).  With `--trace 1` they are the per-layer metrics
and the span file is written to `.perfbench/`.  Every result is also
appended to `.perfbench/results.jsonl`; summarize.py reports medians and
quartiles over it.  `--toy` shrinks every input for the self-test.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_REPS = 5
#: a child that has not finished by then is killed; the contract is 180 s
CHILD_TIMEOUT_S = 170.0
BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _child_env(nproc: int) -> dict:
    env = dict(os.environ)
    for var in BLAS_ENV:
        env[var] = str(nproc)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(extra: list[str], env: dict, deadline: float) -> dict:
    """Run worker.py to completion and return the JSON on its last line."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--t0", repr(t0), *extra]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker did not finish in time")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _provenance(args, nproc: int, declared: list[dict]) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "toy": args.toy,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "blas_thread_cap": nproc,
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "units": {m["name"]: m["unit"] for m in declared},
        "better": {m["name"]: m["better"] for m in declared},
    }


def _summary(prov: dict, raw: dict, metrics: dict, declared: list[dict]) -> str:
    lines = [f"kernelcalc benchmark: workload={prov['workload']} seed={prov['seed']} "
             f"trace={prov['trace']} commit={prov['git_commit'][:12]}"]
    for m in declared:
        lines.append(f"  {m['name']:<44} {metrics[m['name']]:>14.6g} {m['unit']}")
    attempted, failed = raw["attempted"], raw["failed"]
    lines.append(f"  {'fail_frac':<44} {failed / attempted:>14.6g} 1 "
                 f"({failed} of {attempted} tasks)")
    if not prov["trace"]:
        lines.append(f"  samples: {attempted} tasks in {raw['rounds']} rounds over "
                     f"{raw['timed_s']:.2f} s; task_tail_ms is "
                     f"p{raw['tail_percentile']:.1f}; setup_s is the median of "
                     f"{SETUP_REPS} set-ups")
        lines.append(f"  times are at reference speed; this machine ran at "
                     f"{1 / raw['speed_factor']:.3f} of it.  Wall-clock values:")
        for name, value in raw["wall_metrics"].items():
            lines.append(f"    {name:<42} {value:>14.6g}")
    for reason in raw["failures"]:
        lines.append(f"  FAILED {reason}")
    if raw["noted"]:
        lines.append(f"  {raw['noted']} answers passed with a note (see README):")
    for note in raw["notes"]:
        lines.append(f"  NOTE {note}")
    return "\n".join(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true", help="tiny inputs, for the self-test")
    args = p.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "kernelcalc" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no kernelcalc checkout at {ROOT} (need src/kernelcalc and "
              "BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    deadline = time.monotonic() + CHILD_TIMEOUT_S
    nproc = _nproc()
    env = _child_env(nproc)
    OUT_DIR.mkdir(exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.toy:
        common.append("--toy")
    try:
        if args.trace:
            trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            raw = _spawn(common + ["--trace-file", str(trace_file)], env, deadline)
        else:
            setups = [_spawn(common + ["--setup-only"], env, deadline)
                      for _ in range(SETUP_REPS - 1)]
            raw = _spawn(common, env, deadline)
            setups.append(raw)
            raw["metrics"]["setup_s"] = statistics.median(s["setup_s"] for s in setups)
            raw["wall_metrics"]["setup_s"] = statistics.median(s["setup_wall_s"] for s in setups)
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    missing = [m["name"] for m in declared if m["name"] not in raw["metrics"]]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: raw["metrics"][m["name"]] for m in declared}
    prov = _provenance(args, nproc, declared)
    result = {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    print(_summary(prov, raw, metrics, declared), file=sys.stderr)
    with open(OUT_DIR / "results.jsonl", "a") as fh:
        fh.write(json.dumps({"provenance": prov, **result,
                             "notes": raw["notes"],
                             "wall_metrics": raw.get("wall_metrics"),
                             "speed_factor": raw.get("speed_factor"),
                             "latencies": raw.get("latencies")}) + "\n")
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

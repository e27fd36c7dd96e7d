"""Runs one workload in this process and prints its raw numbers as JSON.

Started by run.py, which sets the BLAS thread caps and PYTHONPATH before
this process starts.  One client, closed loop: the next task starts when the
previous one has returned.

  --setup-only   import, parse, sample and build maps, then report setup_s
  --trace 0      timed phase: the whole rounds that take --seconds at the
                 usual speed (workloads.ROUND_SECONDS); timings are
                 reported at reference speed (calibrate.py)
  --trace 1      round 0 twice untraced (warm-up, then measured), then
                 round 0 again with spans on, then the fixed-size layer
                 probes (with spans off)
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import calibrate
import probes
import spans
import workloads

#: every run has at least this many tasks, so the tail percentile always
#: has 10 tasks beyond it and sits above the median
MIN_TASKS = 20


def _run_round(tasks, intervals: list, answers: list, speed, rec=None) -> None:
    """Run the tasks in order; append (start, end) of each and its answer."""
    for task in tasks:
        speed.maybe_sample()
        if rec is not None:
            rec.task += 1
            span = rec.open("task")
        t = time.perf_counter()
        try:
            answer = task.run()
        except Exception as exc:  # a raising task is a failed task, not a crash
            answer = exc
        intervals.append((t, time.perf_counter()))
        if rec is not None:
            rec.close(span)
        answers.append((task, answer))


def timed_phase(rounds, answers: list, rec=None) -> tuple[list[float], list[float]]:
    """Run the rounds of tasks closed loop, appending to `answers`.

    Returns the wall latencies and the latencies at reference speed (see
    calibrate.py)."""
    speed = calibrate.SpeedTrack()
    intervals: list[tuple[float, float]] = []
    for tasks in rounds:
        _run_round(tasks, intervals, answers, speed, rec)
    speed.maybe_sample(force=True)
    wall = [end - begin for begin, end in intervals]
    scaled = [(end - begin) / speed.factor(begin, end) for begin, end in intervals]
    return wall, scaled


def check_answers(answers) -> tuple[list[str], list[str]]:
    """Check every answer against its task's reference: (failures, notes)."""
    failures, notes = [], []
    for task, answer in answers:
        if isinstance(answer, Exception):
            reason = f"raised {type(answer).__name__}: {answer}"
        else:
            try:
                reason = task.check(answer)
            except Exception as exc:  # a malformed answer fails its check
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            found = notes if isinstance(reason, workloads.Note) else failures
            found.append(f"{task.kind}: {reason}")
    return failures, notes


def _check_fields(answers) -> dict:
    failures, notes = check_answers(answers)
    return {
        "attempted": len(answers),
        "failed": len(failures),
        "failures": failures[:20],
        "notes": notes[:20],
        "noted": len(notes),
    }


def planned_rounds(workload: str, seconds: float, tasks_per_round: int) -> int:
    """Rounds that take `seconds` at the usual speed, at least MIN_TASKS
    tasks.  The count depends only on the workload and --seconds, so every
    commit does the same work and the tail is the same percentile."""
    rounds = max(1, round(seconds / workloads.ROUND_SECONDS[workload]))
    return max(rounds, -(-MIN_TASKS // tasks_per_round))


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with 10 tasks beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


def _timing_metrics(latencies: list[float]) -> dict:
    return {
        "tasks_per_s": len(latencies) / sum(latencies),
        "task_p50_ms": 1e3 * statistics.median(latencies),
        "task_tail_ms": 1e3 * tail(latencies)[0],
    }


def run_untraced(pool, rounds: int) -> dict:
    answers: list = []
    wall, scaled = timed_phase([pool[r % len(pool)] for r in range(rounds)], answers)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = _timing_metrics(scaled)
    metrics["peak_rss_mb"] = peak_kb / 1024.0
    return {
        **_check_fields(answers),
        "rounds": rounds,
        "metrics": metrics,
        "wall_metrics": _timing_metrics(wall),
        "tail_percentile": tail(wall)[1],
        "timed_s": sum(wall),
        "speed_factor": sum(wall) / sum(scaled),
        "latencies": [[i // len(pool[0]), t.kind, w, s] for i, ((t, _), w, s)
                      in enumerate(zip(answers, wall, scaled))],
    }


def run_traced(workload: str, seed: int, toy: bool, trace_path: Path) -> dict:
    pool = workloads.build(workload, seed, toy)
    answers: list = []
    timed_phase([pool[0]], answers)  # warm-up: first calls of every path
    untraced_s = sum(timed_phase([pool[0]], answers)[1])

    rec = spans.Recorder()
    inst = spans.Instrumentation(rec)
    inst.install()
    try:
        traced_pool = workloads.build(workload, seed, toy)  # set-up is traced too
        traced_s = sum(timed_phase([traced_pool[0]], answers, rec)[1])
    finally:
        inst.uninstall()
    rec.write(trace_path)

    metrics = spans.layer_metrics(rec, inst)
    metrics["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    metrics.update(probes.run_all(toy))
    return {
        **_check_fields(answers),
        "rounds": 3,
        "metrics": metrics,
        "trace_file": str(trace_path),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--t0", type=float, required=True,
                   help="time.monotonic() of the launcher just before spawning")
    p.add_argument("--trace-file", type=Path)
    args = p.parse_args(argv)

    if args.trace:
        out = run_traced(args.workload, args.seed, args.toy, args.trace_file)
    else:
        pool = workloads.build(args.workload, args.seed, args.toy)
        setup_s = time.monotonic() - args.t0
        factor = calibrate.measure() / calibrate.NOMINAL_S
        out = {}
        if not args.setup_only:
            out = run_untraced(pool, planned_rounds(args.workload, args.seconds, len(pool[0])))
        out["setup_wall_s"] = setup_s
        out["setup_s"] = setup_s / factor
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

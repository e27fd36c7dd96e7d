"""Self-test of the benchmark at toy sizes.

    python3 perfbench/selftest.py

Checks that:
- one command per workload prints every end-to-end metric of BENCHMARK.json
  with its unit, with no failed task, and a traced run prints every
  per-layer metric;
- an answer that is deliberately wrong against its reference, or a task
  that raises, is counted in `failed` and so raises fail_frac;
- without a kernelcalc checkout the launcher exits non-zero and prints no
  result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(args, cwd=ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def _check_result(lines: list[str], declared: list[dict]) -> dict:
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"metrics differ: {set(got) ^ set(want)}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    return result


def test_every_metric_is_printed() -> None:
    for w in SPEC["workloads"]:
        rc, lines = _run(["--workload", w["name"], "--seed", "1", "--seconds", "1",
                          "--trace", "0", "--toy"])
        assert rc == 0, (w["name"], rc)
        result = _check_result(lines, SPEC["end_to_end"])
        assert result["correct"] and result["failed"] == 0, (w["name"], result)
        print(f"ok  {w['name']}: {len(result['metrics'])} end-to-end metrics, "
              f"{result['attempted']} tasks")
    rc, lines = _run(["--workload", "certify", "--seed", "1", "--seconds", "1",
                      "--trace", "1", "--toy"])
    assert rc == 0, rc
    result = _check_result(lines, SPEC["per_layer"])
    assert result["metrics"]["eig.calls"]["value"] > 0
    print(f"ok  traced certify: {len(result['metrics'])} per-layer metrics")


def _corrupt(answer):
    """A wrong answer of the same shape as the right one."""
    if isinstance(answer, tuple):  # CLI (exit code, JSON text)
        rc, text = answer
        rep = json.loads(text)
        rep["min_eig"] = rep["min_eig"] + 1.0
        return rc, json.dumps(rep)
    return answer + 0.5


def test_wrong_answer_raises_fail_frac() -> None:
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import worker
    import workloads

    picks = {"scan": "scan", "certify": "psd", "crosscheck": "fd", "sections": "norm"}
    for name, prefix in picks.items():
        pool = workloads.build(name, 1, toy=True)
        tasks = pool[0]
        victim = next(t for t in tasks if t.kind.startswith(prefix))
        if name == "certify":
            victim = next(t for t in tasks if t.kind.endswith("json"))
        right = victim.run
        victim.run = lambda right=right: _corrupt(right())
        answers: list = []
        latencies, _ = worker.timed_phase([tasks], answers)
        reasons, _ = worker.check_answers(answers)
        assert reasons, name
        assert len(reasons) / len(latencies) > 0
        victim.run = right

        def boom():
            raise RuntimeError("deliberate")

        tasks[0].run = boom
        answers = []
        worker.timed_phase([tasks], answers)
        assert any("deliberate" in r for r in worker.check_answers(answers)[0])
        print(f"ok  {name}: a wrong answer and a raising task count as failed "
              f"({reasons[0][:70]})")


def test_bare_directory_fails() -> None:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        rc, lines = _run(["--workload", "scan", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert rc != 0 and not lines, (rc, lines)
    print(f"ok  without src/kernelcalc the launcher exits {rc} and prints nothing")


if __name__ == "__main__":
    test_every_metric_is_printed()
    test_wrong_answer_raises_fail_frac()
    test_bare_directory_fails()
    print("selftest passed")

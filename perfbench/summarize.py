"""Median and quartiles of repeated benchmark runs.

    python3 perfbench/summarize.py [results.jsonl ...]

Reads the result lines run.py appends to `.perfbench/results.jsonl` (or the
files given), groups them by commit, workload and trace mode, and prints for
every metric the run count, median, first and third quartile and the
quartile spread as a share of the median, the way the acceptance rule reads
it (`statistics.quantiles(values, n=4)`).
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

DEFAULT = Path(__file__).resolve().parent.parent / ".perfbench" / "results.jsonl"


def summarize(lines) -> dict:
    groups: dict = defaultdict(lambda: defaultdict(list))
    for line in lines:
        rec = json.loads(line)
        prov = rec["provenance"]
        key = (prov["git_commit"][:12], prov["workload"], prov["trace"], prov["toy"])
        for name, m in rec["metrics"].items():
            groups[key][(name, m["unit"])].append(m["value"])
        groups[key][("fail_frac", "1")].append(rec["failed"] / rec["attempted"])
    return groups


def main(argv=None) -> int:
    paths = [Path(p) for p in (argv if argv is not None else sys.argv[1:])] or [DEFAULT]
    lines = [ln for p in paths for ln in p.read_text().splitlines() if ln.strip()]
    for (commit, workload, trace, toy), metrics in sorted(summarize(lines).items()):
        print(f"{commit} {workload} trace={trace}{' toy' if toy else ''}")
        for (name, unit), values in metrics.items():
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:<44} n={len(values):<3} median {med:<12.6g} "
                  f"q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:.3f} {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

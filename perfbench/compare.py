"""Compare benchmark result records of two trees.

    python3 perfbench/compare.py --base base/*.json --new new/*.json

Each record is a file ``run.py`` wrote under
``.bench_build/perfbench/results/``.  Records are grouped by workload and
trace mode; each side's median is taken per metric.  An end-to-end
metric whose median worsened by more than its ``BENCHMARK.json`` bound is
a regression; one whose base runs spread wider than the bound, or that
has fewer than four base records to measure the spread on, is
unresolved.  Records that differ in kernel tier, CPU count, Python or
numpy version are reported as not comparable instead of being compared.
Exits 1 if any regression or incorrect record is found.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: provenance fields two records must share to be compared
COMPARABLE = ("kernel_tier", "nproc", "python", "numpy", "machine")


def _load(paths: list[str]) -> dict[tuple[str, int], list[dict]]:
    groups: dict[tuple[str, int], list[dict]] = defaultdict(list)
    for path in paths:
        rec = json.loads(Path(path).read_text())
        prov = rec["provenance"]
        groups[(prov["workload"], prov["trace"])].append(rec)
    return groups


def _spread(values: list[float]) -> float:
    if len(values) < 4:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("nan")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="perfbench/compare.py", description=__doc__.split("\n\n")[0])
    p.add_argument("--base", nargs="+", required=True, help="records of the parent tree")
    p.add_argument("--new", nargs="+", required=True, help="records of the changed tree")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    base, new = _load(args.base), _load(args.new)
    bad = False
    for key in sorted(set(base) | set(new)):
        workload, trace = key
        a, b = base.get(key, []), new.get(key, [])
        print(f"{workload} trace={trace}: {len(a)} base vs {len(b)} new records")
        if not a or not b:
            print("  one side has no records")
            continue
        envs = {tuple(r["provenance"][f] for f in COMPARABLE) for r in a + b}
        if len(envs) > 1:
            print(f"  not comparable: {', '.join(COMPARABLE)} differ: {sorted(envs)}")
            continue
        for side, recs in (("base", a), ("new", b)):
            wrong = [r["provenance"]["seed"] for r in recs if r["failed"] or r["problems"]]
            if wrong:
                bad = True
                print(f"  {side}: incorrect outputs on seeds {wrong}")
        for name in a[0]["metrics"]:
            va = statistics.median(r["metrics"][name]["value"] for r in a)
            vb = statistics.median(r["metrics"][name]["value"] for r in b)
            change = (vb - va) / va if va else float("nan")
            worse = change if better[name] == "lower" else -change
            verdict = ""
            if name in bounds:
                spread = _spread([r["metrics"][name]["value"] for r in a])
                if math.isnan(spread):
                    verdict = "unresolved (base spread unknown: under 4 records)"
                elif spread > bounds[name]:
                    verdict = f"unresolved (base spread {spread:.3f} > bound)"
                elif worse > bounds[name]:
                    verdict = f"REGRESSION (bound {bounds[name]})"
                    bad = True
                else:
                    verdict = f"within bound {bounds[name]}"
            unit = a[0]["metrics"][name]["unit"]
            print(f"  {name:<30} {va:>14.6g} -> {vb:<14.6g} {unit:<12} {change:+8.2%}  {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

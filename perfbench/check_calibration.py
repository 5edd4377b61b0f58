"""Check that a slowdown of the program comes through the calibration.

    python3 perfbench/check_calibration.py [--seconds 40]

Reference seconds (``calibrate.py``) are only the program's own if the
calibration kernel does not slow down with the program.  This script
injects a known slowdown into every ``step`` of a workload and switches
it on and off in ``BLOCK_S`` blocks within one run, longer than the
window a unit's factor is taken from, so the host's own drift falls on
both sides alike.  It prints the slowdown of the median unit in host
seconds and in reference seconds, and how far the factor moved.  The
two slowdowns must match and the factor must stay put; the numbers of
the last check are in ``spec.json`` under ``calibration_check``.

Injections: ``busy`` spins a fixed time per step; ``memory`` adds 1 to
an 8 MB array per step, which evicts the kernel's data from the caches;
``heap`` keeps 2000 new tuples per step alive (the last 400 000), which
the collector would scan when the kernel allocates.
"""

from __future__ import annotations

import argparse
import collections
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.core.columnar import ColumnarEngine  # noqa: E402
from repro.core.engine import Engine  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from calibrate import Calibrator  # noqa: E402

#: host seconds the injection stays on, then off
BLOCK_S = 1.5
#: (workload, engine class, busy seconds per step)
CASES = (
    ("scale_quiet", ColumnarEngine, 0.00025),
    ("paper_quality", Engine, 0.0005),
)


def check(name: str, cls: type, busy_s: float, kind: str, seconds: float) -> dict:
    big = np.zeros(1_000_000)
    kept: collections.deque = collections.deque(maxlen=400_000)
    flags: list[bool] = []
    step = cls.step

    def injected(self, actions):
        on = int(time.perf_counter() / BLOCK_S) % 2 == 1
        flags.append(on)
        if on and kind == "busy":
            until = time.perf_counter() + busy_s
            while time.perf_counter() < until:
                pass
        elif on and kind == "memory":
            big.__iadd__(1.0)
        elif on:
            kept.extend((i, str(i)) for i in range(2000))
        return step(self, actions)

    cls.step = injected
    try:
        wl = workloads.WORKLOADS[name](1)
        cal = Calibrator(run.SPEC["workloads"][name]["calibration"])
        phase = run.measure(wl, wl.prepare(0), seconds=seconds, cal=cal)
    finally:
        cls.step = step
    factors = [cal.factor_at(start) for start in phase.starts]
    medians = {}
    for on in (False, True):
        rows = [(t, f) for t, f, o in zip(phase.times, factors, flags) if o == on]
        medians[on] = (
            statistics.median(t for t, _ in rows),
            statistics.median(t * f for t, f in rows),
            statistics.median(f for _, f in rows),
        )
    off, on = medians[False], medians[True]
    return {
        "workload": name,
        "injection": kind,
        "host_slowdown": on[0] / off[0],
        "reference_slowdown": on[1] / off[1],
        "factor_ratio": on[2] / off[2],
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seconds", type=float, default=40.0)
    args = p.parse_args(argv)
    for name, cls, busy_s in CASES:
        for kind in ("busy", "memory", "heap"):
            r = check(name, cls, busy_s, kind, args.seconds)
            print(
                f"{name:<14} {kind:<7} median unit x{r['host_slowdown']:.3f} host, "
                f"x{r['reference_slowdown']:.3f} reference; factor x{r['factor_ratio']:.3f}",
                flush=True,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())

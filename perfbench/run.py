"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper_quality --seed 0 --seconds 10 --trace 0

Run from anywhere inside a checkout of the repository: the program is
imported from ``src/`` next to this directory, so there is nothing to
build (the C kernels of ``repro.core.rngadvance`` compile on first use
into ``.bench_build/perfbench/tmp``).  Everything the run writes stays
under ``.bench_build/perfbench/``.

``--trace 0`` measures whole cycles of the workload (see
``workloads.py``) until ``--seconds`` of measured time have passed and
prints the end-to-end metrics of ``BENCHMARK.json``.  Unit times and
rates are in reference seconds, host seconds scaled by a calibration
kernel sampled between units (``calibrate.py``); the record keeps the
host readings.  ``setup_s`` is the median over several fresh processes
of the time from process start to the first timed unit, scaled by the
run's median calibration sample.  ``--trace 1`` repeats the same cycles a second
time with spans, profiler sections and counters attached and prints the
per-layer metrics instead.  Both check every simulated output against a
reference outside the timed phase.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Workload facts (unit, tail percentile, seeds, the layer predictions)
live in ``spec.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
SPEC = json.loads((HERE / "spec.json").read_text())
#: unit-time percentiles written to the result record
QUANTILES = (50, 75, 90, 95, 97, 98, 99, 99.5, 99.7, 99.9)


def _parse(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.split("\n\n")[0]
    )
    p.add_argument(
        "--workload", required=True, choices=[*SPEC["workloads"], "all"],
        help="one workload, or all of them in turn",
    )
    p.add_argument("--seed", type=int, default=SPEC["seeds"]["default"])
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one fresh-process set-up for the setup_s samples
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


# -- set-up -------------------------------------------------------------------


def setup(name: str, seed: int):
    """Imports, kernel load + probe, and the workload's one-time inputs."""
    sys.path.insert(0, str(SRC))
    import numpy as np

    from repro.core.rngadvance import PermutationSkipper

    import workloads

    tier = PermutationSkipper(np.random.default_rng(0)).tier
    wl = workloads.WORKLOADS[name](seed)
    return wl, wl.prepare(0), tier


def setup_samples(args: argparse.Namespace) -> list[float]:
    """Host seconds from spawning a fresh interpreter to its first timed
    unit.  The probes run in their own processes, so the calibration
    kernel, which runs in this one, cannot slow down with them."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-probe",
    ]
    samples = []
    for _ in range(SPEC["setup_repeats"]):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            child.communicate(timeout=120)
        if child.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed (exit {child.returncode})")
        samples.append(elapsed)
    return samples


# -- measurement --------------------------------------------------------------


class Phase:
    """One measured phase: units, measured wall time, cycles run."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.starts: list[int] = []
        self.wall = 0.0
        self.cycles = 0
        self.lost_units = 0
        self.errors: list[str] = []
        # per timed block (each cycle, then the end-of-phase finish):
        # start stamp, host seconds and units run, for the reference wall
        self.blocks: list[tuple[int, float, int]] = []


def measure(
    wl, inputs, *, seconds: float | None = None, cycles: int | None = None, cal=None
) -> Phase:
    """Run cycles until ``seconds`` of measured time have passed at a
    round boundary (or exactly ``cycles`` cycles).  Input preparation and
    the calibration samples ``cal`` takes between units are not timed."""
    phase = Phase()
    spans = wl.spans
    if cal is not None:
        wl.between = cal.maybe
        cal.sample()
    try:
        while True:
            if cal is not None:
                cal.maybe()
                spent = cal.spent
            t0 = time.perf_counter_ns()
            with spans.span("cycle"):
                units = wl.run_cycle(phase.cycles, inputs)
            dt = (time.perf_counter_ns() - t0) / 1e9
            if cal is not None:
                dt -= cal.spent - spent
            phase.blocks.append((t0, dt, len(units)))
            phase.wall += dt
            phase.starts.extend(start for start, _ in units)
            phase.times.extend(seconds_ for _, seconds_ in units)
            phase.cycles += 1
            if phase.cycles == cycles or (
                cycles is None
                and phase.wall >= seconds
                and phase.cycles % wl.round_size == 0
            ):
                break
            inputs = wl.prepare(phase.cycles)
        t0 = time.perf_counter_ns()
        with spans.span("finish"):
            wl.finish()
        dt = (time.perf_counter_ns() - t0) / 1e9
        phase.blocks.append((t0, dt, 0))
        phase.wall += dt
    except Exception:
        # a unit that raises is counted as failed, and the run still reports
        traceback.print_exc()
        phase.errors.append(f"cycle {phase.cycles} raised")
        phase.lost_units += wl.units_per_cycle()
    if cal is not None:
        cal.sample()
    return phase


def check(wl, reference: dict, units: int) -> tuple[int, list[str]]:
    """Failed-unit count and problems from the workload's reference."""
    try:
        failed, problems = wl.verify(reference)
    except Exception:
        traceback.print_exc()
        return units, ["reference check raised"]
    return len(failed), problems


def tail(times: list[float], pct: float) -> tuple[float, float]:
    """The declared tail percentile, or — when fewer than ten samples lie
    beyond it — the highest percentile that has ten beyond it."""
    import numpy as np

    n = len(times)
    if n * (1 - pct / 100) >= 10:
        return float(np.percentile(times, pct)), pct
    if n < 11:
        return max(times), 100.0
    return sorted(times)[n - 11], 100.0 * (n - 10) / n


def cycle_tail(
    blocks: list[tuple[int, float, int]], times: list[float], pct: float
) -> tuple[float, float]:
    """Geometric mean over the measured cycles of each cycle's ``tail``.

    For a workload whose cycles differ in kind, as paper_quality's seven
    configs do, a tail pooled over all units is set by the few layouts
    of the heaviest kind and moves with the seed; this weights every
    cycle alike.  Returns the value and the lowest percentile used."""
    import numpy as np

    logs, used, i = [], 100.0, 0
    for _, _, units in blocks:
        if units:
            value, pct_used = tail(times[i:i + units], pct)
            logs.append(np.log(value))
            used = min(used, pct_used)
        i += units
    return float(np.exp(np.mean(logs))), used


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- provenance ---------------------------------------------------------------


def provenance(args: argparse.Namespace, tier: str) -> dict:
    import numpy as np

    rev = dirty = None
    if (ROOT / ".git").exists():
        try:
            git = ["git", "-C", str(ROOT)]
            rev = subprocess.run(
                git + ["rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
            dirty = bool(subprocess.run(
                git + ["status", "--porcelain", "--untracked-files=no"],
                capture_output=True, text=True, timeout=30,
            ).stdout.strip())
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "git_rev": rev,
        "git_dirty": dirty,
        "src_sha256": h.hexdigest()[:16],
        "kernel_tier": tier,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


# -- metric values -------------------------------------------------------------


class Tally:
    """Units attempted and failed, with the problems found."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, phase: Phase) -> None:
        self.attempted += len(phase.times) + phase.lost_units
        self.fail(phase.lost_units, phase.errors)

    def fail(self, units: int, problems: list[str]) -> None:
        self.failed += units
        self.problems += problems

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def timed_values(wl, phase: Phase, setup, cal, rss: float, wspec: dict, record: dict) -> dict:
    """End-to-end metric values in reference seconds (see
    ``calibrate.py``; the host readings go into ``record``).  Units are
    converted at their own factors; set-up, which ran in other processes
    just before the measured phase, at the run's median sample."""
    import numpy as np

    from calibrate import REFERENCE_S

    host_setup = statistics.median(setup)
    record.update({
        "setup_host_s": setup,
        "calibration_s": cal.samples,
        "host": {"setup_s": host_setup},
    })
    setup_s = host_setup * REFERENCE_S / statistics.median(cal.samples)
    if not phase.times:
        return {"setup_s": setup_s, "peak_rss_mb": rss}
    factors = [cal.factor_at(start) for start in phase.starts]
    ref_times = [t * f for t, f in zip(phase.times, factors)]
    # each unit at its own factor, the rest of a block (input hand-over,
    # the end-of-phase finish) at the factor of the block's start
    ref_wall, i = 0.0, 0
    for start, dt, units in phase.blocks:
        times = phase.times[i:i + units]
        ref_wall += sum(ref_times[i:i + units]) + (dt - sum(times)) * cal.factor_at(start)
        i += units
    pct = wspec["tail_percentile"]
    if wspec.get("tail_per_cycle"):
        host_tail, tail_pct = cycle_tail(phase.blocks, phase.times, pct)
        ref_tail, _ = cycle_tail(phase.blocks, ref_times, pct)
    else:
        host_tail, tail_pct = tail(phase.times, pct)
        ref_tail, _ = tail(ref_times, pct)
    record.update({
        "samples": len(phase.times),
        "tail_percentile": tail_pct,
        "tail_per_cycle": bool(wspec.get("tail_per_cycle")),
        "reference_factor": statistics.median(factors),
        "unit_quantiles_host_s": {
            str(q): float(np.percentile(phase.times, q)) for q in QUANTILES
        },
        "unit_quantiles_reference_s": {
            str(q): float(np.percentile(ref_times, q)) for q in QUANTILES
        },
    })
    record["host"].update({
        "proc_ticks_per_s": wl.proc_ticks / phase.wall,
        "unit_s.p50": statistics.median(phase.times),
        "unit_s.tail": host_tail,
    })
    return {
        "setup_s": setup_s,
        "proc_ticks_per_s": wl.proc_ticks / ref_wall,
        "unit_s.p50": statistics.median(ref_times),
        "unit_s.tail": ref_tail,
        "peak_rss_mb": rss,
    }


def traced_values(args, wl, phase: Phase, tally: Tally, prov: dict, record: dict) -> dict:
    """Repeat the untraced run's cycles with spans, profiler and counters
    attached; check the outputs match; return the per-layer values."""
    import workloads

    traced = workloads.WORKLOADS[args.workload](args.seed, traced=True)
    tphase = measure(traced, traced.prepare(0), cycles=phase.cycles)
    tally.add(tphase)
    if traced.digests != wl.digests:
        mismatched = sum(a != b for a, b in zip(traced.digests, wl.digests))
        mismatched += abs(len(traced.digests) - len(wl.digests))
        tally.fail(max(mismatched, 1), [
            f"traced run differs from the untraced run in {mismatched} outputs"
        ])
    sections = traced.profiler.as_dict()
    record.update({
        "traced_s": tphase.wall,
        "spans": traced.spans.totals(),
        "sections_ns": sections,
    })
    (OUT / "trace").mkdir(parents=True, exist_ok=True)
    (OUT / "trace" / f"{args.workload}-seed{args.seed}.json").write_text(json.dumps({
        "provenance": prov,
        "span_columns": ["name", "start_ns", "end_ns", "parent"],
        "spans": traced.spans.rows,
        "sections_ns": sections,
    }))
    values = {**span_metrics(traced), **traced.layer_metrics()}
    values["trace.overhead_ratio"] = tphase.wall / phase.wall if phase.wall else 0.0
    return values


# -- per-layer metrics ---------------------------------------------------------


def span_metrics(wl) -> dict[str, float]:
    """Layer metrics read off the benchmark's own spans."""
    spans = wl.spans.totals()

    def get(name: str, field: str = "total_s") -> float:
        return spans.get(name, {}).get(field, 0)

    return {
        "workload.actions.s": get("workload.actions"),
        "workload.actions.calls": get("workload.actions", "calls"),
        "engine.step.s": get("step"),
        "engine.step.calls": get("step", "calls"),
        "driver.snapshot.s": get("loads_snapshot"),
        "driver.run_self.s": get("run", "self_s"),
        "collector.add.s": get("collector.add"),
        "collector.reduce.s": get("collector.reduce"),
        "render.s": get("render"),
        "async.run.s": get("async.run"),
        "unattributed.s": get("cycle", "self_s") + get("finish", "self_s"),
    }


# -- main ----------------------------------------------------------------------


def run_all(args: argparse.Namespace) -> int:
    """Run every workload in its own process; print each one's report and
    a last line whose metrics are keyed ``<workload>/<metric>``."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in SPEC["workloads"]:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"perfbench: {name} exited {out.returncode}", file=sys.stderr)
            return out.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(summary))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}; nothing to measure",
              file=sys.stderr)
        return 2
    # the C-kernel cache and compiler scratch files stay in the checkout
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(OUT / "tmp")

    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wspec = SPEC["workloads"][args.workload]
    setup_times = setup_samples(args) if args.trace == 0 else None
    wl, inputs, tier = setup(args.workload, args.seed)
    from calibrate import Calibrator

    reference = json.loads((HERE / "reference.json").read_text()).get(args.workload, {})
    prov = provenance(args, tier)

    tally = Tally()
    cal = Calibrator(wspec["calibration"])
    phase = measure(wl, inputs, seconds=args.seconds, cal=cal)
    rss = peak_rss_mb()
    tally.add(phase)
    tally.fail(*check(wl, reference, len(phase.times)))
    record: dict = {"provenance": prov, "cycles": phase.cycles, "measured_s": phase.wall}
    if args.trace == 0:
        values = timed_values(wl, phase, setup_times, cal, rss, wspec, record)
        specs = bench["end_to_end"]
    else:
        values = traced_values(args, wl, phase, tally, prov, record)
        specs = bench["per_layer"]

    metrics = {
        m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in specs
    }
    record.update({
        "metrics": metrics,
        "absent_layers": [m["name"] for m in specs if m["name"] not in values],
        "attempted": tally.attempted,
        "failed": tally.failed,
        "error_rate": tally.error_rate,
        "problems": tally.problems,
        "checked_by": wl.checked_by,
    })
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    result_path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1))

    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
        f"tier={tier} nproc={prov['nproc']} python={prov['python']} "
        f"numpy={prov['numpy']} rev={prov['git_rev']} dirty={prov['git_dirty']}"
    )
    print(f"  unit: {wspec['unit']}")
    for name, m in metrics.items():
        print(f"  {name:<30} {m['value']:>16.6g} {m['unit']}")
    if "samples" in record:
        over = (f"in each of {phase.cycles} cycles, geometric mean"
                if record["tail_per_cycle"] else f"of {record['samples']} samples")
        print(f"  {'unit_s.tail percentile':<30} {record['tail_percentile']:>16.6g} ({over})")
        print(f"  {'reference s per host s':<30} {record['reference_factor']:>16.6g} "
              f"(median over units; {len(cal.samples)} calibration samples)")
        for name, value in record["host"].items():
            print(f"  {name + ' (host)':<30} {value:>16.6g}")
    print(f"  {'error_rate':<30} {tally.error_rate:>16.6g} "
          f"({tally.failed} of {tally.attempted} units)")
    if wl.checked_by:
        print(f"  {'outputs checked by':<30} "
              + ", ".join(f"{how} {n}" for how, n in sorted(wl.checked_by.items())))
    for line in tally.problems[:20]:
        print(f"  problem: {line}")
    print(f"  record: {result_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

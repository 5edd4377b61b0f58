"""The benchmark's composed units equal the program's own entry points.

    python3 -m pytest perfbench/test_perfbench.py -q

The workloads compose ``run_simulation``, ``service_run`` and the
dynamics cell call by call so that spans can sit between the calls.
These tests keep that composition from drifting off the paths users
run, and check that the references catch a wrong output.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from repro.experiments.config import QualityConfig  # noqa: E402
from repro.experiments.dynamics import DynamicsConfig, dynamics_experiment  # noqa: E402
from repro.experiments.runner import quality_experiment  # noqa: E402
from repro.service import service_run  # noqa: E402

import run  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    ChurnSweep,
    PaperQuality,
    ScaleQuiet,
    ServiceFlash,
    digest,
    sub_seed,
)

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _cycles(wl, rounds: int):
    for k in range(rounds * wl.round_size):
        wl.run_cycle(k, wl.prepare(k))
    wl.finish()
    return wl


def _config0_runs(wl, runs: int):
    """Runs ``0..runs-1`` of the first config (delta=1, f=1.1, C=4)."""
    for r in range(runs):
        k = r * wl.round_size
        wl.run_cycle(k, wl.prepare(k))
    return wl


def test_paper_quality_runs_fold_to_quality_experiment():
    wl = _config0_runs(PaperQuality(3), 3)
    got = wl._result(0)
    want = quality_experiment(
        QualityConfig(f=1.1, delta=1, C=4, seed=sub_seed(3, 0), runs=3),
        backend="native",
        jobs=1,
    )
    for field in ("mean", "min", "max", "mean_spread"):
        np.testing.assert_array_equal(
            getattr(got.envelope, field), getattr(want.envelope, field)
        )
    for tick, snap in want.snapshots.items():
        for key, value in snap.items():
            np.testing.assert_array_equal(got.snapshots[tick][key], value)
    assert [c.as_tuple() for c in got.counters] == [c.as_tuple() for c in want.counters]
    assert (got.mean_ops, got.mean_migrated) == (want.mean_ops, want.mean_migrated)
    np.testing.assert_array_equal(got.final_rel_spreads, want.final_rel_spreads)
    assert wl.verify({}) == (set(), [])


def test_paper_quality_oracle_catches_a_wrong_run():
    wl = _config0_runs(PaperQuality(3), 1)
    wl.runs[0].loads_digest = "0" * 16
    failed, problems = wl.verify({})
    assert len(failed) == 500 and "loads" in problems[0]


def test_churn_grid_equals_dynamics_experiment():
    wl = _cycles(ChurnSweep(3), 1)
    want = dynamics_experiment(DynamicsConfig(seed=sub_seed(3, 0)), backend="native", jobs=1)
    assert [digest(c) for c in wl.cells] == [digest(c) for c in want["cells"]]
    assert wl.verify({}) == (set(), [])


def test_service_episodes_equal_service_run():
    wl = _cycles(ServiceFlash(3), 2)
    for cfg, doc in zip(wl.configs, wl.docs):
        assert digest(doc) == digest(service_run(cfg, chaos=True).doc)
    assert wl.verify({}) == (set(), [])
    failed, problems = wl.verify({"3": ["0" * 16]})
    assert failed == {0} and "committed" in problems[0]


def test_units_past_the_committed_digests_are_replayed():
    wl = _cycles(ServiceFlash(3), 2)
    ref = {"3": wl.digests[:1]}
    wl.docs[1] = copy.deepcopy(wl.docs[1])
    wl.docs[1]["slo"]["completed"] += 1
    failed, problems = wl.verify(ref)
    assert failed == {1} and "service_run" in problems[0]
    assert wl.checked_by == {"committed digest": 1, "service_run replay": 1}


def test_scale_quiet_reference_counts_permutations():
    wl = _cycles(ScaleQuiet(3), 2)
    assert wl.verify({}) == (set(), [])
    wl.engine.rng.permutation(4)
    failed, problems = wl.verify({})
    assert len(failed) == 4 and "rng state" in problems[0]


def test_traced_run_matches_untraced_and_names_known_metrics():
    names = {m["name"] for m in BENCH["per_layer"]}
    plain = _cycles(ServiceFlash(5), 2)
    traced = _cycles(ServiceFlash(5, traced=True), 2)
    assert traced.digests == plain.digests
    produced = {**run.span_metrics(traced), **traced.layer_metrics()}
    assert set(produced) <= names
    assert produced["service.offered"] == produced["service.admitted"] + produced["service.shed"]
    assert produced["eventqueue.delivered.arrival"] == produced["service.offered"]


def test_benchmark_json_names_every_workload_once():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert set(run.SPEC["workloads"]) == set(WORKLOADS)
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))


def test_tail_falls_back_to_ten_samples_beyond():
    times = list(range(100))
    assert run.tail(times, 80.0) == (np.percentile(times, 80.0), 80.0)
    value, pct = run.tail(times, 99.0)
    assert value == 89 and pct == 90.0


def test_cycle_tail_is_geometric_mean_over_cycles():
    times = [float(x) for x in range(1, 101)] + [4.0 * x for x in range(1, 101)]
    blocks = [(0, 0.0, 100), (0, 0.0, 100), (0, 0.0, 0)]
    value, pct = run.cycle_tail(blocks, times, 80.0)
    assert pct == 80.0
    assert np.isclose(value, 2.0 * np.percentile(range(1, 101), 80.0))

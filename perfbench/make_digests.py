"""Regenerate ``reference.json``: output digests of the async workloads.

    python3 perfbench/make_digests.py

The asynchronous engines have no second implementation to replay them
on, so their reference is a digest of each output as the program's own
entry points produce it — ``service_run`` per episode and
``dynamics_experiment`` per grid — for the default and the held-out
seed of ``spec.json``.  Regenerate only when a change is meant to alter
simulated behaviour, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.experiments.dynamics import DynamicsConfig, dynamics_experiment  # noqa: E402
from repro.service import service_run  # noqa: E402

from workloads import digest, service_config, sub_seed  # noqa: E402

#: several times the units a 10 s run measures on the machine the spec
#: describes; units past these are replayed through the entry points
#: instead (see ``workloads.py``)
EPISODES = 500
GRIDS = 30


def main() -> int:
    spec = json.loads((HERE / "spec.json").read_text())
    seeds = (spec["seeds"]["default"], spec["seeds"]["held_out"])
    ref: dict[str, dict[str, list[str]]] = {"service_flash": {}, "churn_sweep": {}}
    for seed in seeds:
        ref["service_flash"][str(seed)] = [
            digest(service_run(service_config(seed, k), chaos=True).doc)
            for k in range(EPISODES)
        ]
        ref["churn_sweep"][str(seed)] = [
            digest(cell)
            for k in range(GRIDS)
            for cell in dynamics_experiment(
                DynamicsConfig(seed=sub_seed(seed, k)), backend="native", jobs=1
            )["cells"]
        ]
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

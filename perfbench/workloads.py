"""The four benchmark workloads, composed from the public ``repro`` API.

Every workload runs in *cycles*: a short block of work (a run, a cell,
an episode, a tick pair) whose inputs are derived from the workload seed
and the cycle index ``k``; ``round_size`` cycles make one *round*, the
whole mix a measurement must cover.  The runner (``run.py``) builds a
cycle's inputs with :meth:`prepare` outside the timed region, times
:meth:`run_cycle`, stops only at a round boundary, and after the last
cycle times :meth:`finish` (the end-of-phase folding a user's command
would do).
Each ``run_cycle`` returns ``(start_ns, host seconds)`` of every *unit*
it ran and keeps the simulated outputs, which :meth:`verify` checks afterwards
against a reference that does not share the timed path.

A workload built with ``traced=True`` additionally records spans around
each public call into a layer (``spans.SpanRecorder``), passes a
:class:`~repro.observability.profiler.Profiler` (and, on the
asynchronous engines, an event-counting tracer) through the engines'
public ``profiler=``/``tracer=`` arguments, and reports per-layer
metrics with :meth:`layer_metrics`.  Tracing must not change any
simulated output; the runner compares :attr:`digests` of the traced and
the untraced run.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import time
from collections import Counter

import numpy as np

from repro.core.async_engine import AsyncEngine, ConstantRates
from repro.core.columnar import ColumnarEngine
from repro.core.engine import Engine, EngineConfig
from repro.dynnet import (
    ChurnPlan,
    DynamicNetwork,
    HeterogeneousProfile,
    band_occupancy,
    churn_recovery_times,
    normalized_extreme_ratio,
)
from repro.experiments.config import QualityConfig
from repro.experiments.dynamics import (
    DYNAMICS_SCHEMA_VERSION,
    DynamicsConfig,
    build_topology,
    dynamics_experiment,
    validate_dynamics,
)
from repro.experiments.figures import QualityFigure
from repro.experiments.runner import QualityResult
from repro.faults.metrics import theorem4_band
from repro.metrics.borrow_stats import BorrowTable
from repro.metrics.collector import MultiRunCollector
from repro.observability.profiler import Profiler
from repro.params import LBParams
from repro.rng import RngFactory
from repro.service import (
    AdmissionController,
    ServiceConfig,
    ServiceEngine,
    SLOTracker,
    TaskQueues,
    TokenBucket,
    make_traffic,
    service_run,
    validate_service,
)
from repro.service.slo import build_service_doc
from repro.simulation.driver import Simulation, run_simulation
from repro.workload.phases import Section7Workload
from spans import NO_SPANS, SpanRecorder

__all__ = ["WORKLOADS", "digest"]


def _jsonable(value):
    if hasattr(value, "tolist"):
        return value.tolist()
    raise TypeError(f"not JSON serialisable: {type(value).__name__}")


def digest(*parts) -> str:
    """Short stable hash of arrays and JSON-able values."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(str(part.dtype).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(json.dumps(part, sort_keys=True, default=_jsonable).encode())
    return h.hexdigest()[:16]


def sub_seed(seed: int, k: int) -> int:
    """Seed of cycle ``k`` (the repo's own ``seed * 100003 + index``)."""
    return seed * 100003 + k


class EventCounter:
    """Tracer stand-in for the async engines: counts the event queue's
    deliveries (``async_deliver`` events) by kind and drops the rest."""

    enabled = True

    def __init__(self) -> None:
        self.delivered: Counter = Counter()

    def emit(self, etype: str, **fields) -> None:
        if etype == "async_deliver":
            self.delivered[fields["kind"]] += 1


class Workload:
    """Shared plumbing: tracing objects, digests, counters."""

    name = ""
    #: cycles per round
    round_size = 1

    def __init__(self, seed: int, *, traced: bool = False) -> None:
        self.seed = seed
        self.spans = SpanRecorder() if traced else NO_SPANS
        self.profiler = Profiler() if traced else None
        self.tracer = EventCounter() if traced else None
        self.proc_ticks = 0.0
        self.counters: Counter = Counter()
        #: units checked, by the reference that checked them (set by verify)
        self.checked_by: Counter = Counter()

    def prepare(self, k: int):
        raise NotImplementedError

    @property
    def digests(self) -> list[str]:
        """One digest per simulated output, in run order."""
        raise NotImplementedError

    def run_cycle(self, k: int, inputs) -> list[tuple[int, float]]:
        raise NotImplementedError

    def between(self) -> None:
        """Called between the units of a long cycle, outside their timing;
        the runner points it at its host-speed calibration."""

    def finish(self) -> None:
        """End-of-phase work inside the measured phase (default none)."""


    def verify(self, reference: dict) -> tuple[set[int], list[str]]:
        """Return (indices of failed units, problem strings)."""
        raise NotImplementedError

    def layer_metrics(self) -> dict[str, float]:
        raise NotImplementedError

    def units_per_cycle(self) -> int:
        raise NotImplementedError

    def _sections(self) -> dict[str, float]:
        """Profiler section totals in seconds."""
        return {
            name: s.total_ns / 1e9 for name, s in self.profiler.records.items()
        }


# ---------------------------------------------------------------------------
# paper_quality: the section-7 runs behind fig7, fig8 and table1
# ---------------------------------------------------------------------------

#: (delta, f, C): fig7/fig8 at C=4, table1's C column at delta=1, f=1.1
PAPER_CONFIGS = (
    (1, 1.1, 4), (1, 1.8, 4), (4, 1.1, 4), (4, 1.8, 4),
    (1, 1.1, 8), (1, 1.1, 16), (1, 1.1, 32),
)

#: the sync engines' profiler sections -> per-layer metric names
_ENGINE_SECTIONS = {
    "step.classify": "engine.step_classify.s",
    "step.fast_apply": "engine.fast_apply.s",
    "trigger.check": "engine.trigger_check.s",
    "balance.select": "engine.balance_select.s",
    "balance.deal": "engine.balance_deal.s",
}


def _engine_layers(sec: dict, ops: int, migrated: int, totals: dict) -> dict:
    """Section times plus the engine's public counters (``total_ops``,
    ``packets_migrated`` and the summed ``BorrowCounters``)."""
    out = {metric: sec.get(name, 0.0) for name, metric in _ENGINE_SECTIONS.items()}
    attempts = totals["remote_borrow"] + totals["borrow_fail"]
    out.update({
        "engine.balance_ops": ops,
        "engine.packets_migrated": migrated,
        "borrow.total": totals["total_borrow"],
        "borrow.fail": totals["borrow_fail"],
        # debt reductions settled by a remote exchange, of all attempted
        "borrow.success_ratio": totals["remote_borrow"] / attempts if attempts else 1.0,
        "borrow.decrease_sim": totals["decrease_sim"],
        "borrow.repayments": totals["repayments"],
    })
    return out


class _TickClock:
    """A section-7 workload seen through the public ``actions``
    protocol: a tick runs from one ``actions`` call to the next, and
    ``between`` runs in the gap, outside both ticks."""

    def __init__(self, inner: Section7Workload, spans, between) -> None:
        self.inner = inner
        self.n = inner.n
        self.spans = spans
        self.between = between
        self.starts: list[int] = []
        self.ends: list[int] = []

    def actions(self, t, loads, rng):
        if self.starts:
            self.ends.append(time.perf_counter_ns())
            self.between()
        self.starts.append(time.perf_counter_ns())
        with self.spans.span("workload.actions"):
            return self.inner.actions(t, loads, rng)

    def units(self) -> list[tuple[int, float]]:
        """``(start_ns, seconds)`` per tick, once the run has returned."""
        return [(s, (e - s) / 1e9) for s, e in zip(self.starts, self.ends)]


def _engine_class(kept: list, spans) -> type[Engine]:
    """The default engine, handing each instance to ``kept`` for the
    post-run checks (and, when traced, with spans around
    ``step``/``loads_snapshot``)."""

    class KeptEngine(Engine):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            kept.append(self)

    if not spans.enabled:
        return KeptEngine

    class SpannedEngine(KeptEngine):
        def step(self, actions) -> None:
            with spans.span("step"):
                super().step(actions)

        def loads_snapshot(self):
            with spans.span("loads_snapshot"):
                return super().loads_snapshot()

    return SpannedEngine


class _RunRecord:
    """What one timed section-7 run leaves for the checks: digests of its
    outputs, the final load row, counters, the engine's final RNG state
    and the outcome of its conservation-invariant check."""

    def __init__(self, ci: int, r: int, res, engine: Engine) -> None:
        self.ci, self.r = ci, r
        self.loads_digest = digest(res.loads)
        self.final = res.loads[-1].copy()
        self.history_bytes = res.loads.nbytes
        self.counters = res.counters
        self.total_ops = res.total_ops
        self.packets_migrated = res.packets_migrated
        self.rng_state = engine.rng.bit_generator.state
        try:
            engine.assert_invariants()
            self.invariant_error = ""
        except AssertionError as exc:
            self.invariant_error = str(exc) or "violated"
        self.digest = digest(
            self.loads_digest,
            list(self.counters.as_tuple()),
            self.total_ops,
            self.packets_migrated,
            self.rng_state,
        )


def _section7_inputs(cfg: QualityConfig, r: int):
    """Run ``r`` of ``cfg``, derived exactly as ``quality_experiment``."""
    run_factory = RngFactory(cfg.seed).child_factory("run", r)
    workload = Section7Workload(
        cfg.n,
        cfg.steps,
        g_range=cfg.g_range,
        c_range=cfg.c_range,
        len_range=cfg.len_range,
        layout_rng=run_factory.named("layout"),
    )
    return run_factory, workload


class PaperQuality(Workload):
    name = "paper_quality"
    round_size = len(PAPER_CONFIGS)

    def __init__(self, seed, *, traced=False) -> None:
        super().__init__(seed, traced=traced)
        # each config gets its own QualityConfig seed, so the runs of one
        # round draw independent phase layouts (under one shared seed all
        # configs of run r share run r's layout, and a measurement would
        # rest on a couple of layouts only)
        self.configs = [
            QualityConfig(f=f, delta=d, C=C, seed=sub_seed(seed, ci), runs=1)
            for ci, (d, f, C) in enumerate(PAPER_CONFIGS)
        ]
        self.collectors = [
            MultiRunCollector(snapshot_ticks=cfg.snapshot_ticks)
            for cfg in self.configs
        ]
        self._kept: list[Engine] = []
        self._engine_cls = _engine_class(self._kept, self.spans)
        # per run, in run order; only what the checks and the reduction
        # need, so memory does not grow with the number of runs measured
        self.runs: list[_RunRecord] = []
        self.results: dict[tuple[int, float, int], QualityResult] = {}
        self.rendered = ""

    def units_per_cycle(self) -> int:
        return self.configs[0].steps

    def prepare(self, k):
        """Cycle ``k`` is run ``k // len(configs)`` of config
        ``k % len(configs)``."""
        ci, r = k % len(self.configs), k // len(self.configs)
        return ci, r, _section7_inputs(self.configs[ci], r)

    def run_cycle(self, k, inputs):
        ci, r, (run_factory, workload) = inputs
        cfg = self.configs[ci]
        clock = _TickClock(workload, self.spans, self.between)
        with self.spans.span("run"):
            res = run_simulation(
                cfg.n,
                cfg.params,
                clock,
                cfg.steps,
                seed=run_factory,
                meta={"run": r},
                profiler=self.profiler,
                engine_cls=self._engine_cls,
            )
        clock.ends.append(time.perf_counter_ns())
        with self.spans.span("collector.add"):
            self.collectors[ci].add(res.loads)
        self.runs.append(_RunRecord(ci, r, res, self._kept.pop()))
        self.proc_ticks += cfg.n * cfg.steps
        return clock.units()

    def finish(self) -> None:
        """Fold the runs into figure/table results and render them,
        as ``repro fig7``/``fig8``/``table1`` do."""
        with self.spans.span("collector.reduce"):
            for ci, cfg in enumerate(self.configs):
                self.results[(cfg.delta, cfg.f, cfg.C)] = self._result(ci)
        with self.spans.span("render"):
            blocks = [
                QualityFigure(
                    delta=delta,
                    results={
                        f: res for (d, f, C), res in self.results.items()
                        if d == delta and C == 4
                    },
                    kind="envelope",
                ).render()
                for delta in (1, 4)
            ]
            c_values = [C for (d, f, C) in self.results if d == 1 and f == 1.1]
            table = BorrowTable(c_values=c_values)
            for C in c_values:
                table.set_column(C, self.results[(1, 1.1, C)].counters)
                col = table.columns[C]
                table.columns[C] = {
                    key: v / self.configs[0].n for key, v in col.items()
                }
            blocks.append(table.render())
            self.rendered = "\n\n".join(blocks)

    def _result(self, ci: int) -> QualityResult:
        """``QualityResult`` of one config, reduced as ``quality_experiment``."""
        cfg = self.configs[ci]
        collector = self.collectors[ci]
        runs = [run for run in self.runs if run.ci == ci]
        spreads = []
        for run in runs:
            final = run.final.astype(float)
            spreads.append(
                float((final.max() - final.min()) / max(final.mean(), 1.0))
            )
        return QualityResult(
            config=cfg,
            envelope=collector.envelope(),
            snapshots={t: collector.snapshot(t) for t in cfg.snapshot_ticks},
            counters=[run.counters for run in runs],
            mean_ops=sum(run.total_ops for run in runs) / len(runs),
            mean_migrated=sum(run.packets_migrated for run in runs) / len(runs),
            final_rel_spreads=np.asarray(spreads),
        )

    @property
    def digests(self) -> list[str]:
        return [run.digest for run in self.runs]

    def verify(self, reference):
        """Replay every run on the scalar oracle (``fast_path=False``)
        from freshly derived inputs; loads, counters and the engine RNG
        state must be equal.  Also checks the engines' conservation
        invariants."""
        failed: set[int] = set()
        problems: list[str] = []
        unit = 0
        for run in self.runs:
            cfg = self.configs[run.ci]
            run_factory, workload = _section7_inputs(cfg, run.r)
            oracle = Engine(
                EngineConfig(n=cfg.n, params=cfg.params, fast_path=False),
                rng=run_factory.named("engine"),
            )
            sim = Simulation(
                oracle, workload, workload_rng=run_factory.named("workload")
            )
            loads = sim.run(cfg.steps)
            where = f"delta={cfg.delta} f={cfg.f} C={cfg.C} run {run.r}"
            bad = []
            if digest(loads) != run.loads_digest:
                bad.append("loads")
            if oracle.counters.as_tuple() != run.counters.as_tuple():
                bad.append("borrow counters")
            if (oracle.total_ops, oracle.packets_migrated) != (
                run.total_ops, run.packets_migrated
            ):
                bad.append("ops/migrated")
            if oracle.rng.bit_generator.state != run.rng_state:
                bad.append("engine rng state")
            if run.invariant_error:
                bad.append(f"invariant: {run.invariant_error}")
            if bad:
                problems.append(f"{where}: differs from the scalar oracle in {', '.join(bad)}")
                failed.update(range(unit, unit + cfg.steps))
            unit += cfg.steps
        return failed, problems

    def layer_metrics(self):
        sec = self._sections()
        step = self.spans.totals().get("step", {}).get("total_s", 0.0)
        totals = Counter()
        for run in self.runs:
            totals.update(run.counters.as_dict())
        out = _engine_layers(
            sec,
            sum(run.total_ops for run in self.runs),
            sum(run.packets_migrated for run in self.runs),
            totals,
        )
        out["engine.unattributed.s"] = step - sum(sec.get(s, 0.0) for s in _ENGINE_SECTIONS)
        out["driver.history.bytes"] = sum(run.history_bytes for run in self.runs)
        return out


# ---------------------------------------------------------------------------
# scale_quiet: ColumnarEngine at n = 1e5 under saturated quiet traffic
# ---------------------------------------------------------------------------

QUIET_N = 100_000
QUIET_LEVEL = 40
QUIET_PARAMS = LBParams(f=1.3, delta=2, C=4)


@functools.lru_cache(maxsize=2)
def _reference_rng_state(seed: int, ticks: int) -> str:
    """A fresh generator with the engine seed after one
    ``permutation(n)`` per tick — what the scalar sweep would draw."""
    rng = np.random.default_rng(seed)
    for _ in range(ticks):
        rng.permutation(QUIET_N)
    return json.dumps(rng.bit_generator.state, sort_keys=True)


class ScaleQuiet(Workload):
    name = "scale_quiet"

    def __init__(self, seed, *, traced=False) -> None:
        super().__init__(seed, traced=traced)
        self.engine = ColumnarEngine(
            EngineConfig(n=QUIET_N, params=QUIET_PARAMS),
            rng=seed,
            profiler=self.profiler,
        )
        # pre-balanced uniform state: L own-class packets everywhere and
        # the trigger reference in equilibrium, so the +-1 oscillation
        # stays inside the trigger band and nobody ever borrows
        eng = self.engine
        eng.d.diag[:] = QUIET_LEVEL
        eng.d.row_sums[:] = QUIET_LEVEL
        eng.l[:] = QUIET_LEVEL
        eng.l_old[:] = QUIET_LEVEL
        self._cycle = (
            np.full(QUIET_N, -1, dtype=np.int64),  # whole-network consume
            np.ones(QUIET_N, dtype=np.int64),      # whole-network generate
        )
        self.ticks = 0

    def units_per_cycle(self) -> int:
        return len(self._cycle)

    def prepare(self, k):
        return self._cycle

    def run_cycle(self, k, inputs):
        times = []
        step = self.engine.step
        spans = self.spans
        for actions in inputs:
            t0 = time.perf_counter_ns()
            with spans.span("step"):
                step(actions)
            times.append((t0, (time.perf_counter_ns() - t0) / 1e9))
        self.ticks += len(inputs)
        self.proc_ticks += QUIET_N * len(inputs)
        return times

    @property
    def digests(self) -> list[str]:
        eng = self.engine
        return [
            digest(
                eng.l, eng.d.diag, list(eng.counters.as_tuple()),
                eng.total_ops, eng.rng.bit_generator.state,
            )
        ]

    def verify(self, reference):
        """Every load back at L, no balancing op or counter moved, and
        the RNG where a fresh generator lands after one real
        ``permutation(n)`` per tick."""
        eng = self.engine
        problems = []
        if not (np.all(eng.l == QUIET_LEVEL) and np.all(eng.d.diag == QUIET_LEVEL)):
            problems.append(f"loads not back at L={QUIET_LEVEL}")
        if eng.total_ops or any(eng.counters.as_tuple()):
            problems.append(
                f"quiet traffic balanced or borrowed: ops={eng.total_ops} "
                f"counters={eng.counters.as_dict()}"
            )
        state = json.dumps(eng.rng.bit_generator.state, sort_keys=True)
        if state != _reference_rng_state(self.seed, self.ticks):
            problems.append(
                f"engine rng state differs from {self.ticks} real permutations"
            )
        # a wrong end state cannot be pinned to one tick: fail them all
        failed = set(range(self.ticks)) if problems else set()
        return failed, problems

    def layer_metrics(self):
        sec = self._sections()
        step = self.spans.totals().get("step", {}).get("total_s", 0.0)
        pipeline = sum(v for k, v in sec.items() if k.startswith("pipeline."))
        eng = self.engine
        out = _engine_layers(sec, eng.total_ops, eng.packets_migrated, eng.counters.as_dict())
        out.update({
            "pipeline.classify.s": sec.get("pipeline.classify", 0.0),
            "pipeline.advance_apply.s": sec.get("pipeline.advance+apply", 0.0),
            "pipeline.residual.s": sec.get("pipeline.residual", 0.0),
            # the pipeline passes cover a columnar tick end to end (a dense
            # tick's engine sections nest inside pipeline.residual)
            "columnar.unattributed.s": step - pipeline,
        })
        return out


# ---------------------------------------------------------------------------
# async workloads: shared counters
# ---------------------------------------------------------------------------

_ASYNC_SECTIONS = ("async.action", "async.complete", "async.retry")


def _async_counters(counters: Counter, result, engine) -> None:
    counters["async.balance_ops"] += result.total_ops
    counters["async.dropped_ops"] += result.dropped_ops
    counters["async.declined_joins"] += result.declined_joins
    counters["async.retries"] += result.retries
    counters["async.give_ups"] += result.give_ups
    counters["faults.crashed_skips"] += engine.crashed_skips
    counters["faults.reclaimed_ops"] += engine.reclaimed_ops
    stats = result.fault_stats or {}
    counters["faults.lost_messages"] += stats.get("lost_messages", 0)


def _async_layers(wl: Workload) -> dict[str, float]:
    sec = wl._sections()
    spans = wl.spans.totals()
    run = spans.get("async.run", {}).get("total_s", 0.0)
    c = wl.counters
    attempts = c["async.balance_ops"] + c["async.dropped_ops"]
    out = {
        "async.action.s": sec.get("async.action", 0.0),
        "async.complete.s": sec.get("async.complete", 0.0),
        "async.retry.s": sec.get("async.retry", 0.0),
        "async.unattributed.s": run - sum(sec.get(s, 0.0) for s in _ASYNC_SECTIONS),
        "async.op_success_ratio": c["async.balance_ops"] / attempts if attempts else 1.0,
    }
    for key, value in c.items():
        out[key] = value
    for kind, count in wl.tracer.delivered.items():
        out[f"eventqueue.delivered.{kind}"] = count
    return out


# ---------------------------------------------------------------------------
# service_flash: repro serve --smoke --chaos episodes at n = 64
# ---------------------------------------------------------------------------

SERVICE_N = 64


def service_config(seed: int, k: int) -> ServiceConfig:
    """Episode ``k``: the CI smoke scenario (bursty flash crowd over a
    crash burst with message loss) at n = 64."""
    return dataclasses.replace(
        ServiceConfig.smoke(seed=sub_seed(seed, k)), n=SERVICE_N
    )


class ServiceFlash(Workload):
    name = "service_flash"

    def __init__(self, seed, *, traced=False) -> None:
        super().__init__(seed, traced=traced)
        self.docs: list[dict] = []
        self.configs: list[ServiceConfig] = []

    def units_per_cycle(self) -> int:
        return 1

    def prepare(self, k):
        return service_config(self.seed, k)

    def run_cycle(self, k, cfg):
        t0 = time.perf_counter_ns()
        doc = self.episode(cfg)
        elapsed = (time.perf_counter_ns() - t0) / 1e9
        self.docs.append(doc)
        self.configs.append(cfg)
        self.proc_ticks += cfg.n * cfg.horizon
        return [(t0, elapsed)]

    def episode(self, cfg: ServiceConfig) -> dict:
        """``service_run(cfg, chaos=True)`` composed call by call."""
        spans = self.spans
        with spans.span("service.traffic"):
            traffic = make_traffic(
                cfg.traffic,
                cfg.n,
                cfg.rate,
                seed=cfg.seed,
                burst_at=cfg.burst_at,
                burst_duration=cfg.burst_duration,
                burst_mult=cfg.burst_mult,
                period=cfg.period,
                critical_frac=cfg.critical_frac,
            )
            arrivals = traffic.arrivals(cfg.horizon)
        with spans.span("service.engine"):
            plan = cfg.chaos_plan()
            params = cfg.params()
            queues = TaskQueues(cfg.n, cfg.queue_cap)
            admission = AdmissionController(
                TokenBucket(cfg.admission_rate, cfg.admission_burst), queues
            )
            engine = ServiceEngine(
                params,
                ConstantRates(np.zeros(cfg.n), np.full(cfg.n, cfg.consume)),
                queues=queues,
                admission=admission,
                ladder_cfg=cfg.ladder,
                slo=SLOTracker(params),
                latency=cfg.latency,
                snapshot_dt=cfg.snapshot_dt,
                seed=cfg.seed,
                tracer=self.tracer,
                profiler=self.profiler,
                faults=plan,
            )
            engine.schedule_arrivals(arrivals)
        with spans.span("async.run"):
            result = engine.run(cfg.horizon)
        with spans.span("service.doc"):
            doc = build_service_doc(
                config=cfg.describe(),
                traffic=traffic.describe(),
                slo=engine.slo,
                queues=queues,
                admission=admission,
                ladder=engine.ladder,
                result=result,
                horizon=cfg.horizon,
                chaos={
                    "crashes": len(plan.crashes),
                    "stragglers": len(plan.stragglers),
                    "message_loss": plan.message_loss,
                    "seed": plan.seed,
                },
            )
        _async_counters(self.counters, result, engine)
        slo = doc["slo"]
        for key in ("offered", "admitted", "shed", "completed"):
            self.counters[f"service.{key}"] += slo[key]
        return doc

    @property
    def digests(self) -> list[str]:
        return [digest(doc) for doc in self.docs]

    def verify(self, reference):
        """Schema and admission conservation (offered = admitted + shed)
        on every episode; its digest equal to the committed one for this
        seed or, past the committed episodes, to the program's own
        ``service_run`` replayed here."""
        failed: set[int] = set()
        problems: list[str] = []
        ref = reference.get(str(self.seed), [])
        self.checked_by.clear()
        for i, (doc, dig) in enumerate(zip(self.docs, self.digests)):
            bad = validate_service(doc)
            slo = doc["slo"]
            if slo["offered"] != slo["admitted"] + slo["shed"]:
                bad.append("offered != admitted + shed")
            if i < len(ref):
                self.checked_by["committed digest"] += 1
                if ref[i] != dig:
                    bad.append(f"digest {dig} != committed {ref[i]}")
            else:
                self.checked_by["service_run replay"] += 1
                if digest(service_run(self.configs[i], chaos=True).doc) != dig:
                    bad.append("differs from service_run")
            if bad:
                failed.add(i)
                problems.append(f"episode {i}: {'; '.join(bad)}")
        return failed, problems

    def layer_metrics(self):
        spans = self.spans.totals()
        c = self.counters
        out = _async_layers(self)
        out.update({
            "service.traffic.s": spans.get("service.traffic", {}).get("total_s", 0.0),
            "service.engine.s": spans.get("service.engine", {}).get("total_s", 0.0),
            "service.doc.s": spans.get("service.doc", {}).get("total_s", 0.0),
            "service.admit_ratio": (
                c["service.admitted"] / c["service.offered"]
                if c["service.offered"] else 1.0
            ),
        })
        return out


# ---------------------------------------------------------------------------
# churn_sweep: the default DynamicsConfig grid, cell by cell
# ---------------------------------------------------------------------------


class ChurnSweep(Workload):
    name = "churn_sweep"

    def __init__(self, seed, *, traced=False) -> None:
        super().__init__(seed, traced=traced)
        self.cells: list[dict] = []
        self.grid_configs: list[DynamicsConfig] = []

    round_size = len(DynamicsConfig().cells())

    def units_per_cycle(self) -> int:
        return 1

    def prepare(self, k):
        """Cell ``k % 18`` of grid ``k // 18``: its topology, sampled churn
        plan and speed profile (seeds as ``dynamics_experiment`` derives
        them)."""
        cfg = DynamicsConfig(seed=sub_seed(self.seed, k // self.round_size))
        idx = k % self.round_size
        topo, rate, skew = cfg.cells()[idx]
        cell_seed = sub_seed(cfg.seed, idx)
        topology = build_topology(topo, cfg.n, seed=cell_seed)
        with self.spans.span("dynnet.sample"):
            plan = (
                ChurnPlan.sample(
                    topology,
                    rate=rate,
                    horizon=cfg.horizon,
                    seed=cell_seed,
                    leave_frac=cfg.leave_frac,
                )
                if rate > 0
                else ChurnPlan()
            )
        profile = (
            HeterogeneousProfile.skewed(cfg.n, skew, seed=cell_seed)
            if skew > 0
            else HeterogeneousProfile.homogeneous(cfg.n)
        )
        return cfg, (topo, rate, skew, cell_seed, topology, plan, profile)

    def run_cycle(self, k, inputs):
        cfg, cell = inputs
        if k % self.round_size == 0:
            self.grid_configs.append(cfg)
        t0 = time.perf_counter_ns()
        self.cells.append(self.cell(cfg, *cell))
        elapsed = (time.perf_counter_ns() - t0) / 1e9
        self.proc_ticks += cfg.n * cfg.horizon
        return [(t0, elapsed)]

    def cell(self, cfg, topo, rate, skew, cell_seed, topology, plan, profile) -> dict:
        """One sweep cell composed from the public dynnet API."""
        spans = self.spans
        with spans.span("dynnet.compile"):
            net = DynamicNetwork(topology, plan=plan, profile=profile)
        with spans.span("async.build"):
            engine = AsyncEngine(
                cfg.params(),
                ConstantRates(np.full(cfg.n, 0.55), np.full(cfg.n, 0.45)),
                latency=cfg.latency,
                snapshot_dt=cfg.snapshot_dt,
                seed=cell_seed,
                dynnet=net,
                tracer=self.tracer,
                profiler=self.profiler,
            )
        with spans.span("async.run"):
            res = engine.run(cfg.horizon)
        with spans.span("dynnet.metrics"):
            band = theorem4_band(cfg.params())
            rho = normalized_extreme_ratio(res.loads, profile.capacities, cfg.C)
            occupancy = band_occupancy(res.times, rho, band, warmup=cfg.warmup)
            event_times = [float(ev.time) for ev in net.schedule.events]
            recoveries = churn_recovery_times(res.times, rho, band, event_times)
            recovered = [r for r in recoveries if r is not None]
        _async_counters(self.counters, res, engine)
        self.counters["dynnet.topology_changes"] += (
            net.rewires_applied + net.leaves_applied + net.joins_applied
        )
        self.counters["dynnet.leaves"] += net.leaves_applied
        return {
            "topology": topo,
            "churn": {
                "rate": float(rate),
                "events": len(net.schedule.events),
                "rewires": net.rewires_applied,
                "leaves": net.leaves_applied,
                "joins": net.joins_applied,
            },
            "skew": float(skew),
            "skew_ratio": profile.skew_ratio,
            "seed": int(cell_seed),
            "band_occupancy": float(occupancy),
            "worst_ratio": float(np.nanmax(rho)),
            "final_ratio": float(rho[-1]),
            "recovery": {
                "events": len(recoveries),
                "recovered": len(recovered),
                "mean_time": float(np.mean(recovered)) if recovered else None,
                "max_time": float(np.max(recovered)) if recovered else None,
            },
            "counters": {
                "total_ops": res.total_ops,
                "dropped_ops": res.dropped_ops,
                "packets_migrated": res.packets_migrated,
                "retries": res.retries,
                "give_ups": res.give_ups,
            },
        }

    @property
    def digests(self) -> list[str]:
        return [digest(cell) for cell in self.cells]

    def verify(self, reference):
        """Each grid's document passes ``validate_dynamics``; each cell's
        digest equals the committed one for this seed or, past the
        committed grids, the program's own ``dynamics_experiment``
        replayed here."""
        failed: set[int] = set()
        problems: list[str] = []
        ref = reference.get(str(self.seed), [])
        self.checked_by.clear()
        per = self.round_size
        digests = self.digests
        for k, cfg in enumerate(self.grid_configs):
            cells = self.cells[k * per:(k + 1) * per]
            if (k + 1) * per <= len(ref):
                self.checked_by["committed digest"] += len(cells)
                want = ref[k * per:(k + 1) * per]
                source = "committed digest"
            else:
                self.checked_by["dynamics_experiment replay"] += len(cells)
                own = dynamics_experiment(cfg, backend="native", jobs=1)
                want = [digest(cell) for cell in own["cells"]]
                source = "dynamics_experiment"
            for i, (got, exp) in enumerate(zip(digests[k * per:], want), start=k * per):
                if got != exp:
                    failed.add(i)
                    problems.append(f"cell {i}: differs from the {source}")
            doc = {
                "schema": "repro/dynamics",
                "version": DYNAMICS_SCHEMA_VERSION,
                "backend": "native",
                "config": dataclasses.asdict(cfg),
                "band": theorem4_band(cfg.params()),
                "cells": cells,
            }
            bad = validate_dynamics(doc)
            if bad:
                failed.update(range(k * per, k * per + len(cells)))
                problems.append(f"grid {k}: {'; '.join(bad)}")
        return failed, problems

    def layer_metrics(self):
        spans = self.spans.totals()
        out = _async_layers(self)
        out["dynnet.plan.s"] = sum(
            spans.get(name, {}).get("total_s", 0.0)
            for name in ("dynnet.sample", "dynnet.compile")
        )
        out["dynnet.metrics.s"] = spans.get("dynnet.metrics", {}).get("total_s", 0.0)
        out["async.build.s"] = spans.get("async.build", {}).get("total_s", 0.0)
        return out


WORKLOADS = {
    cls.name: cls for cls in (PaperQuality, ScaleQuiet, ServiceFlash, ChurnSweep)
}

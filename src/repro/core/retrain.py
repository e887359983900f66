"""Drift-triggered background retraining with active sampling.

The *retrain* step of the closed loop. A :class:`Retrainer` owns a
base (offline) campaign dataset, a fitted baseline selector and a
:class:`~repro.obs.drift.DriftDetector`; it watches the serve-side
feedback log (:mod:`repro.core.feedback`) and, when the residual
median of a collective moves past the drift threshold, refits the
:class:`~repro.core.selector.AlgorithmSelector` on base + feedback
rows — spending fresh benchmark budget *only where model families
disagree* (active sampling).

Active sampling, concretely (the Nuriyev & Lastovetsky idea of using
analytical models as a cheap prior):

1. Estimate per-algorithm **calibration factors** from the feedback
   rows themselves: ``calib[algid] = median(observed / predicted)``.
   This is everything the retrainer learns about the shifted world —
   it never sees the injected :class:`~repro.core.feedback.WorldShift`
   directly.
2. For every distinct feedback instance, compare the **calibrated
   analytical argmin** against the **base selector's argmin**. Where
   the two families agree the base model is presumed still right and
   no budget is spent; where they disagree (or the base selector has
   no coverage) the full supported-configuration column at that
   instance is re-measured.
3. ``budget_frac = measured_samples / full_grid_samples`` — the
   headline number ``tests/core/test_retrain.py`` holds to at most
   half the naive full-grid refit, at equal selection agreement.

Re-measured instances *replace* the stale base rows at those sites
(mixing pre- and post-shift samples of the same configuration would
poison the regression); feedback rows replace base rows at their exact
``(instance, config)`` sites for the same reason. The refit goes
through the ordinary :meth:`AutoTuner.train` path, so publishing is
the existing machinery too: :meth:`AutoTuner.write_rules` for the
fleet's two-phase ``stage``/``commit`` reload, or
:meth:`AutoTuner.servable` for an in-process registry publish.

After a successful retrain the detector is **rebased** to the median
residual the refit just corrected for — the same shift never
re-triggers, a further shift does.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.collectives.base import CollectiveKind
from repro.collectives.registry import algorithm_from_config
from repro.core.dataset import PerfDataset
from repro.core.feedback import FeedbackRow, WorldShift, read_feedback
from repro.core.selector import AlgorithmSelector
from repro.core.tuner import AutoTuner
from repro.machine.model import MachineModel
from repro.machine.topology import Topology
from repro.mpilib.base import MPILibrary
from repro.obs import get_telemetry
from repro.obs.drift import (
    DEFAULT_MIN_SAMPLES,
    DEFAULT_THRESHOLD,
    DEFAULT_WINDOW,
    DriftDetector,
    ResidualStats,
)
from repro.utils.rng import as_generator, stable_seed

Instance = tuple[int, int, int]


@dataclass(frozen=True)
class RetrainPolicy:
    """Knobs of the drift trigger and the active-sampling budget."""

    #: drift trigger: |median residual - baseline| > threshold
    threshold: float = DEFAULT_THRESHOLD
    #: residuals required before the trigger may fire
    min_samples: int = DEFAULT_MIN_SAMPLES
    #: bounded residual window per (collective, version)
    window: int = DEFAULT_WINDOW
    #: measure everything (the naive refit active sampling is graded
    #: against); exposed so the bench harness can compare budgets
    exhaustive: bool = False
    #: relative regret under which two choices count as agreeing —
    #: config spaces contain exact analytical ties (e.g. every segsize
    #: >= msize behaves identically), so id-equality is meaningless
    margin: float = 0.02


@dataclass
class RetrainResult:
    """Outcome of one retrain round (the bench-report raw material)."""

    collective: str
    #: distinct feedback instances considered
    instances: int
    #: instances whose column was re-measured (families disagreed)
    disagreements: int
    #: samples actually measured this round
    measured_samples: int
    #: samples a naive full-grid refit over the same instances costs
    full_grid_samples: int
    #: median log-residual the refit corrected for (detector rebase)
    log_shift: float
    #: the refitted tuner — ``write_rules``/``servable`` publish it
    tuner: AutoTuner
    #: base + replacements + feedback, what the tuner was fitted on
    dataset: PerfDataset
    rules_path: str = ""

    @property
    def budget_frac(self) -> float:
        """Measured / full-grid samples — the gated headline metric."""
        if self.full_grid_samples <= 0:
            return 0.0
        return self.measured_samples / self.full_grid_samples

    @property
    def selector(self) -> AlgorithmSelector:
        selector = self.tuner.selector_
        assert selector is not None  # train() ran in retrain()
        return selector


def shifted_times(
    machine: MachineModel,
    library: MPILibrary,
    collective: CollectiveKind | str,
    instance: Instance,
    *,
    shift: WorldShift | None = None,
) -> np.ndarray:
    """True (noise-free) shifted time of every config at one instance.

    Unsupported configurations are ``+inf``. This is the ground truth
    the closed-loop tests and the bench report grade selections
    against.
    """
    kind = CollectiveKind(collective)
    shift = shift if shift is not None else WorldShift()
    nodes, ppn, msize = instance
    topo = Topology(nodes, ppn)
    algos = [
        algorithm_from_config(cfg)
        for cfg in library.config_space(kind).configs
    ]
    out = np.full(len(algos), np.inf)
    for cid, algo in enumerate(algos):
        if algo.supported(topo, msize):
            out[cid] = algo.base_time(machine, topo, msize) * shift.scale(
                algo.config.algid
            )
    return out


def oracle_ids(
    machine: MachineModel,
    library: MPILibrary,
    collective: CollectiveKind | str,
    instances: Sequence[Instance],
    *,
    shift: WorldShift | None = None,
) -> list[int]:
    """Ground-truth best config id per instance under ``shift``.

    Noise-free argmin over the *shifted* analytical base times.
    Instances with no supported configuration get ``-1``. Beware exact
    ties — several configurations can share the optimum (every segsize
    >= msize behaves identically), which is why agreement is graded on
    *times* (:func:`selection_agreement`), not ids.
    """
    out: list[int] = []
    for instance in instances:
        times = shifted_times(
            machine, library, collective, instance, shift=shift
        )
        cid = int(np.argmin(times))
        out.append(cid if math.isfinite(times[cid]) else -1)
    return out


def selection_agreement(
    selector: AlgorithmSelector,
    machine: MachineModel,
    library: MPILibrary,
    collective: CollectiveKind | str,
    instances: Sequence[Instance],
    *,
    shift: WorldShift | None = None,
    margin: float = 0.02,
) -> float:
    """Fraction of instances whose pick is within ``margin`` of oracle.

    A selection *agrees* with the shifted oracle when its true shifted
    runtime is within ``(1 + margin)`` of the oracle optimum — the
    tie-robust notion of agreement (config spaces contain exact
    analytical ties, so id-equality would under-count arbitrarily).
    """
    if not instances:
        return 1.0
    nodes = np.asarray([i[0] for i in instances])
    ppn = np.asarray([i[1] for i in instances])
    msize = np.asarray([i[2] for i in instances])
    chosen = selector.select_ids(nodes, ppn, msize)
    hits = 0
    for instance, cid in zip(instances, chosen):
        if int(cid) < 0:
            continue
        times = shifted_times(
            machine, library, collective, instance, shift=shift
        )
        best = float(np.min(times))
        if math.isfinite(best) and times[int(cid)] <= best * (1.0 + margin):
            hits += 1
    return hits / len(instances)


class Retrainer:
    """Watches feedback, refits on drift, publishes via the tuner.

    The ``shift`` here plays the *machine*: when the retrainer decides
    to re-measure a column it samples the machine's noise model around
    the shifted analytical time, exactly as the serve-side feedback
    logger does — it stands in for running the real benchmark on the
    drifted system. Decisions (what to measure) only ever use the
    feedback-derived calibration, never ``shift`` itself.
    """

    def __init__(
        self,
        machine: MachineModel,
        library: MPILibrary,
        collective: CollectiveKind | str,
        base_dataset: PerfDataset,
        *,
        seed: int = 0,
        learner: str = "GAM",
        policy: RetrainPolicy = RetrainPolicy(),
        shift: WorldShift | None = None,
        detector: DriftDetector | None = None,
    ) -> None:
        self.machine = machine
        self.library = library
        self.collective = CollectiveKind(collective)
        self.base_dataset = base_dataset
        self.seed = int(seed)
        self.learner = learner
        self.policy = policy
        self.shift = shift if shift is not None else WorldShift()
        self.detector = (
            detector
            if detector is not None
            else DriftDetector(
                threshold=policy.threshold,
                min_samples=policy.min_samples,
                window=policy.window,
            )
        )
        self._configs = library.config_space(self.collective).configs
        self._algos = [algorithm_from_config(c) for c in self._configs]
        base_tuner = AutoTuner(
            machine, library, self.collective, learner=learner, seed=seed
        )
        self._base_selector = base_tuner.train(base_dataset)
        #: feedback rows already fed to the detector (watch() bookkeeping)
        self._fed = 0

    # -- drift scan ----------------------------------------------------
    def scan(self, rows: Sequence[FeedbackRow]) -> list[ResidualStats]:
        """Feed *new* rows into the detector; return drifting groups.

        Idempotent over a growing log: remembers how many rows it has
        already consumed, so calling it repeatedly with the full
        re-read log only feeds the tail.
        """
        fresh = rows[self._fed:]
        if fresh:
            self.detector.observe_rows(fresh)
            self._fed = len(rows)
        return self.detector.drifting()

    # -- active sampling -----------------------------------------------
    def calibration(
        self, rows: Iterable[FeedbackRow]
    ) -> dict[int, float]:
        """Per-algid median observed/predicted — the learned prior.

        The only window the retrainer has onto the shifted world;
        algorithms with no feedback default to factor 1.0.
        """
        ratios: dict[int, list[float]] = {}
        kind = str(self.collective)
        for row in rows:
            if row.collective != kind or row.config_id >= len(self._configs):
                continue
            algid = self._configs[row.config_id].algid
            ratios.setdefault(algid, []).append(
                row.observed_time / row.predicted_time
            )
        return {
            algid: float(np.median(values))
            for algid, values in ratios.items()
        }

    def _supported(self, instance: Instance) -> list[int]:
        nodes, ppn, msize = instance
        topo = Topology(nodes, ppn)
        return [
            cid
            for cid, algo in enumerate(self._algos)
            if algo.supported(topo, msize)
        ]

    def _calibrated_times(
        self, instance: Instance, supported: list[int], calib: dict[int, float]
    ) -> dict[int, float]:
        """Analytical times under the feedback-estimated calibration."""
        nodes, ppn, msize = instance
        topo = Topology(nodes, ppn)
        out: dict[int, float] = {}
        for cid in supported:
            algo = self._algos[cid]
            out[cid] = algo.base_time(self.machine, topo, msize) * calib.get(
                algo.config.algid, 1.0
            )
        return out

    def _families_disagree(
        self, instance: Instance, supported: list[int],
        calib: dict[int, float], base_cid: int,
    ) -> bool:
        """Does the calibrated prior call the base model's pick bad?

        The active-sampling trigger: the learned family (base selector)
        and the analytical family (calibrated by feedback) disagree
        when the base pick's calibrated time exceeds the calibrated
        optimum by more than the policy margin — or when the base model
        has no coverage at all. Margin-based, not argmin-equality:
        config spaces contain exact analytical ties.
        """
        if base_cid < 0 or base_cid not in supported:
            return True
        times = self._calibrated_times(instance, supported, calib)
        best = min(times.values())
        return times[base_cid] > best * (1.0 + self.policy.margin)

    def _measure_column(
        self, instance: Instance, supported: list[int]
    ) -> list[tuple[int, float]]:
        """Benchmark one instance's supported configs on the shifted world."""
        nodes, ppn, msize = instance
        topo = Topology(nodes, ppn)
        out: list[tuple[int, float]] = []
        for cid in supported:
            algo = self._algos[cid]
            base = float(algo.base_time(self.machine, topo, msize))
            rng = as_generator(
                stable_seed(
                    "retrain", self.seed, str(self.collective),
                    nodes, ppn, msize, algo.config.algid,
                )
            )
            observed = float(
                self.machine.noise.sample(
                    base * self.shift.scale(algo.config.algid), rng
                )
            )
            out.append((cid, observed))
        return out

    # -- the retrain round ---------------------------------------------
    def retrain(
        self,
        rows: Sequence[FeedbackRow],
        *,
        n_jobs: int | None = None,
    ) -> RetrainResult:
        """One refit round over the current feedback log.

        Deterministic: the same ``(base dataset, rows, seed)`` yields a
        bit-identical merged dataset and selector.
        """
        telemetry = get_telemetry()
        kind = str(self.collective)
        mine = [r for r in rows if r.collective == kind]
        instances = sorted({(r.nodes, r.ppn, r.msize) for r in mine})
        calib = self.calibration(mine)
        supported = {inst: self._supported(inst) for inst in instances}
        full_grid = sum(len(cids) for cids in supported.values())

        flagged: list[Instance] = []
        if instances:
            nodes = np.asarray([i[0] for i in instances])
            ppn = np.asarray([i[1] for i in instances])
            msize = np.asarray([i[2] for i in instances])
            base_ids = self._base_selector.select_ids(nodes, ppn, msize)
            for inst, base_cid in zip(instances, base_ids):
                if self.policy.exhaustive or self._families_disagree(
                    inst, supported[inst], calib, int(base_cid)
                ):
                    flagged.append(inst)

        with telemetry.span(
            "retrain/measure", collective=kind, instances=len(instances),
            flagged=len(flagged),
        ):
            m_cid: list[int] = []
            m_nodes: list[int] = []
            m_ppn: list[int] = []
            m_msize: list[int] = []
            m_time: list[float] = []
            for inst in flagged:
                for cid, observed in self._measure_column(
                    inst, supported[inst]
                ):
                    m_cid.append(cid)
                    m_nodes.append(inst[0])
                    m_ppn.append(inst[1])
                    m_msize.append(inst[2])
                    m_time.append(observed)
        measured_samples = len(m_time)

        merged = self._merge(mine, flagged, m_cid, m_nodes, m_ppn,
                             m_msize, m_time)
        tuner = AutoTuner(
            self.machine, self.library, self.collective,
            learner=self.learner, seed=self.seed,
        )
        with telemetry.span(
            "retrain/fit", collective=kind, rows=len(merged),
        ):
            tuner.train(merged, n_jobs=n_jobs)

        residuals = sorted(r.residual for r in mine)
        log_shift = 0.0
        if residuals:
            mid = len(residuals) // 2
            log_shift = (
                residuals[mid]
                if len(residuals) % 2
                else 0.5 * (residuals[mid - 1] + residuals[mid])
            )
        self.detector.rebase(kind, log_shift)

        telemetry.add("retrain.rounds")
        telemetry.add("retrain.measured_samples", measured_samples)
        telemetry.event(
            "retrain_round", collective=kind, instances=len(instances),
            disagreements=len(flagged), measured_samples=measured_samples,
            full_grid_samples=full_grid, log_shift=log_shift,
        )
        return RetrainResult(
            collective=kind,
            instances=len(instances),
            disagreements=len(flagged),
            measured_samples=measured_samples,
            full_grid_samples=full_grid,
            log_shift=log_shift,
            tuner=tuner,
            dataset=merged,
        )

    def _merge(
        self,
        rows: list[FeedbackRow],
        flagged: list[Instance],
        m_cid: list[int],
        m_nodes: list[int],
        m_ppn: list[int],
        m_msize: list[int],
        m_time: list[float],
    ) -> PerfDataset:
        """Base minus stale sites, plus measurements, plus feedback."""
        base = self.base_dataset
        flagged_set = set(flagged)
        feedback_sites = {
            (r.nodes, r.ppn, r.msize, r.config_id) for r in rows
        }
        keep = np.asarray([
            (n, p, m) not in flagged_set
            and (n, p, m, c) not in feedback_sites
            for n, p, m, c in zip(
                base.nodes, base.ppn, base.msize, base.config_id
            )
        ], dtype=bool)
        name = f"{base.name}+retrain"
        pruned = PerfDataset(
            name=name,
            collective=base.collective,
            library=base.library,
            machine=base.machine,
            configs=base.configs,
            config_id=base.config_id[keep],
            nodes=base.nodes[keep],
            ppn=base.ppn[keep],
            msize=base.msize[keep],
            time=base.time[keep],
        )
        fresh = PerfDataset(
            name=name,
            collective=base.collective,
            library=base.library,
            machine=base.machine,
            configs=base.configs,
            config_id=np.asarray(
                m_cid + [r.config_id for r in rows], dtype=np.int64
            ),
            nodes=np.asarray(
                m_nodes + [r.nodes for r in rows], dtype=np.int64
            ),
            ppn=np.asarray(m_ppn + [r.ppn for r in rows], dtype=np.int64),
            msize=np.asarray(
                m_msize + [r.msize for r in rows], dtype=np.int64
            ),
            time=np.asarray(
                m_time + [r.observed_time for r in rows], dtype=float
            ),
        )
        fresh.validate()
        if not len(fresh):
            return pruned
        merged = pruned.merge(fresh, name=name)
        merged.validate()
        return merged

    # -- the watch loop ------------------------------------------------
    def watch(
        self,
        feedback_path: str | Path,
        *,
        interval_s: float = 0.5,
        max_rounds: int = 0,
        stop: threading.Event | None = None,
        on_result: Callable[[RetrainResult], None] | None = None,
        n_jobs: int | None = None,
    ) -> list[RetrainResult]:
        """Poll the feedback log; retrain whenever drift fires.

        ``max_rounds`` > 0 exits after that many retrains (the CI
        one-shot uses 1); otherwise the loop runs until ``stop`` is
        set. ``on_result`` is the publish hook — the CLI writes rules
        and pokes the fleet's two-phase reload from it.
        """
        stop = stop if stop is not None else threading.Event()
        results: list[RetrainResult] = []
        telemetry = get_telemetry()
        while not stop.is_set():
            rows = read_feedback(feedback_path)
            drifting = self.scan(rows)
            if drifting:
                telemetry.add("retrain.triggers")
                telemetry.event(
                    "retrain_triggered",
                    collectives=",".join(
                        sorted({s.collective for s in drifting})
                    ),
                    excess=max(s.excess for s in drifting),
                )
                result = self.retrain(rows, n_jobs=n_jobs)
                results.append(result)
                if on_result is not None:
                    on_result(result)
                if max_rounds and len(results) >= max_rounds:
                    break
            stop.wait(interval_s)
        return results


__all__ = [
    "Instance",
    "RetrainPolicy",
    "RetrainResult",
    "Retrainer",
    "oracle_ids",
    "selection_agreement",
]

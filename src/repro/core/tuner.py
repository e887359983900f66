"""High-level auto-tuning façade: benchmark -> train -> select.

:class:`AutoTuner` wires the whole paper pipeline together for one
(machine, library, collective) triple. It is what the examples and the
CLI drive; the experiment scripts use the lower-level pieces directly
because they need the Table III train/test discipline.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

from repro.bench.faults import FaultSpec, RetryPolicy
from repro.bench.repro_mpi import BenchmarkSpec
from repro.bench.runner import DatasetRunner, GridSpec
from repro.collectives.base import AlgorithmConfig, CollectiveKind
from repro.core.config_gen import (
    DEFAULT_MSIZES,
    render_json,
    render_ompi_rules,
    selection_table,
    validate_rules,
)
from repro.core.dataset import PerfDataset
from repro.core.selector import AlgorithmSelector, NoModelError
from repro.machine.model import MachineModel
from repro.machine.topology import Topology
from repro.ml import PAPER_LEARNERS
from repro.ml.base import Regressor
from repro.mpilib.base import MPILibrary
from repro.obs import get_telemetry


@dataclass
class AutoTuner:
    """One-stop tuning pipeline for a collective on a machine."""

    machine: MachineModel
    library: MPILibrary
    collective: CollectiveKind | str
    learner: str | Callable[[], Regressor] = "GAM"
    bench_spec: BenchmarkSpec = field(default_factory=BenchmarkSpec)
    seed: int = 0
    #: optional deterministic fault injection for the campaign
    faults: FaultSpec | None = None
    #: transient-fault retry policy (campaign layer)
    retry: RetryPolicy | None = None

    def __post_init__(self) -> None:
        self.collective = CollectiveKind(self.collective)
        if isinstance(self.learner, str):
            try:
                self._learner_factory = PAPER_LEARNERS[self.learner]
            except KeyError:
                raise ValueError(
                    f"unknown learner {self.learner!r}; "
                    f"choose from {sorted(PAPER_LEARNERS)} or pass a factory"
                ) from None
        else:
            self._learner_factory = self.learner
        self.dataset_: PerfDataset | None = None
        self.selector_: AlgorithmSelector | None = None
        #: quarantined measurement sites of the last campaign
        self.quarantine_: list = []
        #: training-grid axes captured by train(); serves servable()
        self._grid_axes: tuple[tuple[int, ...], ...] = ((), (), ())

    # ------------------------------------------------------------------
    def benchmark(
        self,
        grid: GridSpec,
        exclude_algids: tuple[int, ...] = (),
        name: str = "",
        n_jobs: int | None = None,
        checkpoint: str | None = None,
        resume: bool = False,
    ) -> PerfDataset:
        """Run the benchmark campaign (the offline training-data step).

        ``n_jobs`` spreads the grid's (nodes, ppn) columns over a
        thread pool (default: the ``REPRO_JOBS`` environment variable,
        else serial); the dataset is bit-identical either way.
        ``checkpoint``/``resume`` journal completed chunks so an
        interrupted campaign can resume bit-identically (see
        :meth:`repro.bench.runner.DatasetRunner.run`).
        """
        runner = DatasetRunner(
            self.machine, self.library, self.bench_spec, seed=self.seed,
            faults=self.faults, retry=self.retry,
        )
        self.dataset_ = runner.run(
            self.collective, grid, name=name,
            exclude_algids=exclude_algids, n_jobs=n_jobs,
            checkpoint=checkpoint, resume=resume,
        )
        self.quarantine_ = runner.quarantine_
        return self.dataset_

    def train(
        self,
        dataset: PerfDataset | None = None,
        n_jobs: int | None = None,
    ) -> AlgorithmSelector:
        """Fit the per-configuration regression ensemble.

        ``n_jobs`` trains the per-configuration models concurrently
        (thread pool; result identical for any worker count).
        """
        ds = dataset if dataset is not None else self.dataset_
        if ds is None:
            raise RuntimeError("benchmark() first, or pass a dataset")
        self.selector_ = AlgorithmSelector(self._learner_factory).fit(
            ds, n_jobs=n_jobs
        )
        # remember the training grid: it is the natural serving grid
        # for this selector (see servable())
        self._grid_axes = (
            tuple(int(v) for v in sorted(set(ds.nodes.tolist()))),
            tuple(int(v) for v in sorted(set(ds.ppn.tolist()))),
            tuple(int(v) for v in sorted(set(ds.msize.tolist()))),
        )
        return self.selector_

    # ------------------------------------------------------------------
    def default_config(self, nodes: int, ppn: int, msize: int) -> AlgorithmConfig:
        """The library's built-in decision logic for one instance.

        The graceful-degradation floor: whatever happened to the models
        — every candidate quarantined, the whole ensemble unusable —
        this answer is always available and always valid, because it is
        exactly what the library would have done without us.
        """
        return self.library.default_config(
            self.machine, Topology(nodes, ppn), self.collective, msize
        )

    def recommend(self, nodes: int, ppn: int, msize: int) -> AlgorithmConfig:
        """Predicted-fastest configuration for an (unseen) instance.

        Always queries the live models (exact argmin). When no model
        covers the instance (all candidates quarantined), the
        library's default decision logic answers instead — counted as
        ``tuner.fallback_default`` and reported via a
        ``tuner_fallback`` event.
        """
        if self.selector_ is None:
            raise RuntimeError("train() first")
        telemetry = get_telemetry()
        telemetry.add("tuner.recommend_full")
        try:
            return self.selector_.select(nodes, ppn, msize)
        except NoModelError:
            return self._fallback(nodes, ppn, msize, source="recommend")

    def _fallback(
        self, nodes: int, ppn: int, msize: int, *, source: str
    ) -> AlgorithmConfig:
        config = self.default_config(nodes, ppn, msize)
        telemetry = get_telemetry()
        telemetry.add("tuner.fallback_default")
        telemetry.event(
            "tuner_fallback", source=source, nodes=nodes, ppn=ppn,
            msize=msize, config=config.label,
        )
        return config

    def servable(self):
        """Package the trained selector as a servable model.

        Returns a :class:`repro.serve.registry.SelectorModel` whose
        serving grid is the training grid. Publish it with
        :meth:`repro.serve.registry.ModelRegistry.publish` to put this
        tuner behind a :class:`~repro.serve.service.PredictionService`.
        """
        if self.selector_ is None:
            raise RuntimeError("train() first")
        from repro.serve.registry import SelectorModel  # avoid cycle

        return SelectorModel(
            selector=self.selector_,
            collective=self.collective,
            grid_axes=self._grid_axes,
        )

    def write_rules(
        self,
        path: str,
        nodes: int,
        ppn: int,
        msizes: tuple[int, ...] = DEFAULT_MSIZES,
        fmt: str = "ompi",
    ) -> str:
        """Write the per-allocation selection table to ``path``.

        Returns the rendered text. ``fmt`` is ``"ompi"`` (dynamic rules
        file) or ``"json"``.

        Robustness: message sizes no model covers fall back to the
        library's default decision logic (``tuner.fallback_default``),
        so the emitted file is always complete; the rendered text is
        **validated by parsing it back**
        (:func:`~repro.core.config_gen.validate_rules` — malformed,
        NaN or negative entries abort before touching disk); and the
        write is atomic (tmp + ``os.replace``, matching
        :meth:`~repro.core.dataset.PerfDataset.save`), so a crash
        mid-write can never leave a torn rules file for ``mpirun`` to
        load.
        """
        if self.selector_ is None:
            raise RuntimeError("train() first")

        def fallback(msize: int) -> AlgorithmConfig:
            return self._fallback(nodes, ppn, msize, source="write_rules")

        table = selection_table(
            self.selector_, nodes, ppn, msizes, fallback=fallback
        )
        if fmt == "ompi":
            text = render_ompi_rules(self.collective, nodes, ppn, table)
        elif fmt == "json":
            text = render_json(self.collective, nodes, ppn, table)
        else:
            raise ValueError(f"unknown format {fmt!r}")
        validate_rules(text, fmt, self.collective)
        target = Path(path)
        tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(text)
            os.replace(tmp, target)  # atomic on POSIX
        finally:
            if tmp.exists():  # failed write: leave no droppings
                tmp.unlink()
        return text

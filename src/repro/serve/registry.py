"""Versioned model registry with atomic hot-reload.

The registry is the serving layer's source of truth: per collective it
holds exactly one *live* :class:`ModelVersion`, and swaps are atomic —
a new rule set or selector is parsed, resolved against the library's
configuration space and round-trip **validated before the swap**; the
old version keeps serving until the new one passes, and a rejected
candidate leaves the live version untouched (``serve_reload`` event
with ``status="rejected"``). Readers never lock: they take one
reference to an immutable snapshot mapping, so a request observes
either the entire old registry state or the entire new one — never a
torn mixture (the concurrency tests hammer exactly this).

Graceful degradation mirrors :class:`repro.core.tuner.AutoTuner`: when
no live model covers an instance (or no model is published for the
collective at all), :meth:`ModelRegistry.default_config` answers with
the library's built-in decision logic — the floor that is always
available and always valid.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, runtime_checkable

import numpy as np

from repro.collectives.base import AlgorithmConfig, CollectiveKind
from repro.core.selector import AlgorithmSelector
from repro.machine.model import MachineModel
from repro.machine.topology import Topology
from repro.mpilib.base import MPILibrary
from repro.obs import get_telemetry
from repro.serve.rules import RuleSet, RulesModel


class ReloadError(RuntimeError):
    """A candidate model failed validation and was not swapped in."""


@runtime_checkable
class ServableModel(Protocol):
    """What the registry serves: a batched instance -> config mapping."""

    @property
    def collective(self) -> CollectiveKind: ...

    @property
    def grid_axes(
        self,
    ) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]: ...

    def select_configs(
        self, nodes: np.ndarray, ppn: np.ndarray, msize: np.ndarray
    ) -> list[AlgorithmConfig | None]: ...

    def describe(self) -> str: ...


@dataclass(frozen=True)
class SelectorModel:
    """A fitted :class:`~repro.core.selector.AlgorithmSelector` as a servable.

    ``grid_axes`` records the serving grid (normally the training
    grid): :func:`repro.serve.compiled.compile_selector` lowers the
    selector's argmin over exactly these axes into the compiled L0
    table of :class:`~repro.serve.service.PredictionService`.
    """

    selector: AlgorithmSelector
    collective: CollectiveKind
    grid_axes: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]

    def select_configs(
        self, nodes: np.ndarray, ppn: np.ndarray, msize: np.ndarray
    ) -> list[AlgorithmConfig | None]:
        return self.selector.select_many(nodes, ppn, msize)

    def describe(self) -> str:
        nodes, ppns, msizes = self.grid_axes
        return (
            f"selector[{self.collective}, {self.selector.num_models} models, "
            f"grid {len(nodes)}x{len(ppns)}x{len(msizes)}]"
        )


@dataclass(frozen=True)
class ModelVersion:
    """One immutable published model: what serves, and its lineage."""

    collective: CollectiveKind
    version: int
    tag: str
    source: str  #: "rules" | "selector"
    model: ServableModel


@dataclass(frozen=True)
class StagedModel:
    """A validated candidate that has *not* swapped in yet.

    The two-phase currency of coordinated reloads: the fleet's prepare
    phase calls :meth:`ModelRegistry.stage_rules` on every worker (full
    parse/resolve/validate, traffic still flowing on the old version),
    and only when **all** workers hold a staged candidate does the
    commit phase swap them in under the front-end's request barrier —
    :meth:`ModelRegistry.commit` cannot fail, so no worker can be left
    on a different version than its peers. Discarding a staged model
    (the abort path) is just dropping the reference.
    """

    collective: CollectiveKind
    tag: str
    source: str
    model: ServableModel


class ModelRegistry:
    """Per-(machine, library) registry of live models, one per collective."""

    def __init__(self, machine: MachineModel, library: MPILibrary) -> None:
        self.machine = machine
        self.library = library
        #: immutable snapshot swapped wholesale under _write_lock;
        #: readers take one reference and never lock
        self._live: dict[CollectiveKind, ModelVersion] = {}
        self._write_lock = threading.Lock()
        self._next_version = 1

    # -- read path -----------------------------------------------------
    def get(self, collective: CollectiveKind | str) -> ModelVersion | None:
        """The live version for ``collective`` (None = nothing published)."""
        # str-enum keys make the direct probe valid for both a
        # CollectiveKind and its value; the coercion (which costs more
        # than a whole compiled-table lookup) only runs on a miss
        live = self._live
        mv = live.get(collective)
        if mv is None:
            mv = live.get(CollectiveKind(collective))
        return mv

    def snapshot(self) -> dict[CollectiveKind, ModelVersion]:
        """A point-in-time view of every live model (already immutable)."""
        return dict(self._live)

    def collectives(self) -> list[CollectiveKind]:
        return sorted(self._live, key=str)

    def default_config(
        self, collective: CollectiveKind | str, nodes: int, ppn: int,
        msize: int,
    ) -> AlgorithmConfig:
        """The library's built-in decision logic — the degradation floor."""
        return self.library.default_config(
            self.machine, Topology(nodes, ppn), CollectiveKind(collective),
            msize,
        )

    # -- write path ----------------------------------------------------
    def stage(
        self, model: ServableModel, *, tag: str = "", source: str = "selector"
    ) -> StagedModel:
        """Validate ``model`` into a :class:`StagedModel` — no swap yet.

        The probe selection runs here, *before* any swap: a model that
        cannot answer for its own grid centre (or answers with a config
        outside the library's space) is rejected with
        :class:`ReloadError` and the live version is untouched.
        """
        telemetry = get_telemetry()
        collective = CollectiveKind(model.collective)
        try:
            self._validate(model, collective)
        except Exception as exc:
            telemetry.add("serve.reload_rejected")
            telemetry.event(
                "serve_reload", status="rejected", collective=str(collective),
                tag=tag, error=f"{type(exc).__name__}: {exc}",
            )
            raise ReloadError(
                f"candidate model for {collective} rejected: {exc}"
            ) from exc
        return StagedModel(
            collective=collective, tag=tag or model.describe(),
            source=source, model=model,
        )

    def commit(self, staged: StagedModel) -> ModelVersion:
        """Atomically make a staged candidate the live version.

        Pure swap — all validation already happened in :meth:`stage`,
        so this cannot raise: the property the fleet's commit barrier
        depends on (once every worker has staged, every worker *will*
        swap, and version numbers stay in lockstep).
        """
        telemetry = get_telemetry()
        with self._write_lock:
            previous = self._live.get(staged.collective)
            version = ModelVersion(
                collective=staged.collective,
                version=self._next_version,
                tag=staged.tag,
                source=staged.source,
                model=staged.model,
            )
            self._next_version += 1
            # wholesale replacement: readers holding the old dict keep a
            # fully consistent old view; new readers see the new one
            self._live = {**self._live, staged.collective: version}
        telemetry.add("serve.reloads")
        telemetry.event(
            "serve_reload", status="ok", collective=str(staged.collective),
            version=version.version, tag=version.tag, source=staged.source,
            replaces=previous.version if previous else None,
        )
        return version

    def publish(
        self, model: ServableModel, *, tag: str = "", source: str = "selector"
    ) -> ModelVersion:
        """Validate ``model`` and atomically make it the live version.

        One-shot :meth:`stage` + :meth:`commit` — the single-process
        reload path (the fleet splits the two phases across workers).
        """
        return self.commit(self.stage(model, tag=tag, source=source))

    def stage_rules(
        self, path: str | Path, *, tag: str | None = None
    ) -> StagedModel:
        """Parse, resolve and validate a rules file — no swap yet.

        Any failure — unreadable file, malformed table, rule outside the
        library's space, failed round trip — raises
        :class:`ReloadError` *without* touching the live version.
        """
        path = Path(path)
        try:
            rule_set = RuleSet.load(path)
            model = rule_set.resolve(self.library)
        except (OSError, ValueError) as exc:
            telemetry = get_telemetry()
            telemetry.add("serve.reload_rejected")
            telemetry.event(
                "serve_reload", status="rejected", tag=tag or path.name,
                error=f"{type(exc).__name__}: {exc}",
            )
            raise ReloadError(f"cannot load rules from {path}: {exc}") from exc
        return self.stage(model, tag=tag or path.name, source="rules")

    def load_rules(self, path: str | Path, *, tag: str | None = None) -> ModelVersion:
        """Parse, resolve and validate a rules file, then hot-swap it in."""
        return self.commit(self.stage_rules(path, tag=tag))

    # -- validation ----------------------------------------------------
    def _validate(
        self, model: ServableModel, collective: CollectiveKind
    ) -> None:
        if isinstance(model, RulesModel):
            model.validate(self.library)
            self._probe_compiled(model)
        nodes_axis, ppn_axis, msize_axis = model.grid_axes
        if not (nodes_axis and ppn_axis and msize_axis):
            raise ValueError("model has an empty serving grid")
        probe_n = nodes_axis[len(nodes_axis) // 2]
        probe_p = ppn_axis[len(ppn_axis) // 2]
        probe_m = msize_axis[len(msize_axis) // 2]
        picks = model.select_configs(
            np.asarray([probe_n]), np.asarray([probe_p]),
            np.asarray([probe_m]),
        )
        if len(picks) != 1:
            raise ValueError(
                f"probe selection returned {len(picks)} results for 1 query"
            )
        space = set(self.library.config_space(collective).configs)
        for config in picks:
            if config is not None and config not in space:
                raise ValueError(
                    f"probe selected {config.label} which is outside "
                    f"{self.library.name}'s {collective} space"
                )

    def _probe_compiled(self, model: "RulesModel") -> None:
        """Compiled/interpreted agreement probe, run before the swap.

        The L0 decision-table lowering of a rules model is cheap enough
        to build eagerly, so every rule boundary (and its neighbours,
        where bracket-edge bugs live) is cross-checked against the
        interpreted lookup here — a mis-lowered table is rejected at
        publish time instead of serving wrong configs sub-microsecond
        fast. Selector-backed models skip this: their lowering needs a
        full ``predict_times`` sweep and is pinned by the property suite
        instead.
        """
        from repro.serve.compiled import compile_servable  # cycle guard

        table = compile_servable(model, version=0)
        if table is None:
            return
        probes: list[int] = []
        for m in model.bracket_bounds.tolist():
            probes.extend((max(m - 1, 0), m, m + 1))
        probes.append(min(int(model.bracket_bounds[-1]) * 2 + 7, 1 << 62))
        want = model.select_configs(
            None, None, np.asarray(probes, dtype=np.int64)
        )
        for msize, expected in zip(probes, want, strict=True):
            cid = table.lookup(0, 0, msize)
            if cid >= 0 and table.configs[cid] != expected:
                raise ValueError(
                    f"compiled table disagrees with the rules bracket at "
                    f"msize={msize}"
                )

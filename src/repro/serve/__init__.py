"""Prediction serving layer: the tuner as a servable component.

The paper's end product is an algorithm-selection oracle queried at
``mpirun`` time; this package is the request path that makes the oracle
cheap enough to sit on that critical path and safe enough to keep
running while models change underneath it:

* :class:`~repro.serve.registry.ModelRegistry` — one live, versioned
  model per collective; atomic hot-reload of tuned rule sets with
  validation **before** the swap and graceful degradation to the
  library default.
* :class:`~repro.serve.service.PredictionService` — one fixed
  answer ladder: compiled table (L0), interned-key recommendation LRU
  (L1), then request batching/coalescing in front of the exact model
  (concurrent misses for one collective merge into a single vectorised
  lookup), then the library default.
* :mod:`repro.serve.rules` — Open MPI dynamic rules files as servable
  models, parsed and re-rendered byte-stably.
* :mod:`repro.serve.compiled` — the decision-table compiler: rules
  tables and fitted selectors lowered into flat branchless lookup
  tables, the opt-in L0 tier that answers covered instances in one
  array index.
* :mod:`repro.serve.loop` — the stdin/JSONL request loop behind
  ``mpicollpred serve``.

See ``docs/serving.md`` for the architecture, cache levels, reload
protocol and failure modes.
"""

from repro.serve.cache import KeyInterner, LRUCache
from repro.serve.chaos import ChaosEvent, FleetChaosPlan, build_plan
from repro.serve.compiled import (
    CompiledTable,
    compile_rules_model,
    compile_selector,
    compile_servable,
)
from repro.serve.loop import handle_request, serve_lines
from repro.serve.exporter import render_prometheus, sanitize_metric_name
from repro.serve.fleet import (
    Fleet,
    FleetSpec,
    FleetSupervisor,
    FleetThread,
    HashRing,
    OverloadedError,
    WorkerError,
)
from repro.serve.registry import (
    ModelRegistry,
    ModelVersion,
    ReloadError,
    SelectorModel,
    ServableModel,
    StagedModel,
)
from repro.serve.rules import (
    RuleSet,
    RulesModel,
    RulesResolutionError,
    config_rule_key,
)
from repro.serve.service import PredictionService, Recommendation

__all__ = [
    "ChaosEvent",
    "CompiledTable",
    "Fleet",
    "FleetChaosPlan",
    "FleetSpec",
    "FleetSupervisor",
    "FleetThread",
    "HashRing",
    "KeyInterner",
    "LRUCache",
    "ModelRegistry",
    "ModelVersion",
    "OverloadedError",
    "PredictionService",
    "Recommendation",
    "ReloadError",
    "RuleSet",
    "RulesModel",
    "RulesResolutionError",
    "SelectorModel",
    "ServableModel",
    "StagedModel",
    "WorkerError",
    "build_plan",
    "compile_rules_model",
    "compile_selector",
    "compile_servable",
    "config_rule_key",
    "handle_request",
    "render_prometheus",
    "sanitize_metric_name",
    "serve_lines",
]

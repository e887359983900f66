"""``retrain``: the serve -> measure -> retrain loop, in process.

Set-up is the base campaign and GAM fit on TinyTestbed bcast, the
scenario ``scripts/bench_report.retrain_metrics`` grades: campaign
seed 1, feedback seed 3, the dominant algorithm family slowed 2x. One
op, on fresh objects:

1. publish the base model into a new ``ModelRegistry``;
2. serve the drifting traffic mix one ``recommend`` at a time through
   ``PredictionService(feedback=FeedbackLogger(...))`` (GAM exact tier,
   no compiled tables);
3. ``read_feedback``; construct a ``Retrainer``; ``scan``; ``retrain``;
4. ``registry.publish`` the refit and serve the mix again on it.

The scenario is fixed because the closed loop's contract (drift fires,
budget at most half an exhaustive refit, agreement equal to that
refit's) is claimed for it; the workload seed sets the order in which
the traffic mix arrives. Every op is identical, so budget and agreement
are checked exactly.

Why this workload: it reads and writes through ``repro.serve``
(feedback appends and a registry publish next to GAM exact-tier reads)
and spends its time in ``repro.core``'s retrain and ``repro.obs``'s
drift scan; a fleet-transport or boosting change predicts no change.
"""

from __future__ import annotations

import os
import random
import shutil
import time
from collections import Counter
from pathlib import Path

from common import (
    closed_loop, cpu_seconds, derive_seed, end_to_end, median, peak_rss_mb,
)
from spans import count_per_iter, per_iter

MSIZES = (64, 1024, 4096, 65_536, 262_144, 1_048_576)
GRID = dict(nodes=(2, 4, 8), ppns=(1, 2), msizes=MSIZES)
CAMPAIGN_SEED = 1
FEEDBACK_SEED = 3
SHIFT = 2.0
MARGIN = 0.10
MAX_BUDGET = 0.5
SETUP_REPEATS = 5


def arrival_order(seed: int, mix: list) -> list:
    """The traffic mix in the order the workload seed gives it."""
    out = list(mix)
    random.Random(derive_seed("retrain-mix", seed)).shuffle(out)
    return out


def _setup():
    from repro.bench.repro_mpi import BenchmarkSpec
    from repro.bench.runner import GridSpec
    from repro.core.tuner import AutoTuner
    from repro.machine.zoo import tiny_testbed
    from repro.mpilib import get_library

    tuner = AutoTuner(
        tiny_testbed, get_library("Open MPI"), "bcast", learner="GAM",
        bench_spec=BenchmarkSpec(max_nreps=30), seed=CAMPAIGN_SEED,
    )
    base = tuner.benchmark(GridSpec(**GRID))
    tuner.train()
    return tuner, base


def run(ctx) -> dict:
    import numpy as np

    from repro.core import feedback as fb
    from repro.core.retrain import (
        Retrainer, RetrainPolicy, selection_agreement, shifted_times,
    )
    from repro.machine.zoo import tiny_testbed
    from repro.serve.registry import ModelRegistry
    from repro.serve.service import PredictionService, Recommendation

    setup = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        tuner, base = _setup()
        setup.append(time.perf_counter() - t0)

    # benchmark-side inputs and reference, outside set-up time
    library = tuner.library
    configs = library.config_space("bcast").configs
    instances = [(n, p, m) for n in GRID["nodes"] for p in GRID["ppns"]
                 for m in MSIZES]
    chosen = {inst: int(tuner.selector_.select_ids(*inst)[0])
              for inst in instances}
    dominant = Counter(
        configs[c].algid for c in chosen.values() if c >= 0
    ).most_common(1)[0][0]
    shift = fb.WorldShift(factor=SHIFT, algids=(dominant,))
    hot = [i for i in instances if configs[chosen[i]].algid == dominant]
    mix = arrival_order(ctx.seed, list(instances) + 3 * hot)
    policy = RetrainPolicy(margin=MARGIN)
    feedback_dir = ctx.work / "feedback"

    def feedback_config(path: Path):
        return fb.FeedbackConfig(
            path=str(path), seed=FEEDBACK_SEED, shift=SHIFT,
            shift_algids=(dominant,),
        )

    # selection_agreement re-derives these analytical times on every
    # call, which would cost each op ~15% of its iteration in checks
    oracle = [shifted_times(tiny_testbed, library, "bcast", inst,
                            shift=shift) for inst in instances]
    columns = [np.asarray(col) for col in zip(*instances, strict=True)]

    def agreement(selector) -> float:
        """``selection_agreement`` over the precomputed shifted times."""
        hits = 0
        for times, cid in zip(oracle, selector.select_ids(*columns),
                              strict=True):
            best = float(np.min(times))
            if cid >= 0 and np.isfinite(best) and (
                times[cid] <= best * (1.0 + MARGIN)
            ):
                hits += 1
        return hits / len(instances)

    # the exhaustive refit the active one must match, on the same rows
    ref_log = fb.FeedbackLogger(
        feedback_config(feedback_dir / "reference.jsonl"),
        tiny_testbed, library,
    )
    for n, p, m in mix:
        ref_log.record(Recommendation(
            collective="bcast", nodes=n, ppn=p, msize=m,
            config=configs[chosen[(n, p, m)]], source="model", version=1,
        ))
    ref_log.close()
    ref_rows = fb.read_feedback(ref_log.path)
    exhaustive = Retrainer(
        tiny_testbed, library, "bcast", base, seed=CAMPAIGN_SEED,
        learner="GAM", shift=shift,
        policy=RetrainPolicy(margin=MARGIN, exhaustive=True),
    ).retrain(ref_rows)
    ref_agreement = agreement(exhaustive.selector)
    if ref_agreement != selection_agreement(
        exhaustive.selector, tiny_testbed, library, "bcast", instances,
        shift=shift, margin=MARGIN,
    ):
        raise AssertionError("agreement disagrees with selection_agreement")
    first: dict = {}
    tracer = ctx.tracer

    def op(i: int):
        with tracer.span("iter"):
            path = feedback_dir / f"op{i}" / "feedback.jsonl"
            with tracer.span("op"):
                t0 = time.perf_counter()
                registry = ModelRegistry(tiny_testbed, library)
                registry.publish(tuner.servable())
                logger = fb.FeedbackLogger(
                    feedback_config(path), tiny_testbed, library
                )
                service = PredictionService(registry, feedback=logger)
                for n, p, m in mix:
                    service.recommend("bcast", n, p, m)
                rows = fb.read_feedback(path)
                retrainer = Retrainer(
                    tiny_testbed, library, "bcast", base,
                    seed=CAMPAIGN_SEED, learner="GAM", shift=shift,
                    policy=policy,
                )
                drifting = retrainer.scan(rows)
                result = retrainer.retrain(rows)
                version = registry.publish(result.tuner.servable())
                served = [service.recommend("bcast", n, p, m)
                          for n, p, m in mix]
                logger.close()
                latency = time.perf_counter() - t0
            with tracer.span("check.retrain"):
                quality = agreement(result.selector)
                _check(i, drifting, result, quality, ref_agreement,
                       ref_rows, rows, version, served, first)
            shutil.rmtree(path.parent)
        return latency, {"quality": quality,
                         "budget_frac": result.budget_frac}

    counters0 = _counters()
    pid = os.getpid()
    tracer.install()
    try:
        loop = closed_loop(op, ctx.seconds, lambda: cpu_seconds(pid))
    finally:
        tracer.uninstall()
    counters1 = _counters()
    metrics = end_to_end(
        loop, setup_s=median(setup), cpu_s=loop.cpu_s,
        peak_mb=peak_rss_mb(pid),
        quality=first.get("quality", 0.0),
    )

    def delta(name: str) -> int:
        return counters1.get(name, 0) - counters0.get(name, 0)

    requests = delta("serve.requests") or 1
    layers = {}
    if tracer.enabled:
        iters = tracer.iterations()
        served_per_iter = count_per_iter(iters, "serve.recommend")
        fits = [s.duration for it in iters for s in it.walk()
                if s.name == "ml.model_fit"]
        layers = {
            "serve.feedback_serve_ms_per_req": median([
                t * 1e3 / max(n, 1) for t, n in zip(
                    per_iter(iters, "serve.recommend"), served_per_iter,
                    strict=True,
                )
            ]),
            "core.feedback_read_ms":
                median(per_iter(iters, "core.feedback_read")) * 1e3,
            "core.retrainer_init_ms":
                median(per_iter(iters, "core.retrainer_init")) * 1e3,
            "obs.drift_scan_ms":
                median(per_iter(iters, "obs.drift_scan")) * 1e3,
            "core.retrain_ms": median(per_iter(iters, "core.retrain")) * 1e3,
            "core.retrain_measure_ms":
                median(per_iter(iters, "retrain/measure")) * 1e3,
            "core.retrain_fit_ms":
                median(per_iter(iters, "retrain/fit")) * 1e3,
            "serve.publish_ms": median(per_iter(iters, "serve.publish")) * 1e3,
            "core.budget_frac": first.get("budget_frac", 0.0),
            "core.fit_s": median(per_iter(iters, "core.fit")),
            "ml.model_fit_ms": median(fits) * 1e3 if fits else 0.0,
            "ml.fit_models": median(count_per_iter(iters, "ml.model_fit")),
            "serve.l0_hit_frac": delta("serve.compiled.hit") / requests,
            "serve.l1_hit_frac": delta("serve.l1.hits") / requests,
            "serve.exact_frac": delta("serve.l1.misses") / requests,
        }
    return {
        "loop": loop,
        "metrics": metrics,
        "layers": layers,
        "record": {
            "setup_samples_s": setup,
            "dominant_algid": dominant,
            "mix_len": len(mix),
            "reference_agreement": ref_agreement,
            "reference_budget_frac": exhaustive.budget_frac,
            "feedback_errors": delta("serve.feedback.errors"),
        },
    }


def _counters() -> dict[str, int]:
    from repro.obs import get_telemetry

    return get_telemetry().counters_snapshot()


def _check(i, drifting, result, quality, ref_agreement, ref_rows, rows,
           version, served, first) -> None:
    """The op's correctness contract; raising fails the op."""
    import numpy as np

    if not drifting:
        raise AssertionError("drift did not fire on the shifted feedback")
    if [r.to_json() for r in rows] != [r.to_json() for r in ref_rows]:
        raise AssertionError("served feedback rows differ from the reference")
    if result.budget_frac > MAX_BUDGET:
        raise AssertionError(f"budget_frac {result.budget_frac} > {MAX_BUDGET}")
    if quality != ref_agreement:
        raise AssertionError(
            f"agreement {quality} != exhaustive refit's {ref_agreement}"
        )
    picks = result.selector.select_ids(
        np.asarray([r.nodes for r in served]),
        np.asarray([r.ppn for r in served]),
        np.asarray([r.msize for r in served]),
    )
    for rec, cid in zip(served, picks, strict=True):
        if rec.version != version.version or rec.config != (
            result.selector.configs_[int(cid)]
        ):
            raise AssertionError("re-served answer is not the refit's pick")
    if i == 0:
        first.update(quality=quality, budget_frac=result.budget_frac)
    elif (quality, result.budget_frac) != (
        first.get("quality"), first.get("budget_frac")
    ):
        raise AssertionError("an identical op gave a different result")

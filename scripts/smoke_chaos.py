#!/usr/bin/env python3
"""CI chaos smoke: run a campaign under fault injection, kill it
mid-flight, resume it, and check the learned selections survive.

Four phases (the fault-injected sibling of ``smoke_resume.py``):

1. **Oracle** — generate the dataset fault-free.
2. **Chaos reference** — same campaign under ``FaultSpec.uniform``
   fault injection (stragglers, jitter, lost observations, chunk
   crashes, torn journal writes), uninterrupted.
3. **Interrupt + resume** — ``smoke_resume.interrupt_resume_report``
   with the same faults: rerun the chaos campaign, kill it at ~40% via
   the progress callback, then resume through the real CLI
   (``generate --chaos --resume``) and verify the result is
   **bit-identical** to the chaos reference, column by column, and
   that ``report`` digests its telemetry log.
4. **Selection divergence** — train one selector per dataset and
   require the selections to agree on at least ``SMOKE_CHAOS_TOL``
   (default 95%) of the instance grid. A differing pick still counts
   as agreement when the oracle model rates it within
   ``SMOKE_CHAOS_TIE`` (default 2%) of its own best — at a 5% fault
   rate the only flips we accept are near-ties, never real
   regressions.

Honors ``REPRO_JOBS``; exits non-zero on any violation.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from pathlib import Path

import numpy as np

from smoke_resume import (
    DID,
    SEED,
    SmokeFailure,
    fail,
    interrupt_resume_report,
)

from repro.bench.faults import FaultSpec
from repro.core.dataset import PerfDataset
from repro.core.selector import AlgorithmSelector
from repro.experiments.datasets import generate_dataset
from repro.ml import KNNRegressor

RATE = float(os.environ.get("SMOKE_CHAOS_RATE", "0.05"))
TOL = float(os.environ.get("SMOKE_CHAOS_TOL", "0.95"))
TIE = float(os.environ.get("SMOKE_CHAOS_TIE", "0.02"))


def fit(dataset: PerfDataset) -> AlgorithmSelector:
    selector = AlgorithmSelector(lambda: KNNRegressor(), min_samples=8)
    return selector.fit(dataset)


def agreement_rate(oracle: PerfDataset, chaos: PerfDataset) -> float:
    """Fraction of grid cells whose selection survives the faults.

    A cell agrees when both selectors pick the same configuration, or
    when the chaos pick is a near-tie: the *oracle* model rates it
    within ``TIE`` of its own best prediction.
    """
    mesh = oracle.instances()
    n, p, m = mesh[:, 0], mesh[:, 1], mesh[:, 2]
    times_oracle = fit(oracle).predict_times(n, p, m)
    ids_oracle = np.argmin(times_oracle, axis=1)
    ids_chaos = fit(chaos).select_ids(n, p, m)
    best = times_oracle[np.arange(len(mesh)), ids_oracle]
    picked = times_oracle[np.arange(len(mesh)), ids_chaos]
    ok = (ids_chaos == ids_oracle) | (picked <= best * (1.0 + TIE))
    return float(np.mean(ok))


def main() -> int:
    workdir = Path(tempfile.mkdtemp(prefix="smoke-chaos-"))
    jobs = os.environ.get("REPRO_JOBS", "1")
    faults = FaultSpec.uniform(RATE, seed=SEED)
    print(f"workdir={workdir} dataset={DID} rate={RATE} REPRO_JOBS={jobs}")

    # -- phase 1: fault-free oracle -----------------------------------
    oracle = generate_dataset(DID, "ci", seed=SEED)
    print(f"oracle: {len(oracle)} samples")

    # -- phase 2: uninterrupted chaos reference -----------------------
    reference = generate_dataset(DID, "ci", seed=SEED, faults=faults)
    reference.validate()  # faults must never leak NaN/negative rows
    print(f"chaos reference: {len(reference)} samples")

    # -- phase 3: interrupt mid-campaign, resume through the CLI ------
    try:
        resumed = interrupt_resume_report(
            reference, workdir, faults=faults, cli_args=("--chaos", str(RATE)),
        )
    except SmokeFailure as exc:
        return fail(f"chaos {exc}", workdir)

    # -- phase 4: selection divergence vs the oracle ------------------
    agreement = agreement_rate(oracle, resumed)
    print(f"argmin agreement with fault-free oracle: {agreement:.1%} "
          f"(ties within {TIE:.0%} count as agreement)")
    if agreement < TOL:
        return fail(
            f"agreement {agreement:.1%} below tolerance {TOL:.0%}", workdir
        )
    print(f"OK: chaos campaign at {RATE:.0%} fault rate survived "
          f"(REPRO_JOBS={jobs})")
    shutil.rmtree(workdir)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

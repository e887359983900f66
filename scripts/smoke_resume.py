#!/usr/bin/env python3
"""CI smoke test: kill a campaign mid-run, resume it, diff the datasets.

Three phases, mirroring what an operator would live through:

1. **Reference** — generate a dataset uninterrupted (separate cache dir).
2. **Interrupt** — run the same campaign with a fault injected through
   the progress callback (a ``KeyboardInterrupt`` at ~40% progress,
   the ctrl-C case), journalling chunks into the CLI's cache dir.
3. **Resume** — rerun through the real CLI with ``--resume`` and
   verify the result is **bit-identical** to the reference, column by
   column.

Phases 2 and 3 are :func:`interrupt_resume_report`, which
``smoke_chaos.py`` reuses for its fault-injected campaign. Honors
``REPRO_JOBS``, so the CI matrix exercises serial and parallel resumes.
Exits non-zero on any mismatch.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.cli import main as cli_main  # noqa: E402
from repro.core.dataset import PerfDataset  # noqa: E402
from repro.experiments.datasets import generate_dataset  # noqa: E402

DID = os.environ.get("SMOKE_DATASET", "d1")
SEED = 0


class _InjectedInterrupt(KeyboardInterrupt):
    """The fault we inject (subclass so we never swallow a real ^C)."""


class SmokeFailure(Exception):
    """A violated smoke contract; ``main`` prints it as ``FAIL:``."""


def fail(message: str, workdir: Path) -> int:
    """Report a failed smoke run; its work directory stays for a post-mortem."""
    print(f"FAIL: {message} (work directory kept: {workdir})", file=sys.stderr)
    return 1


def interrupt_resume_report(
    reference: PerfDataset, workdir: Path, faults=None, cli_args=(),
) -> PerfDataset:
    """Interrupt the campaign at ~40 %, resume it through the CLI.

    The interrupted run journals into ``workdir/cli-cache``; ``generate
    --resume`` (plus ``cli_args``, which must describe the same
    ``faults``) must finish it bit-identical to ``reference`` on all
    five columns and clean up the journal, and ``report`` must digest
    its telemetry log. Returns the resumed dataset.
    """
    cli_dir = workdir / "cli-cache"
    cli_dir.mkdir(parents=True)
    stem = cli_dir / f"{DID}-ci-s{SEED}"

    def interrupt_at_40pct(done: int, total: int) -> None:
        if done >= total * 0.4:
            raise _InjectedInterrupt

    try:
        generate_dataset(
            DID, "ci", seed=SEED, faults=faults,
            checkpoint=stem, progress=interrupt_at_40pct,
        )
    except _InjectedInterrupt:
        pass
    else:
        raise SmokeFailure("injected interrupt never fired")
    journal = stem.with_name(stem.name + ".journal.json")
    if not journal.exists():
        raise SmokeFailure(f"no chunk journal at {journal}")
    print(f"interrupted at ~40%; journal: {journal.stat().st_size} bytes")

    os.environ["REPRO_CACHE_DIR"] = str(cli_dir)
    telemetry = workdir / "resume.jsonl"
    code = cli_main([
        "generate", DID, "--scale", "ci", "--seed", str(SEED), *cli_args,
        "--resume", "--telemetry", str(telemetry),
    ])
    if code != 0:
        raise SmokeFailure(f"resume exited {code}")
    resumed = PerfDataset.load(stem)
    mismatches = [
        column
        for column in ("config_id", "nodes", "ppn", "msize", "time")
        if not np.array_equal(
            getattr(reference, column), getattr(resumed, column)
        )
    ]
    if mismatches:
        raise SmokeFailure(f"columns differ after resume: {mismatches}")
    if journal.exists():
        raise SmokeFailure("journal not cleaned up after completion")
    print(f"resume bit-identical ({len(resumed)} samples)")

    # the telemetry log must summarize end-to-end
    code = cli_main(["report", "--telemetry", str(telemetry), "--top", "5"])
    if code != 0:
        raise SmokeFailure(f"report exited {code}")
    return resumed


def main() -> int:
    workdir = Path(tempfile.mkdtemp(prefix="smoke-resume-"))
    jobs = os.environ.get("REPRO_JOBS", "1")
    print(f"workdir={workdir} dataset={DID} REPRO_JOBS={jobs}")

    # -- phase 1: uninterrupted reference -----------------------------
    reference = generate_dataset(DID, "ci", seed=SEED)
    print(f"reference: {len(reference)} samples")

    # -- phases 2+3: interrupt, resume through the real CLI -----------
    try:
        resumed = interrupt_resume_report(reference, workdir)
    except SmokeFailure as exc:
        return fail(str(exc), workdir)
    print("OK: interrupted+resumed dataset is bit-identical "
          f"({len(resumed)} samples, REPRO_JOBS={jobs})")
    shutil.rmtree(workdir)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

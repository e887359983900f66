#!/usr/bin/env python3
"""Collect the benchmark suite's speedup ratios into BENCH_<pr>.json.

Runs the quick benchmark subset (everything not marked ``slow``) once,
with a JUnit XML report. Each test that asserts a speedup bar checks
its fast path against a reference path for parity first, times the
pair interleaved in one process, asserts the floor, and records the
ratio with pytest's ``record_property``. This script times nothing
itself: it reads those ratios from the XML, adds a ``provenance``
block (the commit and whether the tree was dirty, the Python version,
the CPU model and count, whether the C kernel loaded, and
``REPRO_JOBS``), and writes the report. If any test failed, the report
is still written without the failed tests' ratios, and the script
exits non-zero naming them.

Usage::

    PYTHONPATH=src python scripts/bench_report.py --pr 18
    PYTHONPATH=src python scripts/bench_report.py --pr 0 \
        --out fresh_bench.json   # what the CI regression gate reads
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def provenance() -> dict:
    """What the numbers were measured on: commit, interpreter, CPU, and
    whether the C kernel was in play. Not a metric; the gate ignores it."""
    from repro.ml import _ckernel

    def git(*args: str) -> str | None:
        try:
            proc = subprocess.run(
                ["git", "-C", str(ROOT), *args],
                capture_output=True, text=True, timeout=30,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    status = git("status", "--porcelain")
    cpu_model = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "cpu_model": cpu_model,
        "cpu_count": os.cpu_count(),
        "ckernel_loaded": _ckernel.available(),
        "repro_jobs": os.environ.get("REPRO_JOBS"),
    }


def run_benchmarks(xml_path: Path) -> int:
    """Run the quick benchmark subset once; pytest's exit status."""
    cmd = [
        sys.executable, "-m", "pytest", "benchmarks", "-q",
        "-m", "not slow", "-o", "junit_family=xunit1",
        f"--junitxml={xml_path}",
    ]
    return subprocess.run(cmd, cwd=ROOT).returncode


def collect_ratios(xml_path: Path) -> tuple[dict[str, float], list[str]]:
    """(ratios recorded by the tests that passed, ids of failed tests)."""
    ratios: dict[str, float] = {}
    failed: list[str] = []
    for case in ET.parse(xml_path).iter("testcase"):
        if case.find("failure") is not None or case.find("error") is not None:
            failed.append(f"{case.get('classname')}::{case.get('name')}")
            continue
        for prop in case.iter("property"):
            ratios[prop.get("name")] = float(prop.get("value"))
    return ratios, failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument(
        "--out", type=Path, default=None,
        help="write the report here instead of BENCH_<pr>.json at the "
        "repo root (used by the CI regression gate)",
    )
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        xml_path = Path(tmp) / "benchmarks.xml"
        returncode = run_benchmarks(xml_path)
        if not xml_path.exists():
            print(f"benchmark run wrote no report (pytest exit {returncode})",
                  file=sys.stderr)
            return returncode or 1
        ratios, failed = collect_ratios(xml_path)

    report = {"pr": args.pr, "provenance": provenance(), "current": ratios}
    out_path = args.out if args.out is not None else ROOT / f"BENCH_{args.pr}.json"
    tmp_path = out_path.with_name(f".{out_path.name}.{os.getpid()}.tmp")
    tmp_path.write_text(json.dumps(report, indent=2) + "\n")
    os.replace(tmp_path, out_path)
    print(json.dumps(report, indent=2))
    print(f"\nwrote {out_path}")
    if failed or returncode != 0:
        print(f"benchmark run failed (pytest exit {returncode}); ratios of "
              "these tests were left out:", file=sys.stderr)
        for test in failed:
            print(f"  {test}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

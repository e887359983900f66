"""Helpers shared by the workloads: seeds, percentiles, /proc readers,
the closed-loop runner and the fleet process tree.

Everything here is benchmark-side code: it never imports the program,
so the self-tests in ``selftest.py`` run without ``src/`` on the path.
"""

from __future__ import annotations

import hashlib
import math
import os
import signal
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

#: samples that must lie beyond a reported tail percentile
TAIL_SAMPLES = 10
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def derive_seed(*parts: object) -> int:
    """A stable 63-bit seed from ``parts`` (process- and hash-seed-free).

    The benchmark's own twin of the program's ``stable_seed``, so that no
    change to the program can change the generated inputs.
    """
    blob = "\x1f".join(repr(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big") >> 1


def median(values: list[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0 < q < 100)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(values: list[float], q: float) -> float | None:
    """The ``q``-th percentile, or ``None`` when fewer than
    :data:`TAIL_SAMPLES` samples lie beyond it.

    A tail figure resting on a handful of samples moves with every run,
    so it is withheld rather than reported.
    """
    beyond = len(values) * (100.0 - q) / 100.0
    if beyond < TAIL_SAMPLES:
        return None
    return percentile(values, q)


# -- /proc readers -----------------------------------------------------
def _stat_fields(pid: int) -> list[str]:
    raw = Path(f"/proc/{pid}/stat").read_text()
    # the command name is parenthesised and may contain spaces
    return raw[raw.rindex(")") + 2:].split()


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of every thread of ``pid``."""
    fields = _stat_fields(pid)
    # fields[11], fields[12] are utime, stime (stat fields 14 and 15)
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def proc_state(pid: int) -> str | None:
    """The one-letter scheduler state, or ``None`` once the pid is gone."""
    try:
        return _stat_fields(pid)[0]
    except (FileNotFoundError, ProcessLookupError, IndexError):
        return None


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of ``pid`` in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def children(pid: int) -> list[int]:
    """Direct children of ``pid`` (every thread's children list)."""
    out: list[int] = []
    for task in Path(f"/proc/{pid}/task").iterdir():
        text = (task / "children").read_text().split()
        out.extend(int(tok) for tok in text)
    return sorted(set(out))


def alive(pid: int) -> bool:
    state = proc_state(pid)
    return state is not None and state not in ("Z", "X")


def terminate_tree(root, pids: list[int], timeout: float = 15.0) -> list[int]:
    """SIGTERM ``root`` (a ``Popen``), reap it, then wait for ``pids``.

    Returns the pids still alive afterwards, which are SIGKILLed so the
    run never leaves them behind; the caller fails the run if any were.
    """
    if root.poll() is None:
        root.send_signal(signal.SIGTERM)
    try:
        root.wait(timeout=timeout)
    except Exception:  # noqa: BLE001 - escalate whatever went wrong
        root.kill()
        root.wait(timeout=timeout)
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline and any(alive(p) for p in pids):
        time.sleep(0.05)
    left = [p for p in pids if alive(p)]
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return left


# -- the closed loop ---------------------------------------------------
@dataclass
class Op:
    """One completed (or failed) operation of the closed loop."""

    index: int
    latency_s: float
    ok: bool
    error: str = ""
    detail: dict = field(default_factory=dict)


@dataclass
class LoopResult:
    ops: list[Op]
    window_s: float
    cpu_s: float

    @property
    def latencies(self) -> list[float]:
        return [op.latency_s for op in self.ops if op.ok]


def closed_loop(
    run_op: Callable[[int], tuple[float, dict]],
    seconds: float,
    cpu_reader: Callable[[], float],
) -> LoopResult:
    """Call ``run_op(i)`` back to back until ``seconds`` have passed.

    ``run_op`` returns ``(latency_s, detail)`` and raises when the op or
    its correctness check fails; a raised op counts as attempted and
    failed, never dropped. The op that crosses the deadline finishes
    and counts, so the window ends with the last completed op.
    """
    ops: list[Op] = []
    cpu0 = cpu_reader()
    start = time.perf_counter()
    index = 0
    while True:
        t0 = time.perf_counter()
        try:
            latency, detail = run_op(index)
            ops.append(Op(index, latency, True, detail=detail))
        except Exception as exc:  # noqa: BLE001 - a failed op is a result
            ops.append(Op(index, time.perf_counter() - t0, False,
                          error=f"{type(exc).__name__}: {exc}"))
        index += 1
        if time.perf_counter() - start >= seconds:
            break
    window = time.perf_counter() - start
    return LoopResult(ops=ops, window_s=window, cpu_s=cpu_reader() - cpu0)


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(
    loop: LoopResult,
    *,
    setup_s: float,
    cpu_s: float,
    peak_mb: float,
    quality: float,
) -> dict[str, dict]:
    """The end-to-end metric block every workload reports."""
    # with no successful op the failed ops' times stand in: the run is
    # already marked incorrect, and JSON has no NaN
    lat = loop.latencies or [op.latency_s for op in loop.ops]
    attempted = len(loop.ops)
    ok = sum(op.ok for op in loop.ops)
    return {
        "setup_s": metric(setup_s, "s"),
        "throughput_ops_s": metric(ok / loop.window_s, "1/s"),
        "latency_p50_ms": metric(median(lat) * 1e3, "ms"),
        "cpu_ms_per_op": metric(cpu_s * 1e3 / max(attempted, 1), "ms"),
        "peak_rss_mb": metric(peak_mb, "MiB"),
        "ok_frac": metric(ok / max(attempted, 1), "frac"),
        "quality": metric(quality, "ratio"),
    }

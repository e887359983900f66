"""Copy-per-round reference for ``fastsim.round_time``.

``round_time`` costs a repeated ``Round`` object once and adds the
cached cost per repeat. Inside :func:`copy_per_round` every collective
module's ``round_time`` sees a fresh copy of each round instead, so
every repeat is costed from scratch — the reference the reuse must
match bit for bit.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import pkgutil
from unittest import mock

import repro.collectives
from repro.simulator import fastsim


def round_time_copying(machine, topo, rounds):
    """``round_time`` with no two rounds sharing an object."""
    return fastsim.round_time(
        machine, topo, [dataclasses.replace(r) for r in rounds]
    )


@contextlib.contextmanager
def copy_per_round():
    """Route every collective's ``round_time`` through the reference."""
    with contextlib.ExitStack() as stack:
        patched = []
        for info in pkgutil.iter_modules(repro.collectives.__path__):
            module = importlib.import_module(f"repro.collectives.{info.name}")
            if getattr(module, "round_time", None) is fastsim.round_time:
                stack.enter_context(
                    mock.patch.object(module, "round_time", round_time_copying)
                )
                patched.append(info.name)
        assert "allreduce" in patched, patched
        yield

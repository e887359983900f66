"""Drivers for the beyond-the-paper extension exhibits.

* **E1 — offline ML vs online (STAR-MPI) tuning**: the paper's §II
  argument quantified. The online tuner pays its exploration inside the
  application; the offline selector answers instantly from models
  trained on *other* node counts.
* **E2 — performance guidelines**: the PGMPITuneLib view (§VI): the
  default decision logic violates self-consistency guidelines that the
  tuned portfolio (mostly) repairs.
* **E3 — extension collectives**: the selection framework applied
  unchanged to MPI_Reduce and MPI_Allgather (datasets dx1/dx2),
  supporting the paper's claim that the approach is generic.
"""

from __future__ import annotations

import numpy as np

from repro.core.evaluation import evaluate_selector
from repro.core.online import OnlineSelector
from repro.core.retrain import shifted_times
from repro.core.selector import AlgorithmSelector
from repro.experiments.cache import dataset_cached
from repro.experiments.datasets import EXTENSION_DATASETS, Scale
from repro.experiments.guidelines import guidelines_table
from repro.experiments.splits import split_dataset
from repro.experiments.tables import TableData
from repro.machine.topology import Topology
from repro.machine.zoo import get_machine
from repro.ml import PAPER_LEARNERS
from repro.mpilib import get_library
from repro.utils.units import KiB, MiB


def online_vs_offline(
    scale: Scale | str = Scale.CI, seed: int = 0, num_calls: int = 200
) -> TableData:
    """E1: per-call cost of online tuning vs the offline ML selection.

    Scenario: an application calls MPI_Bcast ``num_calls`` times on an
    allocation whose node count was never benchmarked. The offline
    selector picks once (trained on the d1 split); the online tuner
    explores in-application. Reported per strategy: mean per-call time
    normalised by the oracle, and the time wasted relative to it.
    """
    scale = Scale(scale)
    dataset = dataset_cached("d1", scale, seed)
    train, test = split_dataset(dataset, scale)
    machine = get_machine("Hydra")
    library = get_library("Open MPI")
    selector = AlgorithmSelector(PAPER_LEARNERS["GAM"]).fit(train)

    table = TableData(
        exhibit="E1: offline ML selection vs online (STAR-MPI) tuning "
        f"({num_calls} MPI_Bcast calls per instance)",
        columns=(
            "strategy", "mean_norm_per_call", "wasted_vs_oracle_pct",
        ),
    )
    instances = [
        (int(n), int(ppn), int(m))
        for n, ppn, m in test.instances()[:: max(1, len(test.instances()) // 12)]
    ]
    table_lookup = test.instance_table()

    margin = 0.10
    offline_norm, online_norm, closed_norm = [], [], []
    offline_waste, online_waste, closed_waste = [], [], []
    explored_calls = 0
    for n, ppn, m in instances:
        measured = table_lookup[(n, ppn, m)]
        oracle = min(measured.values())
        # Offline: one model query, then every call runs the pick.
        pred_id = None
        for cid in np.argsort(selector.predict_times(n, ppn, m)[0]):
            if int(cid) in measured:
                pred_id = int(cid)
                break
        t_off = measured[pred_id]
        offline_norm.append(t_off / oracle)
        offline_waste.append((t_off - oracle) * num_calls)
        # Online: exploration happens inside the application calls.
        tuner = OnlineSelector(
            machine, library, "bcast", policy="star",
            exclude_algids=(8,), rng=seed,
        )
        result = tuner.run(Topology(n, ppn), m, num_calls)
        online_norm.append(result.total_time / (oracle * num_calls))
        online_waste.append(result.regret)
        # Closed loop: serve the offline pick, but re-measure the
        # candidate column (one call per config) only where the
        # analytical prior disagrees with the learned pick — the same
        # active-sampling rule the background retrainer applies
        # (repro/core/retrain.py). Everywhere the families agree the
        # offline pick runs untouched, so the exploration budget stays
        # a fraction of what full online tuning spends.
        analytical = shifted_times(machine, library, "bcast", (n, ppn, m))
        candidates = sorted(measured)
        prior = {cid: float(analytical[cid]) for cid in candidates}
        finite = [t for t in prior.values() if np.isfinite(t)]
        disagree = (
            not finite
            or not np.isfinite(prior[pred_id])
            or prior[pred_id] > min(finite) * (1.0 + margin)
        )
        if disagree and num_calls > len(candidates):
            explored_calls += len(candidates)
            t_closed = (
                sum(measured.values())
                + (num_calls - len(candidates)) * oracle
            )
        else:
            t_closed = t_off * num_calls
        closed_norm.append(t_closed / (oracle * num_calls))
        closed_waste.append(t_closed - oracle * num_calls)
    total_waste = max(
        float(
            np.sum(online_waste) + np.sum(offline_waste)
            + np.sum(closed_waste)
        ),
        1e-30,
    )
    table.rows.append(
        (
            "offline ML (paper)",
            float(np.mean(offline_norm)),
            100.0 * float(np.sum(offline_waste)) / total_waste,
        )
    )
    table.rows.append(
        (
            "online STAR-MPI",
            float(np.mean(online_norm)),
            100.0 * float(np.sum(online_waste)) / total_waste,
        )
    )
    table.rows.append(
        (
            "closed loop (feedback retrain)",
            float(np.mean(closed_norm)),
            100.0 * float(np.sum(closed_waste)) / total_waste,
        )
    )
    budget_frac = explored_calls / float(num_calls * max(len(instances), 1))
    table.note = (
        "mean per-call runtime normalised by the per-instance oracle; "
        "waste shares sum to 100%; closed loop explored "
        f"{100.0 * budget_frac:.1f}% of its calls (active sampling "
        "where the analytical prior disagrees with the learned pick)"
    )
    return table


def guidelines_exhibit(scale: Scale | str = Scale.CI) -> TableData:
    """E2: guideline violations of the default vs the tuned portfolio."""
    machine = get_machine("Hydra")
    library = get_library("Open MPI")
    if Scale(scale) is Scale.PAPER:
        nodes, ppns = (8, 16, 32), (1, 16, 32)
    else:
        nodes, ppns = (8, 16), (1, 16)
    instances = [
        (n, ppn, m)
        for n in nodes
        for ppn in ppns
        for m in (64, 16 * KiB, MiB)
    ]
    return guidelines_table(machine, library, instances)


def mvapich_class_tuning(
    scale: Scale | str = Scale.CI, seed: int = 0
) -> TableData:
    """E4: tuning under MVAPICH's size-class constraint (§IV-B).

    Three strategies on held-out allocations of an MVAPICH-like
    allreduce campaign on Hydra: the factory class table, our models
    constrained to one choice per size class, and the unconstrained
    per-instance selection. Expected shape: class tuning recovers most
    of the per-instance gains — three well-chosen regimes cover the
    crossover structure — while the factory table loses where its
    regime boundaries sit wrong for the machine.
    """
    from repro.bench.repro_mpi import BenchmarkSpec
    from repro.bench.runner import DatasetRunner, GridSpec
    from repro.core.class_tuner import tune_size_classes
    from repro.mpilib.mvapich import MVAPICHLibrary, size_class

    scale = Scale(scale)
    machine = get_machine("Hydra")
    library = MVAPICHLibrary()
    if scale is Scale.PAPER:
        nodes = (4, 7, 8, 13, 16, 20, 24, 27, 32)
        ppns = (1, 8, 16, 32)
        test_nodes = (7, 13, 27)
    else:
        nodes = (4, 7, 8, 13, 16)
        ppns = (1, 16)
        test_nodes = (7, 13)
    msizes = (16, KiB, 4 * KiB, 16 * KiB, 128 * KiB, MiB, 4 * MiB)
    runner = DatasetRunner(
        machine, library, BenchmarkSpec(max_nreps=15), seed=seed
    )
    dataset = runner.run(
        "allreduce",
        GridSpec(nodes=nodes, ppns=ppns, msizes=msizes),
        name="mv-allreduce",
    )
    train = dataset.filter_nodes([n for n in nodes if n not in test_nodes])
    test = dataset.filter_nodes(test_nodes)
    selector = AlgorithmSelector(PAPER_LEARNERS["GAM"]).fit(train)

    table_lookup = test.instance_table()
    ds_index = {cfg: i for i, cfg in enumerate(dataset.configs)}
    norms: dict[str, list[float]] = {
        "factory class table": [],
        "class-tuned (ours)": [],
        "per-instance (ours)": [],
    }
    factory_lib = MVAPICHLibrary()  # pristine class table
    for n in test_nodes:
        for ppn in ppns:
            tuned = tune_size_classes(selector, n, ppn)
            for m in msizes:
                measured = table_lookup.get((n, ppn, m))
                if not measured:
                    continue
                best = min(measured.values())
                factory_cfg = factory_lib.default_config(
                    machine, Topology(n, ppn), "allreduce", m
                )
                norms["factory class table"].append(
                    measured[ds_index[factory_cfg]] / best
                )
                norms["class-tuned (ours)"].append(
                    measured[ds_index[tuned[size_class(m)]]] / best
                )
                pred = selector.predict_times(n, ppn, m)[0]
                order = np.argsort(pred)
                pick = next(int(c) for c in order if int(c) in measured)
                norms["per-instance (ours)"].append(measured[pick] / best)

    table = TableData(
        exhibit=f"E4: tuning under MVAPICH's size-class constraint "
        f"({scale.value} scale)",
        columns=("strategy", "mean_norm", "p90_norm"),
    )
    for name, values in norms.items():
        arr = np.asarray(values)
        table.rows.append(
            (name, float(arr.mean()), float(np.quantile(arr, 0.9)))
        )
    table.note = "runtime normalised by per-instance best (1.0 = oracle)"
    return table


def randomized_split(
    scale: Scale | str = Scale.CI,
    seed: int = 0,
    did: str = "d1",
    test_fraction: float = 0.3,
) -> TableData:
    """§V's randomisation check: random instance split vs node split.

    The paper: "we could have fully randomized these datasets … The
    results were very similar to the ones we present here." This driver
    evaluates both protocols on the same dataset: (a) Table III's
    held-out node counts, (b) a random split over *instances*
    (keeping all samples of an instance on one side).
    """
    scale = Scale(scale)
    from repro.experiments.datasets import dataset_spec
    from repro.utils.rng import as_generator

    spec = dataset_spec(did)
    dataset = dataset_cached(did, scale, seed)
    library = get_library(spec.library)
    machine = get_machine(spec.machine)

    table = TableData(
        exhibit=f"Randomised vs node-based train/test split on {did} "
        f"({scale.value} scale)",
        columns=("method", "node_split_speedup", "random_split_speedup"),
    )
    # (b) random split over instances.
    instances = dataset.instances()
    rng = as_generator(seed)
    order = rng.permutation(len(instances))
    n_test = max(1, int(round(len(instances) * test_fraction)))
    test_keys = {tuple(int(v) for v in instances[i]) for i in order[:n_test]}
    keys = list(zip(dataset.nodes, dataset.ppn, dataset.msize, strict=True))
    test_mask = np.array(
        [(int(n), int(p), int(m)) in test_keys for n, p, m in keys]
    )
    rand_train = dataset.subset(~test_mask, name=f"{did}-rand-train")
    rand_test = dataset.subset(test_mask, name=f"{did}-rand-test")
    # (a) the paper's node split.
    node_train, node_test = split_dataset(dataset, scale)

    for name, factory in PAPER_LEARNERS.items():
        node_sel = AlgorithmSelector(factory).fit(node_train)
        node_speedup = evaluate_selector(
            node_sel, node_test, library, machine
        ).mean_speedup
        rand_sel = AlgorithmSelector(factory).fit(rand_train)
        rand_speedup = evaluate_selector(
            rand_sel, rand_test, library, machine
        ).mean_speedup
        table.rows.append((name, node_speedup, rand_speedup))
    table.note = (
        "the paper reports both protocols give 'very similar' results"
    )
    return table


def noise_sensitivity(
    scale: Scale | str = Scale.CI,
    seed: int = 0,
    sigmas: tuple[float, ...] = (0.0, 0.03, 0.1, 0.3),
) -> TableData:
    """A4: selection quality as measurement noise grows.

    The paper's benchmark data carries real measurement dispersion; the
    models must select well *despite* it. This ablation regenerates a
    d1-style campaign under increasing multiplicative noise (sigma of
    the lognormal factor) and reports each learner's mean speed-up over
    the default — expected shape: flat until the noise rivals the gaps
    between algorithms, then graceful degradation.
    """
    from repro.bench.repro_mpi import BenchmarkSpec
    from repro.bench.runner import DatasetRunner, GridSpec
    from repro.machine.model import NoiseModel

    scale = Scale(scale)
    machine = get_machine("Hydra")
    library = get_library("Open MPI")
    if scale is Scale.PAPER:
        nodes = (4, 7, 8, 13, 16, 20, 24, 32)
        ppns = (1, 8, 16, 32)
    else:
        nodes = (4, 7, 8, 13, 16)
        ppns = (1, 16)
    msizes = (1, KiB, 16 * KiB, 128 * KiB, MiB, 4 * MiB)

    table = TableData(
        exhibit=f"A4: selection quality vs measurement noise "
        f"({scale.value} scale)",
        columns=("noise_sigma", *PAPER_LEARNERS, "oracle_gap_default"),
    )
    for sigma in sigmas:
        noisy = machine.with_noise(
            NoiseModel(sigma=sigma, spike_prob=0.01 if sigma else 0.0)
        )
        runner = DatasetRunner(
            noisy, library, BenchmarkSpec(max_nreps=15), seed=seed
        )
        dataset = runner.run(
            "bcast",
            GridSpec(nodes=nodes, ppns=ppns, msizes=msizes),
            name=f"noise-{sigma}",
            exclude_algids=(8,),
        )
        train, test = split_dataset(dataset, scale)
        row: list[float] = [sigma]
        default_norm = None
        for name, factory in PAPER_LEARNERS.items():
            selector = AlgorithmSelector(factory).fit(train)
            result = evaluate_selector(selector, test, library, noisy)
            row.append(result.mean_speedup)
            default_norm = float(np.mean(result.normalized_default))
        row.append(default_norm)
        table.rows.append(tuple(row))
    table.note = (
        "mean speed-up over default per learner; last column = default's "
        "mean normalised runtime (its badness is noise-independent)"
    )
    return table


def extension_speedups(
    scale: Scale | str = Scale.CI, seed: int = 0
) -> TableData:
    """E3: Table IV methodology applied to MPI_Reduce and MPI_Allgather."""
    scale = Scale(scale)
    dids = tuple(EXTENSION_DATASETS)
    table = TableData(
        exhibit=f"E3: speed-up over default on the extension collectives "
        f"({scale.value} scale)",
        columns=("method", *dids, "mean"),
    )
    speedups: dict[str, list[float]] = {name: [] for name in PAPER_LEARNERS}
    for did in dids:
        spec = EXTENSION_DATASETS[did]
        dataset = dataset_cached(did, scale, seed)
        train, test = split_dataset(dataset, scale)
        library = get_library(spec.library)
        machine = get_machine(spec.machine)
        for name, factory in PAPER_LEARNERS.items():
            selector = AlgorithmSelector(factory).fit(train)
            result = evaluate_selector(selector, test, library, machine)
            speedups[name].append(result.mean_speedup)
    for name, values in speedups.items():
        table.rows.append((name, *values, float(np.mean(values))))
    table.note = "dx1 = MPI_Reduce, dx2 = MPI_Allgather (Open MPI, Hydra)"
    return table

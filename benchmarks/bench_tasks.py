"""E14/E15 — the task layer's figures of merit.

**E14 — k-rumor round/bit scaling vs k.**  All-cast with k sources over
PUSH-PULL and Cluster2: rounds grow mildly (a log k term on top of the
broadcast schedule), while bits/node scale with k (messages carry the
sender's whole rumor set) — and the cluster transport's aggregate-then-
scatter structure keeps its bit cost a fraction of uniform gossip's,
the direct-addressing payoff applied to all-cast.

**E15 — push-sum convergence under dynamic adversity.**  Mean estimation
at tolerance 1e-3/5e-2 under the static network, ``churn-light`` and
``lossy-datacenter`` schedules: the static runs converge to tolerance;
churn takes crashed nodes' mass with it and loss drops mass in transit,
so the surviving estimates settle at a measured error floor — the table
reports rounds-to-converge, the final error, and the success rate.

Both tables land in ``results/`` as text *and* JSON
(``E14_krumor_scaling.{txt,json}``, ``E15_pushsum_dynamics.{txt,json}``).
"""

from __future__ import annotations

from bench_common import RESULTS_DIR, WORKERS
from repro.analysis.runner import RunSpec, sweep_reports
from repro.core.broadcast import RunConfig
from repro.analysis.tables import Table

E14_N = 2**12
E14_KS = (1, 2, 4, 8, 16)
E15_N = 2**11
SEEDS = [0, 1, 2]
E15_SEEDS = [0, 1, 2, 3, 4]
ALGOS = ("push-pull", "cluster2")


def _task_spec(algorithm, n, seed, task, task_kwargs, schedule=None):
    cfg = RunConfig(
        n,
        algorithm,
        schedule=schedule,
        task=task,
        task_kwargs=task_kwargs,
        check_model=False,
    )
    return RunSpec(cfg, seed)


def test_e14_krumor_scaling():
    cells = [(algo, k) for algo in ALGOS for k in E14_KS]
    specs = [
        _task_spec(algo, E14_N, seed, "k-rumor", {"k": k})
        for (algo, k) in cells
        for seed in SEEDS
    ]
    reports = sweep_reports(specs, workers=WORKERS)
    table = Table(
        title=f"E14: k-rumor all-cast scaling vs k (n={E14_N}, {len(SEEDS)} seeds)",
        columns=["algorithm", "k", "rounds", "msgs/node", "bits/node", "success"],
        caption=(
            "Bits scale with k (messages carry the full rumor set); the "
            "cluster transport stays bit-thrifty by aggregating at the "
            "leader instead of re-gossiping every rumor everywhere."
        ),
    )
    bits_by_algo = {algo: [] for algo in ALGOS}
    for i, (algo, k) in enumerate(cells):
        group = reports[i * len(SEEDS) : (i + 1) * len(SEEDS)]
        bits = sum(r.bits_per_node for r in group) / len(group)
        bits_by_algo[algo].append(bits)
        table.add(
            algo,
            k,
            f"{sum(r.rounds for r in group) / len(group):.1f}",
            f"{sum(r.messages_per_node for r in group) / len(group):.2f}",
            f"{bits:.0f}",
            f"{sum(r.success for r in group) / len(group):.2f}",
        )
        assert all(r.success for r in group), (algo, k)
    print(table.render())
    table.save("E14_krumor_scaling", RESULTS_DIR, fmt="both")

    # Bit cost must grow with k on both transports (the point of E14)...
    for algo, series in bits_by_algo.items():
        assert all(b1 > b0 for b0, b1 in zip(series, series[1:])), (algo, series)
    # ... and the cluster transport must undercut uniform gossip at large k.
    assert bits_by_algo["cluster2"][-1] < bits_by_algo["push-pull"][-1]


def test_e15_pushsum_dynamics():
    cases = [
        ("static", None, 1e-3),
        ("churn-light", "churn-light", 5e-2),
        ("lossy-datacenter", "lossy-datacenter", 5e-2),
    ]
    cells = [(algo, case) for algo in ALGOS for case in cases]
    specs = [
        _task_spec(algo, E15_N, seed, "push-sum", {"tol": tol}, schedule=sched)
        for (algo, (label, sched, tol)) in cells
        for seed in E15_SEEDS
    ]
    reports = sweep_reports(specs, workers=WORKERS)
    table = Table(
        title=f"E15: push-sum convergence under dynamics (n={E15_N}, "
        f"{len(E15_SEEDS)} seeds)",
        columns=[
            "algorithm", "schedule", "tol", "rounds", "final error (mean)",
            "error (max)", "converged",
        ],
        caption=(
            "Static runs converge to tolerance; churn and loss remove "
            "mass, so the estimates settle at a measured error floor "
            "instead — the floor, not a silent wrong answer, is the "
            "reported outcome."
        ),
    )
    for i, (algo, (label, sched, tol)) in enumerate(cells):
        group = reports[i * len(E15_SEEDS) : (i + 1) * len(E15_SEEDS)]
        errors = [r.extras["task_error"] for r in group]
        converged = sum(r.extras["converged"] for r in group)
        table.add(
            algo,
            label,
            f"{tol:g}",
            f"{sum(r.rounds for r in group) / len(group):.1f}",
            f"{sum(errors) / len(errors):.3g}",
            f"{max(errors):.3g}",
            f"{converged}/{len(group)}",
        )
        if sched is None:
            # The static configuration must actually reach tolerance.
            assert converged == len(group), (algo, errors)
            assert max(errors) <= tol
        else:
            # Adversity may cost accuracy but never a crash or a NaN.
            assert all(e == e for e in errors), (algo, label, errors)
    print(table.render())
    table.save("E15_pushsum_dynamics", RESULTS_DIR, fmt="both")

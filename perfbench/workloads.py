"""The benchmark's workloads and how their inputs derive from a seed.

Every workload is closed-loop: one caller drives
``repro.run_replications`` block after block, each block starting when
the previous one returns.  All run on the complete graph from source 0,
single-threaded and unsharded (``workers=None``).

This module imports nothing from ``repro`` at import time, so the
orchestrating parent process can read the table without loading numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

#: Seeds of one run never reach the next seed's range: a run would need
#: a million replications to collide.
SEED_STRIDE = 1_000_000

#: Reserved for confirming a performance claim after the change is
#: written.  Never tune against it.
HELD_OUT_SEED = 424242

#: Push-sum convergence tolerance; every push-sum replication must end
#: with its task error at or below it.
PUSH_SUM_TOL = 1e-3

#: Reset-engine replications cross-checked bit for bit against an
#: independent ``repro.broadcast(seed=...)`` before timing starts.
CROSS_CHECK_REPS = 3


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (``BENCHMARK.json`` says why each exists).

    ``block_reps`` replications go to each ``run_replications`` call;
    the simulated statistics are the means over the first ``sim_reps``
    replications (a whole number of blocks), which every run completes
    whatever its time budget, so they repeat exactly for a seed.
    """

    name: str
    n: int
    algorithm: str
    engine: str
    block_reps: int
    sim_reps: int
    warmup_reps: int
    task: Optional[str] = None
    schedule: Optional[str] = None
    straggler: bool = False

    @property
    def sim_blocks(self) -> int:
        return self.sim_reps // self.block_reps

    @property
    def vector(self) -> bool:
        return self.engine == "vector"

    def run_kwargs(self) -> Dict[str, Any]:
        """Keyword arguments for ``repro.run_replications`` (imports repro)."""
        kwargs: Dict[str, Any] = dict(
            n=self.n,
            algorithm=self.algorithm,
            engine=self.engine,
            source=0,
            workers=None,
        )
        if self.task is not None:
            kwargs["task"] = self.task
            kwargs["task_kwargs"] = {"tol": PUSH_SUM_TOL}
        if self.schedule is not None:
            kwargs["schedule"] = self.schedule
        if self.straggler:
            from repro.sim.schedule import EventSchedulerSpec
            from repro.sim.topology import NodeSlowdownDelay

            kwargs["scheduler"] = EventSchedulerSpec(
                delay=NodeSlowdownDelay(base=1, fraction=0.02, factor=10)
            )
        return kwargs

    def block_seed(self, seed: int, block: int) -> int:
        """``base_seed`` of block ``block``; reset-engine blocks tile one
        contiguous seed range, so replication ``i`` of the run has seed
        ``seed * SEED_STRIDE + i``."""
        return seed * SEED_STRIDE + block * self.block_reps

    def warmup_seed(self, seed: int) -> int:
        """A seed outside the range the timed blocks can reach."""
        return seed * SEED_STRIDE + SEED_STRIDE // 2


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="cluster2-seq",
            n=2**14,
            algorithm="cluster2",
            engine="reset",
            block_reps=8,
            sim_reps=64,
            warmup_reps=1,
        ),
        Workload(
            name="cluster2-vec",
            n=2**14,
            algorithm="cluster2",
            engine="vector",
            block_reps=16,
            sim_reps=128,
            warmup_reps=4,
        ),
        Workload(
            name="pushpull-straggler-vec",
            n=2**16,
            algorithm="push-pull",
            engine="vector",
            block_reps=8,
            sim_reps=64,
            warmup_reps=1,
            straggler=True,
        ),
        Workload(
            name="pushsum-churn-seq",
            n=2**14,
            algorithm="push-pull",
            engine="reset",
            block_reps=8,
            sim_reps=64,
            warmup_reps=1,
            task="push-sum",
            schedule="churn-light",
            straggler=True,
        ),
    )
}

#: The two cluster2 workloads share one configuration apart from the
#: engine; their traced runs time the phases of both engines side by side.
PHASE_PAIR = ("cluster2-seq", "cluster2-vec")

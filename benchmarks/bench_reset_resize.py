"""E22 — ClusterResize's share of a reset-engine cluster2 run.

``ClusterResize`` splits every oversized cluster into uid-sorted chunks
with one sort-and-segment pass (:func:`repro.core.clustering.chunk_runs`).
A per-leader loop with an O(n) member scan per leader once made it the
dominant cost of the sequential engine: 63% of wall time for reset
cluster2 at n=2^18.  E22 pins the fix:

* reset-engine cluster2 at n=2^18 completes every replication inside the
  w.h.p. acceptance envelopes E17b uses (O(log n) round quantiles,
  O(log log n) messages per node);
* the time spent inside ``core.primitives.cluster_resize`` is at most
  ``RESIZE_SHARE_GATE`` of the run's wall time.  A share, unlike an
  absolute time, does not move with host speed.

The share is measured by swapping a timing wrapper into every loaded
``repro`` module that holds ``cluster_resize`` (the phase modules import
it by name) for the timed run only.

``REPRO_E22_N`` / ``REPRO_E22_REPS`` shrink the run for constrained CI
legs; the acceptance asserts stay as written.
"""

from __future__ import annotations

import math
import os
import sys
import time

from bench_common import emit, trajectory_note
from repro.analysis.tables import Table
from repro.core import primitives
from repro.core.broadcast import run_replications

E22_N = int(os.environ.get("REPRO_E22_N", str(2**18)))
E22_REPS = int(os.environ.get("REPRO_E22_REPS", "3"))

#: Largest share of wall time ``cluster_resize`` may take.
RESIZE_SHARE_GATE = 0.35

#: Acceptance envelopes, same shapes (and constants) as E17b.
CLUSTER2_C_ROUNDS = 8.0
CLUSTER2_C_MSGS = 8.0


def test_e22_reset_cluster_resize_share(monkeypatch):
    run_replications(min(E22_N, 2**12), "cluster2", reps=1, engine="reset")  # warm-up

    original = primitives.cluster_resize
    inside = [0.0, 0]  # seconds, calls

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            inside[0] += time.perf_counter() - t0
            inside[1] += 1

    for name, module in list(sys.modules.items()):
        if name.startswith("repro.") and getattr(module, "cluster_resize", None) is original:
            monkeypatch.setattr(module, "cluster_resize", timed)

    start = time.perf_counter()
    summary = run_replications(E22_N, "cluster2", reps=E22_REPS, engine="reset")
    secs = time.perf_counter() - start
    share = inside[0] / secs

    log2n = math.log2(E22_N)
    loglog = math.log2(log2n)
    table = Table(
        title=f"E22: ClusterResize share of reset-engine cluster2 (n={E22_N}, R={E22_REPS})",
        columns=[
            "n", "reps", "s/rep", "resize s/rep", "resize calls/rep",
            "resize share", "spread q90", "msgs/node", "success",
        ],
        caption=f"Acceptance: resize share <= {RESIZE_SHARE_GATE}; "
        "envelopes as in E17b.",
    )
    table.add(
        E22_N,
        E22_REPS,
        f"{secs / E22_REPS:.2f}",
        f"{inside[0] / E22_REPS:.2f}",
        f"{inside[1] / E22_REPS:.1f}",
        f"{share:.3f}",
        f"{summary.spread_rounds.quantile(0.9):.0f}",
        f"{summary.messages_per_node.mean:.2f}",
        f"{summary.success_rate:.2f}",
    )
    emit(table, "E22_reset_cluster_resize")
    trajectory_note(
        "E22_reset_cluster_resize",
        n=E22_N,
        reps=E22_REPS,
        per_rep_ms=round(1e3 * secs / E22_REPS, 1),
        resize_per_rep_ms=round(1e3 * inside[0] / E22_REPS, 1),
        resize_share=round(share, 3),
        resize_share_gate=RESIZE_SHARE_GATE,
    )

    assert summary.success_rate == 1.0, f"cluster2 at n={E22_N} did not complete"
    assert summary.spread_rounds.quantile(0.9) <= CLUSTER2_C_ROUNDS * log2n
    assert summary.spread_rounds.minimum >= log2n - 1
    assert summary.messages_per_node.mean <= CLUSTER2_C_MSGS * loglog
    assert share <= RESIZE_SHARE_GATE, (
        f"cluster_resize took {share:.0%} of the run's wall time — above the "
        f"{RESIZE_SHARE_GATE:.0%} acceptance bar"
    )

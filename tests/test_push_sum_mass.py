"""Push-sum mass accounting across the staging-token contract.

``PushSumState`` stages outgoing mass as per-node tokens (zero where
nothing was staged), and ``finish_push`` applies the delivered subset by
gathering the tokens at the delivered senders.  Pinned here:

* with dead targets (pre-run failures and mid-run crashes) and no
  in-transit loss, the total ``v`` and ``w`` over all nodes is conserved
  after every round, for the half-mass exchange (``begin_push``) and the
  whole-mass hand-off (``begin_extract``) alike — a push to a dead node
  never establishes, so no mass is staged over it;
* a delivered subset of the staged senders applies exactly the staged
  mass of those senders (bit for bit), and the rest of the staged mass
  is gone, as for a message lost in transit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.rng import make_rng
from repro.tasks.state import PushSumState
from repro.tasks.transports import _staged_push

from helpers import build_sim


def _fresh(n: int, seed: int, dead: int):
    sim = build_sim(n, seed)
    rng = np.random.default_rng(seed)
    if dead:
        sim.net.fail(rng.choice(n, size=dead, replace=False))
    return sim, PushSumState(sim.net, make_rng(seed + 7))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=96),
    seed=st.integers(min_value=0, max_value=2**16),
    dead_frac=st.floats(min_value=0.0, max_value=0.6),
    extract=st.booleans(),
    rounds=st.integers(min_value=1, max_value=6),
)
def test_mass_conserved_with_dead_targets(n, seed, dead_frac, extract, rounds):
    dead = min(int(dead_frac * n), n - 1)
    sim, state = _fresh(n, seed, dead)
    total_v, total_w = state.v.sum(), state.w.sum()
    crash = np.random.default_rng(seed + 1)
    for _ in range(rounds):
        alive = sim.net.alive_indices()
        state.begin_round()
        with sim.round("mass") as r:
            _staged_push(
                sim, state, r, alive, sim.random_targets(alive), extract=extract
            )
        state.end_round()
        assert state.v.sum() == pytest.approx(total_v, rel=1e-12, abs=1e-12)
        assert state.w.sum() == pytest.approx(total_w, rel=1e-12, abs=1e-12)
        assert (state.w >= 0).all()
        # Crash one alive node between rounds: its mass stays put (inert),
        # and pushes aimed at it from now on never establish.
        if len(alive) > 1:
            sim.net.fail([int(crash.choice(alive))])


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=2**16),
    extract=st.booleans(),
    data=st.data(),
)
def test_delivered_subset_applies_exactly_the_staged_mass(n, seed, extract, data):
    _, state = _fresh(n, seed, 0)
    rng = np.random.default_rng(seed)
    staged = np.flatnonzero(rng.random(n) < data.draw(st.floats(0.0, 1.0)))
    delivered = staged[rng.random(len(staged)) < data.draw(st.floats(0.0, 1.0))]
    dsts = rng.integers(0, n, size=len(delivered))
    fraction = 1.0 if extract else 0.5

    v0, w0 = state.v.copy(), state.w.copy()
    token = (state.begin_extract if extract else state.begin_push)(staged)
    # Staging removes the staged share from the staged senders only.
    kept_v, kept_w = v0.copy(), w0.copy()
    kept_v[staged] -= v0[staged] * fraction
    kept_w[staged] -= w0[staged] * fraction
    assert np.array_equal(state.v, kept_v)
    assert np.array_equal(state.w, kept_w)

    state.finish_push(token, delivered, dsts)
    expect_v, expect_w = kept_v.copy(), kept_w.copy()
    np.add.at(expect_v, dsts, v0[delivered] * fraction)
    np.add.at(expect_w, dsts, w0[delivered] * fraction)
    assert np.array_equal(state.v, expect_v)
    assert np.array_equal(state.w, expect_w)

    # What was staged but not delivered is lost, nothing else.
    lost = np.setdiff1d(staged, delivered)
    assert state.w.sum() == pytest.approx(
        w0.sum() - (w0[lost] * fraction).sum(), rel=1e-12, abs=1e-12
    )

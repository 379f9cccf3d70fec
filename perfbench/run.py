"""The repository benchmark: one workload per invocation, in fresh processes.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cluster2-seq --seed 1 --seconds 20 --trace 0

``--trace 0`` starts ``SETUP_PROBES - 1`` set-up probes and then the
timed worker, each a fresh single-threaded interpreter; it prints every
end-to-end metric of ``BENCHMARK.json`` with its unit and sample count.
``--trace 1`` starts one worker that runs the workload untraced and then
traced, and prints every per-layer metric.  Either way the last line of
standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The exit code is 0 only when every output check passed.  A failed check,
a replication that raised or a crashed worker still ends with that line,
with ``correct`` false.  The program itself must be present under
``src/repro``; without it the benchmark exits with code 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from sampling import median  # noqa: E402
from workloads import HELD_OUT_SEED, WORKLOADS  # noqa: E402

#: Fresh processes whose set-up times give the median ``setup_s``
#: (the timed worker is the last of them).
SETUP_PROBES = 9

#: ``setup_s`` is the median set-up CPU time divided by the timed run's
#: mean reference-kernel CPU time, times this: seconds on a machine
#: where the kernel takes exactly this long.  Like the kernel, it must
#: never change.
REFERENCE_NOMINAL_S = 5e-4

#: Wall-clock budget for all child processes of one invocation, beyond
#: ``--seconds``: set-up probes, the output check and the last block.
BUDGET_MARGIN_S = 150.0

#: Where traced runs write their span logs, relative to the root.
SPANS_DIR = ".perfbench"

#: The ROADMAP's target share of traced wall time under layer spans.
COVERAGE_TARGET = 0.90

#: Printed beside the gated metrics but not gated in BENCHMARK.json:
#: the raw host times drift with the load other tenants put on the
#: machine (the gated ``rep_cost_*`` metrics cancel most of it), and the
#: rest are zero or absent on some workloads.
EXTRA_UNITS = {
    "reps_per_s": "rep/s",
    "reps_per_cpu_s": "rep/s",
    "rep_ms_p50": "ms",
    "rep_ms_p90": "ms",
    "ref_ms_mean": "ms",
    "ref_cpu_ms_mean": "ms",
    "setup_wall_s": "s",
    "sim_time_mean": "time",
    "task_error_mean": "rel.err",
    "failed_frac": "fraction",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result: a worker crashed, ran out
    of time or a replication raised (``failed`` of ``attempted``)."""

    def __init__(self, message: str, attempted: int = 1, failed: int = 1) -> None:
        super().__init__(message)
        self.attempted = attempted
        self.failed = failed


def git_sha(root: str) -> str:
    """HEAD of a git checkout at ``root`` (no search above it);
    ``"unknown"`` elsewhere or without git."""
    env = dict(os.environ, GIT_DIR=os.path.join(root, ".git"))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


class Children:
    """Starts worker processes under one shared deadline."""

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        self.base = [
            sys.executable,
            os.path.join(HERE, "worker.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            repr(seconds),
        ]
        self.budget = seconds + BUDGET_MARGIN_S
        self.deadline = time.monotonic() + self.budget
        self.env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, self.env.get("PYTHONPATH")) if p
        )
        # One thread per process: the benchmark measures the simulator,
        # not how a BLAS pool shares the machine.
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"
        self.env["PYTHONHASHSEED"] = "0"

    def run(self, mode: str, *extra: str) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"time budget of {self.budget:g} s spent before the {mode} worker")
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [*self.base, "--mode", mode, "--spawned", repr(spawned), *extra],
                cwd=ROOT,
                env=self.env,
                stdout=subprocess.PIPE,
                text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} worker exceeded the {self.budget:g} s budget") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
        message = f"{mode} worker exited with code {proc.returncode}"
        try:
            out = json.loads(lines[-1])
            failures, attempted, failed = out["failures"], out["attempted"], out["failed"]
        except (IndexError, ValueError, KeyError, TypeError):
            raise BenchError(message) from None
        raise BenchError(f"{message}: {'; '.join(failures)}", attempted, failed)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end(children: Children, wl) -> dict:
    setups = [children.run("setup") for _ in range(SETUP_PROBES - 1)]
    out = children.run("timed")
    setups.append(out)
    timed = (
        "rep_cost_mean",
        "rep_cost_p50",
        "rep_cost_p90",
        "ref_ms_mean",
        "ref_cpu_ms_mean",
        "reps_per_s",
        "reps_per_cpu_s",
        "rep_ms_p50",
        "rep_ms_p90",
    )
    values = {name: out[name] for name in timed}
    values.update(
        # The reference kernel's CPU time over the timed run tracks how
        # fast the host is in this stretch of time; dividing by it keeps
        # a slow or fast hour from moving the set-up time.
        setup_s=median([p["setup_cpu_s"] for p in setups])
        / (out["ref_cpu_ms_mean"] * 1e-3)
        * REFERENCE_NOMINAL_S,
        setup_wall_s=median([p["setup_wall_s"] for p in setups]),
        peak_rss_mib=out["peak_rss_mib"],
        failed_frac=out["failed"] / out["attempted"],
        **out["sim"],
    )
    counts = {name: f"{out['reps']} reps" for name in timed}
    for name in ("rep_cost_p50", "rep_cost_p90", "rep_ms_p50", "rep_ms_p90"):
        counts[name] = f"{out['samples']} samples"
    counts.update(
        setup_s=f"{len(setups)} processes",
        setup_wall_s=f"{len(setups)} processes",
        peak_rss_mib="1 process",
        failed_frac=f"{out['attempted']} attempted",
    )
    for name in out["sim"]:
        counts[name] = f"first {wl.sim_reps} reps"
    out["values"], out["counts"] = values, counts
    return out


def per_layer(children: Children, workload: str) -> dict:
    os.makedirs(os.path.join(ROOT, SPANS_DIR), exist_ok=True)
    spans = os.path.join(SPANS_DIR, f"spans-{workload}.jsonl")
    out = children.run("traced", "--spans", spans)
    out["values"] = dict(out["layers"])
    out["spans_path"] = spans
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(
            f"perfbench: the program is missing ({os.path.join('src', 'repro')} "
            f"not found under {ROOT}); run from a full checkout",
            file=sys.stderr,
        )
        return 2
    try:
        spec = load_spec()
        wl = WORKLOADS[args.workload]
        children = Children(args.workload, args.seed, args.seconds)
        if args.trace:
            out = per_layer(children, args.workload)
            wanted = spec["per_layer"]
        else:
            out = end_to_end(children, wl)
            wanted = spec["end_to_end"]
        missing = [m["name"] for m in wanted if m["name"] not in out["values"]]
        if missing:
            raise BenchError(f"worker did not report {missing}")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        result = {"correct": False, "attempted": exc.attempted, "failed": exc.failed, "metrics": {}}
        print(json.dumps(result))
        return 1

    units = {m["name"]: m["unit"] for m in wanted}
    units.update({k: v for k, v in EXTRA_UNITS.items() if k in out["values"]})
    stamp = {
        "sha": git_sha(ROOT),
        **out["stamp"],
        "workload": wl.name,
        "seed": args.seed,
        "n": wl.n,
        "engine": wl.engine,
        "held_out_seed": HELD_OUT_SEED,
    }
    print("stamp " + " ".join(f"{k}={v}" for k, v in stamp.items()))
    counts = out.get("counts", {})
    for name, unit in units.items():
        value = out["values"][name]
        print(f"{name:<58} {value:>14.6g} {unit:<10} {counts.get(name, '')}")
    if args.trace:
        coverage = out["values"]["trace.coverage"]
        verdict = "meets" if coverage >= COVERAGE_TARGET else "below"
        print(
            f"trace.coverage {coverage:.3f} {verdict} the {COVERAGE_TARGET:.2f} target; "
            f"trace.overhead {out['values']['trace.overhead']:.3f}x; "
            f"{out['reps']} traced and {out['reps_untraced']} untraced reps; "
            f"{out['wrapped_sites']} sites wrapped and restored; "
            f"{out['spans']} spans in {out['spans_path']}"
        )
    for failure in out["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    correct = out["failed"] == 0
    result = {
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {
            m["name"]: {"value": out["values"][m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

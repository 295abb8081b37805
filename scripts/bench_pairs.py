#!/usr/bin/env python3
"""Alternating parent/change pairs of the perfbench benchmark.

    python3 scripts/bench_pairs.py --out BENCH_<n>.json \\
        --workload simulate-cli --workload roundtrip --seeds 1 2 3 4 5 6 7 8 9 10

Exports the committed files of the parent revision (``--parent``, default
HEAD) into a temporary directory. For each workload and seed it runs
``perfbench/run.py --workload W --seed S`` in that copy and in this
working tree, one pair per seed, swapping which side runs first from one
pair to the next. Each side runs its own ``perfbench/``, which measures
the package in its own ``src/``; ``same_benchmark`` records whether the
two benchmark copies are identical, as a fair comparison needs.

The JSON written holds, per workload and metric, each side's values,
quartiles and median, how many pairs each side won (ties count for
neither), the change's median relative to the parent's, and whether that
is a gain: the change won at least nine tenths of the pairs and the
medians differ by more than the parent's interquartile range. It also
holds the seeds, which side ran first in each pair, and perfbench's
machine record. perfbench is driven as a subprocess and never modified.

SIGTERM ends the script as Ctrl-C does: the running perfbench process
group (``run.py``, its worker and any CLI run) is killed and reaped, and
the exported parent tree is removed, before the script exits 143.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import signal
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, text=True,
                          capture_output=True).stdout.strip()


def export(revision: str, dest: Path) -> None:
    """The committed files of ``revision``, as the benchmark checks them out.
    An export leaves nothing registered in the repository, as a worktree
    would if the run were killed."""
    archive = subprocess.run(["git", "archive", revision], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in the checkout at ``root``.

    It runs in a process group of its own, which an interruption kills
    whole: killing ``run.py`` alone would leave its worker and CLI runs."""
    proc = subprocess.Popen(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, text=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True)
    try:
        stdout, stderr = proc.communicate()
    except BaseException:
        with contextlib.suppress(ProcessLookupError):   # the group has ended
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench failed in {root} ({workload}, seed {seed}):\n"
                           f"{stderr[-2000:]}")
    result = json.loads(stdout.strip().splitlines()[-1])
    record = json.loads((root / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}"
                         / "result.json").read_text())
    return {"result": result, "machine": record["machine"],
            "ref_kernel_s": [record["ref_kernel_before_s"], record["ref_kernel_after_s"]]}


def summarize(spec: dict, parent: list[float], change: list[float]) -> dict:
    lower = spec["better"] == "lower"
    change_wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    parent_wins = sum((p < c) if lower else (p > c) for p, c in zip(parent, change))
    sides = {}
    for side, values in (("parent", parent), ("change", change)):
        q1, med, q3 = np.percentile(values, [25, 50, 75]).tolist()
        sides[side] = {"values": values, "q1": q1, "median": med, "q3": q3}
    p_med, c_med = sides["parent"]["median"], sides["change"]["median"]
    return {
        "unit": spec["unit"], "better": spec["better"], "bound": spec.get("bound"),
        **sides,
        "change_wins": change_wins, "parent_wins": parent_wins,
        "change_frac": c_med / p_med - 1.0 if p_med else None,
        "gain": (change_wins >= 0.9 * len(parent)
                 and abs(c_med - p_med) > sides["parent"]["q3"] - sides["parent"]["q1"]
                 and (c_med < p_med if lower else c_med > p_med)),
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path, help="JSON file to write")
    parser.add_argument("--workload", action="append", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--parent", default="HEAD", help="revision to compare against")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    metric_specs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        export(args.parent, Path(tmp))
        roots = {"parent": Path(tmp), "change": ROOT}
        out = {
            "parent": git("rev-parse", args.parent),
            "change": {"base": git("rev-parse", "HEAD"),
                       "uncommitted_changes": bool(git("status", "--porcelain"))},
            "same_benchmark": subprocess.run(
                ["git", "diff", "--quiet", args.parent, "--", "perfbench", "BENCHMARK.json"],
                cwd=ROOT).returncode == 0,
            "seconds": args.seconds, "trace": args.trace, "workloads": {},
        }
        for workload in args.workload:
            runs, first = {"parent": [], "change": []}, []
            for i, seed in enumerate(args.seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                first.append(order[0])
                for side in order:
                    run = run_once(roots[side], workload, seed, args.seconds, args.trace)
                    runs[side].append(run)
                    out.setdefault("machine", run["machine"])
                    print(f"{workload} seed {seed} {side}: " + ", ".join(
                        f"{k}={v['value']:.4g}" for k, v in run["result"]["metrics"].items()),
                        flush=True)
            names = runs["change"][0]["result"]["metrics"]
            out["workloads"][workload] = {
                "seeds": args.seeds, "first": first,
                "correct": {side: [r["result"]["correct"] for r in side_runs]
                            for side, side_runs in runs.items()},
                "ref_kernel_s": {side: [r["ref_kernel_s"] for r in side_runs]
                                 for side, side_runs in runs.items()},
                "metrics": {name: summarize(
                    metric_specs[name],
                    [r["result"]["metrics"][name]["value"] for r in runs["parent"]],
                    [r["result"]["metrics"][name]["value"] for r in runs["change"]])
                    for name in names},
            }
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    # By default SIGTERM ends the process at once, skipping every cleanup.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())

#!/usr/bin/env python3
"""Interleaved A/B pairs of the end-to-end benchmark: a base revision against the working tree.

Usage (from the root of a checkout)::

    python3 scripts/perf_pairs.py --workload explore --pairs 10 --seed 301 --base HEAD~1

The base revision is extracted from local history with ``git archive`` into
a temporary directory (nothing is downloaded); the change is the working
tree itself.  Each pair runs ``perfbench/run.py --trace 0`` once in each
tree with the same workload seed and ``BENCHMARK.json``'s run length,
alternating which tree runs first.  For
every end-to-end metric ``BENCHMARK.json`` declares, the report gives the
per-pair values, each side's median and quartiles, how many pairs the
change won, and two verdicts:

* ``gain`` -- the change won at least 9 of every 10 pairs and the median
  gap exceeds the interquartile range of the base's runs;
* ``bound`` -- ``worse`` when the change's median is worse than the base's
  by more than the metric's declared bound, ``unresolved`` when the base's
  own interquartile range is wider than that bound (unless every change
  run beats every base run), ``held`` otherwise.

A pair whose run fails, reports ``correct: false`` or fails operations
stops the script with status 1.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent


def extract(revision: str, directory: Path) -> None:
    """Write ``revision``'s tree into ``directory`` with ``git archive``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", revision],
        check=True,
        capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(directory)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> Dict[str, float]:
    """One benchmark run in ``tree``: its end-to-end metric values."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(
        command, cwd=tree, capture_output=True, text=True,
        timeout=max(600.0, 20 * seconds),
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        raise RuntimeError(
            f"{tree}: {' '.join(command)} exited {done.returncode}\n{done.stderr}"
        )
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{tree}: {workload} run not correct: {lines[-1]}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, median, third = statistics.quantiles(values, n=4)
    return first, median, third


def verdicts(
    base: List[float], change: List[float], better: str, bound: float
) -> Tuple[int, bool, str]:
    """(pairs the change won, claimed gain holds, the bound's verdict)."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    first, base_median, third = quartiles(base)
    change_median = quartiles(change)[1]
    gap = sign * (base_median - change_median)
    gain = wins >= math.ceil(0.9 * len(base)) and gap > third - first
    scale = abs(base_median) or 1.0
    if better == "lower":
        separated = max(change) < min(base)
    else:
        separated = min(change) > max(base)
    if -gap / scale > bound:
        held = "worse"
    elif (third - first) / scale > bound and not separated:
        held = "unresolved"
    else:
        held = "held"
    return wins, gain, held


def report(workload: str, rows: List[Tuple[Dict, Dict]], metrics: List[Dict]) -> None:
    print(f"\n{workload}: {len(rows)} pairs (base, change)")
    for spec in metrics:
        name = spec["name"]
        base = [pair[0][name] for pair in rows if name in pair[0]]
        change = [pair[1][name] for pair in rows if name in pair[1]]
        if not base or len(base) != len(change) or not any(base + change):
            continue
        wins, gain, held = verdicts(base, change, spec["better"], spec["bound"])
        b1, bm, b3 = quartiles(base)
        c1, cm, c3 = quartiles(change)
        ratio = f"{bm / cm:.2f}x" if cm else "-"
        print(f"  {name} [{spec['unit']}, {spec['better']} is better]")
        print("    pairs: " + ", ".join(f"{b:.4g}/{c:.4g}" for b, c in zip(base, change)))
        print(
            f"    base median {bm:.4g} (IQR {b1:.4g}-{b3:.4g}); change median "
            f"{cm:.4g} (IQR {c1:.4g}-{c3:.4g}); base/change {ratio}; change won "
            f"{wins}/{len(base)}; gain {'yes' if gain else 'no'}; "
            f"{spec['bound']:.0%} bound {held}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True, help="workload seed of every run")
    parser.add_argument("--base", required=True, help="git revision to compare against")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    rows: List[Tuple[Dict, Dict]] = []
    with tempfile.TemporaryDirectory(prefix="perf-pairs-") as scratch:
        base_tree = Path(scratch)
        extract(args.base, base_tree)
        for index in range(args.pairs):
            order = [("base", base_tree), ("change", ROOT)]
            if index % 2:
                order.reverse()
            try:
                values = {
                    side: run_once(tree, args.workload, args.seed, seconds)
                    for side, tree in order
                }
            except RuntimeError as error:
                print(f"error: {error}", file=sys.stderr)
                return 1
            rows.append((values["base"], values["change"]))
            print(
                f"pair {index + 1}/{args.pairs} ({order[0][0]} first): job_p50_s "
                f"{values['base'].get('job_p50_s', 0):.4g} -> "
                f"{values['change'].get('job_p50_s', 0):.4g}",
                flush=True,
            )
    report(args.workload, rows, benchmark["end_to_end"])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Sensitivity check: the benchmark's comparison must see a 20% slowdown.

    python3 perfbench/sensitivity.py [--out .bench_runs/sensitivity]

Makes four sets of RUNS untraced runs of the coll workload, each run
BENCHMARK.json's run_seconds long, interleaved run by run so that host
drift falls on all of them alike:

- BASE and AGAIN: the unmodified benchmark, with different seeds;
- TYPED (`--spin typed`): the benchmark busy-waits 20% of the typed
  round's median (taken on a tenth of the run ahead of the measured part)
  inside every timed typed round;
- ALL (`--spin all`): the same, and 20% of the RawComm round's median
  inside every timed RawComm round, a slowdown that the typed and the
  plain path share, as a transport or schedule regression would.

The spins are benchmark code; the program has no hook for them. compare.py
must flag TYPED through typed_over_plain and ALL through op_us, and must not
flag AGAIN. The std reference that scales the absolute metrics must not move
with either spin (its median within a third of op_us's bound of BASE's), or
the scaling could cancel a real slowdown. Exits 0 when all of this holds.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import compare

ROOT = Path(__file__).resolve().parent.parent
# On p2p a spin on rank 0 also slows the echoing rank's next wake-up, so the
# interleaved RawComm twin slows with the typed one; coll keeps them apart.
WORKLOAD = "coll"
RUNS = 5
# Set name, --spin value, first seed, the metric that must flag it (None:
# nothing may be flagged).
SETS = [
    ("base", "none", 1, None),
    ("again", "none", 101, None),
    ("typed", "typed", 1, "typed_over_plain"),
    ("all", "all", 1, "op_us"),
]


def run(out, seed, seconds, spin):
    out.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", WORKLOAD,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0", "--spin", spin]
    with open(out / f"{WORKLOAD}.{seed}.out", "w") as f:
        subprocess.run(cmd, cwd=ROOT, stdout=f, check=True)


def reference_median(directory):
    """Median over a set's runs of the reference scale (nominal / std median)."""
    scales = []
    for path in Path(directory).glob("*.out"):
        for line in path.read_text().splitlines():
            parts = line.split()
            if parts[:2] == ["info", "scale"]:
                scales.append(float(parts[2]))
    return statistics.median(scales)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(ROOT / ".bench_runs" / "sensitivity"))
    out = Path(ap.parse_args().out)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    tolerance = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "op_us") / 3
    for i in range(RUNS):
        for name, spin, seed, _ in SETS:
            run(out / name, seed + i, seconds, spin)
    ok = True
    base_ref = reference_median(out / "base")
    for name, spin, _, metric in SETS[1:]:
        must = f"must be flagged on {metric}" if metric else "must not be flagged"
        print(f"== {name.upper()} (--spin {spin}) against BASE ({must})")
        flags = compare.check([str(out / "base"), str(out / name)])
        for f in flags:
            print("FLAG", f)
        hit = any(f.split()[1].rstrip(":") == metric for f in flags) if metric else not flags
        shift = reference_median(out / name) / base_ref - 1
        print(f"reference scale moved {shift:+.3f} (tolerance {tolerance:.3f})")
        ok = ok and hit and abs(shift) <= tolerance
    print("sensitivity check", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

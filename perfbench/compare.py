#!/usr/bin/env python3
"""Spread and regression check over saved benchmark runs.

    python3 perfbench/compare.py RUNS            # spread of one set
    python3 perfbench/compare.py BASE NEW        # NEW against BASE

A set is a directory of files, each holding the standard output of one
`perfbench/run.py` call. For every workload and end-to-end metric the
spread is the distance between the first and third quartile of the runs'
values (statistics.quantiles, n=4) as a share of their median; it must stay
within the metric's bound from BENCHMARK.json. The one exception is setup_s:
its spread is printed but not gated, as the benchmark contract leaves it
ungated (set-up is a handful of short samples per run and moves with the
host's load), while its median is gated like every other. With two sets, a
metric whose NEW median is worse than the BASE median by more than its bound
is flagged as a regression. Traced runs of one seed must report identical
profile.* counts. Exits 1 when anything is flagged.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# End-to-end metrics whose spread is reported but not gated.
SPREAD_EXEMPT = {"setup_s"}


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load(directory):
    """{(workload, trace): [(seed, result)]} from one set of saved runs."""
    runs = defaultdict(list)
    for path in sorted(Path(directory).glob("*.out")):
        lines = path.read_text().splitlines()
        run = next((l for l in lines if l.startswith("run ")), None)
        if run is None or not lines[-1].startswith("{"):
            print(f"{path}: no result")
            continue
        meta = dict(kv.split("=", 1) for kv in run.split()[1:])
        runs[(meta["workload"], int(meta["trace"]))].append(
            (int(meta["seed"]), json.loads(lines[-1])))
    return runs


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def values(results, name):
    return [r["metrics"][name]["value"] for _, r in results]


def check_correct(runs):
    bad = []
    for (workload, trace), results in runs.items():
        for seed, r in results:
            if not r["correct"] or r["failed"]:
                bad.append(f"{workload} seed {seed} trace {trace}: correct={r['correct']} "
                           f"failed={r['failed']}/{r['attempted']}")
    return bad


def check_profile_repeats(runs):
    """Traced runs of one seed must give identical profile.* counts."""
    bad = []
    for (workload, trace), results in runs.items():
        by_seed = defaultdict(set)
        for seed, r in results:
            counts = tuple(sorted((k, v["value"]) for k, v in r["metrics"].items()
                                  if k.startswith("profile.")))
            if counts:
                by_seed[seed].add(counts)
        bad += [f"{workload} seed {seed}: profile counts differ between runs"
                for seed, c in by_seed.items() if len(c) > 1]
    return bad


def spread_report(runs, label=""):
    """Prints each end-to-end metric's median and spread; returns flags."""
    flags = []
    for m in spec()["end_to_end"]:
        for (workload, trace), results in sorted(runs.items()):
            if trace != 0 or len(results) < 2:
                continue
            q1, med, q3 = quartiles(values(results, m["name"]))
            spread = (q3 - q1) / med
            mark = "ok"
            if spread > m["bound"]:
                mark = "UNSTEADY"
                if m["name"] in SPREAD_EXEMPT:
                    mark += " (spread not gated)"
                else:
                    flags.append(f"{label}{workload} {m['name']}: spread {spread:.3f} > bound {m['bound']}")
            elif spread > m["bound"] / 3:
                mark = "over a third of bound"
            print(f"{label}{workload:11} {m['name']:17} median {med:14.4f} {m['unit']:6} "
                  f"q1 {q1:14.4f} q3 {q3:14.4f} spread {spread:6.3f} bound {m['bound']:.2f} "
                  f"n={len(results)} {mark}")
    return flags


def regressions(base, new):
    """Metrics whose NEW median is worse than BASE's by more than the bound."""
    flags = []
    for m in spec()["end_to_end"]:
        for key in sorted(set(base) & set(new)):
            if key[1] != 0:
                continue
            b = statistics.median(values(base[key], m["name"]))
            n = statistics.median(values(new[key], m["name"]))
            worse = (n - b) / b if m["better"] == "lower" else (b - n) / b
            verdict = "REGRESSION" if worse > m["bound"] else "ok"
            print(f"{key[0]:11} {m['name']:17} base {b:14.4f} new {n:14.4f} {m['unit']:6} "
                  f"worse by {worse:+7.3f} bound {m['bound']:.2f} {verdict}")
            if verdict != "ok":
                flags.append(f"{key[0]} {m['name']}: worse by {worse:.3f} > bound {m['bound']}")
    return flags


def check(dirs):
    """Prints the report of one set, or of NEW against BASE; returns the flags."""
    sets = [load(d) for d in dirs]
    flags = []
    for label, runs in zip(["base: ", "new: "] if len(sets) == 2 else [""], sets):
        flags += check_correct(runs) + check_profile_repeats(runs)
        flags += spread_report(runs, label)
    if len(sets) == 2:
        flags += regressions(*sets)
    return flags


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__)
        return 2
    flags = check(argv)
    for f in flags:
        print("FLAG", f)
    print("flagged" if flags else "not flagged")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

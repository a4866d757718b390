#!/usr/bin/env python3
"""Build the layer-ledger benchmark from this checkout and run one workload.

    python3 perfbench/run.py --workload p2p|coll|samplesort --seed N \
        --seconds S --trace 0|1 [--spin typed|all]

Run from the root of a checkout. The benchmark is built with cargo into
$CARGO_TARGET_DIR (default: .bench_build in the checkout). The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; the lines before it give the host fingerprint and every metric
by name, with its unit and sample count. The benchmark binary refuses to
run while any KAMPING_* variable is set, because each of them changes the
program under test; its exit code is passed on.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
# The kamping crates the benchmark links; without them there is nothing
# to measure.
SOURCES = ["crates/core/Cargo.toml", "crates/mpi/Cargo.toml", "crates/sort/Cargo.toml"]
BUILD_TIMEOUT_S = 840
# Set-ups, the profile runs and the process itself come on top of --seconds.
RUN_SLACK_S = 120


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_rev():
    """The git revision, or a hash of the sources when there is no git."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                capture_output=True, text=True, timeout=10,
            )
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    files = sorted(
        p for d in ("crates", "perfbench") for p in (ROOT / d).rglob("*")
        if p.is_file() and p.suffix in (".rs", ".toml")
    )
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return "src-" + h.hexdigest()[:12]


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["p2p", "coll", "samplesort"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--spin", choices=["none", "typed", "all"], default="none",
                    help="sensitivity check: spin inside the typed, or all, program calls")
    args = ap.parse_args()

    missing = [s for s in SOURCES if not (ROOT / s).is_file()]
    if missing:
        fail(f"kamping sources missing from this checkout: {', '.join(missing)}")

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build"))
    target = Path(env["CARGO_TARGET_DIR"])
    if not target.is_absolute():
        target = ROOT / target
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", str(BENCH / "Cargo.toml")],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if build.returncode != 0:
        fail("build failed")

    print(f"host nproc={os.cpu_count()} cpu={cpu_model()!r} "
          f"kernel={platform.release()} rev={source_rev()}")
    print(f"run workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} spin={args.spin}")
    sys.stdout.flush()
    cmd = [str(target / "release" / "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spin", args.spin]
    try:
        res = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             text=True, timeout=args.seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out")
    lines = res.stdout.splitlines()
    if res.returncode != 0 or not lines:
        if lines[:-1]:
            print("\n".join(lines[:-1]))
        fail(f"benchmark exited with code {res.returncode}", res.returncode or 1)

    result = json.loads(lines[-1])
    names = expected_metrics(args.trace)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"] \
            or sorted(result["metrics"]) != sorted(names):
        print("\n".join(lines[:-1]))
        fail("result does not match BENCHMARK.json")
    print("\n".join(lines))


if __name__ == "__main__":
    main()

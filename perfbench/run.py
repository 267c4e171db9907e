#!/usr/bin/env python3
"""Build and run the jitvs benchmark.

Run from the root of a jitvs checkout:

    python3 perfbench/run.py --workload suites --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (the jitvs library from
src/ plus the jitvs_perfbench driver) in Release mode under
$CARGO_TARGET_DIR, or .bench_build when that is unset; later calls only
rebuild what changed. Build output goes to stderr, so the last line of
stdout is the driver's JSON result.

--selftest runs the benchmark's own checks (see perfbench/README.md):
outputs equal to the interpreter's, each workload's dominant layer,
exact repeat of the count metrics for a repeated seed, and different
inputs for a different seed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["suites", "genprog", "serve", "serve-async"]


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configures (once) and builds the driver; returns its path."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "-j", "4",
                    "--target", "jitvs_perfbench"],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "jitvs_perfbench")


def results_dir():
    return os.path.join(build_dir(), "results")


def input_digest(workload, seed, trace):
    path = os.path.join(results_dir(),
                        f"result-{workload}-seed{seed}-trace{trace}.json")
    with open(path) as f:
        return json.load(f)["notes"]["inputs.digest"]


def run_driver(exe, workload, seed, seconds, trace, capture=False):
    results = results_dir()
    os.makedirs(results, exist_ok=True)
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", results]
    if not capture:
        return subprocess.run(cmd).returncode
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"selftest: {workload} seed {seed} exited "
                         f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# Count metrics that must repeat exactly for a repeated seed.
COUNTS = ["jit.compiles", "jit.specialized_compiles", "jit.generic_compiles",
          "jit.despecializations", "jit.bailouts", "cache.hits",
          "cache.evictions", "lir.code_instrs", "lir.spills"]


def selftest(exe, seconds):
    failures = []
    for w in WORKLOADS:
        a = run_driver(exe, w, 1, seconds, 1, capture=True)
        layer_ok = a["metrics"]["selftest.layer_ok"]["value"] == 1
        print(f"{w}: correct={a['correct']} layer_ok={layer_ok} shares=" +
              " ".join(f"{k[6:]}={v['value']:.3f}"
                       for k, v in a["metrics"].items()
                       if k.startswith("share.")))
        if not a["correct"]:
            failures.append(f"{w}: outputs differ from the interpreter")
        if not layer_ok:
            failures.append(f"{w}: dominant layer no longer does most work")
        run_driver(exe, w, 2, 1, 0, capture=True)
        if input_digest(w, 1, 1) == input_digest(w, 2, 0):
            failures.append(f"{w}: seeds 1 and 2 gave the same inputs")
        if w == "serve-async":
            continue  # Background compiles land at timing-dependent points.
        b = run_driver(exe, w, 1, seconds, 1, capture=True)
        counts = [k for k in a["metrics"]
                  if k in COUNTS or k.startswith("jit.bailouts.")]
        diff = [k for k in counts
                if a["metrics"][k]["value"] != b["metrics"][k]["value"]]
        if diff:
            failures.append(f"{w}: counts differ for one seed: {diff}")
    for f in failures:
        print("FAIL", f)
    print("selftest:", "FAIL" if failures else "ok")
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if not args.selftest and not args.workload:
        p.error("--workload or --selftest is required")
    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    sys.stdout.flush()
    if args.selftest:
        return selftest(exe, min(args.seconds, 4))
    return run_driver(exe, args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())

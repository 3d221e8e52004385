#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py aa --workload W [--pairs 10] [--seconds S]
                                [--a PATH] [--b PATH]

Run from the repository root. The first form builds the release
`stencilcl` binary and the `perfbench` measuring program (into
$CARGO_TARGET_DIR, default `.bench_build`), runs one measurement and
prints its result object as the last stdout line. All scratch state lives
under `.perfbench_tmp/` in the working directory and is removed on exit.

The `aa` form runs two sides ("parent" A and "change" B, by default the
same freshly built binary) in alternating order, one pair per seed, and
prints each metric's median and quartiles per side plus the host drift
probes. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Builds both binaries; exits nonzero (no result) if either fails."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        fail("no Cargo.toml in the working directory; run from the repository root")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    steps = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "stencilcl", "--bin", "stencilcl"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")],
    ]
    for cmd in steps:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=850)
        if r.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "stencilcl"), os.path.join(release, "perfbench")


def probe(cmd):
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=20)
        return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def measure(perfbench, stencilcl, workload, seed, seconds, trace, extra=()):
    """One measurement; returns (stdout lines, exit code)."""
    tmp = os.path.join(ROOT, ".perfbench_tmp", f"run-{os.getpid()}-{seed}")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    cmd = [perfbench, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--stencilcl", stencilcl, "--tmp", tmp, "--bench-dir", BENCH_DIR,
           "--rustc", probe(["rustc", "--version"]),
           "--git-rev", probe(["git", "rev-parse", "HEAD"]), *extra]
    # Its own session, so a run that overstays takes its daemon down with it.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{workload} seed {seed} did not finish within 170 s")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass
    return out.splitlines(), proc.returncode


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def aa(args, stencilcl, perfbench):
    sides = {"A": args.a or stencilcl, "B": args.b or stencilcl}
    runs = {"A": [], "B": []}
    spins = {"A": [], "B": []}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for side in order:
            lines, code = measure(perfbench, sides[side], args.workload, seed, args.seconds, 0)
            if code != 0 or not lines:
                fail(f"side {side} seed {seed} exited {code}")
            result = json.loads(lines[-1])
            diag = json.loads(lines[-2]) if len(lines) > 1 else {}
            runs[side].append(result)
            spins[side].append((diag.get("spin_ms_before"), diag.get("spin_ms_after")))
            print(f"pair {i} seed {seed} side {side}: correct={result['correct']} "
                  f"failed={result['failed']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
    names = list(runs["A"][0]["metrics"])
    print(f"\nA/A summary, {args.workload}, {args.pairs} pairs, {args.seconds}s runs")
    print(f"{'metric':<22} {'side':<4} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8}")
    for name in names:
        for side in ("A", "B"):
            vals = [r["metrics"][name]["value"] for r in runs[side]]
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"{name:<22} {side:<4} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.3f}")
        a = statistics.median(r["metrics"][name]["value"] for r in runs["A"])
        b = statistics.median(r["metrics"][name]["value"] for r in runs["B"])
        print(f"{name:<22} B/A  {b / a if a else float('nan'):>12.4f}")
    for side in ("A", "B"):
        print(f"spin_ms {side}: " + ", ".join(f"{x}/{y}" for x, y in spins[side]))
    bad = sum(r["failed"] for s in runs.values() for r in s)
    print(f"failed ops across all runs: {bad}")


def main():
    argv = sys.argv[1:]
    if argv[:1] == ["aa"]:
        p = argparse.ArgumentParser(prog="run.py aa")
        p.add_argument("--workload", required=True)
        p.add_argument("--pairs", type=int, default=10)
        p.add_argument("--seconds", type=int, default=20)
        p.add_argument("--first-seed", type=int, default=1)
        p.add_argument("--a", help="stencilcl binary of side A (default: the built one)")
        p.add_argument("--b", help="stencilcl binary of side B (default: the built one)")
        args = p.parse_args(argv[1:])
        stencilcl, perfbench = build()
        aa(args, stencilcl, perfbench)
        return 0
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--poison-expected", action="store_true",
                   help="corrupt every expected output: every op must then fail")
    args = p.parse_args(argv)
    stencilcl, perfbench = build()
    extra = ["--poison-expected"] if args.poison_expected else []
    lines, code = measure(perfbench, stencilcl, args.workload, args.seed, args.seconds,
                          args.trace, extra)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Entry point of the repository benchmark.

Builds gomsm and the load generator from source with dune, then runs one
workload and passes its output through; the last line printed is the JSON
result.  Run it from the root of a checkout:

    python3 perfbench/run.py --workload read-hot --seed 1 --seconds 10 --trace 0

Extra modes:

    --repeat K   run the workload K times (seeds seed..seed+K-1) and print,
                 per end-to-end metric, the median, the quartiles and the
                 IQR as a share of the median against the metric's bound
                 from BENCHMARK.json; --workload all runs every workload
    --smoke      a tiny run of every workload, traced and untraced, that
                 checks each result's shape against BENCHMARK.json (the
                 benchmark's own tests run this)

Exit status: 0 on success; non-zero, with no result line, when the
checkout cannot be built or a run is invalid or wrong.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".perfbench_run")
BENCH = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
GOMSM = os.path.join(ROOT, "_build", "default", "bin", "gomsm.exe")
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    for f in ("dune-project", os.path.join("bin", "gomsm.ml"),
              os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, f)):
            fail(f"not a gomsm checkout: {f} is missing")
    # The shared dune cache lives outside the checkout; keep it out.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ROOT, "./bin/gomsm.exe",
             "./perfbench/bench.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr)
    except FileNotFoundError:
        fail("dune is not installed")
    if r.returncode != 0:
        fail("build failed")


def run_once(workload, seed, seconds, trace, smoke=False, echo=True):
    """Run the load generator once; returns (exit code, parsed result)."""
    cmd = [BENCH, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--gomsm", GOMSM, "--workdir", WORKDIR]
    if smoke:
        cmd.append("--smoke")
    # Its own session, so a timeout kills the daemons it started as well.
    p = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         start_new_session=True)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        print(f"perfbench: {workload} run timed out", file=sys.stderr)
        return 2, None
    lines = out.rstrip("\n").split("\n")
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    if echo:
        sys.stdout.write(out)
        sys.stdout.flush()
    return p.returncode, result


def repeat(workloads, seed, seconds, k):
    bounds = {m["name"]: m["bound"] for m in spec()["end_to_end"]}
    ok = True
    for w in workloads:
        series = {}
        for i in range(k):
            code, res = run_once(w, seed + i, seconds, 0, echo=False)
            if code != 0 or res is None or not res["correct"]:
                print(f"{w} seed {seed + i}: run failed (exit {code})")
                ok = False
                continue
            for name, m in res["metrics"].items():
                series.setdefault(name, []).append(m["value"])
        print(f"{w}: {k} runs, seeds {seed}..{seed + k - 1}")
        print(f"  {'metric':16} {'median':>12} {'q1':>12} {'q3':>12}"
              f" {'iqr/med':>8} {'bound':>6}  verdict")
        for name, vs in series.items():
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name, 0)
            verdict = ("steady" if spread < bound / 3 else
                       "within bound" if spread <= bound else "TOO NOISY")
            if name == "setup_s":
                verdict += " (spread not gated)"
            print(f"  {name:16} {med:12.6g} {q1:12.6g} {q3:12.6g}"
                  f" {spread:8.4f} {bound:6.3f}  {verdict}")
            print("    runs: " + " ".join(f"{v:.6g}" for v in vs))
    return ok


def smoke():
    s = spec()
    want = {0: {m["name"] for m in s["end_to_end"]},
            1: {m["name"] for m in s["per_layer"]}}
    for w in [x["name"] for x in s["workloads"]]:
        for trace in (0, 1):
            code, res = run_once(w, 1, 4, trace, smoke=True, echo=False)
            if code != 0 or res is None:
                fail(f"smoke {w} trace {trace}: exit {code}")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                fail(f"smoke {w} trace {trace}: wrong answers")
            if set(res["metrics"]) != want[trace]:
                fail(f"smoke {w} trace {trace}: metrics "
                     f"{sorted(set(res['metrics']) ^ want[trace])} differ"
                     " from BENCHMARK.json")
            print(f"smoke {w} trace {trace}: ok")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0)
    ap.add_argument("--smoke", action="store_true")
    a = ap.parse_args()
    build()
    if a.smoke:
        smoke()
        return 0
    names = [w["name"] for w in spec()["workloads"]]
    if a.repeat:
        ws = names if a.workload == "all" else [a.workload]
        if not set(ws) <= set(names):
            fail(f"unknown workload {a.workload}")
        return 0 if repeat(ws, a.seed, a.seconds, a.repeat) else 1
    if a.workload not in names:
        fail(f"unknown workload {a.workload}; one of {', '.join(names)}")
    code, _ = run_once(a.workload, a.seed, a.seconds, a.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())

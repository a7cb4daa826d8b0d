"""zetadiff benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 33 --trace 0

Run from the root of a checkout.  Each round runs the workload's whole
operation list once in a fresh interpreter (worker.py), so caches start
cold, as for a command-line user.  Rounds repeat while the time spent in
them is expected to stay within --seconds; the first round's outputs are checked
against independent computations (checks.py), and every later round must
reproduce them bit for bit.

--trace 0 prints the end-to-end metrics: medians over rounds of setup_s,
run_s and peak_rss_mb, and op_p50_s, the median over operations of each
operation's median latency.  --trace 1 alternates untraced and traced
rounds and prints the per-layer metrics (medians over traced rounds) and
trace.overhead_s.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

An operation fails if it raises, if its check fails, or if its output
differs from the checked round's.  `correct` is false if any output that
did not raise is wrong.  Each round's raw figures are written to
perfbench/results/rounds-<workload>.json, and the spans of the last traced
round to perfbench/results/trace-<workload>.csv.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
# every run ends within this many seconds, whatever --seconds says
HARD_LIMIT_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "mpcore.prefill_s": "s",
    "mpcore.harmonic_s": "s",
    "mpcore.lookup_s": "s",
    "mpcore.lookup_calls": "count",
    "mpcore.zeta_evals": "count",
    "mpcore.zeta_eval_s": "s",
    "differences.self_s": "s",
    "differences.terms": "count",
    "differences.terms_per_s": "1/s",
    "precision.format_s": "s",
    "precision.format_calls": "count",
    "asymptotics.self_s": "s",
    "asymptotics.envelope_calls": "count",
    "series.self_s": "s",
    "contour.integrand_evals": "count",
    "contour.evals_per_result": "evals/result",
    "contour.eval_s_mean": "s",
    "contour.eval_dps_mean": "digits",
    "contour.loggamma_evals": "count",
    "contour.self_s": "s",
    "contour.rule_s": "s",
    "contour.height_max": "height",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def run_round(workload: str, seed: int, deadline: float, check: bool = False, trace: bool = False) -> dict:
    """Run worker.py once and return its parsed result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", str(seed)]
    if check:
        cmd.append("--check")
    if trace:
        os.makedirs(RESULTS, exist_ok=True)
        cmd += ["--trace", os.path.join(RESULTS, f"trace-{workload}.csv")]
    env = dict(os.environ, MPMATH_NOGMPY="1")
    t0 = time.monotonic()
    cmd += ["--t0", repr(t0)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - t0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"round of {workload} did not finish by the time limit") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tally(rounds: list[dict]) -> tuple[bool, int, int]:
    """(correct, attempted, failed) over all rounds; the first round was checked."""
    checked = rounds[0]
    correct = all(c is None or c[0] for c in checked["checks"])
    attempted = failed = 0
    for rnd in rounds:
        for dig, first, check in zip(rnd["digests"], checked["digests"], checked["checks"]):
            attempted += 1
            if dig is None:  # raised
                failed += 1
            elif dig != first or not check[0]:
                failed += 1
                correct = False
    return correct, attempted, failed


def end_to_end(rounds: list[dict]) -> dict[str, float]:
    per_op = zip(*(r["op_s"] for r in rounds))
    return {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "run_s": statistics.median(r["run_s"] for r in rounds),
        "op_p50_s": statistics.median(statistics.median(t) for t in per_op),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in rounds),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    names = traced[0]["layers"].keys()
    out = {name: statistics.median(r["layers"][name] for r in traced) for name in names}
    out["trace.overhead_s"] = (
        statistics.median(r["run_s"] for r in traced) - statistics.median(r["run_s"] for r in plain)
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not os.path.isfile(os.path.join(ROOT, "src", "zetadiff", "__init__.py")):
        print(f"zetadiff sources not found under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + HARD_LIMIT_S
    plain, traced = [], []
    measured = 0.0  # time in rounds, without the checks and trace processing after them
    try:
        while True:
            start = time.monotonic()
            plain.append(run_round(args.workload, args.seed, deadline, check=not plain))
            if args.trace:
                traced.append(run_round(args.workload, args.seed, deadline, trace=True))
            measured += time.monotonic() - start - plain[-1]["tail_s"] - (traced[-1]["tail_s"] if traced else 0)
            if measured + measured / len(plain) > args.seconds:
                break
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    rounds = plain + traced
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"rounds-{args.workload}.json"), "w", encoding="utf-8") as fh:
        json.dump({"seed": args.seed, "plain": plain, "traced": traced}, fh)
    correct, attempted, failed = tally(rounds)
    for rnd in rounds:
        for err in filter(None, rnd["errors"]):
            print(f"operation raised: {err}", file=sys.stderr)
    for detail in plain[0]["checks"]:
        if detail is not None and not detail[0]:
            print(f"check failed: {detail[1]}", file=sys.stderr)
    if args.trace:
        values, units = per_layer(plain, traced), PER_LAYER_UNITS
    else:
        values, units = end_to_end(plain), END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

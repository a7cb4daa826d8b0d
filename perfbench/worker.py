"""One benchmark round: run a workload's operation list once, in this process.

Started by run.py as a fresh interpreter, so every round begins with cold
zetadiff and mpmath caches, as a command-line user does.  Prints one JSON
object on its last stdout line:

  setup_s   process start (the parent's clock reading just before it
            started this interpreter) to the start of the first operation:
            interpreter start, the zetadiff import, input generation
  run_s     first operation start to last operation end
  op_s      each operation's latency
  rss_mb    peak resident memory after the last operation
  digests   a hash of each operation's output, or null if it raised
  errors    the exception text of each operation, or null
  checks    [ok, detail] per operation when --check is given (untimed)
  layers    per-layer metrics when --trace is given (untimed)
  tail_s    time spent after the last operation on checks and tracing
"""

from __future__ import annotations

import time

_LAUNCH = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from zetadiff import cli, contour, differences  # noqa: E402

from workloads import make_ops  # noqa: E402

_POINT_CALLS = {
    "b": lambda n, extra, digits: differences.b(n, digits),
    "delta": lambda n, extra, digits: differences.delta(n, digits, method=extra),
    "A": lambda n, extra, digits: differences.A(n, extra, digits),
    "a": lambda n, extra, digits: differences.a(n, extra, digits),
    "d": lambda n, extra, digits: differences.d(n, digits, method=extra),
    "c": lambda n, extra, digits: differences.c(n, digits),
}


def execute(op):
    """Run one operation through the program; return its raw output."""
    if op.kind == "cli":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(op.args))
        return code, buf.getvalue()
    if op.kind == "point":
        name, n, extra, digits = op.args
        return _POINT_CALLS[name](n, extra, digits)
    if op.kind == "rice":
        return contour.rice_integral(*op.args)
    if op.kind == "saddle":
        return contour.saddle_contour_integral(*op.args)
    raise ValueError(f"unknown operation kind {op.kind!r}")


def digest(op, output) -> str:
    """Hash of an output, exact to the last bit of every number in it."""
    if op.kind == "cli":
        text = repr(output)
    elif op.kind == "point":
        text = repr((output.n, output.value._mpf_, output.method, output.achieved_digits))
    else:
        text = repr((output.value._mpf_, output.error_estimate._mpf_, output.truncation_height._mpf_))
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, default=_LAUNCH, help="parent's monotonic clock at launch")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--trace", default=None, help="write spans to this CSV path")
    args = parser.parse_args()

    ops = make_ops(args.workload, args.seed)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    outputs, errors, op_s = [], [], []
    first = time.monotonic()
    for op in ops:
        start = time.perf_counter()
        try:
            outputs.append(execute(op))
            errors.append(None)
        except Exception as exc:  # an operation that raises counts as failed
            outputs.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
        op_s.append(time.perf_counter() - start)
    last = time.monotonic()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "setup_s": first - args.t0,
        "run_s": last - first,
        "op_s": op_s,
        "rss_mb": rss_mb,
        "digests": [None if e else digest(op, out) for op, out, e in zip(ops, outputs, errors)],
        "errors": errors,
        "checks": None,
        "layers": None,
    }
    if tracer is not None:
        from tracer import layer_metrics

        tracer.uninstall()
        result["layers"] = layer_metrics(tracer.spans)
        tracer.write(args.trace)
    if args.check:
        from checks import check

        result["checks"] = [
            None if e else list(check(op, out)) for op, out, e in zip(ops, outputs, errors)
        ]
    result["tail_s"] = time.monotonic() - last
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

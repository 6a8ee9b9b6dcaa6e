"""One workload in a fresh single-threaded process: a closed loop over cli.main.

Started by run.py, which pins it to one core and sets the BLAS thread
variables.  The worker talks to run.py by JSON lines: it reports each op on
its original stdout and waits on stdin until run.py has checked the op's
outputs, so the next op starts only when the previous one is done and
checked.  The CLI's own stdout and stderr go to the null device.

Op 0 is the warm-up.  After it, ops run until ``--seconds`` have passed and
at least the workload's ``min_ops`` are done.  With ``--trace 1`` even ops run
under the tracer and odd ops without it, so the same run gives the tracing
overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from time import perf_counter

from workloads import WORKLOADS


def peak_rss_mb() -> float:
    """Peak RSS of this process since it started (VmHWM).

    ``ru_maxrss`` would not do: exec keeps the maximum RSS of the process
    before it, and that is run.py's RSS at the fork.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--output", required=True, help="directory the ops write into")
    parser.add_argument("--spans", required=True,
                        help="file the first traced op's spans are written to")
    args = parser.parse_args()

    proto = os.fdopen(os.dup(sys.stdout.fileno()), "w", buffering=1)
    devnull = open(os.devnull, "w")
    sys.stdout = devnull

    import numpy
    from pfcircuit import cli
    from tracer import Tracer

    def send(message: dict) -> None:
        proto.write(json.dumps(message) + "\n")

    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.workload, args.seed, args.output)
    tracer = Tracer() if args.trace else None
    send({"type": "hello", "numpy": numpy.__version__})

    spans = None
    start = None
    op = 0
    while True:
        argv = next(inputs)
        traced = tracer is not None and op > 0 and op % 2 == 0
        if traced:
            tracer.begin_op(op, keep_spans=spans is None)
            tracer.install()
        rc = exc = None
        with contextlib.redirect_stderr(devnull):
            t0 = perf_counter()
            try:
                rc = cli.main(argv)
            except Exception as error:  # an op's crash is a measured outcome
                exc = type(error).__name__
            dt = perf_counter() - t0
        record = {"type": "op", "op": op, "argv": argv, "rc": rc, "exc": exc, "dt": dt,
                  "traced": traced}
        if traced:
            tracer.uninstall()
            record.update(self_s=tracer.self_s, calls=tracer.calls, counters=tracer.counters)
            if spans is None:
                spans = tracer.spans
        send(record)
        if sys.stdin.readline() == "":
            return 1
        if start is None:
            start = perf_counter()
        op += 1
        if op > workload.min_ops and perf_counter() - start >= args.seconds:
            break

    if spans:
        with open(args.spans, "w") as handle:
            handle.write("name,start,end,parent,op\n")
            handle.writelines(f"{n},{s!r},{e!r},{p},{o}\n" for n, s, e, p, o in spans)
    send({"type": "done", "peak_rss_mb": peak_rss_mb()})
    return 0


if __name__ == "__main__":
    sys.exit(main())

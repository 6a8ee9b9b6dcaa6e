"""Benchmark of the pfcircuit CLI, end to end and per layer.

    python3 bench/run.py --workload simulate-5k --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all --seconds 55

Each workload runs in a fresh single-threaded worker process (worker.py),
pinned to one core, as a closed loop of ``pfcircuit.cli.main(argv)`` calls.
This process checks every op's outputs with the oracles in gate.py while the
worker waits, then prints every metric by name and unit.  The last line of
stdout is one JSON object: end-to-end metrics with ``--trace 0``, per-layer
metrics from the traced run with ``--trace 1``.  README.md describes the
workloads, the metrics and the tracing method.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Callable

THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREAD_ENV)

import gate  # noqa: E402
from tracer import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / ".runs"
WORK = BENCH / ".work"

#: fresh interpreters timed per run for setup_s, spread over the run
SETUP_SAMPLES = 15
SETUP_CODE = ("import time; t = time.perf_counter(); import pfcircuit.cli; "
              "print(repr(time.perf_counter() - t))")
#: seconds a worker may run beyond --seconds before it is killed
WATCHDOG_SLACK = 120.0

OUTPUT_FILES = {"simulate": ("trajectory.csv", "plot_data.dat"),
                "verify": ("verify_report.json",),
                "sweep": ("sweep.csv",)}
OUTCOMES = ("pass", "check_failed", "refused", "crashed", "wrong_output")
#: functions whose self time is reported on its own (median per traced op)
FUNCTION_SELF = ("cli.plot_data", "dynamics.trajectory_to_csv", "cli.write",
                 "dynamics.evolve_rk4", "linalg.jacobi_eigh",
                 "heisenberg.number_evolution", "pfalgebra.build_pf",
                 "pfalgebra.pf_verify", "observables.classify_asymptotics")
#: functions whose call count is reported on its own (exact)
FUNCTION_CALLS = ("linalg.jacobi_eigh", "linalg.expm", "linalg.inverse",
                  "params.validate", "params.normalized", "liouvillian.spectrum")
COUNTER_UNITS = {"cli.bytes_written": "bytes", "dynamics.rk4_steps": "count"}
NOT_RUN = "not run: the warm-up op did not pass"


def child_env() -> dict[str, str]:
    return {**os.environ, **THREAD_ENV, "PYTHONPATH": str(SRC)}


def time_setup(env: dict[str, str]) -> float:
    """Wall time of ``import pfcircuit.cli`` in a fresh interpreter."""
    return float(subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                                capture_output=True, text=True, check=True,
                                timeout=60).stdout)


def setup_sampler(env: dict[str, str], seconds: float) -> tuple[list[float], Callable[[], None]]:
    """setup_s samples, and a hook that adds one between ops every so often.

    The host's speed drifts over a run, so the samples are spread over it
    rather than taken in a burst.  The worker is idle while the hook runs.
    """
    samples = [time_setup(env)]
    interval = seconds / SETUP_SAMPLES
    last = perf_counter()

    def between_ops() -> None:
        nonlocal last
        if len(samples) < SETUP_SAMPLES and perf_counter() - last >= interval:
            samples.append(time_setup(env))
            last = perf_counter()

    return samples, between_ops


def steal_ticks() -> int | None:
    try:
        return int(Path("/proc/stat").read_text().split("\n")[0].split()[8])
    except (OSError, IndexError, ValueError):
        return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def code_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted([*SRC.glob("pfcircuit/*.py"), *BENCH.glob("*.py"), *BENCH.glob("*.json")]):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def classify(kind: str, pinned_keys: bool, msg: dict, out: Path) -> tuple[str, str | None, dict]:
    """Outcome of one op, the reason when it is not a pass, and its outputs."""
    if msg["exc"] is not None:
        return "crashed", msg["exc"], {}
    if msg["rc"] in (2, 3):
        return "refused", f"exit {msg['rc']}", {}
    if msg["rc"] == 1:
        return "check_failed", "exit 1", {}
    if msg["rc"] != 0:
        return "crashed", f"exit {msg['rc']}", {}
    try:
        outputs = {name: (out / name).read_text() for name in OUTPUT_FILES[kind]}
    except OSError as error:
        return "wrong_output", str(error), {}
    argv = msg["argv"]
    if kind == "simulate":
        reason = gate.check_simulate(argv, outputs["trajectory.csv"], outputs["plot_data.dat"])
    elif kind == "verify":
        try:
            report = json.loads(outputs["verify_report.json"])
        except ValueError as error:
            return "wrong_output", f"verify_report.json: {error}", {}
        reason = gate.check_verify_report(report, pinned_keys=pinned_keys)
    else:
        reason = gate.check_sweep(argv, outputs["sweep.csv"])
    return ("pass" if reason is None else "wrong_output"), reason, outputs


def drive_worker(name: str, seed: int, seconds: float, trace: int, env: dict[str, str],
                 between_ops: Callable[[], None]) -> tuple[list[dict], dict, dict, str]:
    """Run one worker; return its op records, hello and done messages, self-test verdict.

    When the warm-up op passes, the gate's self-test runs on its outputs.
    ``between_ops`` runs after each op is checked, before the next one starts.
    """
    workload = WORKLOADS[name]
    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    RUNS.mkdir(exist_ok=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--output", str(work),
           "--spans", str(RUNS / f"spans-{name}-seed{seed}.csv")]
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                            env=env, cwd=ROOT)
    watchdog = threading.Timer(seconds + WATCHDOG_SLACK, proc.kill)
    watchdog.start()

    def receive() -> dict:
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker for {name} ended early (exit {proc.wait()})")
        return json.loads(line)

    ops, self_test = [], NOT_RUN
    try:
        hello = receive()
        while (msg := receive())["type"] == "op":
            outcome, reason, outputs = classify(workload.kind, not workload.failures_expected,
                                                msg, work)
            msg.update(outcome=outcome, reason=reason)
            if msg["op"] == 0 and outcome == "pass":
                self_test = gate.self_test(workload.kind, msg["argv"], outputs, seed) or "ok"
            for path in work.iterdir():
                path.unlink()
            ops.append(msg)
            between_ops()
            proc.stdin.write("\n")
            proc.stdin.flush()
        done = msg
        if proc.wait(timeout=60) != 0:
            raise RuntimeError(f"worker for {name} exited with {proc.returncode}")
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        for stream in (proc.stdin, proc.stdout):
            stream.close()
        shutil.rmtree(work, ignore_errors=True)
    return ops, hello, done, self_test


def median(values) -> float | None:
    """Median, or None (JSON null) when no op qualified, e.g. none passed."""
    return statistics.median(values) if values else None


def fastest(ops: list[dict]) -> float | None:
    """A repeating run's fastest op: its cost with the least disturbance.

    Other tenants of the host only ever add time to an op, and their load comes
    and goes over seconds to minutes, so the median of a run follows the host
    while its fastest op stays near the program's own cost.
    """
    return min((m["dt"] for m in ops), default=None)


def end_to_end(ops: list[dict], setup: list[float], done: dict,
               workload) -> tuple[dict, dict]:
    """Metrics compared between commits (BENCHMARK.json), and ones only printed.

    The printed ones follow every op, so they move with the host's load: on a
    shared host their spread between runs of the same code exceeds any bound
    the comparison allows.
    """
    passing = [m for m in ops if not m["traced"] and m["outcome"] == "pass"]
    times = [m["dt"] for m in passing]
    metrics = {"setup_s": (median(setup), "s")}
    if workload.repeat:
        metrics["op_best_s"] = (fastest(passing), "s")
    metrics["peak_rss_mb"] = (done["peak_rss_mb"], "MB")
    printed = {"op_p50_s": (median(times), "s")}
    if len(times) >= 100:
        printed["op_p90_s"] = (statistics.quantiles(times, n=10)[-1], "s")
    if not workload.failures_expected:
        # where ops may fail, it would reward turning fast crashes into slow passes
        printed["ops_per_s"] = (len(times) / sum(m["dt"] for m in ops if not m["traced"]), "1/s")
    return metrics, printed


def per_layer(ops: list[dict], workload) -> tuple[dict, dict]:
    """Per-layer metrics of the traced ops, and the subset that must repeat exactly.

    Times are medians over all traced ops.  Counts are medians over the traced
    ops among the first ``min_ops``, which every run makes with the same
    inputs, so they repeat exactly for the same code and seed.
    """
    traced = [m for m in ops if m["traced"]]
    prefix = [m for m in traced if m["op"] <= workload.min_ops]

    def self_of(pred):
        return median([sum(v for k, v in m["self_s"].items() if pred(k)) for m in traced])

    def calls_of(pred):
        return median([sum(v for k, v in m["calls"].items() if pred(k)) for m in prefix])

    metrics, exact = {}, {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (self_of(lambda k: k.split(".")[0] == layer), "s")
        exact[f"{layer}.calls"] = (calls_of(lambda k: k.split(".")[0] == layer), "count")
    for fn in FUNCTION_SELF:
        metrics[f"{fn}.self_s"] = (self_of(lambda k: k == fn), "s")
    for fn in FUNCTION_CALLS:
        exact[f"{fn}.calls"] = (calls_of(lambda k: k == fn), "count")
    for counter, unit in COUNTER_UNITS.items():
        exact[counter] = (median([m["counters"][counter] for m in prefix]), unit)
    first = [m for m in ops if m["op"] <= workload.min_ops]
    for outcome in OUTCOMES:
        exact[f"outcome.{outcome}"] = (sum(m["outcome"] == outcome for m in first), "count")
    for crash in sorted({m["exc"] for m in first if m["exc"]}):
        exact[f"crash.{crash}"] = (sum(m["exc"] == crash for m in first), "count")
    metrics.update(exact)
    typical = fastest if workload.repeat else lambda sample: median([m["dt"] for m in sample])
    plain = typical([m for m in ops if not m["traced"] and m["outcome"] == "pass"])
    timed = typical([m for m in traced if m["outcome"] == "pass"])
    metrics["trace.overhead"] = (timed / plain - 1.0 if plain and timed else None, "ratio")
    metrics["trace.coverage"] = (median([sum(m["self_s"].values()) / m["dt"] for m in traced]),
                                 "ratio")
    return metrics, {k: v[0] for k, v in exact.items()}


def exact_repeat(name: str, seed: int, exact: dict) -> str:
    """Compare this run's exact counts with an earlier run of the same code and seed."""
    record = RUNS / f"exact-{name}-seed{seed}-{code_hash()}.json"
    if not record.exists():
        record.write_text(json.dumps(exact, indent=1) + "\n")
        return "first traced run of this code and seed; counts recorded"
    before = json.loads(record.read_text())
    differ = sorted(k for k in before.keys() | exact.keys() if before.get(k) != exact.get(k))
    if not differ:
        return "identical to the earlier run of this code and seed"
    return "DIFFER from the earlier run: " + ", ".join(
        f"{k} {before.get(k)} -> {exact.get(k)}" for k in differ)


def run_workload(name: str, seed: int, seconds: float, trace: int, core: int) -> dict:
    workload = WORKLOADS[name]
    env = child_env()
    steal_start = steal_ticks()
    setup, between_ops = ([], lambda: None) if trace else setup_sampler(env, seconds)
    ops, hello, done, self_test = drive_worker(name, seed, seconds, trace, env, between_ops)
    if not trace:  # runs with few, long ops leave samples to take at the end
        setup += [time_setup(env) for _ in range(SETUP_SAMPLES - len(setup))]
    steal_end = steal_ticks()

    measured = ops[1:]
    failed = sum(m["outcome"] != "pass" for m in measured)
    wrong = [m for m in ops if m["outcome"] == "wrong_output"]
    if workload.failures_expected:  # outputs an op calls a success must still be right
        correct = self_test in ("ok", NOT_RUN) and not wrong
    else:
        correct = self_test == "ok" and not wrong and failed == 0
    if trace:
        metrics, exact = per_layer(measured, workload)
        printed, repeat = {}, exact_repeat(name, seed, exact)
    else:
        (metrics, printed), repeat = end_to_end(measured, setup, done, workload), None

    print(f"== {name}  seed {seed}  seconds {seconds:g}  trace {trace}")
    for metric, (value, unit) in {**metrics, **printed}.items():
        print(f"  {metric:<40} {value!r} {unit}")
    if trace:
        shares = {layer: metrics[f"{layer}.self_s"][0] / median(
            [m["dt"] for m in measured if m["traced"]]) for layer in LAYERS}
        print("  share of traced op time: " + ", ".join(
            f"{layer} {share:.3f}" for layer, share in shares.items() if share >= 0.0005))
    outcomes = Counter(m["outcome"] for m in measured)
    crashes = Counter(m["exc"] for m in measured if m["exc"])
    print(f"  fail_share {failed / len(measured)!r} ({failed} of {len(measured)} ops); "
          f"outcomes {dict(outcomes)}; crashes {dict(crashes)}")
    print("  op seconds: " + " ".join(f"{m['dt']:.3f}{'t' if m['traced'] else ''}"
                                      for m in measured[:40]))
    for m in wrong[:3]:
        print(f"  wrong output at op {m['op']}: {m['reason']}")
    print(f"  correct {correct}; gate self-test: {self_test}")
    if repeat:
        print(f"  exact-repeat counts: {repeat}")
    steal = None if steal_start is None or steal_end is None else steal_end - steal_start
    print(f"  env: nproc {os.cpu_count()}, cpu {cpu_model()!r}, python "
          f"{platform.python_version()}, numpy {hello['numpy']}, pinned core {core}, "
          f"steal ticks over run {steal}")
    return {"correct": correct, "attempted": len(measured), "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pfcircuit" / "cli.py").is_file():
        print(f"pfcircuit sources not found under {SRC}", file=sys.stderr)
        return 2
    core = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})  # inherited by every process started below
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: run_workload(n, args.seed, args.seconds, args.trace, core) for n in names}
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError) as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())

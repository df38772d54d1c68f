"""phaselab benchmark: three closed-loop workloads driving the public API.

    python3 perfbench/run.py --workload wigner_curve --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all --seed 1   # each workload in a fresh process

Run from the root of a checkout; the package is imported from ``src/``.
One caller runs a fixed number of whole rounds of operations, sized from
``--seconds`` and the workload's nominal round time so that every run on the
same machine times the same number of operations (at least MIN_OPS); a run
that falls far behind stops early. BLAS is pinned to one thread. After every
timed operation the workload's reference kernel runs (``calibrate``), and
the end-to-end times are scaled by the run's host-speed factor. The last
line of standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("wigner_curve", "phase_portrait", "beam_splitting")

MIN_OPS = 40          # so that the tail percentile has >= 10 samples beyond it
MIN_TRACED_OPS = 10   # the traced run reports means, not a tail
TAIL_BEYOND = 10
FILL = 0.75           # planned rounds fill this share of --seconds at nominal speed
OVERRUN = 1.1         # a slow run starts no round that would end past this share
HARD_STOP_S = 150.0   # stop starting rounds this long after process start
SETUP_REPEATS = 3
WARMUP_ROUND = 1_000_000  # round index of the warm-up inputs, never timed
EPS = 2.0**-52        # error floor: accuracy_digits never exceeds ~15.65

PIN = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

END_TO_END_UNITS = {
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "accuracy_digits": "digits",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

T_START = time.perf_counter()


def program_env() -> dict:
    env = dict(os.environ, **PIN)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def load_program():
    """Import phaselab from the checkout; BLAS threads are pinned first."""
    os.environ.update(PIN)
    sys.path.insert(0, str(SRC))
    from phaselab import DensityMatrix, FilterSpec, cli, quasiprob_engine
    return SimpleNamespace(cli=cli, quasiprob_engine=quasiprob_engine,
                           DensityMatrix=DensityMatrix, FilterSpec=FilterSpec)


def make_workload(name: str, prog, workdir: Path, seed: int):
    from workloads import WORKLOADS
    return WORKLOADS[name](prog, workdir, seed)


def import_seconds() -> float:
    """Wall time for a fresh interpreter to import phaselab.cli."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import phaselab.cli"], env=program_env(),
                   cwd=ROOT, check=True, capture_output=True)
    return time.perf_counter() - t0


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.latencies: list[float] = []
        self.errors: list[float] = []
        self.messages: list[str] = []

    def record(self, op, seconds: float, out) -> None:
        from workloads import CheckFailed
        self.attempted += 1
        try:
            if isinstance(out, Exception):
                raise CheckFailed(f"raised {out!r}")
            err = op.check(out)
        except CheckFailed as exc:
            self.failed += 1
            if not op.probe:
                self.correct = False
            if len(self.messages) < 20:
                self.messages.append(f"{'probe' if op.probe else 'FAIL'} {op.kind}: {exc}")
            return
        if not op.probe:
            self.latencies.append(seconds)
            self.errors.append(err)


class NoPassingOperation(Exception):
    pass


def run_op(op):
    t0 = time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # a raw exception is a failed operation, not a crash
        out = exc
    return time.perf_counter() - t0, out


def setup(name: str, prog, workdir: Path, seed: int):
    """Set up SETUP_REPEATS times (fresh-interpreter import plus the first
    round's inputs) and take the median; add one warm-up operation."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t_import = import_seconds()
        t0 = time.perf_counter()
        wl = make_workload(name, prog, workdir, seed)
        wl.round(0)
        samples.append(t_import + time.perf_counter() - t0)
    warm = wl.round(WARMUP_ROUND)[0]
    t_warm, out = run_op(warm)
    return wl, statistics.median(samples) + t_warm, warm, out


def planned_rounds(wl, seconds: float, min_ops: int, cost: float = 1.0) -> int:
    """Whole rounds that fill FILL * seconds at the workload's nominal round
    time (times `cost`) and hold at least min_ops timed operations."""
    return max(math.ceil(min_ops / wl.MAIN_OPS),
               round(FILL * seconds / (cost * wl.ROUND_SECONDS)))


def keep_going(r: int, planned: int, round_times: list[float], seconds: float,
               t0: float) -> bool:
    now = time.perf_counter()
    if r >= planned or now - T_START > HARD_STOP_S:
        return False
    return (now - t0) + statistics.fmean(round_times) <= OVERRUN * seconds


def timed_loop(wl, seconds: float, tally: Tally, host) -> None:
    """Whole rounds; the reference kernel runs after each main operation,
    outside its timed span."""
    planned = planned_rounds(wl, seconds, MIN_OPS)
    t0 = time.perf_counter()
    round_times: list[float] = []
    r = 0
    while True:
        ops = wl.round(r)
        t_round = time.perf_counter()
        for op in ops:
            tally.record(op, *run_op(op))
            if not op.probe:
                host.sample()
        round_times.append(time.perf_counter() - t_round)
        r += 1
        if not keep_going(r, planned, round_times, seconds, t0):
            break


def traced_loop(wl, seconds: float, tally: Tally, tracer) -> dict:
    """Each main operation runs twice, untraced and traced, alternating which
    goes first; the traced output is checked. Probes run once, untraced."""
    planned = planned_rounds(wl, seconds, MIN_TRACED_OPS, cost=2.0)
    t0 = time.perf_counter()
    round_times: list[float] = []
    untraced: list[float] = []
    traced: list[float] = []
    r = 0
    while True:
        ops = wl.round(r)
        t_round = time.perf_counter()
        for i, op in enumerate(ops):
            if op.probe:
                tally.record(op, *run_op(op))
                continue
            order = (False, True) if (r + i) % 2 == 0 else (True, False)
            for with_trace in order:
                if with_trace:
                    tracer.op = len(traced)
                    tracer.install()
                    try:
                        dt, out = run_op(op)
                    finally:
                        tracer.uninstall()
                    traced.append(dt)
                    tally.record(op, dt, out)
                else:
                    untraced.append(run_op(op)[0])
        round_times.append(time.perf_counter() - t_round)
        r += 1
        if not keep_going(r, planned, round_times, seconds, t0):
            break
    n = len(traced)
    if not tally.latencies:
        raise NoPassingOperation
    layers = tracer.summary(n)
    covered = layers.pop("_covered_ms")
    op_traced = statistics.fmean(traced) * 1e3
    op_untraced = statistics.fmean(untraced) * 1e3
    layers["op.untraced_ms"] = op_untraced
    layers["op.traced_ms"] = op_traced
    layers["op.unattributed_ms"] = op_traced - covered
    layers["trace.overhead_pct"] = 100 * (op_traced - op_untraced) / op_untraced
    return layers


def per_layer_units() -> dict[str, str]:
    from spans import per_layer_units as layer_units
    units = layer_units()
    units.update({"op.untraced_ms": "ms", "op.traced_ms": "ms", "op.unattributed_ms": "ms",
                  "trace.overhead_pct": "%"})
    return units


def end_to_end(tally: Tally, setup_s: float, speed: float = 1.0) -> dict[str, float]:
    """The end-to-end metrics; times are multiplied by `speed` and the rate
    divided by it (the host-speed factor, 1.0 gives raw figures)."""
    if not tally.latencies:
        raise NoPassingOperation
    lat = sorted(tally.latencies)
    n = len(lat)
    return {
        "ops_per_s": n / sum(lat) / speed,
        "op_p50_ms": statistics.median(lat) * 1e3 * speed,
        "op_tail_ms": (lat[n - TAIL_BEYOND - 1] if n > TAIL_BEYOND else lat[-1]) * 1e3 * speed,
        "accuracy_digits": -math.log10(max(max(tally.errors), EPS)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s * speed,
    }


def run_one(args) -> int:
    prog = load_program()
    import selfcheck
    worst = selfcheck.check_references()
    print(f"reference self-check: worst discrepancy {worst:.2e}")
    workdir = BENCH / "_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl, setup_s, warm, warm_out = setup(args.workload, prog, workdir, args.seed)
        warm_tally = Tally()
        warm_tally.record(warm, 0.0, warm_out)  # checked, but not counted
        tally = Tally()
        tally.correct, tally.messages = warm_tally.correct, warm_tally.messages
        raw = host = None
        if args.trace:
            from spans import Tracer
            tracer = Tracer()
            values = traced_loop(wl, args.seconds, tally, tracer)
            units = per_layer_units()
            results = BENCH / "results"
            results.mkdir(exist_ok=True)
            tracer.dump(results / f"spans-{args.workload}-seed{args.seed}.json")
        else:
            from calibrate import HostSpeed
            host = HostSpeed(args.workload)
            timed_loop(wl, args.seconds, tally, host)
            raw = end_to_end(tally, setup_s)
            values = end_to_end(tally, setup_s, host.factor())
            units = END_TO_END_UNITS
    except NoPassingOperation:
        values = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for msg in tally.messages:
        print(msg)
    if values is None:
        print(f"{args.workload}: no operation passed its check", file=sys.stderr)
        return 1
    n = len(tally.latencies)
    print(f"{args.workload}: seed {args.seed}, {tally.attempted} operations attempted, "
          f"{tally.failed} failed; {n} timed")
    if host is not None:
        print(f"  reference kernel {host.median_ms():.2f} ms (reference machine "
              f"{host.reference_ms:.2f} ms): times scaled by {host.factor():.4f}")
    for name, value in values.items():
        extra = ""
        if name == "op_tail_ms":
            beyond = min(TAIL_BEYOND, n - 1)
            extra = f"  (p{100 * (n - beyond) / n:.1f} over {n} samples)"
        if raw is not None and raw[name] != value:
            extra += f"  [raw {raw[name]:.6g}]"
        print(f"  {name:34s} {value:14.6g} {units[name]}{extra}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, one after the other."""
    summary = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        summary[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    path = results / f"all-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": all(v["correct"] for v in summary.values()),
        "attempted": sum(v["attempted"] for v in summary.values()),
        "failed": sum(v["failed"] for v in summary.values()),
        "metrics": {f"{w}.{k}": m for w, v in summary.items() for k, m in v["metrics"].items()},
    }))
    return 0


def seed_value(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("seeds are nonnegative integers")
    return seed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=seed_value, default=1)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "phaselab" / "__init__.py").is_file():
        print(f"phaselab sources not found under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

"""pktilt benchmark: one workload, one seed, a timed closed loop.

    python3 benchmarks/run.py --workload blocks_sweep --seed 1 --seconds 40 --trace 0

Run from the repository root. The harness imports pktilt from ./src, builds
the workload's op list from --seed, and runs ops one after another (one
client, closed loop) until --seconds have passed. Each op's result is
checked; a failed op is counted, never dropped. cli_queries then sends its
known-defect requests (workloads.KNOWN_DEFECTS) once each, untimed and not
counted as ops, and reports how many of them still fail.

--trace 0 prints the end-to-end metrics. --trace 1 runs a fixed prefix of
the op list untraced (stopping early at --seconds), replays exactly those
ops with spans recorded around every layer entry point, and prints the
per-layer metrics. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
A fuller record (provenance, every op's time and outcome, each failure,
layer shares) goes to <results-dir>/<workload>-seed<seed>-trace<t>.json,
and the spans of a traced run to ...-spans.jsonl.gz next to it.
See benchmarks/README.md for the metrics and workloads.
"""

from __future__ import annotations

import os

# pinned before NumPy loads: one core for the single client
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import heapq  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"

# A seed kept out of every run made while building the benchmark or a change
# it measures; a later claim is confirmed on it (choosing-metrics, 6.3).
HELD_OUT_SEED = 20071
SETUP_REPS = 9
# Reported times are scaled to the machine speed at which the speed kernel
# below takes SPEED_REF_S (see SpeedProbe).
SPEED_REF_S = 1e-3
# pktilt's ops slow down less than the speed kernel when the machine is
# contended: scaling by the kernel's slowdown to this power left the least
# run-to-run spread over all three workloads (benchmarks/README.md).
SPEED_EXPONENT = 0.75
_SPEED_X = np.linspace(0.1, 5.0, 15)
_SPEED_W = np.linspace(0.01, 0.2, 15)
TIER1_COMMAND = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


class Context:
    """Per-run state a runner may need: the CLI's scratch output file and the
    bytes the CLI wrote there."""

    def __init__(self, cli_out: Path):
        self.cli_out = str(cli_out)
        self.out_bytes = 0


def import_pktilt():
    """A fresh import of pktilt from ./src (dropping any earlier import)."""
    for name in [m for m in sys.modules if m == "pktilt" or m.startswith("pktilt.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pk = importlib.import_module("pktilt")
    importlib.import_module("pktilt.cli")
    if Path(pk.__file__).resolve().parent != (SRC / "pktilt").resolve():
        raise ImportError(f"pktilt was imported from {pk.__file__}, not from {SRC}")
    return pk


def _speed_kernel() -> float:
    """Seconds taken by a fixed, harness-only piece of work shaped like one
    quadrature sweep in pktilt: NumPy calls on 15-element arrays, float
    arithmetic and a heap, driven from Python."""
    t0 = time.perf_counter()
    heap: list = []
    for i in range(100):
        v = np.exp(-0.5 * (_SPEED_X + i * 1e-3) + np.log(_SPEED_X))
        hi = float(np.dot(_SPEED_W, v))
        lo = float(np.dot(_SPEED_W[::2], v[::2]))
        heapq.heappush(heap, (-abs(hi - lo), i, float(np.dot(_SPEED_W, np.abs(v - hi)))))
        if len(heap) > 20:
            heapq.heappop(heap)
    return time.perf_counter() - t0


class SpeedProbe:
    """Tracks how fast the machine runs right now.

    On a shared machine the speed of one core drifts by tens of percent over
    seconds, for every program alike. The probe times _speed_kernel (about
    1 ms) between ops, at most every EVERY_S seconds. An op's time is then
    scaled by (SPEED_REF_S / median kernel time within WINDOW_S of the op)
    to the power SPEED_EXPONENT, which removes more than half of that drift
    (benchmarks/README.md). The raw times are kept in the record.
    """

    EVERY_S = 0.1
    WINDOW_S = 2.0

    def __init__(self):
        self.times: list[float] = []
        self.costs: list[float] = []

    def sample(self) -> None:
        self.times.append(time.perf_counter())
        self.costs.append(_speed_kernel())

    def tick(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= self.EVERY_S:
            self.sample()

    def scale(self, t0: float, t1: float) -> float:
        lo = bisect.bisect_left(self.times, t0 - self.WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + self.WINDOW_S)
        window = self.costs[lo:hi] or [self.costs[min(lo, len(self.costs) - 1)]]
        return (SPEED_REF_S / statistics.median(window)) ** SPEED_EXPONENT


def setup(workload: str, seed: int, sizes: wl.Sizes, probe: SpeedProbe):
    """Import pktilt and build the op list SETUP_REPS times.

    Returns the package, the op list and each repetition's (raw, scaled) time.
    """
    gen = wl.WORKLOADS[workload][0]
    spans = []
    for _ in range(SETUP_REPS):
        probe.sample()
        t0 = time.perf_counter()
        pk = import_pktilt()
        ops = gen(seed, sizes)
        spans.append((t0, time.perf_counter()))
    probe.sample()
    times = [(t1 - t0, (t1 - t0) * probe.scale(t0, t1)) for t0, t1 in spans]
    return pk, ops, times


def run_pass(pk, ops, call, check, ctx, probe, *, seconds=None, count=None, tracer=None):
    """Run ops in order until `seconds` pass or `count` ops ran.

    Only `call` is timed (and traced); `check` runs after it. Returns one
    (op index, raw seconds, scaled seconds, outcome, detail, start time) per op.
    """
    spans = []
    probe.sample()
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if (count is not None and i >= count) or (
                seconds is not None and time.perf_counter() - start >= seconds):
            break
        if tracer is not None:
            tracer.begin(i)
        t0 = time.perf_counter()
        try:
            out = call(pk, op, ctx)
        except Exception as exc:  # a failed op is counted, never dropped
            out = exc
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.end()
        if isinstance(out, Exception):
            outcome, detail = wl.ERROR, f"{type(out).__name__}: {out}"
        else:
            outcome, detail = check(pk, op, out, ctx)
        spans.append((i, t0, t1, outcome, detail))
        probe.tick()
    probe.sample()
    return [(i, t1 - t0, (t1 - t0) * probe.scale(t0, t1), outcome, detail, t0)
            for i, t0, t1, outcome, detail in spans]


def run_defect_probes(pk, probes, call, check, ctx) -> list[dict]:
    """Send each known-defect request once, untimed, and record its outcome."""
    found = []
    for op in probes:
        try:
            out = call(pk, op, ctx)
        except Exception as exc:
            outcome, detail = wl.ERROR, f"{type(exc).__name__}: {exc}"
        else:
            outcome, detail = check(pk, op, out, ctx)
        found.append({"argv": op["argv"], "outcome": outcome, "detail": detail})
    return found


def quantile(values, q):
    """Linear-interpolated quantile; +inf entries (failed ops) sort last."""
    xs = sorted(values)
    h = (len(xs) - 1) * q
    lo = math.floor(h)
    hi = min(lo + 1, len(xs) - 1)
    if h == lo or xs[lo] == xs[hi]:
        return xs[lo]
    return xs[lo] + (h - lo) * (xs[hi] - xs[lo])


def end_to_end(records, setup_times) -> dict[str, tuple[float, str]]:
    """End-to-end metrics from scaled times (see SpeedProbe)."""
    ok = sum(r[3] == wl.OK for r in records)
    latency = [r[2] if r[3] == wl.OK else math.inf for r in records]
    return {
        "setup_s": (statistics.median(t[1] for t in setup_times), "s"),
        "ok_per_s": (ok / sum(r[2] for r in records), "1/s"),
        "op_p50_ms": (1e3 * quantile(latency, 0.5), "ms"),
        "op_p90_ms": (1e3 * quantile(latency, 0.9), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def provenance(pk) -> dict:
    sha = dirty = None
    if (ROOT / ".git").exists():
        try:
            git = ["git", "-C", str(ROOT)]
            sha = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
            status = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                                    capture_output=True, text=True, timeout=30)
            dirty = bool(status.stdout.strip()) if status.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pktilt": pk.__version__,
        "blas_threads": os.environ["OMP_NUM_THREADS"],
        "git_sha": sha,
        "git_dirty": dirty,
    }


def tier1() -> dict:
    """Time the Tier-1 test command once (informational, not a workload metric)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    t0 = time.perf_counter()
    proc = subprocess.run(TIER1_COMMAND, cwd=ROOT, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    return {
        "command": "PYTHONPATH=src " + " ".join(["python"] + TIER1_COMMAND[1:]),
        "wall_s": time.perf_counter() - t0,
        "returncode": proc.returncode,
        "summary": lines[-1] if lines else "",
    }


def op_log(ops, records, epoch: float) -> list[dict]:
    return [{"op": i, "start": t0 - epoch, "seconds": raw, "scaled_seconds": scaled,
             "outcome": outcome, "detail": detail, **({"spec": ops[i]} if outcome != wl.OK else {})}
            for i, raw, scaled, outcome, detail, t0 in records]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results-dir", default=str(HERE / "results"))
    parser.add_argument("--tiny", action="store_true",
                        help="tiny op sizes, for the harness self-test")
    parser.add_argument("--tier1", action="store_true",
                        help="also time the Tier-1 test command once (informational)")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    sizes = wl.TINY if args.tiny else wl.FULL
    results_dir = Path(args.results_dir)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    probe = SpeedProbe()
    try:
        pk, ops, setup_times = setup(args.workload, args.seed, sizes, probe)
    except ImportError as exc:
        print(f"cannot import pktilt from {SRC}: {exc}", file=sys.stderr)
        return 2
    results_dir.mkdir(parents=True, exist_ok=True)
    ctx = Context(results_dir / f"{stem}-cli-out.json")
    call, check = wl.WORKLOADS[args.workload][1:]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": "tiny" if args.tiny else "full",
        "provenance": provenance(pk),
        "ops_generated": len(ops),
        "setup_times_s": [{"seconds": raw, "scaled_seconds": scaled} for raw, scaled in setup_times],
    }

    if args.trace == 0:
        final = run_pass(pk, ops, call, check, ctx, probe, seconds=args.seconds)
        metrics = end_to_end(final, setup_times)
        correct = all(r[3] != wl.WRONG for r in final)
    else:
        # a fixed op prefix, so counts repeat exactly from run to run
        untraced = run_pass(pk, ops, call, check, ctx, probe, seconds=args.seconds,
                            count=sizes.traced_ops[args.workload])
        ctx.out_bytes = 0
        tracer = tracing.Tracer(pk)
        tracer.install()
        try:
            final = run_pass(pk, ops, call, check, ctx, probe, count=len(untraced), tracer=tracer)
        finally:
            tracer.uninstall()
        op_s = sum(r[1] for r in final)
        overhead = sum(r[2] for r in final) / sum(r[2] for r in untraced) - 1.0
        metrics = tracing.layer_metrics(tracer, op_s, overhead, ctx.out_bytes)
        spans_path = results_dir / f"{stem}-spans.jsonl.gz"
        tracer.write(spans_path)
        same_ops = [r[0] for r in untraced] == [r[0] for r in final]
        correct = same_ops and all(r[3] != wl.WRONG for r in untraced + final)
        record.update({
            "untraced_ops": [r[0] for r in untraced],
            "traced_ops": [r[0] for r in final],
            "untraced_outcomes": [r[3] for r in untraced],
            "layer_self_share": tracing.layer_shares(tracer, op_s),
            "untraced_entry_points": tracer.missing,
            "spans_file": spans_path.name,
        })

    defects = run_defect_probes(pk, wl.DEFECT_PROBES.get(args.workload, []), call, check, ctx)
    correct = correct and all(d["outcome"] != wl.WRONG for d in defects)
    ran_out = len(final) == len(ops)
    if ran_out:
        print(f"warning: all {len(ops)} generated ops ran before the time limit", file=sys.stderr)
    failed = sum(r[3] != wl.OK for r in final)
    result = {
        "correct": correct,
        "attempted": len(final),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record.update({
        "ops_attempted": len(final),
        "ops_exhausted": ran_out,
        "outcomes": {o: sum(r[3] == o for r in final) for o in (wl.OK, wl.ERROR, wl.WRONG)},
        "speed_probe": {"ref_s": SPEED_REF_S, "exponent": SPEED_EXPONENT, "median_s": statistics.median(probe.costs),
                        "samples": [[t - probe.times[0], c] for t, c in zip(probe.times, probe.costs)]},
        "ops": op_log(ops, final, probe.times[0]),
        "known_defects": defects,
        "result": result,
    })
    if args.tier1:
        record["tier1"] = tier1()
    with open(results_dir / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"ops={len(final)} failed={failed} correct={correct}")
    for name, (value, unit) in metrics.items():
        print(f"#   {name:32s} {value:14.6g} {unit}")
    if "layer_self_share" in record:
        shares = ", ".join(f"{k} {v:.1%}" for k, v in record["layer_self_share"].items())
        print(f"#   self-time share of op time: {shares}")
    if defects:
        still = sum(d["outcome"] != wl.OK for d in defects)
        print(f"#   known defects still failing (untimed, not counted): {still} of {len(defects)}")
    if "tier1" in record:
        t = record["tier1"]
        print(f"#   tier-1 (informational): {t['wall_s']:.1f} s, exit {t['returncode']}, {t['summary']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

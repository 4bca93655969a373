"""Measure one workload in this process.

Run as ``python3 bench/run.py --workload NAME --seed N --seconds S
--trace 0|1``.  The process sets the workload up several times (the
median is ``setup_s``), runs one untimed warm-up, then runs timed
iterations until ``--seconds`` have passed (at least three).  Before
each iteration it builds a fresh application, untimed, and calls
``gc.collect()``; the collector stays enabled because users pay for it.
Every iteration's output goes through the workload's oracle; an
iteration that fails it or raises counts as failed and the set goes on.
Each reported time is scaled to a reference host speed measured just
before and after it (:mod:`bench.hostspeed`); raw times are in the
detail.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced iterations and reports the per-layer metrics of the
traced ones (see :mod:`bench.layers`) plus ``bench.trace_overhead``.

Standard output is a table of every metric (median, quartiles, sample
count), one JSON line with the full detail (samples, model statistics,
reported-only metrics), and last the result line::

    {"correct": true, "attempted": 9, "failed": 0,
     "metrics": {"run_s": {"value": 1.07, "unit": "s"}, ...}}
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import traceback
from time import perf_counter, perf_counter_ns
from typing import Dict, List, Optional

from bench import layers
from bench.hostspeed import speed_factor, time_yardstick
from bench.stats import percentile, summarize
from bench.workloads import WORKLOADS, OracleError

#: Set-ups per process; ``setup_s`` is their median.
SETUP_TRIALS = 3
#: Timed iterations (or traced pairs) per process, whatever ``--seconds``.
MIN_ITERATIONS = 3

#: End-to-end metrics and their units.
E2E = {"setup_s": "s", "run_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}


class Iteration:
    """One checked run: its raw time, outcome and (traced) layer metrics."""

    def __init__(self, seconds: float, outcome, layers: Optional[Dict[str, float]]) -> None:
        self.seconds = seconds
        self.outcome = outcome
        self.layers = layers
        #: Host-speed factor measured around the run.
        self.speed = 1.0

    @property
    def corrected_s(self) -> float:
        return self.seconds * self.speed


class Measurement:
    """Runs iterations of one workload and counts the failed ones."""

    def __init__(self, workload, inputs, oracle) -> None:
        self.workload = workload
        self.inputs = inputs
        self.oracle = oracle
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        #: Model statistics of the first passing run, per planes arm:
        #: every later run of the same input must reproduce them.
        self.models: Dict[bool, Dict] = {}

    def attempt(self, traced: bool = False, planes: bool = True) -> Optional[Iteration]:
        """One iteration, or None when it raised or failed its oracle."""
        self.attempted += 1
        try:
            it = self._iterate(traced, planes)
            model = self.models.setdefault(planes, it.outcome.model)
            if it.outcome.model != model:
                raise OracleError(
                    f"model statistics differ between runs of one input: "
                    f"{it.outcome.model} != {model}"
                )
            return it
        except Exception as exc:  # noqa: BLE001 - a failed run is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None

    def _iterate(self, traced: bool, planes: bool) -> Iteration:
        wl = self.workload
        spans = layers.Spans() if traced else None
        uninstall = layers.install(spans) if traced else None
        try:
            job = wl.build(self.inputs, planes)
            gc.collect()
            if spans is not None:
                spans.reset()
            t0 = perf_counter_ns()
            outcome = wl.run(job)
            run_ns = perf_counter_ns() - t0
        finally:
            if uninstall is not None:
                uninstall()
        wl.check(self.oracle, outcome)
        # Only the oracle needs the frames; keeping them would make peak
        # RSS grow with the number of runs that fit in --seconds.
        outcome.frames = {}
        per_layer = layers.layer_metrics(spans, run_ns) if traced else None
        return Iteration(run_ns / 1e9, outcome, per_layer)


def _frame_intervals_ms(frame_ns: List[int]) -> List[float]:
    return [(b - a) / 1e6 for a, b in zip(frame_ns, frame_ns[1:])]


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> tuple:
    """Run the protocol of the module docstring; returns ``(detail,
    result)``, or raises ``SystemExit`` when no iteration passed."""
    wl = WORKLOADS[name]
    yardstick_s = time_yardstick()
    before = yardstick_s[:]
    setup_s, raw_setup_s = [], []
    for _ in range(1 if smoke else SETUP_TRIALS):
        gc.collect()
        t0 = perf_counter()
        inputs = wl.inputs(seed, smoke)
        wl.build(inputs)
        raw_setup_s.append(perf_counter() - t0)
        after = time_yardstick()
        yardstick_s += after
        setup_s.append(raw_setup_s[-1] * speed_factor(before + after))
        before = after
    oracle = wl.reference(inputs)
    if not smoke:
        wl.run(wl.build(inputs))  # warm-up: imports, caches, lazy tables

    # Each turn runs the measured arm (True) and, when there is one, its
    # control (False): the untraced run in trace mode, the planes-off
    # run of a paired workload.  Turns alternate which arm goes first.
    if trace:
        arms = {True: {"traced": True}, False: {"traced": False}}
    elif wl.paired:
        arms = {True: {"planes": True}, False: {"planes": False}}
    else:
        arms = {True: {}}
    m = Measurement(wl, inputs, oracle)
    min_runs = 1 if smoke else MIN_ITERATIONS
    deadline = perf_counter() + (0 if smoke else seconds)
    passed: List[Iteration] = []
    control: List[Iteration] = []
    before = time_yardstick()
    yardstick_s += before
    i = 0
    while i < min_runs or perf_counter() < deadline:
        order = list(arms) if i % 2 == 0 else list(arms)[::-1]
        turn = {arm: m.attempt(**arms[arm]) for arm in order}
        after = time_yardstick()
        yardstick_s += after
        speed = speed_factor(before + after)
        before = after
        if all(it is not None for it in turn.values()):
            for it in turn.values():
                it.speed = speed
            passed.append(turn[True])
            if False in turn:
                control.append(turn[False])
        i += 1
    if not passed:
        raise SystemExit(f"{name}: no iteration passed: {m.errors[:3]}")

    reported: Dict[str, Dict] = {
        "fail_ratio": {"unit": "ratio", "value": m.failed / m.attempted},
        "yardstick_s": summarize(yardstick_s, "s"),
    }
    if trace:
        metrics = {
            key: summarize(
                [it.layers[key] * (it.speed if unit == "ns" else 1) for it in passed], unit
            )
            for key, unit in layers.METRICS.items()
            if key != "bench.trace_overhead"
        }
        metrics["bench.trace_overhead"] = summarize(
            [statistics.median(on.seconds / off.seconds for on, off in zip(passed, control))],
            "ratio",
        )
        reported["raw_traced_run_s"] = summarize([it.seconds for it in passed], "s")
        reported["raw_untraced_run_s"] = summarize([it.seconds for it in control], "s")
    else:
        metrics = {
            "setup_s": summarize(setup_s, "s"),
            "run_s": summarize([it.corrected_s for it in passed], "s"),
            "items_per_s": summarize([it.outcome.items / it.corrected_s for it in passed], "1/s"),
            "peak_rss_mb": summarize(
                [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024], "MB"
            ),
        }
        reported["raw_setup_s"] = summarize(raw_setup_s, "s")
        reported["raw_run_s"] = summarize([it.seconds for it in passed], "s")
        intervals = [
            ms * it.speed for it in passed for ms in _frame_intervals_ms(it.outcome.frame_ns)
        ]
        if intervals:
            for p in (50, 99):
                reported[f"frame_ms_p{p}"] = {
                    "unit": "ms", "value": percentile(intervals, p), "n": len(intervals),
                }
        if control:
            reported["obs_overhead"] = summarize(
                [on.seconds / off.seconds for on, off in zip(passed, control)], "ratio"
            )

    detail = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "smoke": smoke,
        "size": wl.smoke_size if smoke else wl.size,
        "items": passed[0].outcome.items,
        "attempted": m.attempted,
        "failed": m.failed,
        "errors": m.errors[:5],
        "model": m.models.get(True),
        "metrics": metrics,
        "reported": reported,
    }
    result = {
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {
            key: {"value": s["median"], "unit": s["unit"]} for key, s in metrics.items()
        },
    }
    return detail, result


def format_table(detail: Dict) -> List[str]:
    """Human-readable lines: one per metric, then the reported-only ones."""
    head = (
        f"{detail['workload']} seed={detail['seed']} trace={detail['trace']}"
        f" size={detail['size']} items={detail['items']}"
        f" attempted={detail['attempted']} failed={detail['failed']}"
    )
    lines = [head]
    for key, s in detail["metrics"].items():
        lines.append(
            f"  {key:28} {s['median']:>14.6g} {s['unit']:6}"
            f" q1={s['q1']:<12.6g} q3={s['q3']:<12.6g} n={s['n']}"
        )
    for key, s in detail["reported"].items():
        value = s.get("value", s.get("median"))
        lines.append(f"  {key:28} {value:>14.6g} {s['unit']:6} (reported) n={s.get('n', 1)}")
    return lines


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench/run.py", description="Measure one benchmark workload in this process."
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=_seed, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one iteration")
    args = parser.parse_args(argv)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    detail, result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print("\n".join(format_table(detail)))
    print(json.dumps(detail))
    print(json.dumps(result), flush=True)
    return 0

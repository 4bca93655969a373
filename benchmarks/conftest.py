"""Shared benchmark configuration and helpers.

The paper-table benches run the paper's own workloads, 578- and
3000-image MJPEG streams, and nothing smaller.  Each paper decode (SMP at
578 and 3000 images, STi7200 at 578) runs once per session, in the
``smp_578``, ``smp_3000`` and ``sti7200_578`` fixtures, which keep only
its observation reports and makespan.  Every bench prints the
regenerated table/figure and writes it under ``benchmarks/results/``.

Absolute times come from a calibrated model, so the assertions check the
*shape* claims of the paper (balance, linearity, ratios, ordering, exact
counts); EXPERIMENTS.md records paper-vs-measured side by side.
"""

from __future__ import annotations

import statistics
from pathlib import Path
from typing import Any, Dict, NamedTuple, Tuple

import pytest

from repro.mjpeg import generate_stream
from repro.mjpeg.components import build_smp_assembly, build_sti7200_assembly
from repro.runtime import SmpSimRuntime, Sti7200SimRuntime

RESULTS_DIR = Path(__file__).parent / "results"


def save_result(name: str, text: str) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
    print()
    print(text)


def quartiles(xs):
    """``(q1, median, q3)`` of ``xs``."""
    q1, median, q3 = statistics.quantiles(xs, n=4)
    return q1, median, q3


_STREAMS = {}


def cached_stream(n_images: int, quality: int = 75, seed: int = 0):
    """Streams are expensive to encode; share them across benches."""
    key = (n_images, quality, seed)
    if key not in _STREAMS:
        _STREAMS[key] = generate_stream(n_images, 96, 96, quality=quality, seed=seed)
    return _STREAMS[key]


class Decode(NamedTuple):
    """What a paper decode leaves behind: no runtime, no frames."""

    reports: Dict[Tuple[str, str], Dict[str, Any]]
    makespan_ns: int


def decode(build, runtime_cls, n_images: int) -> Decode:
    """One paper decode.  Its stream is encoded here rather than taken
    from :func:`cached_stream`, so it dies with the application when the
    decode returns."""
    stream = generate_stream(n_images, 96, 96, quality=75, seed=0)
    app = build(stream, use_stored_coefficients=True)
    rt = runtime_cls()
    rt.run(app)
    reports = rt.collect()
    rt.stop()
    return Decode(reports, rt.makespan_ns)


@pytest.fixture(scope="session")
def smp_578():
    """The SMP decode of the paper's 578-image stream (Tables 1-3)."""
    return decode(build_smp_assembly, SmpSimRuntime, 578)


@pytest.fixture(scope="session")
def smp_3000():
    """The SMP decode of the paper's 3000-image stream (Tables 1-2)."""
    return decode(build_smp_assembly, SmpSimRuntime, 3000)


@pytest.fixture(scope="session")
def sti7200_578():
    """The STi7200 decode of the paper's 578-image stream (Table 3)."""
    return decode(build_sti7200_assembly, Sti7200SimRuntime, 578)

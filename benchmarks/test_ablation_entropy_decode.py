"""Ablation A14 -- the entropy decode: successor chain, per-symbol loop, F.16 walk.

``repro.mjpeg.decoder.decode_plane`` decodes a plane in three steps:
one numpy pass gives every decode state (``2 * bit_offset + mode``) its
successor, one Python loop chases the chain from the first DC state,
and numpy turns the chain into coefficients.  Its simplest alternative
is the per-symbol loop it replaced, kept as the exactness reference
(``tests/mjpeg/reference_decode_loop.py``): about 20 bytecode steps per
symbol over three packed 2^16-entry lists.  The per-bit F.16
MINCODE/MAXCODE walk (``decode_plane_reference``) is the third arm, the
baseline of the ``entropy_decode`` perf gate.

- A14a: CPU time per 144-block plane (one 96x96 frame of the quality-75
  stream every workload decodes) at seeds 1, 7 and 42, ``ROUNDS``
  rounds with the arm order rotating, and each round's loop / chain and
  walk / chain ratios.  The lowest lower quartile of loop / chain sets
  the bound of the perf gate's loop arm.
- A14b: the chain decode's phase split per plane: the window pass
  (windows and successors), the chase, the bookkeeping (chain to array,
  block bounds, zigzag indices, scatter) and the values (magnitudes,
  EXTEND, DC prediction).
- A14c: the 192-image ``smp_decode`` end to end, the loop patched in at
  ``repro.mjpeg.components.decode_frame_coefficients``, ``E2E_ROUNDS``
  rounds in alternating order, on CPU time.
- A14d: chain and loop per plane at qualities 90, 95 and 100 (seed 1),
  where blocks fill coefficient 63 and the chain decode chases the rest
  of the plane a second time, counting zigzag indices.

The three arms are asserted equal on every timed plane, and the two
end-to-end arms on makespan and frames digest, so only host cost
differs.  The chain decode stays only while it beats the loop.
"""

import statistics
import time
from functools import wraps

import numpy as np

import repro.mjpeg.components
import repro.mjpeg.decoder as decoder
from repro.metrics import Table
from repro.mjpeg import generate_stream
from repro.mjpeg.bitio import BitReader
from repro.mjpeg.components import build_smp_assembly, frames_digest
from repro.mjpeg.decoder import decode_plane, decode_plane_reference
from repro.runtime import SmpSimRuntime

from benchmarks.conftest import quartiles, save_result
from benchmarks.test_ablation_cpu_dispatch import patched
from benchmarks.test_perf_gates import cpu_s, parked_gc
from tests.mjpeg.reference_decode_loop import decode_frame_coefficients_loop, decode_plane_loop

SEEDS = (1, 7, 42)
DENSE_QUALITIES = (90, 95, 100)
N_PLANES = 16
ROUNDS = 10
PHASE_ROUNDS = 5
E2E_IMAGES = 192
E2E_ROUNDS = 5

ARMS = {
    "chain": decode_plane,
    "loop": decode_plane_loop,
    "F.16 walk": decode_plane_reference,
}
PHASES = ("window pass", "chase", "bookkeeping", "values")


def decode_all(decode, frames):
    return [decode(BitReader(f.payload), f.n_blocks) for f in frames]


def cpu_per_plane_us(decode, frames) -> float:
    return cpu_s(lambda: decode_all(decode, frames)) / len(frames) * 1e6


def rotated_rounds(arms, frames):
    """Every arm's per-round CPU microseconds per plane, the arms' order
    rotating from round to round; the arms are first asserted equal on
    every plane."""
    outputs = [decode_all(decode, frames) for decode in arms.values()]
    for planes in zip(*outputs):
        assert all((plane == planes[0]).all() for plane in planes[1:])
    names = list(arms)
    times = {name: [] for name in names}
    for r in range(ROUNDS):
        turn = r % len(names)
        for name in names[turn:] + names[:turn]:
            times[name].append(cpu_per_plane_us(arms[name], frames))
    return times


def plane_arms():
    """Per seed: every arm's per-round CPU microseconds per plane."""
    return {
        seed: rotated_rounds(
            ARMS, [r.frame for r in generate_stream(N_PLANES, 96, 96, quality=75, seed=seed)]
        )
        for seed in SEEDS
    }


def dense_planes():
    """Per quality: full blocks per plane and the chain's and the loop's
    per-round CPU microseconds per plane."""
    arms = {name: ARMS[name] for name in ("chain", "loop")}
    results = {}
    for quality in DENSE_QUALITIES:
        stream = generate_stream(N_PLANES, 96, 96, quality=quality, seed=1)
        frames = [r.frame for r in stream]
        full = sum(int(np.count_nonzero(f.qcoefs_zz[:, 63])) for f in frames) / N_PLANES
        results[quality] = (full, rotated_rounds(arms, frames))
    return results


def phase_split():
    """Per phase, the median over rounds of its microseconds per plane."""
    frames = [
        r.frame for seed in SEEDS for r in generate_stream(N_PLANES, 96, 96, quality=75, seed=seed)
    ]
    spent = dict.fromkeys(PHASES + ("total",), 0.0)

    def timed(phase, fn):
        @wraps(fn)
        def run(*args):
            t0 = time.perf_counter()
            try:
                return fn(*args)
            finally:
                spent[phase] += time.perf_counter() - t0

        return run

    rounds = {phase: [] for phase in PHASES}
    with patched(decoder, "_successors", timed("window pass", decoder._successors)), \
            patched(decoder, "_chase", timed("chase", decoder._chase)), \
            patched(decoder, "_chase_blocks", timed("chase", decoder._chase_blocks)), \
            patched(decoder, "_values", timed("values", decoder._values)):
        whole = timed("total", decode_plane)
        decode_all(whole, frames)
        for _ in range(PHASE_ROUNDS):
            for phase in spent:
                spent[phase] = 0.0
            with parked_gc():
                decode_all(whole, frames)
            spent["bookkeeping"] = spent["total"] - sum(
                spent[phase] for phase in PHASES if phase != "bookkeeping"
            )
            for phase in PHASES:
                rounds[phase].append(spent[phase] / len(frames) * 1e6)
    return {phase: statistics.median(us) for phase, us in rounds.items()}


def decode_once(stream):
    """CPU seconds, makespan and frames digest of one whole SMP decode."""
    app = build_smp_assembly(stream, keep_frames=True)
    rt = SmpSimRuntime()
    rt.deploy(app)

    def run():
        rt.start()
        rt.wait()
        rt.collect()
        rt.stop()

    return cpu_s(run), rt.makespan_ns, frames_digest(app.components["Reorder"].frames)


def end_to_end():
    stream = generate_stream(E2E_IMAGES, 96, 96, quality=75, seed=1)
    arms = {
        "chain": lambda: decode_once(stream),
        "loop": lambda: _with_loop(lambda: decode_once(stream)),
    }
    seconds = {name: [] for name in arms}
    models = {name: set() for name in arms}
    for r in range(E2E_ROUNDS):
        for name in (list(arms) if r % 2 == 0 else list(arms)[::-1]):
            elapsed, makespan, digest = arms[name]()
            seconds[name].append(elapsed)
            models[name].add((makespan, digest))
    assert len(models["chain"]) == 1 and models["chain"] == models["loop"], models
    return seconds


def _with_loop(body):
    with patched(repro.mjpeg.components, "decode_frame_coefficients", decode_frame_coefficients_loop):
        return body()


def run_ablation():
    return plane_arms(), phase_split(), end_to_end(), dense_planes()


def _spread(values, digits=1):
    q1, median, q3 = quartiles(values)
    return f"{median:.{digits}f} ({q1:.{digits}f}-{q3:.{digits}f})"


def test_entropy_decode_ablation(benchmark):
    planes, phases, e2e, dense = benchmark.pedantic(run_ablation, rounds=1, iterations=1)

    plane_table = Table(
        ["seed"] + [f"{name} (us/plane)" for name in ARMS] + ["loop / chain", "walk / chain"],
        title=(
            f"Ablation A14a: entropy decode CPU time per 144-block plane, median (quartiles) "
            f"of {ROUNDS} rotated rounds over {N_PLANES} planes"
        ),
    )
    loop_ratios = {}
    for seed, times in planes.items():
        loop_ratios[seed] = [a / b for a, b in zip(times["loop"], times["chain"])]
        walk = [a / b for a, b in zip(times["F.16 walk"], times["chain"])]
        plane_table.add_row(
            [seed] + [_spread(times[name]) for name in ARMS]
            + [_spread(loop_ratios[seed], 2), _spread(walk, 2)]
        )
    gate_floor = min(quartiles(r)[0] for r in loop_ratios.values())

    total = sum(phases.values())
    phase_table = Table(
        ["phase", "us/plane", "share"],
        title=(
            f"Ablation A14b: chain decode phases per plane, median of {PHASE_ROUNDS} rounds "
            f"over {N_PLANES * len(SEEDS)} planes"
        ),
    )
    for phase, us in phases.items():
        phase_table.add_row([phase, round(us, 1), f"{us / total:.0%}"])

    e2e_table = Table(
        ["decode", "chain (s)", "loop (s)", "loop / chain"],
        title=f"Ablation A14c: end-to-end CPU seconds, median (quartiles) of {E2E_ROUNDS} rounds",
    )
    e2e_ratios = [a / b for a, b in zip(e2e["loop"], e2e["chain"])]
    e2e_table.add_row(
        [f"smp_decode ({E2E_IMAGES} images, seed 1)", _spread(e2e["chain"], 3),
         _spread(e2e["loop"], 3), _spread(e2e_ratios, 2)]
    )
    dense_table = Table(
        ["quality", "full blocks/plane", "chain (us/plane)", "loop (us/plane)", "loop / chain"],
        title=(
            f"Ablation A14d: planes with full blocks (seed 1), median (quartiles) of "
            f"{ROUNDS} rotated rounds over {N_PLANES} planes"
        ),
    )
    dense_ratios = {}
    for quality, (full, times) in dense.items():
        dense_ratios[quality] = [a / b for a, b in zip(times["loop"], times["chain"])]
        dense_table.add_row(
            [quality, round(full, 1), _spread(times["chain"]), _spread(times["loop"]),
             _spread(dense_ratios[quality], 2)]
        )
    verdict = (
        f"lowest lower quartile of loop / chain per plane at quality 75: {gate_floor:.2f} "
        f"(the perf gate's loop arm bound sits at or below it)"
    )
    save_result(
        "ablation_entropy_decode",
        "\n\n".join(
            [plane_table.render(), phase_table.render(), e2e_table.render(),
             dense_table.render(), verdict]
        ),
    )

    # The chain decode beats the loop it replaced, per plane at every
    # quality and end to end.
    for ratios in list(loop_ratios.values()) + list(dense_ratios.values()):
        assert statistics.median(ratios) > 1.0, ratios
    assert statistics.median(e2e_ratios) > 1.0, e2e_ratios

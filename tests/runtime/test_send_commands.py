"""A data send is one command: one ``Compute`` of nanoseconds.

On the SMP runtime a send charges the syscall and the NUMA-scaled copy
into the receiver's mailbox; on the STi7200 runtime ``EMBX_Send``
charges the copy (bounce penalty included) and the interrupt signal.
Each part is priced by the sending core's CPU model and rounded on its
own, as when each part was its own command, so no makespan moves.  The
count of commands per send is the deterministic work this pins.
"""

import pytest

from repro.embx.transport import BOUNCE_BUFFER_BYTES, SIGNAL_LATENCY_NS
from repro.hw import CpuModel
from repro.mjpeg import generate_stream
from repro.mjpeg.components import build_smp_assembly, build_sti7200_assembly
from repro.runtime import SmpSimRuntime, Sti7200SimRuntime
from repro.sim.executor import Compute

SIZES = (40, 4_096, BOUNCE_BUFFER_BYTES + 10_000)


def _deployed(build, runtime_cls):
    app = build(generate_stream(2, 96, 96, quality=75, seed=1))
    rt = runtime_cls()
    rt.deploy(app)
    return app, rt


def _commands(rt, sender, required, size):
    """Every command one data send of ``size`` bytes yields."""
    ctx = rt.containers[sender].context
    return list(ctx.send(required, b"x", size_bytes=size))


def _smp_parts(rt, app, size):
    """The sender's model and the syscall and copy parts in ns, each
    rounded, plus the copy's byte count scaled by the NUMA factor."""
    core = rt.containers["Fetch"].extra["core"]
    node = app.components["IDCT_1"].get_provided("_fetchIdct1").binding.node
    model = rt.platform.cores[core]
    copy = size * rt.platform.copy_factor(core, node)
    return model, [model.cost_ns("syscall", 1), model.cost_ns("memcpy_byte", copy)], copy


@pytest.mark.parametrize("size", SIZES)
def test_smp_send_is_one_compute_of_the_part_costs(size):
    app, rt = _deployed(build_smp_assembly, SmpSimRuntime)
    model, parts, _copy = _smp_parts(rt, app, size)
    (cmd,) = _commands(rt, "Fetch", "fetchIdct1", size)
    assert isinstance(cmd, Compute) and cmd.opclass == "ns"
    assert model.cost_ns(cmd.opclass, cmd.units) == sum(parts)


@pytest.mark.parametrize("size", SIZES)
def test_sti7200_send_is_one_compute_of_the_part_costs(size):
    _app, rt = _deployed(build_sti7200_assembly, Sti7200SimRuntime)
    model = rt.platform.cores[rt.containers["Fetch-Reorder"].extra["cpu"]]
    parts = [
        model.cost_ns("memcpy_byte", rt.embx.effective_copy_bytes(size)),
        model.cost_ns("ns", SIGNAL_LATENCY_NS),
    ]
    (cmd,) = _commands(rt, "Fetch-Reorder", "fetchIdct1", size)
    assert isinstance(cmd, Compute) and cmd.opclass == "ns"
    assert model.cost_ns(cmd.opclass, cmd.units) == sum(parts)


def test_smp_send_rounds_each_part_on_its_own():
    """With fractional cycle costs, rounding the sum once would differ
    from the sum of the rounded parts; the send charges the latter."""
    app, rt = _deployed(build_smp_assembly, SmpSimRuntime)
    core = rt.containers["Fetch"].extra["core"]
    # 1 GHz: one cycle is one nanosecond.
    rt.platform.cores[core] = CpuModel("fractional", 1e9, {"syscall": 2.4, "memcpy_byte": 0.3})
    differing = []
    for size in range(1, 40):
        _model, parts, copy = _smp_parts(rt, app, size)
        if sum(parts) != round(2.4 + 0.3 * copy):
            differing.append((size, sum(parts)))
    assert len(differing) >= 3
    for size, per_part in differing:
        (cmd,) = _commands(rt, "Fetch", "fetchIdct1", size)
        assert cmd.units == per_part

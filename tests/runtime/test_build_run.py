"""RunConfig / build_run: unsupported combinations are refused before any
runtime exists, and an accepted config decodes what a hand-built run
decodes.  The seed of the compose-or-reject matrix."""

import pytest

from repro.mjpeg import generate_stream
from repro.mjpeg.components import build_smp_assembly, build_sti7200_assembly, frames_digest
from repro.runtime import (
    NativeRuntime,
    RunConfig,
    Runtime,
    RuntimeError_,
    ShardedSmpSimRuntime,
    SmpSimRuntime,
    Sti7200SimRuntime,
    build_run,
)

#: (config fields, the two sides the error must name)
REJECTED = [
    pytest.param(dict(runtime="sti7200", shards=0), ("shards=0", "at least one shard"),
                 id="shards0"),
    pytest.param(dict(shards=-3), ("shards=-3", "at least one shard"), id="shards-3"),
    pytest.param(dict(runtime="smp", shards=0), ("shards=0", "at least one shard"),
                 id="smp-shards0"),
    pytest.param(dict(runtime="smp", durable=object()), ("durable", "recover"),
                 id="durable-without-recover"),
    pytest.param(dict(runtime="fpga"), ("fpga", "sti7200"), id="unknown-runtime"),
    pytest.param(dict(shards=20), ("shards=20", "16 cores"), id="smp-shards20"),
    pytest.param(dict(shards=9), ("shards=9", "6 components"), id="smp-shards9"),
] + [
    pytest.param(dict(runtime=runtime, shards=2), (repr(runtime), "shards"),
                 id=f"{runtime}+shards")
    for runtime in ("sti7200", "native")
]


@pytest.fixture
def constructed(monkeypatch):
    """Every runtime constructed while the test runs."""
    built = []
    init = Runtime.__init__

    def counting_init(self):
        built.append(type(self).__name__)
        init(self)

    monkeypatch.setattr(Runtime, "__init__", counting_init)
    return built


def _stream():
    return generate_stream(4, 96, 96, quality=75, seed=0)


@pytest.mark.parametrize("fields,sides", REJECTED)
def test_unsupported_pair_is_refused_before_any_runtime(fields, sides, constructed):
    app = build_smp_assembly(_stream(), use_stored_coefficients=True)
    with pytest.raises(RuntimeError_) as info:
        build_run(RunConfig(**fields), app)
    message = str(info.value)
    for side in sides:
        assert side in message, (side, message)
    assert constructed == []


def test_one_smp_runtime_takes_every_shard_count(constructed):
    for shards in (1, 2, 4):
        app = build_smp_assembly(_stream(), use_stored_coefficients=True)
        rt = build_run(RunConfig(shards=shards), app)
        assert type(rt) is SmpSimRuntime
        assert rt.n_shards == shards
    assert constructed == ["SmpSimRuntime"] * 3
    assert not isinstance(SmpSimRuntime(), ShardedSmpSimRuntime)


ACCEPTED = [
    pytest.param(RunConfig("smp"), build_smp_assembly, SmpSimRuntime, id="smp"),
    pytest.param(RunConfig(shards=2), build_smp_assembly,
                 lambda: ShardedSmpSimRuntime(2), id="sharded"),
    pytest.param(RunConfig("sti7200"), build_sti7200_assembly, Sti7200SimRuntime,
                 id="sti7200"),
    pytest.param(RunConfig("native"), build_smp_assembly, NativeRuntime, id="native"),
]


def _decode(assemble, start):
    app = assemble(_stream(), use_stored_coefficients=True, keep_frames=True)
    rt = start(app)
    rt.start()
    rt.wait()
    rt.stop()
    name = "Reorder" if "Reorder" in app.components else "Fetch-Reorder"
    return frames_digest(app.components[name].frames), len(app.components[name].frames)


def _deployed(make):
    def start(app):
        rt = make()
        rt.deploy(app)
        return rt

    return start


@pytest.mark.parametrize("config,assemble,make", ACCEPTED)
def test_accepted_config_decodes_like_a_direct_run(config, assemble, make):
    built = _decode(assemble, lambda app: build_run(config, app))
    direct = _decode(assemble, _deployed(make))
    assert built == direct
    assert built[1] == 3


def test_build_run_installs_every_plane_on_the_runtime(constructed):
    from repro.faults import FaultPlan

    plan = FaultPlan(1).crash("IDCT_1", on_receive=3)
    app = build_smp_assembly(_stream(), use_stored_coefficients=True, keep_frames=True)
    rt = build_run(
        RunConfig(trace=True, telemetry=True, faults=plan, policy="recover", seed=1), app
    )
    assert constructed == ["SmpSimRuntime"]
    assert rt.app is app and rt.trace is not None and rt.metrics is not None
    assert rt.injector.plan is plan and rt.recovery.installed
    assert rt.supervisor.runtime is rt
    rt.start()
    rt.wait()
    rt.stop()
    assert rt.injector.counts()["crash"] == 1
    assert len(app.components["Reorder"].frames) == 3


@pytest.mark.parametrize("shards", [
    pytest.param(2, id="sharded+recover"),
    pytest.param(1, id="sharded1+recover"),
])
def test_recovery_is_built_at_every_shard_count(shards, constructed):
    from repro.faults import FaultPlan

    reference = _decode(build_smp_assembly, _deployed(SmpSimRuntime))
    plan = FaultPlan(1).crash("IDCT_1", on_receive=3)
    app = build_smp_assembly(_stream(), use_stored_coefficients=True, keep_frames=True)
    rt = build_run(RunConfig(shards=shards, faults=plan, policy="recover", seed=1), app)
    assert constructed[-1] == "SmpSimRuntime" and rt.n_shards == shards
    assert rt.recovery.installed
    rt.start()
    rt.wait()
    rt.stop()
    assert rt.injector.counts()["crash"] == 1
    frames = app.components["Reorder"].frames
    assert (frames_digest(frames), len(frames)) == reference

"""Tests for declarative platform configuration."""

import pytest

from repro.hw.config import PlatformConfigError, platform_from_config


def biglittle_config():
    return {
        "name": "biglittle",
        "cores": [
            {"name": "big0", "freq_hz": 2.0e9, "cycles": {"idct_block": 200e3}, "node": 0},
            {"name": "big1", "freq_hz": 2.0e9, "cycles": {"idct_block": 200e3}, "node": 0},
            {"name": "little0", "freq_hz": 0.8e9, "cycles": {"idct_block": 600e3}, "node": 1},
        ],
        "regions": [
            {"name": "dram", "size_bytes": 1 << 30, "node": 0},
            {"name": "sram", "size_bytes": 1 << 20, "node": 1, "kind": "sram"},
        ],
        "numa": {"distance": [[0, 1], [1, 0]], "hop_penalty": 0.3},
        "cache": {"size_bytes": 1 << 20, "line_bytes": 64, "ways": 4},
    }


def test_build_from_config():
    p = platform_from_config(biglittle_config())
    assert p.name == "biglittle"
    assert p.n_cores == 3
    assert p.cores[0].cost_ns("idct_block", 1) < p.cores[2].cost_ns("idct_block", 1)
    assert p.region("sram").kind == "sram"
    assert p.copy_factor(0, 1) == pytest.approx(1.3)
    assert p.caches is not None and len(p.caches) == 3


def test_validation_errors():
    with pytest.raises(PlatformConfigError, match="missing"):
        platform_from_config({"name": "x", "cores": [{"name": "c", "freq_hz": 1e9}]})
    with pytest.raises(PlatformConfigError, match="no cores"):
        platform_from_config({"name": "x", "cores": [], "regions": [{"name": "m", "size_bytes": 1}]})
    bad = biglittle_config()
    bad["cores"][0]["freq_hz"] = -1
    with pytest.raises(PlatformConfigError, match="bad core"):
        platform_from_config(bad)
    dup = biglittle_config()
    dup["regions"].append({"name": "dram", "size_bytes": 10})
    with pytest.raises(PlatformConfigError, match="duplicate region"):
        platform_from_config(dup)
    out_of_range = biglittle_config()
    out_of_range["cores"][0]["node"] = 5
    with pytest.raises(PlatformConfigError, match="outside numa"):
        platform_from_config(out_of_range)


def test_custom_platform_runs_applications():
    """An application deploys unchanged on a config-declared platform."""
    from repro.runtime import SmpSimRuntime
    from tests.runtime.conftest import make_pipeline_app

    config = {
        "name": "tiny2",
        "cores": [
            {"name": "c0", "freq_hz": 1e9, "node": 0},
            {"name": "c1", "freq_hz": 1e9, "node": 0},
        ],
        "regions": [{"name": "node0", "size_bytes": 1 << 30, "node": 0}],
    }
    rt = SmpSimRuntime(platform=platform_from_config(config))
    rt.run(make_pipeline_app())
    reports = rt.collect()
    rt.stop()
    assert reports[("prod", "application")]["sends"] == 5

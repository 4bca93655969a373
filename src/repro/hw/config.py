"""Declarative platform definitions.

The paper's third requirement (section 3) is platform independence: the
same observation model "can be used on different MPSoC hardware
platforms".  This module lets a platform be declared as plain data (and
therefore JSON), so porting EMBera to a new chip is a configuration
exercise:

>>> platform = platform_from_config({
...     "name": "biglittle",
...     "cores": [
...         {"name": "big0",    "freq_hz": 2.0e9, "cycles": {"idct_block": 200e3}, "node": 0},
...         {"name": "little0", "freq_hz": 0.8e9, "cycles": {"idct_block": 600e3}, "node": 1},
...     ],
...     "regions": [
...         {"name": "dram", "size_bytes": 1 << 30, "node": 0},
...     ],
...     "numa": {"distance": [[0, 1], [1, 0]], "hop_penalty": 0.3},
... })
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

import numpy as np

from repro.hw.cache import CacheConfig
from repro.hw.cpu import CpuModel
from repro.hw.interconnect import NumaCostModel
from repro.hw.memory import MemoryRegion
from repro.hw.platform import Platform


class PlatformConfigError(ValueError):
    """Malformed platform configuration."""


def platform_from_config(config: Mapping[str, Any]) -> Platform:
    """Build a :class:`Platform` from a declarative description.

    Required keys: ``name``, ``cores`` (list of ``{name, freq_hz, node,
    cycles?, default_cycles?}``), ``regions`` (list of ``{name,
    size_bytes, node, kind?}``).  Optional: ``numa`` (``{distance,
    hop_penalty?}``) and ``cache`` (``{size_bytes, line_bytes, ways}``,
    applied per core).
    """
    try:
        name = config["name"]
        core_specs = config["cores"]
        region_specs = config["regions"]
    except KeyError as missing:
        raise PlatformConfigError(f"missing platform config key: {missing}") from None
    if not core_specs:
        raise PlatformConfigError("platform config declares no cores")
    if not region_specs:
        raise PlatformConfigError("platform config declares no regions")

    cores = []
    core_nodes = []
    for spec in core_specs:
        try:
            cores.append(
                CpuModel(
                    spec["name"],
                    float(spec["freq_hz"]),
                    spec.get("cycles", {}),
                    default_cycles=float(spec.get("default_cycles", 1.0)),
                )
            )
            core_nodes.append(int(spec.get("node", 0)))
        except (KeyError, ValueError) as error:
            raise PlatformConfigError(f"bad core spec {spec!r}: {error}") from error

    regions: Dict[str, MemoryRegion] = {}
    for spec in region_specs:
        try:
            region = MemoryRegion(
                spec["name"],
                int(spec["size_bytes"]),
                node=int(spec.get("node", 0)),
                kind=spec.get("kind", "dram"),
            )
        except (KeyError, Exception) as error:
            raise PlatformConfigError(f"bad region spec {spec!r}: {error}") from error
        if region.name in regions:
            raise PlatformConfigError(f"duplicate region name {region.name!r}")
        regions[region.name] = region

    numa = None
    if "numa" in config:
        numa_spec = config["numa"]
        try:
            numa = NumaCostModel(
                np.asarray(numa_spec["distance"]),
                hop_penalty=float(numa_spec.get("hop_penalty", 0.2)),
            )
        except (KeyError, ValueError) as error:
            raise PlatformConfigError(f"bad numa spec: {error}") from error
        max_node = max(core_nodes)
        if max_node >= numa.n_nodes:
            raise PlatformConfigError(
                f"core node {max_node} outside numa matrix ({numa.n_nodes} nodes)"
            )

    cache_config = None
    if "cache" in config:
        spec = config["cache"]
        try:
            cache_config = CacheConfig(
                size_bytes=int(spec["size_bytes"]),
                line_bytes=int(spec.get("line_bytes", 64)),
                ways=int(spec.get("ways", 8)),
            )
        except (KeyError, ValueError) as error:
            raise PlatformConfigError(f"bad cache spec: {error}") from error

    return Platform(
        name,
        cores=cores,
        core_nodes=core_nodes,
        regions=regions,
        numa=numa,
        cache_config=cache_config,
    )

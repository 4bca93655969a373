"""Generated scale workloads for the sharded simulator.

The paper's case study is one MJPEG pipeline of seven components; the
workloads here are the other end of the scale axis: generated component
graphs in the thousands, designed to stress the sharded kernel's
per-event cost, cross-shard batching and partition quality rather than
the codec.  See :mod:`repro.workloads.traffic` for the fan-in/fan-out
service-graph ("millions of users") model.
"""

from repro.workloads.traffic import TrafficConfig, build_traffic_graph, run_traffic

__all__ = ["TrafficConfig", "build_traffic_graph", "run_traffic"]

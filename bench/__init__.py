"""The repository benchmark: six workloads timed end to end, plus traced
runs that split each one by layer.  See ``bench/README.md``."""

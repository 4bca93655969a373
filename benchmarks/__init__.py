"""The paper's tables and figures, the ablations and the perf gates.

A package, so pytest imports ``benchmarks/conftest.py`` under the same
name, ``benchmarks.conftest``, that the bench modules import it by: one
module, one ``cached_stream`` cache per session.
"""

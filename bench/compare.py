"""Compare two benchmark sets written by ``python -m bench run --out``.

One row per workload and end-to-end metric of ``BENCHMARK.json``:

- ``worse``: NEW's median is worse than OLD's by more than the bound;
- ``better``: it is better by more than the bound;
- ``no worse``: the medians are within the bound;
- ``unresolved``: either side's quartile spread exceeds the bound, so the
  medians cannot be told apart -- unless every NEW run beats every OLD
  run, which reads ``better``.

``model changed`` marks a workload whose simulated statistics or digests
differ; a change meant only to speed things up must leave them equal.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from bench.stats import spread


def verdict(old: Dict, new: Dict, better: str, bound: float) -> str:
    """The verdict on one metric's two summaries (see the module doc)."""
    sign = 1 if better == "lower" else -1
    change = sign * (new["median"] - old["median"]) / old["median"]
    if spread(old) > bound or spread(new) > bound:
        if better == "lower":
            wins = max(new["samples"]) < min(old["samples"])
        else:
            wins = min(new["samples"]) > max(old["samples"])
        return "better" if wins else "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "no worse"


def compare(old: Dict, new: Dict, spec: Dict) -> Tuple[List[str], bool]:
    """Rows of the comparison, and False when a metric got worse, a
    model changed, or a workload is missing from one side."""
    if old.get("smoke") != new.get("smoke"):
        return ["cannot compare a smoke set with a full set"], False
    same_seed = old.get("seed") == new.get("seed")
    lines = [f"{'workload':16} {'metric':12} {'old':>12} {'new':>12} {'change':>8}  verdict"]
    if not same_seed:
        lines.append(
            f"(seeds differ: {old.get('seed')} vs {new.get('seed')}; model statistics not compared)"
        )
    ok = True
    names = list(old["workloads"]) + [n for n in new["workloads"] if n not in old["workloads"]]
    for name in names:
        if name not in old["workloads"] or name not in new["workloads"]:
            side = "OLD" if name not in old["workloads"] else "NEW"
            lines.append(f"{name:16} missing from {side}")
            ok = False
            continue
        o, n = old["workloads"][name]["e2e"], new["workloads"][name]["e2e"]
        for metric in spec["end_to_end"]:
            key = metric["name"]
            old_m, new_m = o["metrics"][key], n["metrics"][key]
            v = verdict(old_m, new_m, metric["better"], metric["bound"])
            lines.append(
                f"{name:16} {key:12} {old_m['median']:>12.6g} {new_m['median']:>12.6g}"
                f" {new_m['median'] / old_m['median'] - 1:>+8.1%}  {v}"
            )
            ok = ok and v != "worse"
        if same_seed and o["model"] != n["model"]:
            changed = sorted(k for k in set(o["model"]) | set(n["model"])
                             if o["model"].get(k) != n["model"].get(k))
            lines.append(f"{name:16} model changed: {', '.join(changed)}")
            ok = False
    return lines, ok

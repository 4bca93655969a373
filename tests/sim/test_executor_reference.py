"""The callback dispatcher against the generator dispatcher it replaced.

``repro.sim.executor.ExecEngine`` runs compute slices that nothing can
interrupt inline (``Kernel.advance_to``) and drives cores with plain
callbacks; ``reference_executor.ReferenceExecEngine`` is the per-core
dispatcher process with a timer and an event per slice.  Both run the
same generated scenarios -- three policies, 1-4 cores of mixed speed,
affinity, quantum contention, priority preemption, ``Timeout``,
``YieldCpu``, ``Channel`` put/get, deadline receives, threads spawned
from threads and from kernel callbacks, failing threads, and stepping
with ``run(until=...)`` or ``run(max_events=...)`` -- and must produce
the same context-switch log, thread statistics, core busy times,
receive log and final clock.
"""

import random

import pytest

from repro.sim import Kernel, Timeout
from repro.sim.executor import (
    Compute,
    ExecEngine,
    FairPolicy,
    PriorityPolicy,
    RoundRobinPolicy,
    YieldCpu,
)
from repro.sim.resources import Channel

from reference_executor import ReferenceExecEngine
from reference_process import Process


class ScaledCpu:
    """Cost model of one core: ``units * speed``, memory ops twice that."""

    def __init__(self, speed):
        self.speed = speed

    def cost_ns(self, opclass, units):
        return units * self.speed * (2 if opclass == "mem" else 1)


def gen_ops(rng, n_channels, depth=0):
    ops = []
    for _ in range(rng.randint(1, 10)):
        r = rng.random()
        if r < 0.40:
            ops.append(("compute", rng.choice(("alu", "mem")), rng.choice((0, 1, 3, 17, 40, 95, 160, 400))))
        elif r < 0.50:
            ops.append(("sleep", rng.choice((0, 1, 25, 80, 300))))
        elif r < 0.57:
            ops.append(("yield",))
        elif r < 0.70:
            ops.append(("put", rng.randrange(n_channels)))
        elif r < 0.80:
            ops.append(("get", rng.randrange(n_channels)))
        elif r < 0.88:
            ops.append(("get_deadline", rng.randrange(n_channels), rng.choice((0, 10, 60, 250))))
        elif r < 0.93 and depth == 0:
            ops.append(("spawn", rng.randint(0, 3), gen_ops(rng, n_channels, depth + 1)))
        elif r < 0.96:
            ops.append(("fail",))
        elif r < 0.98:
            ops.append(("bad",))
        else:
            ops.append(("compute", "alu", rng.randint(1, 2000)))
    return ops


def gen_scenario(rng):
    n_cores = rng.randint(1, 4)
    n_channels = rng.randint(1, 3)
    threads = []
    for _ in range(rng.randint(1, 7)):
        affinity = None
        if n_cores > 1 and rng.random() < 0.3:
            affinity = sorted(rng.sample(range(n_cores), rng.randint(1, n_cores)))
        threads.append(
            {
                "priority": rng.randint(0, 3),
                "affinity": affinity,
                "at": rng.choice((0, 0, 0, 5, 40, 200)),
                "ops": gen_ops(rng, n_channels),
            }
        )
    feeds = [
        (rng.choice((1, 30, 90, 400)), rng.randrange(n_channels))
        for _ in range(rng.randint(0, 5))
    ]
    stepping = rng.choice(("run", "run", "until", "max_events"))
    return {
        "policy": rng.choice(("rr", "fair", "prio")),
        "quantum": rng.choice((15, 50, 120, 1000)),
        "speeds": [rng.choice((1, 1, 2, 3, 0.5, 1.5)) for _ in range(n_cores)],
        "channels": n_channels,
        "threads": threads,
        "feeds": feeds,
        "shutdown": rng.random() < 0.8,
        "stepping": stepping,
        "step": rng.choice((1, 7, 33, 150, 1000)),
    }


def simulate(engine_cls, sc):
    kernel = Kernel()
    policy = {
        "rr": lambda: RoundRobinPolicy(quantum_ns=sc["quantum"]),
        "fair": lambda: FairPolicy(quantum_ns=sc["quantum"]),
        "prio": lambda: PriorityPolicy(quantum_ns=sc["quantum"]),
    }[sc["policy"]]()
    engine = engine_cls(kernel, [ScaledCpu(s) for s in sc["speeds"]], policy)
    channels = [Channel(kernel, name=f"ch{i}") for i in range(sc["channels"])]
    log = []
    engine.on_context_switch = lambda core, old, new: log.append(
        ("switch", kernel.now, core.index, old and old.name, new and new.name)
    )
    engine.on_thread_error = lambda thread, exc: log.append(
        ("error", kernel.now, thread.name, type(exc).__name__)
    )

    def body(name, ops):
        for i, op in enumerate(ops):
            kind = op[0]
            if kind == "compute":
                yield Compute(op[1], op[2])
            elif kind == "sleep":
                yield Timeout(op[1])
            elif kind == "yield":
                yield YieldCpu()
            elif kind == "put":
                channels[op[1]].put((name, i))
            elif kind == "get":
                item = yield from channels[op[1]].get()
                log.append(("got", kernel.now, name, item))
            elif kind == "get_deadline":
                got = yield from channels[op[1]].get_with_deadline(op[2])
                log.append(("got", kernel.now, name, got))
            elif kind == "spawn":
                engine.spawn(body(f"{name}.{i}", op[2]), name=f"{name}.{i}", priority=op[1])
            elif kind == "fail":
                raise RuntimeError(name)
            elif kind == "bad":
                yield 42  # not a command: the engine throws SimulationError in
        return name

    for n, t in enumerate(sc["threads"]):
        args = (body(f"t{n}", t["ops"]),)
        kwargs = {"name": f"t{n}", "priority": t["priority"], "affinity": t["affinity"]}
        if t["at"]:
            kernel.schedule(t["at"], lambda a=args, kw=kwargs: engine.spawn(*a, **kw))
        else:
            engine.spawn(*args, **kwargs)

    def feeder(delay, ch):
        for i in range(3):
            yield Timeout(delay)
            channels[ch].put(("feed", delay, i))

    for delay, ch in sc["feeds"]:
        Process(kernel, feeder(delay, ch), name="feed")
    if sc["shutdown"]:
        engine.shutdown()

    if sc["stepping"] == "run":
        kernel.run()
    else:
        for _ in range(100_000):
            if not kernel.pending():
                break
            if sc["stepping"] == "until":
                kernel.run(until=kernel.now + sc["step"])
            else:
                kernel.run(max_events=sc["step"])
            log.append(("step", kernel.now))
    threads = [
        (t.name, t.state, t.cpu_time_ns, t.context_switches, t.start_time_ns, t.end_time_ns, t.result)
        for t in engine.threads
    ]
    cores = [(c.index, c.busy_ns, c.current and c.current.name) for c in engine.cores]
    return {"log": log, "threads": threads, "cores": cores, "now": kernel.now}


def check(sc):
    got = simulate(ExecEngine, sc)
    want = simulate(ReferenceExecEngine, sc)
    assert got["log"] == want["log"]
    assert got == want


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_matches_reference_dispatcher(seed):
    rng = random.Random(seed)
    for _ in range(120):
        check(gen_scenario(rng))


def test_contended_quantum_and_preemption_fixture():
    """A hand-written case that exercises every slice ending: quantum
    expiry with and without contention, priority preemption mid-slice,
    a rebalance on wake, and a timer that ties a wake-up."""
    for policy in ("rr", "fair", "prio"):
        sc = {
            "policy": policy,
            "quantum": 50,
            "speeds": [1, 2],
            "channels": 1,
            "threads": [
                {"priority": 0, "affinity": None, "at": 0,
                 "ops": [("compute", "alu", 400), ("get", 0), ("compute", "alu", 70)]},
                {"priority": 1, "affinity": [1], "at": 0,
                 "ops": [("compute", "alu", 90), ("sleep", 25), ("compute", "mem", 60)]},
                {"priority": 3, "affinity": None, "at": 40,
                 "ops": [("compute", "alu", 30), ("put", 0), ("compute", "alu", 100)]},
                {"priority": 2, "affinity": [0], "at": 100,
                 "ops": [("yield",), ("compute", "alu", 50), ("get_deadline", 0, 60)]},
            ],
            "feeds": [(90, 0)],
            "shutdown": True,
            "stepping": "run",
            "step": 1,
        }
        check(sc)


def test_inline_slices_skip_the_kernel():
    """An uncontended compute-bound thread costs no kernel events per
    slice: only the dispatcher start and the thread's own wake-ups."""
    kernel = Kernel()
    engine = ExecEngine(kernel, [ScaledCpu(1)], RoundRobinPolicy(quantum_ns=10))

    def body():
        for _ in range(50):
            yield Compute("alu", 25)

    thread = engine.spawn(body(), name="solo")
    engine.shutdown()
    kernel.run()
    assert thread.cpu_time_ns == 1250 and kernel.now == 1250
    assert kernel.events_executed == 1  # the core's first dispatch

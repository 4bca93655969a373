"""Ablation A15 -- the send path: one sized message, one ``Compute``.

A data send on ``SmpSimRuntime`` builds one :class:`~repro.core.Message`
whose size the producer passed (``batch_message_bytes`` beside the
MJPEG components) and charges the syscall and the NUMA-scaled copy as
one ``Compute`` of nanoseconds, each part rounded on its own.  Each part
has a simpler alternative, kept here as an arm:

- **split pair**: the transfer yields ``Compute("syscall", 1)`` and
  ``Compute("memcpy_byte", size * factor)``, two round trips through
  the executor (:func:`split_transfer`, the transfer before the merge);
- **walked**: the producers pass no size and ``Message`` walks every
  payload with ``payload_nbytes`` at construction.

The 192-image ``smp_decode`` (seed 1, real Huffman walk) runs
``ROUNDS`` rounds with the arm order rotating, on CPU time with the GC
parked.  Every arm must give the same makespan and frames digest, so
only host cost differs.  One untimed run per arm counts the
``Compute`` commands, the ``payload_nbytes`` calls and the kernel
events.  A part stays only while it beats its alternative, the keep
rule of ablation A14: the median per-round ratio (alternative /
shipped) is above 1 and the shipped arm won more than half the rounds.
The verdict also reports each gain against the 10% keep threshold of
ablation A10b.
"""

import statistics
from contextlib import nullcontext

import repro.core.messages as messages
import repro.mjpeg.components
from repro.metrics import Table
from repro.mjpeg.components import build_smp_assembly, frames_digest
from repro.runtime import SmpSimRuntime
from repro.runtime.simulated import OBS_CHANNEL_SYSCALLS
from repro.sim.executor import Compute

from benchmarks.conftest import cached_stream, quartiles, save_result
from benchmarks.test_ablation_cpu_dispatch import patched
from benchmarks.test_perf_gates import cpu_s

IMAGES = 192
SEED = 1
ROUNDS = 30
#: The keep threshold of ablation A10b, reported beside each verdict.
A10B_THRESHOLD = 0.10


def split_transfer(self, src, target, message):
    """Reference: ``SmpSimRuntime._transfer`` with the syscall and the
    copy as two commands."""
    src_cont = self.containers[src.name]
    if target.is_observation:
        yield Compute("syscall", OBS_CHANNEL_SYSCALLS)
        self._count_cut(src_cont, target)
        target.binding.put(message)
        return
    mailbox = target.binding
    src_core = src_cont.extra["core"]
    factor = self.platform.copy_factor(src_core, mailbox.node)
    yield Compute("syscall", 1)
    yield Compute("memcpy_byte", message.size_bytes * factor)
    cache = self.platform.cache_of_core(src_core)
    if cache is not None:
        offset = mailbox.written_bytes % max(mailbox.capacity_bytes, 1)
        cache.access_range(mailbox.base_addr + offset, message.size_bytes)
    self._count_cut(src_cont, target)
    mailbox.written_bytes += message.size_bytes
    mailbox.channel.put(message)


ARMS = {
    "shipped": nullcontext,
    "split pair": lambda: patched(SmpSimRuntime, "_transfer", split_transfer),
    "walked": lambda: patched(
        repro.mjpeg.components, "batch_message_bytes", lambda frame, batch, key, data: -1
    ),
}


def decode_once(stream):
    """CPU seconds, makespan, frames digest and kernel of one whole SMP
    decode."""
    app = build_smp_assembly(stream, keep_frames=True)
    rt = SmpSimRuntime()
    rt.deploy(app)

    def run():
        rt.start()
        rt.wait()
        rt.collect()
        rt.stop()

    elapsed = cpu_s(run)
    return elapsed, rt.makespan_ns, frames_digest(app.components["Reorder"].frames), rt.kernel


def counts(stream):
    """``Compute`` commands, ``payload_nbytes`` calls (recursive ones
    included) and kernel events of one untimed decode."""
    tally = {"computes": 0, "walks": 0}
    init = Compute.__init__
    walk = messages.payload_nbytes

    def counted_init(self, opclass, units):
        tally["computes"] += 1
        init(self, opclass, units)

    def counted_walk(payload):
        tally["walks"] += 1
        return walk(payload)

    with patched(Compute, "__init__", counted_init):
        with patched(messages, "payload_nbytes", counted_walk):
            kernel = decode_once(stream)[3]
    tally["events"] = kernel.events_executed
    return tally


def run_ablation():
    stream = cached_stream(IMAGES, seed=SEED)
    names = list(ARMS)
    seconds = {name: [] for name in names}
    models = {name: set() for name in names}
    tallies = {}
    for name in names:
        with ARMS[name]():
            tallies[name] = counts(stream)
    for r in range(ROUNDS):
        for name in names[r % len(names):] + names[: r % len(names)]:
            with ARMS[name]():
                elapsed, makespan, digest, _kernel = decode_once(stream)
            seconds[name].append(elapsed)
            models[name].add((makespan, digest))
    assert all(models[name] == models["shipped"] for name in names), models
    assert len(models["shipped"]) == 1, models
    return seconds, tallies


def _spread(values, digits):
    q1, median, q3 = quartiles(values)
    return f"{median:.{digits}f} ({q1:.{digits}f}-{q3:.{digits}f})"


def test_send_path_ablation(benchmark):
    seconds, tallies = benchmark.pedantic(run_ablation, rounds=1, iterations=1)

    table = Table(
        [
            "arm", "CPU s", "arm / shipped", "shipped won", "Compute commands",
            "payload_nbytes calls", "kernel events",
        ],
        title=(
            f"Ablation A15: smp_decode ({IMAGES} images, seed {SEED}), median (quartiles) of "
            f"{ROUNDS} rotated rounds"
        ),
    )
    shipped = seconds["shipped"]
    verdicts = []
    for name, times in seconds.items():
        ratios = [a / b for a, b in zip(times, shipped)]
        won = sum(a > b for a, b in zip(times, shipped))
        table.add_row(
            [name, _spread(times, 3), _spread(ratios, 3) if name != "shipped" else "-",
             f"{won}/{ROUNDS}" if name != "shipped" else "-",
             tallies[name]["computes"], tallies[name]["walks"], tallies[name]["events"]]
        )
        if name != "shipped":
            gain = statistics.median(ratios) - 1
            keep = gain > 0 and 2 * won > ROUNDS
            verdicts.append(
                f"the shipped path is {gain:+.1%} faster than the {name} arm and won "
                f"{won}/{ROUNDS} rounds: {'keep' if keep else 'drop'} "
                f"({'above' if gain > A10B_THRESHOLD else 'not above'} "
                f"A10b's {A10B_THRESHOLD:.0%} threshold)"
            )
    save_result("ablation_send_path", "\n\n".join([table.render(), "\n".join(verdicts)]))

    # One data send is one command fewer than with the split pair, and a
    # producer-sized batch is never walked.
    assert tallies["split pair"]["computes"] > tallies["shipped"]["computes"]
    assert tallies["walked"]["walks"] > tallies["shipped"]["walks"]

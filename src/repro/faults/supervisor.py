"""Component supervision: restart, degrade or halt on failure.

The :class:`Supervisor` wraps a covered component's behaviour generator in
a fault-handling *flow* (installed through
:meth:`repro.runtime.base.Runtime._behavior_body`, so it works identically
on the simulated and native runtimes).  When the behaviour raises --
an :class:`~repro.core.errors.InjectedFault`, a
:class:`~repro.core.errors.DeadlineError`, or any organic error -- the
component's policy decides what happens next:

``restart``
    Wait an exponentially growing, jittered backoff, then run a *fresh*
    behaviour generator.  After ``max_attempts`` consecutive failures the
    fault escalates as :class:`~repro.core.errors.EscalationError`.
``degrade``
    Mark the component ``DEGRADED``, disconnect the required interfaces
    feeding it (senders that re-evaluate their connections reroute; the
    rest of the application keeps running) and end the flow cleanly.
``halt``
    Re-raise: the failure propagates and fails the application -- the
    pre-supervision behaviour, made explicit.

Every decision is recorded as a :class:`SupervisionEvent`, surfaced
through the component's observation probe (restart count, MTTR samples)
and -- when tracing is enabled -- as ``fault``-category trace events, so
recovery is *observed* with the same machinery as ordinary execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional

from repro.core.component import ComponentState
from repro.core.errors import EscalationError
from repro.sim.errors import ProcessKilled
from repro.sim.rng import RngRegistry

RESTART = "restart"
DEGRADE = "degrade"
HALT = "halt"
ESCALATE = "escalate"

#: Jitter modes of :class:`RestartPolicy`.  ``proportional`` perturbs the
#: exponential backoff by ``+/- jitter`` of its value -- good enough to
#: break exact ties, but co-faulted components still restart in a narrow
#: band and can re-collide on the contended resource that failed them.
#: ``full`` draws the whole backoff uniformly from ``[0, raw]`` (the
#: classic full-jitter scheme), spreading simultaneous restarts across
#: the entire window so retry storms cannot synchronize.
JITTER_PROPORTIONAL = "proportional"
JITTER_FULL = "full"
JITTER_MODES = (JITTER_PROPORTIONAL, JITTER_FULL)


@dataclass(frozen=True)
class SupervisionEvent:
    """One supervision decision, in failure-time order."""

    t_ns: int
    component: str
    action: str  # restart | degrade | halt | escalate
    attempt: int
    error: str
    backoff_ns: int = 0


class RestartPolicy:
    """Exponential backoff with deterministic jitter, then escalation."""

    action = RESTART

    def __init__(
        self,
        max_attempts: int = 3,
        base_backoff_ns: int = 1_000_000,
        factor: float = 2.0,
        max_backoff_ns: int = 1_000_000_000,
        jitter: float = 0.1,
        jitter_mode: str = JITTER_PROPORTIONAL,
    ) -> None:
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if base_backoff_ns < 0 or max_backoff_ns < base_backoff_ns:
            raise ValueError("invalid backoff bounds")
        if not 0.0 <= jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {jitter}")
        if jitter_mode not in JITTER_MODES:
            raise ValueError(
                f"jitter_mode must be one of {JITTER_MODES}, got {jitter_mode!r}"
            )
        self.max_attempts = max_attempts
        self.base_backoff_ns = base_backoff_ns
        self.factor = factor
        self.max_backoff_ns = max_backoff_ns
        self.jitter = jitter
        self.jitter_mode = jitter_mode

    def backoff_ns(self, attempt: int, rng) -> int:
        """Backoff before restart ``attempt`` (1-based), jittered by
        ``rng`` (a per-component seeded stream, so co-faulted components
        draw *different* backoffs from identical policies and schedules
        stay reproducible).

        ``proportional`` mode perturbs the exponential value by
        ``+/- jitter``; ``full`` mode draws uniformly from ``[0, raw]``,
        desynchronizing simultaneous restarts across the whole window
        (see :data:`JITTER_MODES`).
        """
        raw = self.base_backoff_ns * (self.factor ** (attempt - 1))
        raw = min(raw, self.max_backoff_ns)
        if self.jitter_mode == JITTER_FULL:
            raw *= float(rng.random())
        elif self.jitter:
            raw *= 1.0 + self.jitter * (2.0 * float(rng.random()) - 1.0)
        return max(0, int(raw))


class DegradePolicy:
    """Give the component up but keep the application alive.

    With ``detach_outbound=True`` the degraded component's *required*
    (outbound) data interfaces are disconnected too, so downstream
    components that count their live upstreams dynamically (e.g. a
    reassembly stage waiting for one end-of-stream marker per upstream)
    stop expecting traffic from it instead of blocking forever.
    """

    action = DEGRADE

    def __init__(self, detach_outbound: bool = False) -> None:
        self.detach_outbound = detach_outbound


class HaltPolicy:
    """Fail fast: propagate the error (no supervision semantics)."""

    action = HALT


class Supervisor:
    """One failure policy for every component, plus the recovery flow."""

    def __init__(self, policy=None, seed: int = 0) -> None:
        #: ``None`` leaves every component uncovered (raw behaviour,
        #: pre-supervision semantics).
        self.policy = policy
        self.seed = seed
        self._rng = RngRegistry(seed)
        self.events: List[SupervisionEvent] = []
        self.runtime = None

    # -- configuration ---------------------------------------------------------

    def install(self, runtime) -> "Supervisor":
        """Attach to a runtime (between ``deploy()`` and ``start()``)."""
        if runtime.supervisor is not None and runtime.supervisor is not self:
            raise RuntimeError("runtime already has a supervisor")
        runtime.supervisor = self
        self.runtime = runtime
        return self

    # -- reporting -------------------------------------------------------------

    # -- the recovery flow -----------------------------------------------------

    def _note(self, cont, event: SupervisionEvent) -> None:
        self.events.append(event)
        tracer = cont.extra.get("tracer")
        if tracer is not None:
            tracer.emit(
                "fault", event.action, attempt=event.attempt,
                error=event.error, backoff_ns=event.backoff_ns,
            )

    def flow(self, runtime, cont) -> Generator:
        """The supervised execution flow of one component (a generator
        the runtime spawns in place of the raw behaviour)."""
        comp, ctx, probe = cont.component, cont.context, cont.probe
        policy = self.policy
        rng = self._rng.stream(f"supervisor.backoff.{comp.name}")
        attempt = 0
        while True:
            try:
                result = yield from comp.behavior(ctx)
                return result
            except (ProcessKilled, GeneratorExit):
                raise  # external termination, not a component fault
            except Exception as error:  # noqa: BLE001 - policy decides
                failed_at = ctx.now_ns()
                comp.state = ComponentState.FAILED
                action = policy.action
                if action == HALT:
                    self._note(
                        cont,
                        SupervisionEvent(failed_at, comp.name, HALT, attempt, repr(error)),
                    )
                    raise
                if action == DEGRADE:
                    self._note(
                        cont,
                        SupervisionEvent(failed_at, comp.name, DEGRADE, attempt, repr(error)),
                    )
                    self._disconnect_inbound(comp)
                    if getattr(policy, "detach_outbound", False):
                        self._disconnect_outbound(comp)
                    comp.state = ComponentState.DEGRADED
                    return None
                # restart
                attempt += 1
                if attempt > policy.max_attempts:
                    self._note(
                        cont,
                        SupervisionEvent(failed_at, comp.name, ESCALATE, attempt - 1, repr(error)),
                    )
                    raise EscalationError(comp.name, attempt - 1, error) from error
                backoff = policy.backoff_ns(attempt, rng)
                self._note(
                    cont,
                    SupervisionEvent(
                        failed_at, comp.name, RESTART, attempt, repr(error), backoff
                    ),
                )
                if backoff:
                    yield from ctx.sleep(backoff)
                recovery = getattr(runtime, "recovery", None)
                if recovery is not None:
                    # Exactly-once resumption: restore the latest committed
                    # checkpoint and replay unacknowledged inbound messages
                    # before the behaviour respawns (see repro.recovery).
                    recovery.on_restart(cont)
                if probe is not None:
                    probe.record_restart(ctx.now_ns() - failed_at, now_ns=ctx.now_ns())
                comp.state = ComponentState.RUNNING
                # loop: a *fresh* behaviour generator (resuming from the
                # restored checkpoint when recovery is installed); mailbox
                # bindings and connections survive, in-flight messages are
                # preserved.

    @staticmethod
    def _disconnect_outbound(comp) -> None:
        """Detach the degraded component's outgoing data connections so
        dynamically-counting downstream receivers stop waiting for its
        end-of-stream (``DegradePolicy(detach_outbound=True)``)."""
        for req in comp.required.values():
            if getattr(req, "is_observation", False):
                continue
            if req.connected:
                req.disconnect()

    @staticmethod
    def _disconnect_inbound(comp) -> None:
        """Detach every data connection feeding the degraded component.
        Senders that re-evaluate their targets (e.g. Fetch's per-frame
        ``idct_targets``) reroute traffic away from it."""
        for prov in comp.provided.values():
            if prov.is_observation:
                continue
            for req in list(prov.connected_from):
                req.disconnect()

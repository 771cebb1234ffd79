"""Spans and counters around the public entry points of entsched's modules.

A ``Tracer`` rebinds module attributes, so the package runs unchanged
while each call into a layer passes through a timing wrapper, and puts a
timing backend in front of the LP solver through ``lp.set_backend``.
``uninstall`` restores every original. Spans nest: a layer's self time
is its spans' time minus the spans they called, so self times add up to
the traced wall time.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

from entsched import engine, lp, protocol, scheduler
from entsched.mred import check_solution

import workloads

LAYERS = ("topology", "workload", "mred", "lp", "scheduler", "protocol", "rng", "engine")
PLANNING = ("mred", "lp", "scheduler")

_clock = time.perf_counter


class TimedBackend:
    """LP backend that times and classifies every solve of the one it wraps."""

    def __init__(self, inner, tracer: "Tracer"):
        self.name = inner.name
        self._solve = tracer.span("lp", "lp.solve", inner.solve, samples=tracer.lp_s)
        self._status = tracer.lp_status

    def solve(self, c, **kwargs):
        res = self._solve(c, **kwargs)
        self._status[res.status] += 1
        return res


class Tracer:
    def __init__(self) -> None:
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.lp_s: list[float] = []
        self.lp_status: Counter = Counter()
        self.probe_rejects = 0
        self.redundant_refines = 0
        # plans handed to the protocol that failed check_solution
        self.bad_plans: list[dict] = []
        # time spent checking plans, kept out of every layer's self time
        self.check_s = 0.0
        self._last_feasible_probe = None
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []
        self._backend = None

    def span(self, layer: str, name: str, fn, samples: list | None = None):
        """`fn` wrapped so each call records a span of `layer`."""
        stack, self_s, incl_s, calls = self._stack, self.self_s, self.incl_s, self.calls

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                self_s[layer] += dt - stack.pop()
                incl_s[name] += dt
                calls[name] += 1
                if stack:
                    stack[-1] += dt
                if samples is not None:
                    samples.append(dt)

        return wrapper

    def count(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _rebind(self, module, attr: str, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self) -> None:
        span, rebind = self.span, self._rebind
        for module, attr, layer, name in (
            (workloads, "generate_waxman", "topology", "topology.generate"),
            (workloads, "sample_sd_pairs", "topology", "topology.sample_sd"),
            (workloads, "generate_workload", "workload", "workload.generate"),
            (workloads, "build_mred", "mred", "mred.build"),
            (workloads, "run_simulation", "engine", "engine.run"),
            (engine, "active_set", "workload", "workload.active_set"),
            (engine, "expire_old_ebits", "protocol", "protocol.expire"),
            (engine, "reconcile_buffers", "protocol", "protocol.reconcile"),
            (engine, "phase_generate", "protocol", "protocol.generate"),
            (engine, "phase_swap", "protocol", "protocol.swap"),
            (engine, "phase_distribute", "protocol", "protocol.distribute"),
            (scheduler, "build_mred", "mred", "mred.build"),
            (scheduler, "solve_max_total", "mred", "mred.max_total"),
            (scheduler, "solve_lexicographic", "mred", "mred.lexicographic"),
            (scheduler, "solve_single_pair_edr", "mred", "mred.single_pair"),
        ):
            rebind(module, attr, span(layer, name, getattr(module, attr)))
        for attr in ("switch_batch", "switch_probabilities"):
            rebind(protocol, attr, self.count(f"protocol.{attr}", getattr(protocol, attr)))
        rebind(scheduler, "build_and_check_mred_dc", self._deadline_solve(scheduler.build_and_check_mred_dc))
        rebind(engine, "framework_step", self._checked_step(engine.framework_step))

        slot_rng = engine.SlotRng
        rebind(engine, "SlotRng", type("TracedSlotRng", (slot_rng,), {
            "stream": span("rng", "rng.stream", slot_rng.stream),
        }))

        self._backend = lp.get_backend()
        lp.set_backend(TimedBackend(self._backend, self))

    def uninstall(self) -> None:
        if self._backend is not None:
            lp.set_backend(self._backend)
            self._backend = None
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)

    def restored(self) -> bool:
        """True when every rebound attribute holds its original again."""
        return all(getattr(module, attr) is value for module, attr, value in self._saved)

    def _deadline_solve(self, fn):
        """Probe and refine spans; counts rejected probes and refines whose
        first stage repeats the last feasible probe's program."""
        probe = self.span("mred", "mred.probe", fn)
        refine = self.span("mred", "mred.refine", fn)

        def wrapper(net, prioritized, *args, **kwargs):
            entries = list(prioritized)
            if kwargs.get("refine", True):
                if entries == self._last_feasible_probe:
                    self.redundant_refines += 1
                return refine(net, entries, *args, **kwargs)
            res = probe(net, entries, *args, **kwargs)
            if res is None:
                self.probe_rejects += 1
            else:
                self._last_feasible_probe = entries
            return res

        return wrapper

    def _checked_step(self, fn):
        """Scheduler span; every fresh plan must pass ``check_solution``."""
        step = self.span("scheduler", "scheduler.framework_step", fn)
        stack = self._stack

        def wrapper(state, active, slot):
            self._last_feasible_probe = None
            plan, fresh = step(state, active, slot)
            if fresh and plan is not None:
                t0 = _clock()
                report = check_solution(state.net, plan)
                if not report["ok"]:
                    self.bad_plans.append({"slot": slot, **report})
                dt = _clock() - t0
                self.check_s += dt
                if stack:
                    stack[-1] += dt
            return plan, fresh

        return wrapper

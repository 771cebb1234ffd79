"""Slot-driven simulation runs: admit commodities, plan, execute, account.

A run owns fresh copies of its commodities, so callers can reuse one
workload across policies and seeds. Every slot checks an integer
conservation identity over the buffer pools; any mismatch aborts the
run, since it would mean ebits were created or lost outside the modeled
channels.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, replace
from typing import Callable, Sequence

from .protocol import (
    PHASE_GENERATE,
    PHASE_RECONCILE,
    PHASE_SWAP,
    BufferState,
    ConservationError,
    PlanTable,
    ProtocolConfig,
    compile_plan,
    expire_old_ebits,
    phase_distribute,
    phase_generate,
    phase_swap,
    reconcile_buffers,
)
from .rng import SlotRng
from .scheduler import SchedulerState, framework_step, new_state
from .topology import Network, ValidationError, _whole
from .workload import ACTIVE, COMPLETED, PENDING, Commodity, active_set


# slots a run may take before it stops with commodities unresolved
HORIZON_CAP = 100_000


@dataclass(frozen=True)
class RunMetrics:
    policy: str
    seed: int
    success_ratio: float
    avg_completion_time: float | None
    unfinished: int
    n_commodities: int
    solver_calls: int
    slots: int
    wall_ms: float

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class RunResult:
    metrics: RunMetrics
    commodities: list[Commodity]
    events: list[dict]


def _validate_inputs(net: Network, commodities: Sequence[Commodity]) -> None:
    seen = set()
    for c in commodities:
        if c.id in seen:
            raise ValidationError(f"duplicate commodity id {c.id}")
        seen.add(c.id)
        if c.sd not in net.sd_pairs:
            raise ValidationError(f"commodity {c.id} uses {c.sd}, not an SD pair of the network")


def run_simulation(
    net: Network,
    commodities: Sequence[Commodity],
    policy: str,
    kappa: int = 1,
    seed: int = 0,
    horizon_cap: int = HORIZON_CAP,
    config: ProtocolConfig = ProtocolConfig(),
    trace: Callable[[dict], None] | None = None,
) -> RunResult:
    """Simulate until every commodity is resolved or the cap is hit.

    Slots advance even while no commodity is active, as long as arrivals
    are still pending; the standing plan keeps stocking buffers in the
    meantime. Returns the run metrics together with the final commodity
    states and the scheduler's solve log.
    """
    horizon_cap = _whole(horizon_cap, "horizon_cap", 0)
    seed = _whole(seed, "seed", 0)
    _validate_inputs(net, commodities)
    started = time.perf_counter()

    work = [replace(c) for c in commodities]
    state: SchedulerState = new_state(net, policy, kappa)
    buffers = BufferState()
    table = PlanTable()
    srng = SlotRng(seed)

    slot = 0
    while slot < horizon_cap:
        slot += 1
        active = active_set(work, slot)
        if not active and not any(c.status == PENDING for c in work):
            slot -= 1
            break

        plan, fresh = framework_step(state, active, slot)
        before = buffers.total_ebits()
        dropped = expire_old_ebits(buffers, slot, config.max_buffer_age)
        if fresh:
            table = compile_plan(net, plan, buffers)
            reconcile_buffers(buffers, table, srng.stream(slot, PHASE_RECONCILE))
        # births are read only by expiry; without an age limit every ebit
        # gets birth 0, so the ledger keeps one cohort
        birth = slot if config.max_buffer_age is not None else 0
        made = phase_generate(table, buffers, birth, srng.stream(slot, PHASE_GENERATE))
        attempts, wins = phase_swap(table, buffers, srng.stream(slot, PHASE_SWAP), config)
        handed, finished = phase_distribute(buffers, active)
        after = buffers.total_ebits()

        if made != (after - before) + dropped + 2 * attempts - wins + handed:
            raise ConservationError(
                f"slot {slot}: generated {made} != buffer delta {after - before} "
                f"+ dropped {dropped} + consumed {2 * attempts - wins} + handed {handed}"
            )

        for c in finished:
            c.status = COMPLETED
            c.completed_slot = slot

        if trace is not None:
            trace({
                "slot": slot,
                "active": [c.id for c in active],
                "generated": made,
                "swap_attempts": attempts,
                "swap_successes": wins,
                "distributed": handed,
                "dropped": dropped,
                "buffered": after,
                "completed": [c.id for c in finished],
            })

    with_deadline = [c for c in work if c.deadline is not None]
    met = sum(
        1 for c in with_deadline
        if c.status == COMPLETED and c.completed_slot <= c.deadline
    )
    success_ratio = met / len(with_deadline) if with_deadline else 1.0

    open_ended_done = [
        c.completed_slot - c.arrival + 1
        for c in work
        if c.deadline is None and c.status == COMPLETED
    ]
    avg_completion = (
        sum(open_ended_done) / len(open_ended_done) if open_ended_done else None
    )

    metrics = RunMetrics(
        policy=policy,
        seed=seed,
        success_ratio=success_ratio,
        avg_completion_time=avg_completion,
        unfinished=sum(1 for c in work if c.status in (PENDING, ACTIVE)),
        n_commodities=len(work),
        solver_calls=state.model.solves,
        slots=slot,
        wall_ms=(time.perf_counter() - started) * 1000.0,
    )
    return RunResult(metrics=metrics, commodities=work, events=state.events)

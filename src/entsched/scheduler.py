"""Scheduling policies that turn the active commodity set into a rate plan.

Three variants share one interface. The baseline solves the whole-set
fair program once and never revisits it. The ordering variant ranks SD
pairs by estimated completion time and re-solves lexicographically when
the active set changes. The deadline variant greedily admits commodities
in earliest-deadline order, keeping only a prefix whose deadline
constraints stay jointly feasible.

A run solves each distinct program at most once, since the run's
`MredModel` keeps every optimum it has solved: a repeated priority list,
probe, fallback plan or solo rate costs no LP. A pair's solo rate is the
first stage of the ESDI-O plan that ranks it first, so once the ranking
has computed it, that stage costs no LP. An ESDI-E candidate whose pair
needs more than the pair's solo rate is skipped without an LP, once that
pair has had an infeasible probe, and a probe the max-total face covers
costs at most one LP per set of admitted pairs. Each re-plan's event
records whether an ESDI-O plan ran no LP and how each ESDI-E probe
ended.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from .mred import (
    MredModel,
    RateSolution,
    build_and_check_mred_dc,
    build_mred,
    deadline_needs,
    face_plan,
    solve_lexicographic,
    solve_max_total,
    solve_single_pair_edr,
)
from .topology import Network, NodePair, ValidationError
from .workload import Commodity

POLICY_BASELINE = "ESDI-B"
POLICY_ORDERED = "ESDI-O"
POLICY_DEADLINE = "ESDI-E"
POLICIES = (POLICY_BASELINE, POLICY_ORDERED, POLICY_DEADLINE)


@dataclass
class SchedulerState:
    """Mutable policy state carried across slots of one run."""

    policy: str
    net: Network
    model: MredModel
    kappa: int
    plan: RateSolution | None = None
    fingerprint: frozenset[int] | None = None
    # pairs with an LP-infeasible deadline probe, whose probes check the solo-rate bound
    bound_armed: set[NodePair] = field(default_factory=set)
    events: list[dict] = field(default_factory=list)


def new_state(net: Network, policy: str, kappa: int = 1) -> SchedulerState:
    if policy not in POLICIES:
        raise ValidationError(f"unknown policy {policy!r}, expected one of {POLICIES}")
    if kappa < 1:
        raise ValidationError(f"kappa must be >= 1, got {kappa}")
    return SchedulerState(policy=policy, net=net, model=build_mred(net), kappa=kappa)


def rank_pairs_by_completion(state: SchedulerState, active: list[Commodity]) -> list[NodePair]:
    """SD pairs of active commodities, most urgent first.

    A pair's urgency is the smallest demand among its commodities divided
    by the pair's solo rate; pairs that can move nothing sort last. Ties
    fall back to the arrival then id of the commodity setting the bound.
    """
    groups: dict[NodePair, list[Commodity]] = {}
    for c in active:
        groups.setdefault(c.sd, []).append(c)
    ranked = []
    for sd, members in groups.items():
        rep = min(members, key=lambda c: (c.demand, c.arrival, c.id))
        rate = solve_single_pair_edr(state.net, sd, state.model)
        ect = rep.demand / rate if rate > 0 else math.inf
        ranked.append((ect, rep.arrival, rep.id, sd))
    ranked.sort()
    return [sd for _, _, _, sd in ranked]


def _plan_ordered(state: SchedulerState, active: list[Commodity]):
    """The lexicographic plan of the ranked pairs; `reused` when it ran no
    LP, which is when this priority list was solved before, since its last
    stage holds every earlier stage's optimum."""
    priority = rank_pairs_by_completion(state, active)[: state.kappa]
    before = state.model.solves
    plan = solve_lexicographic(state.net, priority, model=state.model)
    return plan, priority, {"reused": state.model.solves == before}


def _exceeds_solo_rate(state: SchedulerState, entries, sd: NodePair) -> bool:
    """True when `sd` needs more than it gets served alone, past the
    solver's feasibility tolerance, so the probe must be infeasible.

    The need is `mred.deadline_needs`: the greatest cumulative demand over
    window among `sd`'s deadline-prefix rows.
    """
    rate = solve_single_pair_edr(state.net, sd, state.model)
    return deadline_needs(entries)[sd] > rate * (1 + 1e-7) + 1e-7


def _plan_deadline(state: SchedulerState, active: list[Commodity], slot: int):
    """Admit deadline commodities greedily while jointly feasible.

    Candidates are tried in (slots left, arrival, id) order with their
    remaining demand; an infeasible candidate is skipped rather than
    ending admission. Each probe is the full two-stage deadline solve, so
    the last feasible probe is the plan. Once a pair has had an infeasible
    probe, its later candidates are first checked against its solo rate;
    only the candidate's pair is checked, since the admitted entries were
    feasible together. Without any admission the plan falls back to the
    plain fair solve, which also serves deadline-free commodities.

    Each probe's outcome is counted: `solo_rejected` by the bound,
    `infeasible` by the LP, `covered` when `mred.face_plan` met its needs,
    `solved` for a feasible two-stage probe.
    """
    candidates = [c for c in active if c.deadline is not None]
    candidates.sort(key=lambda c: (c.deadline - slot + 1, c.arrival, c.id))

    admitted: list[tuple[NodePair, float, float]] = []
    probes = dict.fromkeys(("covered", "solved", "infeasible", "solo_rejected"), 0)
    plan = None
    for c in candidates:
        if len(admitted) >= state.kappa:
            break
        entry = (c.sd, float(c.remaining), float(c.deadline - slot + 1))
        entries = admitted + [entry]
        if c.sd in state.bound_armed and _exceeds_solo_rate(state, entries, c.sd):
            probes["solo_rejected"] += 1
            continue
        probe = build_and_check_mred_dc(state.net, entries, model=state.model)
        if probe is None:
            probes["infeasible"] += 1
            state.bound_armed.add(c.sd)
        else:
            probes["covered" if face_plan(state.model, entries) is not None else "solved"] += 1
            admitted.append(entry)
            plan = probe
    if plan is None:
        plan = solve_max_total(state.net, state.model)
    return plan, [sd for sd, _, _ in admitted], {"probes": probes}


def framework_step(
    state: SchedulerState, active: list[Commodity], slot: int
) -> tuple[RateSolution | None, bool]:
    """Return the plan to execute this slot and whether it is new.

    Re-solves only when the set of active commodity ids changed since the
    last solve; an empty active set keeps the standing plan running. The
    baseline policy keeps its first plan for the whole run since its
    program does not depend on which commodities are active.
    """
    fingerprint = frozenset(c.id for c in active)
    if not fingerprint:
        return state.plan, False
    if state.plan is not None and fingerprint == state.fingerprint:
        return state.plan, False
    state.fingerprint = fingerprint
    if state.policy == POLICY_BASELINE and state.plan is not None:
        return state.plan, False

    started = time.perf_counter()
    if state.policy == POLICY_BASELINE:
        plan, priority, detail = solve_max_total(state.net, state.model), [], {}
    elif state.policy == POLICY_ORDERED:
        plan, priority, detail = _plan_ordered(state, active)
    else:
        plan, priority, detail = _plan_deadline(state, active, slot)
    wall_ms = (time.perf_counter() - started) * 1000.0

    state.plan = plan
    state.events.append({
        "slot": slot,
        "policy": state.policy,
        "priority": [str(sd) for sd in priority],
        "objectives": [[label, value] for label, value in plan.objective_log],
        "wall_ms": wall_ms,
        **detail,
    })
    return plan, True

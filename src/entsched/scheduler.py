"""Scheduling policies that turn the active commodity set into a rate plan.

Three variants share one interface. The baseline solves the whole-set
fair program once and never revisits it. The ordering variant ranks SD
pairs by estimated completion time and re-solves lexicographically when
the active set changes. The deadline variant greedily admits commodities
in earliest-deadline order, keeping only a prefix whose deadline
constraints stay jointly feasible.

The scheduler holds no solver state: the run's `MredModel` keeps every
optimum it has solved, so a repeated priority list, probe, plan or solo
rate costs no LP. A pair's solo rate is the first stage of the ESDI-O
plan that ranks it first, so once the ranking has computed it, that
stage costs no LP. ESDI-E admits first and plans once: each probe gets
one verdict from `mred.deadline_verdict`, and the admitted list is then
planned by one `build_and_check_mred_dc` call, which reuses the
verdicts' programs and adds at most its second stage. Each re-plan's
event records whether an ESDI-O plan ran no LP and how each ESDI-E probe
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
    deadline_verdict,
    solve_lexicographic,
    solve_max_total,
    solve_single_pair_edr,
)
from .topology import Network, NodePair, ValidationError, _whole
from .workload import Commodity, service_order

POLICY_BASELINE = "ESDI-B"
POLICY_ORDERED = "ESDI-O"
POLICY_DEADLINE = "ESDI-E"
POLICIES = (POLICY_BASELINE, POLICY_ORDERED, POLICY_DEADLINE)


@dataclass
class SchedulerState:
    """Mutable policy state carried across slots of one run; `new_state`
    builds it, and the run sets the rest."""

    policy: str
    net: Network
    model: MredModel
    kappa: int
    plan: RateSolution | None = field(init=False, default=None)
    fingerprint: frozenset[int] | None = field(init=False, default=None)
    events: list[dict] = field(init=False, default_factory=list)


def new_state(net: Network, policy: str, kappa: int = 1) -> SchedulerState:
    if policy not in POLICIES:
        raise ValidationError(f"unknown policy {policy!r}, expected one of {POLICIES}")
    kappa = _whole(kappa, "kappa", 1)
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


def _plan_deadline(state: SchedulerState, active: list[Commodity], slot: int):
    """Admit deadline commodities greedily while jointly feasible, then
    plan the admitted list once.

    Candidates are tried in `workload.service_order`, earliest deadline
    first, with their remaining demand, until `kappa` are admitted; an
    infeasible candidate is skipped rather than ending admission. Each probe, the admitted
    entries plus one candidate, is answered by `mred.deadline_verdict`,
    and a `covered` or `solved` candidate is admitted. The verdicts are
    counted by outcome. The plan is the deadline solve of the admitted
    list; with none admitted it is the plain fair solve, which also serves
    deadline-free commodities.
    """
    candidates = sorted((c for c in active if c.deadline is not None), key=service_order)

    admitted: list[tuple[NodePair, float, float]] = []
    probes = dict.fromkeys(("covered", "solved", "infeasible", "solo_rejected"), 0)
    for c in candidates:
        if len(admitted) >= state.kappa:
            break
        entry = (c.sd, float(c.remaining), float(c.deadline - slot + 1))
        verdict = deadline_verdict(state.model, admitted, entry)
        probes[verdict] += 1
        if verdict in ("covered", "solved"):
            admitted.append(entry)
    plan = build_and_check_mred_dc(state.net, admitted, model=state.model)
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
    if state.policy == POLICY_BASELINE and state.plan is not None:
        return state.plan, False
    fingerprint = frozenset(c.id for c in active)
    if not fingerprint:
        return state.plan, False
    if state.plan is not None and fingerprint == state.fingerprint:
        return state.plan, False
    state.fingerprint = fingerprint

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

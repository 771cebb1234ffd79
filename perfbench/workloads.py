"""Benchmark workloads and the instances each one runs.

A workload is a base configuration in the parameter format of
``entsched.cli.run_sweep_case`` plus a policy. One benchmark run covers
several instances of it: instance ``i`` of benchmark seed ``s`` is the
sweep case with seed ``s * 1000 + i``, built with the same calls and
seed derivation as the sweep, so ``entsched sweep --seeds ...`` can
reproduce any instance. A run takes instances until their commodities
reach a budget sized to the run length. The same (seed, seconds) thus
always gives the same inputs, and runs of different seeds do about the
same amount of work even though arrival counts are Poisson.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from entsched.engine import run_simulation
from entsched.mred import build_mred
from entsched.protocol import ProtocolConfig
from entsched.rng import child_int
from entsched.topology import generate_waxman, sample_sd_pairs
from entsched.workload import DeadlineSpec, WorkloadConfig, generate_workload

# Waxman shape shared by every workload
_BASE = {
    "alpha": 0.8, "beta": 0.8, "cap_lo": 3, "cap_hi": 10, "p": 0.9, "q": 0.9,
    "rate": 1.0, "deadline_halfwidth": 0.1, "deadline_factor": 1.0, "kappa": 1,
    "cascade_depth": 1, "max_buffer_age": None, "horizon_cap": 100_000,
}

# instance seeds of one benchmark seed never overlap another's
SEED_STRIDE = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    policy: str
    params: dict
    # host seconds per commodity on a 2-core x86 host; sizes the
    # commodity budget so a run measures about the requested seconds
    commodity_s: float
    # planning share of traced wall time the workload is built to show
    planning_share: tuple[float, float]


WORKLOADS = {
    w.name: w
    for w in (
        # admission probes and refined solves: planning is most of the wall time
        Workload(
            name="deadline-replan",
            policy="ESDI-E",
            params={**_BASE, "nodes": 16, "sd_count": 3, "mean_demand": 300.0,
                    "min_demand": 50, "horizon": 4, "deadline_mu": 0.4},
            commodity_s=0.23,
            planning_share=(0.85, 1.0),
        ),
        # staged lexicographic and single-pair solves, no probes, SJF hand-out
        Workload(
            name="ordered-openended",
            policy="ESDI-O",
            params={**_BASE, "nodes": 16, "sd_count": 4, "mean_demand": 300.0,
                    "min_demand": 50, "horizon": 8, "deadline_mu": None},
            commodity_s=0.18,
            planning_share=(0.5, 1.0),
        ),
        # one plan, then ~270 slots of protocol and engine work per instance;
        # small networks, so a run covers ~80 topologies and its served
        # rates do not swing with the few networks it happens to draw
        Workload(
            name="fixed-plan-long",
            policy="ESDI-B",
            params={**_BASE, "nodes": 12, "sd_count": 3, "mean_demand": 300.0,
                    "min_demand": 50, "horizon": 25, "deadline_mu": 0.4},
            commodity_s=0.015,
            planning_share=(0.0, 0.2),
        ),
    )
}


def iter_instances(workload: Workload, seed: int, seconds: float):
    """Instances of benchmark seed `seed` until the commodity budget is met.

    Each instance is built when it is asked for, so a run that simulates
    each one before asking for the next samples set-up time across the
    whole run rather than in one burst at its start.
    """
    budget = seconds / workload.commodity_s
    made = 0
    for i in range(SEED_STRIDE):
        if made >= budget:
            return
        inst = build_instance(workload, seed * SEED_STRIDE + i)
        made += len(inst.commodities)
        yield inst
    raise ValueError(f"{seconds} s needs more than {SEED_STRIDE} instances")


def sweep_spec(workload: Workload, sweep_seed: int) -> dict:
    """The ``run_sweep_case`` argument equivalent to one instance."""
    return {"value": None, "policy": workload.policy, "seed": sweep_seed,
            "params": dict(workload.params)}


@dataclass
class Instance:
    sweep_seed: int
    net: object
    commodities: list
    # host seconds of each set-up step
    setup: dict
    # columns, rows and nonzeros of the instance's LP model
    model_shape: tuple[int, int, int]


def build_instance(workload: Workload, sweep_seed: int) -> Instance:
    """Inputs of one instance, built exactly as ``run_sweep_case`` builds them.

    Set-up also builds the LP model once, as the scheduler does at the
    start of every run, so that its cost shows in the set-up time.
    """
    prm = workload.params
    clock = time.perf_counter
    t0 = clock()
    net = generate_waxman(
        prm["nodes"], alpha=prm["alpha"], beta=prm["beta"],
        cap_lo=prm["cap_lo"], cap_hi=prm["cap_hi"], p=prm["p"], q=prm["q"],
        seed=child_int(sweep_seed, "topology", prm["nodes"]),
    )
    net = sample_sd_pairs(net, prm["sd_count"], seed=child_int(sweep_seed, "sd-pairs"))
    t1 = clock()
    deadline = None
    if prm["deadline_mu"] is not None:
        deadline = DeadlineSpec(mu=prm["deadline_mu"], halfwidth=prm["deadline_halfwidth"],
                                factor=prm["deadline_factor"])
    cfg = WorkloadConfig(rate=prm["rate"], mean_demand=prm["mean_demand"],
                         min_demand=prm["min_demand"], horizon=prm["horizon"], deadline=deadline)
    commodities = generate_workload(cfg, net.sorted_sd, seed=child_int(sweep_seed, "workload"))
    t2 = clock()
    model = build_mred(net)
    t3 = clock()
    return Instance(
        sweep_seed=sweep_seed, net=net, commodities=commodities,
        setup={"topology": t1 - t0, "workload": t2 - t1, "mred": t3 - t2},
        model_shape=(model.ncols, model.A_eq.shape[0], model.A_eq.nnz),
    )


def simulate(workload: Workload, inst: Instance, trace=None):
    """Run one instance; returns the package's RunResult."""
    prm = workload.params
    return run_simulation(
        inst.net, inst.commodities, workload.policy,
        kappa=prm["kappa"], seed=child_int(inst.sweep_seed, "protocol"),
        horizon_cap=prm["horizon_cap"],
        config=ProtocolConfig(cascade_depth=prm["cascade_depth"],
                              max_buffer_age=prm["max_buffer_age"]),
        trace=trace,
    )

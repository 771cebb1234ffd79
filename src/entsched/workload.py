"""Commodity workload: arrivals, demands, deadlines.

A commodity is a request for `demand` end-to-end ebits between one SD
pair, arriving at a slot and optionally carrying an absolute deadline
slot. Arrival counts per slot are Poisson, demands are rounded
exponentials with a floor, and deadlines give each commodity a lifetime
proportional to its demand.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .topology import NodePair, ValidationError, _whole, canonical_pair

PENDING = "pending"
ACTIVE = "active"
COMPLETED = "completed"
EXPIRED = "expired"

_TERMINAL = (COMPLETED, EXPIRED)


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


@dataclass
class Commodity:
    """One request; `remaining` counts ebits still owed."""

    id: int
    sd: NodePair
    demand: int
    arrival: int
    deadline: int | None = None
    remaining: int = field(default=-1)
    status: str = PENDING
    completed_slot: int | None = None
    expired_slot: int | None = None

    def __post_init__(self) -> None:
        if self.demand < 1:
            raise ValidationError(f"commodity {self.id}: demand {self.demand} must be >= 1")
        if self.arrival < 1:
            raise ValidationError(f"commodity {self.id}: arrival {self.arrival} must be >= 1")
        if self.deadline is not None and self.deadline < self.arrival:
            raise ValidationError(
                f"commodity {self.id}: deadline {self.deadline} precedes arrival {self.arrival}"
            )
        if self.remaining < 0:
            self.remaining = self.demand

    def fresh_copy(self) -> "Commodity":
        return Commodity(
            id=self.id, sd=self.sd, demand=self.demand,
            arrival=self.arrival, deadline=self.deadline,
        )


def service_order(c: Commodity) -> tuple:
    """Sort key for serving commodities: those with a deadline first,
    earliest deadline first, then the rest by least remaining demand;
    arrival, then id, break ties."""
    return (c.deadline is None, c.deadline or c.remaining, c.arrival, c.id)


@dataclass(frozen=True)
class DeadlineSpec:
    """Lifetime scale: deadline - arrival ~ round(factor * U[mu-hw, mu+hw] * demand)."""

    mu: float
    halfwidth: float
    factor: float = 1.0

    def __post_init__(self) -> None:
        lo, hi = self.mu - self.halfwidth, self.mu + self.halfwidth
        if not (math.isfinite(lo) and math.isfinite(hi)) or self.halfwidth < 0 or lo <= 0:
            raise ValidationError(f"deadline window [{lo}, {hi}] must be finite and stay positive")
        if not math.isfinite(self.factor) or self.factor <= 0:
            raise ValidationError(f"deadline factor {self.factor} must be finite and > 0")


@dataclass(frozen=True)
class WorkloadConfig:
    rate: float
    mean_demand: float
    min_demand: int
    horizon: int
    deadline: DeadlineSpec | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.rate) or self.rate < 0:
            raise ValidationError(f"arrival rate {self.rate} must be finite and >= 0")
        if not math.isfinite(self.mean_demand) or self.mean_demand <= 0:
            raise ValidationError(f"mean demand {self.mean_demand} must be finite and > 0")
        if self.min_demand < 1:
            raise ValidationError(f"min demand {self.min_demand} must be >= 1")
        if self.horizon < 0:
            raise ValidationError(f"horizon {self.horizon} must be >= 0")


def generate_workload(
    cfg: WorkloadConfig,
    sd_universe: Sequence[NodePair],
    seed: int,
) -> list[Commodity]:
    """Draw a workload; pure function of (cfg, sd_universe, seed).

    Commodity ids are assigned in arrival order starting at 0.
    """
    universe = sorted(set(sd_universe))
    if not universe:
        raise ValidationError("sd universe must be non-empty")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    out: list[Commodity] = []
    for slot in range(1, cfg.horizon + 1):
        for _ in range(int(rng.poisson(cfg.rate))):
            sd = universe[int(rng.integers(len(universe)))]
            demand = max(cfg.min_demand, round_half_up(float(rng.exponential(cfg.mean_demand))))
            deadline = None
            if cfg.deadline is not None:
                spec = cfg.deadline
                scale = float(rng.uniform(spec.mu - spec.halfwidth, spec.mu + spec.halfwidth))
                life = round_half_up(spec.factor * scale * demand)
                deadline = slot + life
            out.append(Commodity(id=len(out), sd=sd, demand=demand, arrival=slot, deadline=deadline))
    return out


def active_set(commodities: Iterable[Commodity], slot: int) -> list[Commodity]:
    """Commodities in play at `slot`, sorted by (arrival, id).

    Side effects: pending commodities whose arrival has come are marked
    active; active commodities whose deadline has passed with demand
    still owed are marked expired.
    """
    active: list[Commodity] = []
    for c in commodities:
        if c.status in _TERMINAL:
            continue
        if c.arrival > slot:
            continue
        if c.deadline is not None and c.deadline < slot:
            c.status = EXPIRED
            c.expired_slot = slot
            continue
        c.status = ACTIVE
        if c.remaining > 0:
            active.append(c)
    active.sort(key=lambda c: (c.arrival, c.id))
    return active


def write_workload(commodities: Iterable[Commodity], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for c in commodities:
            fh.write(json.dumps({
                "id": c.id, "s": c.sd.lo, "t": c.sd.hi,
                "d": c.demand, "a": c.arrival, "deadline": c.deadline,
            }, sort_keys=True))
            fh.write("\n")


def _field(obj: dict, key: str) -> int:
    return _whole(obj[key], f"workload field {key!r}")


def read_workload(path: str) -> list[Commodity]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                out.append(Commodity(
                    id=_field(obj, "id"), sd=canonical_pair(_field(obj, "s"), _field(obj, "t")),
                    demand=_field(obj, "d"), arrival=_field(obj, "a"),
                    deadline=None if obj.get("deadline") is None else _field(obj, "deadline"),
                ))
            except ValidationError:
                raise
            except (KeyError, TypeError, ValueError) as exc:
                raise ValidationError(f"malformed workload line: {line!r}") from exc
    return out

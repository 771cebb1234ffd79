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

from .topology import NodePair, ValidationError, _json_int, _real, _whole, canonical_pair

PENDING = "pending"
ACTIVE = "active"
COMPLETED = "completed"
EXPIRED = "expired"

_TERMINAL = (COMPLETED, EXPIRED)

# the most arrivals a workload may expect, rate * horizon: drawing 10^6
# took 7.2 s and 300 MB peak on a 2-core x86 host, and numpy refuses a Poisson
# mean above about 9.2e18 outright
MAX_ARRIVALS = 10**6

# the largest mean or floor demand: numpy's exponential sampler returns at
# most about 44.4 times its mean, so every drawn demand stays below 4.5e12
# and, with MAX_DEADLINE_SCALE, every lifetime below 2^53 slots: both stay
# exact as the floats the deadline LP reads
MAX_DEMAND = 10**11

# the most slots of lifetime per ebit of demand, factor * (mu + halfwidth)
MAX_DEADLINE_SCALE = 1000

# the longest horizon a workload may be drawn over: the draw walks every
# slot, and 10^7 slots at rate 0 took 9.6-10.1 s on a 2-core x86 host,
# about 1 us a slot
MAX_HORIZON = 10**7

# the largest demand a commodity may hold, read or drawn: the deadline LP
# reads remaining demands as floats, exact up to 2^53, and HiGHS refuses a
# model whose surplus bound reaches 1e20, as a demand of 1e30 due in two
# slots did
MAX_COMMODITY_DEMAND = 2**53


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


@dataclass
class Commodity:
    """One request, built from its five request fields; the run tracks
    the rest: `remaining` counts ebits still owed, from `demand`."""

    id: int
    sd: NodePair
    demand: int
    arrival: int
    deadline: int | None = None
    remaining: int = field(init=False)
    status: str = field(init=False, default=PENDING)
    completed_slot: int | None = field(init=False, default=None)
    expired_slot: int | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        self.id = _whole(self.id, "commodity id")
        try:
            self.demand = _whole(self.demand, "demand", 1, MAX_COMMODITY_DEMAND)
            self.arrival = _whole(self.arrival, "arrival", 1)
            if self.deadline is not None:
                self.deadline = _whole(self.deadline, "deadline", self.arrival)
        except ValidationError as exc:
            raise ValidationError(f"commodity {self.id}: {exc}") from None
        self.remaining = self.demand


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
        mu = _real(self.mu, "deadline mu")
        hw = _real(self.halfwidth, "deadline halfwidth", 0)
        factor = _real(self.factor, "deadline factor")
        _real(mu - hw, "deadline window bottom", above=0)
        _real(factor * (mu + hw), "deadline factor times window top", most=MAX_DEADLINE_SCALE,
              above=0)


@dataclass(frozen=True)
class WorkloadConfig:
    rate: float
    mean_demand: float
    min_demand: int
    horizon: int
    deadline: DeadlineSpec | None = None

    def __post_init__(self) -> None:
        _real(self.rate, "arrival rate", 0)
        _real(self.mean_demand, "mean demand", most=MAX_DEMAND, above=0)
        object.__setattr__(self, "min_demand",
                           _whole(self.min_demand, "min demand", 1, MAX_DEMAND))
        object.__setattr__(self, "horizon", _whole(self.horizon, "horizon", 0, MAX_HORIZON))
        # by division, since rate * horizon overflows a float for a large enough horizon
        if self.rate > 0 and self.horizon > MAX_ARRIVALS / self.rate:
            raise ValidationError(f"arrival rate {self.rate} over {self.horizon} slots expects "
                                  f"more than {MAX_ARRIVALS} arrivals")


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
    rng = np.random.default_rng(_whole(seed, "seed", 0))
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


def read_workload(path: str) -> list[Commodity]:
    """The commodities in the JSON-lines file at `path`, one object a line.
    Content that is not UTF-8 raises ValidationError naming the file, and a
    line that is not a valid commodity object, nests too deeply to parse or
    holds an integer too large for a float one prefixed ``cannot read
    workload <path> line <n>: ``; a path that cannot be opened raises
    OSError."""
    out = []
    with open(path, encoding="utf-8") as fh:
        try:
            for n, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                obj = json.loads(line, parse_int=_json_int)
                sd = canonical_pair(_whole(obj["s"], "sd pair endpoint"),
                                    _whole(obj["t"], "sd pair endpoint"))
                out.append(Commodity(id=obj["id"], sd=sd, demand=obj["d"], arrival=obj["a"],
                                     deadline=obj.get("deadline")))
        except UnicodeDecodeError as exc:
            raise ValidationError(f"cannot read workload {path}: {exc}") from exc
        except (ValidationError, KeyError, TypeError, ValueError, RecursionError,
                OverflowError) as exc:
            detail = exc if isinstance(exc, ValidationError) else f"{type(exc).__name__}: {exc}"
            raise ValidationError(f"cannot read workload {path} line {n}: {detail}") from exc
    return out

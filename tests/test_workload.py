import re
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

from entsched.topology import NodePair, ValidationError, canonical_pair
from entsched.workload import (
    ACTIVE,
    COMPLETED,
    EXPIRED,
    PENDING,
    Commodity,
    MAX_ARRIVALS,
    MAX_COMMODITY_DEMAND,
    MAX_DEADLINE_SCALE,
    MAX_DEMAND,
    MAX_HORIZON,
    DeadlineSpec,
    WorkloadConfig,
    active_set,
    generate_workload,
    read_workload,
    round_half_up,
    write_workload,
)

UNIVERSE = [NodePair(0, 1), NodePair(0, 2), NodePair(1, 2)]


def _cfg(**kw):
    base = dict(rate=1.0, mean_demand=600.0, min_demand=100, horizon=40,
                deadline=DeadlineSpec(mu=0.4, halfwidth=0.1))
    base.update(kw)
    return WorkloadConfig(**base)


def test_round_half_up():
    assert round_half_up(2.5) == 3
    assert round_half_up(2.4999) == 2
    assert round_half_up(-0.5) == 0


def test_config_validation():
    with pytest.raises(ValidationError):
        _cfg(rate=-1.0)
    with pytest.raises(ValidationError):
        _cfg(mean_demand=0.0)
    with pytest.raises(ValidationError):
        _cfg(min_demand=0)
    with pytest.raises(ValidationError):
        DeadlineSpec(mu=0.1, halfwidth=0.2)
    with pytest.raises(ValidationError):
        DeadlineSpec(mu=0.4, halfwidth=0.1, factor=0.0)
    with pytest.raises(ValidationError):
        generate_workload(_cfg(), UNIVERSE, seed=-1)
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValidationError):
            _cfg(rate=bad)
        with pytest.raises(ValidationError):
            _cfg(mean_demand=bad)
        with pytest.raises(ValidationError):
            DeadlineSpec(mu=bad, halfwidth=0.1)
        with pytest.raises(ValidationError):
            DeadlineSpec(mu=0.4, halfwidth=bad)
        with pytest.raises(ValidationError):
            DeadlineSpec(mu=0.4, halfwidth=0.1, factor=bad)


def test_config_refuses_draws_past_the_limits():
    # at each limit the config stands; past it, it is refused
    _cfg(rate=MAX_ARRIVALS / 40, horizon=40)
    with pytest.raises(ValidationError, match="expects more than"):
        _cfg(rate=MAX_ARRIVALS / 40 * 1.01, horizon=40)
    # numpy refuses this Poisson mean, and the product with the horizon
    # is never formed as a float
    for rate, horizon in ((1e19, 1), (1e-300, 10**400)):
        with pytest.raises(ValidationError):
            _cfg(rate=rate, horizon=horizon)
    _cfg(rate=1e19, horizon=0)
    _cfg(mean_demand=MAX_DEMAND, min_demand=MAX_DEMAND)
    with pytest.raises(ValidationError, match="mean demand 1e\\+308 exceeds the maximum"):
        _cfg(mean_demand=1e308)
    with pytest.raises(ValidationError, match="min demand"):
        _cfg(min_demand=MAX_DEMAND + 1)
    DeadlineSpec(mu=0.4, halfwidth=0.1, factor=MAX_DEADLINE_SCALE / 0.5)
    with pytest.raises(ValidationError, match="times window top"):
        DeadlineSpec(mu=0.4, halfwidth=0.1, factor=MAX_DEADLINE_SCALE / 0.5 * 1.01)
    with pytest.raises(ValidationError):
        DeadlineSpec(mu=0.4, halfwidth=0.1, factor=1e306)


def test_horizon_is_bounded_by_the_maximum():
    # the draw walks every slot, so even at rate 0 the horizon bounds its run time
    assert _cfg(rate=0.0, horizon=MAX_HORIZON).horizon == MAX_HORIZON
    for horizon in (MAX_HORIZON + 1, 10**12):
        with pytest.raises(ValidationError,
                           match=re.escape(f"horizon {horizon} exceeds the maximum {MAX_HORIZON}")):
            _cfg(rate=0.0, horizon=horizon)


def test_draws_at_the_limits_stay_exact_floats():
    spec = DeadlineSpec(mu=MAX_DEADLINE_SCALE - 1.0, halfwidth=1.0)
    cfg = WorkloadConfig(rate=50.0, mean_demand=MAX_DEMAND, min_demand=1, horizon=40, deadline=spec)
    cmds = generate_workload(cfg, UNIVERSE, seed=3)
    assert len(cmds) > 1000
    assert max(c.demand for c in cmds) < 2**53
    assert max(c.deadline for c in cmds) < 2**53


def test_generate_respects_floors_and_windows():
    cmds = generate_workload(_cfg(), UNIVERSE, seed=5)
    assert cmds, "expected at least one arrival over 40 slots at rate 1"
    for c in cmds:
        assert c.demand >= 100
        assert 1 <= c.arrival <= 40
        life = c.deadline - c.arrival
        # lifetime is round(u * d) with u in [0.3, 0.5]; allow the rounding half
        assert 0.3 * c.demand - 0.5 <= life <= 0.5 * c.demand + 0.5
    assert [c.id for c in cmds] == list(range(len(cmds)))
    arrivals = [c.arrival for c in cmds]
    assert arrivals == sorted(arrivals)


def test_generate_no_deadline_mode():
    cmds = generate_workload(_cfg(deadline=None), UNIVERSE, seed=5)
    assert all(c.deadline is None for c in cmds)


def test_generate_zero_rate_empty():
    assert generate_workload(_cfg(rate=0.0), UNIVERSE, seed=5) == []


def test_generate_is_pure():
    a = generate_workload(_cfg(), UNIVERSE, seed=9)
    b = generate_workload(_cfg(), UNIVERSE, seed=9)
    assert a == b
    c = generate_workload(_cfg(), UNIVERSE, seed=10)
    assert a != c


def test_generate_rejects_empty_universe():
    with pytest.raises(ValidationError):
        generate_workload(_cfg(), [], seed=1)


def test_demand_mean_matches_truncated_exponential():
    # mean of max(min_demand, Exp(mean)) computed by quadrature
    mean, floor = 600.0, 100.0
    analytic, _ = integrate.quad(
        lambda x: max(floor, x) * np.exp(-x / mean) / mean, 0, np.inf, limit=200)
    cfg = _cfg(rate=2.0, horizon=50_000, deadline=None)
    cmds = generate_workload(cfg, UNIVERSE, seed=123)
    assert len(cmds) > 50_000
    empirical = float(np.mean([c.demand for c in cmds]))
    assert abs(empirical - analytic) / analytic < 0.02


def test_commodity_validation():
    with pytest.raises(ValidationError):
        Commodity(id=0, sd=NodePair(0, 1), demand=0, arrival=1)
    with pytest.raises(ValidationError):
        Commodity(id=0, sd=NodePair(0, 1), demand=5, arrival=3, deadline=2)


def test_commodity_demand_is_bounded_by_the_exact_float_limit(tmp_path):
    c = Commodity(id=0, sd=NodePair(0, 1), demand=MAX_COMMODITY_DEMAND, arrival=1, deadline=3)
    assert replace(c).demand == MAX_COMMODITY_DEMAND
    message = f"commodity 0: demand {MAX_COMMODITY_DEMAND + 1} exceeds the maximum"
    with pytest.raises(ValidationError, match=message):
        Commodity(id=0, sd=NodePair(0, 1), demand=MAX_COMMODITY_DEMAND + 1, arrival=1)
    path = tmp_path / "wl.jsonl"
    path.write_text('{"id": 0, "s": 0, "t": 1, "d": %d, "a": 1}\n' % (MAX_COMMODITY_DEMAND + 1))
    with pytest.raises(ValidationError, match=message):
        read_workload(str(path))


def test_active_set_admission_and_expiry():
    cs = [
        Commodity(id=0, sd=NodePair(0, 1), demand=4, arrival=1, deadline=4),
        Commodity(id=1, sd=NodePair(0, 2), demand=4, arrival=5, deadline=10),
        Commodity(id=2, sd=NodePair(1, 2), demand=4, arrival=2),
    ]
    at1 = active_set(cs, 1)
    assert [c.id for c in at1] == [0]
    assert cs[1].status == PENDING

    at5 = active_set(cs, 5)
    assert [c.id for c in at5] == [2, 1]
    assert cs[0].status == EXPIRED
    assert cs[0].expired_slot == 5

    # deadline slot itself still counts
    cs2 = [Commodity(id=0, sd=NodePair(0, 1), demand=4, arrival=1, deadline=4)]
    assert [c.id for c in active_set(cs2, 4)] == [0]


def test_active_set_skips_satisfied_and_terminal():
    done = Commodity(id=0, sd=NodePair(0, 1), demand=4, arrival=1)
    done.remaining = 0
    assert active_set([done], 2) == []
    done.status = COMPLETED
    assert active_set([done], 3) == []


def test_active_set_marks_active():
    c = Commodity(id=0, sd=NodePair(0, 1), demand=4, arrival=2, deadline=9)
    active_set([c], 2)
    assert c.status == ACTIVE


def test_workload_jsonl_round_trip(tmp_path):
    cmds = [
        Commodity(id=0, sd=canonical_pair(3, 1), demand=7, arrival=2, deadline=9),
        Commodity(id=1, sd=canonical_pair(0, 2), demand=3, arrival=4),
    ]
    path = tmp_path / "wl.jsonl"
    write_workload(cmds, str(path))
    back = read_workload(str(path))
    assert back == cmds

    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": 0}\n')
    with pytest.raises(ValidationError):
        read_workload(str(bad))


def test_workload_line_that_does_not_parse_is_named_by_file_and_number(tmp_path):
    path = tmp_path / "wl.jsonl"
    write_workload([Commodity(id=0, sd=canonical_pair(0, 1), demand=3, arrival=1)], str(path))
    path.write_text(path.read_text() + "\n" + '{"id": 1, "s": 0, "t": 1, "d": 3, "a": [' + "\n")
    with pytest.raises(ValidationError,
                       match=re.escape(f"cannot read workload {path} line 3: JSONDecodeError: ")):
        read_workload(str(path))

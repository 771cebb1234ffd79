"""Every count the package takes follows one whole-number rule,
`topology._whole`, and every real parameter one real-number rule,
`topology._real`."""

import json
import math
from dataclasses import fields

import numpy as np
import pytest

from conftest import star_net
from entsched import cli
from entsched.engine import run_simulation
from entsched.mred import build_mred, deadline_verdict
from entsched.protocol import ProtocolConfig
from entsched.scheduler import POLICY_BASELINE, SchedulerState, new_state
from entsched.topology import (
    NodePair,
    ValidationError,
    _real,
    _whole,
    build_manual,
    check_waxman_params,
    generate_waxman,
    sample_sd_pairs,
)
from entsched.workload import (
    MAX_COMMODITY_DEMAND,
    MAX_DEADLINE_SCALE,
    MAX_DEMAND,
    PENDING,
    Commodity,
    DeadlineSpec,
    WorkloadConfig,
    generate_workload,
)

NODES = [(0, 0.9), (1, 0.9), (2, 0.9)]
WAXMAN = {"alpha": 0.8, "beta": 0.8, "p": 0.9, "q": 0.9}
AB = NodePair(0, 1)


def _waxman(n=4, cap_lo=1, cap_hi=4):
    return check_waxman_params(n, WAXMAN["alpha"], WAXMAN["beta"], cap_lo, cap_hi,
                               WAXMAN["p"], WAXMAN["q"])


def _workload_config(min_demand=2, horizon=3):
    return WorkloadConfig(rate=1.0, mean_demand=4.0, min_demand=min_demand, horizon=horizon)


def _run(**kwargs):
    return run_simulation(star_net(), [Commodity(id=0, sd=AB, demand=6, arrival=1)],
                          POLICY_BASELINE, **kwargs).metrics


def _sweep(tmp_path, key, v):
    """The results a tiny sweep writes with `key` of its arguments set to `v`."""
    out = tmp_path / f"sweep-{key}-{v!r}"
    args = cli.build_parser().parse_args([
        "sweep", "--axis", "arrival-rate", "--values", "1", "--seeds", "1",
        "--policies", POLICY_BASELINE, "--nodes", "4", "--horizon", "2", "--mean-demand", "3",
        "--horizon-cap", "20", "--out-dir", str(out)])
    setattr(args, key, v)
    assert cli.cmd_sweep(args) == 0
    results = json.loads((out / "results.json").read_text())
    if key in results["base"]:
        return results["base"][key]
    return {name: value for name, value in results["runs"][0]["metrics"].items()
            if name != "wall_ms"}


# (input, a valid whole value k, its least value or None, a call passing v that
# returns what it stored or recorded of v; where nothing records v, as for a
# seed or a draw count, the call returns what v drew, which must equal k's)
CASES = [
    # no other id or endpoint is 1, so truncating 1.5 or True to 1 would pass
    ("build_manual node id", 0, None, lambda v: min(build_manual([(v, 0.9), (2, 0.9)], []).q)),
    ("build_manual link endpoint", 0, None,
     lambda v: build_manual(NODES, [(v, 2, 1, 0.9)]).sorted_links[0].lo),
    ("build_manual capacity", 2, 1,
     lambda v: build_manual(NODES, [(0, 1, v, 0.9)]).links[AB].capacity),
    ("build_manual sd endpoint", 0, None,
     lambda v: build_manual(NODES, [(0, 2, 1, 0.9)], [(v, 2)]).sorted_sd[0].lo),
    ("waxman n", 4, 1, lambda v: _waxman(n=v)[0]),
    ("waxman cap_lo", 2, 1, lambda v: _waxman(cap_lo=v)[1]),
    ("waxman cap_hi", 3, 1, lambda v: _waxman(cap_hi=v)[2]),
    ("waxman seed", 3, 0, lambda v: generate_waxman(4, cap_lo=1, cap_hi=4, seed=v, **WAXMAN)),
    ("sd pair count", 2, 0, lambda v: sample_sd_pairs(star_net(), v, seed=1)),
    ("sd pair seed", 3, 0, lambda v: sample_sd_pairs(star_net(), 2, seed=v)),
    ("commodity id", 0, None, lambda v: Commodity(id=v, sd=AB, demand=3, arrival=1).id),
    ("commodity demand", 3, 1, lambda v: Commodity(id=0, sd=AB, demand=v, arrival=1).demand),
    ("commodity arrival", 2, 1, lambda v: Commodity(id=0, sd=AB, demand=3, arrival=v).arrival),
    ("commodity deadline", 4, 2,
     lambda v: Commodity(id=0, sd=AB, demand=3, arrival=2, deadline=v).deadline),
    ("workload min_demand", 2, 1, lambda v: _workload_config(min_demand=v).min_demand),
    ("workload horizon", 3, 0, lambda v: _workload_config(horizon=v).horizon),
    ("workload seed", 5, 0, lambda v: generate_workload(_workload_config(), [AB], seed=v)),
    ("kappa", 2, 1, lambda v: new_state(star_net(), POLICY_BASELINE, kappa=v).kappa),
    ("cascade_depth", 2, 1, lambda v: ProtocolConfig(cascade_depth=v).cascade_depth),
    ("max_buffer_age", 3, 0, lambda v: ProtocolConfig(max_buffer_age=v).max_buffer_age),
    ("run horizon_cap", 2, 0, lambda v: _run(horizon_cap=v).slots),
    ("run seed", 3, 0, lambda v: _run(seed=v).seed),
]
SWEEP_CASES = [("kappa", 2, 1), ("horizon_cap", 2, 0), ("workers", 1, 1)]


def _check(call, k, least):
    for bad in (1.5, True) + (() if least is None else (least - 1,)):
        with pytest.raises(ValidationError):
            call(bad)
    want = call(k)
    for v in (np.int64(k), float(k)):
        got = call(v)
        assert type(got) is type(want) and got == want, (v, got, want)
    return want


@pytest.mark.parametrize("what, k, least, call", CASES, ids=[c[0] for c in CASES])
def test_every_count_is_whole_and_in_range(what, k, least, call):
    want = _check(call, k, least)
    if isinstance(want, int):
        assert want == k


@pytest.mark.parametrize("key, k, least", SWEEP_CASES, ids=[c[0] for c in SWEEP_CASES])
def test_every_sweep_count_is_whole_and_in_range(tmp_path, key, k, least):
    want = _check(lambda v: _sweep(tmp_path, key, v), k, least)
    if key != "workers":
        assert want == k


@pytest.mark.parametrize("v", [math.inf, -math.inf, math.nan, "3", None, 2 + 0j, np.bool_(True)])
def test_whole_refuses_a_value_that_is_not_a_whole_number(v):
    with pytest.raises(ValidationError, match=r"^count must be a whole number, got "):
        _whole(v, "count")


def test_whole_names_the_bound_a_value_breaks():
    assert _whole(np.uint8(7), "count", 7, 7) == 7
    with pytest.raises(ValidationError, match=r"^count must be >= 2, got 1$"):
        _whole(1.0, "count", 2)
    with pytest.raises(ValidationError, match=r"^count 9 exceeds the maximum 8$"):
        _whole(np.int64(9), "count", most=8)


def test_a_commodity_and_a_scheduler_state_take_only_their_request():
    # the run's tracking fields were once settable, so a commodity owing
    # 1.5 ebits with status "bogus" passed no whole-number check
    assert [f.name for f in fields(Commodity) if f.init] == ["id", "sd", "demand", "arrival",
                                                             "deadline"]
    assert [f.name for f in fields(SchedulerState) if f.init] == ["policy", "net", "model",
                                                                  "kappa"]
    with pytest.raises(TypeError, match="remaining"):
        Commodity(id=0, sd=AB, demand=3, arrival=1, remaining=1.5)
    c = Commodity(id=0, sd=AB, demand=3.0, arrival=1)
    assert (type(c.remaining), c.remaining, c.status, c.completed_slot, c.expired_slot) == (
        int, 3, PENDING, None, None)
    state = new_state(star_net(), POLICY_BASELINE)
    assert (state.plan, state.fingerprint, state.events) == (None, None, [])


def _up(x):
    return math.nextafter(x, math.inf)


def _down(x):
    return math.nextafter(x, -math.inf)


def _verdict(theta, delta):
    return deadline_verdict(build_mred(star_net()), [], (AB, theta, delta))


def _wax(alpha=0.8, beta=0.8, p=0.9, q=0.9):
    return check_waxman_params(4, alpha, beta, 1, 4, p, q)


# (input, a call passing v, values at its interval's ends that it takes, values
# just past them that it refuses); every end stays open or closed as it was
# before one rule checked it
REALS = [
    ("build_manual q", lambda v: build_manual([(0, v)], []), [5e-324, 1], [0.0, _up(1.0)]),
    ("build_manual p", lambda v: build_manual(NODES, [(0, 1, 1, v)]), [5e-324, 1],
     [0.0, _up(1.0)]),
    ("waxman alpha", lambda v: _wax(alpha=v), [5e-324, 1e308], [0.0]),
    ("waxman beta", lambda v: _wax(beta=v), [5e-324, 1], [0.0, _up(1.0)]),
    ("waxman p", lambda v: _wax(p=v), [5e-324, 1], [0.0, _up(1.0)]),
    ("waxman q", lambda v: _wax(q=v), [5e-324, 1], [0.0, _up(1.0)]),
    ("workload rate", lambda v: WorkloadConfig(v, 4.0, 2, 3), [0, 1e3], [-5e-324]),
    ("workload mean_demand", lambda v: WorkloadConfig(1.0, v, 2, 3), [5e-324, MAX_DEMAND],
     [0.0, _up(MAX_DEMAND)]),
    ("deadline mu", lambda v: DeadlineSpec(v, 0.1), [_up(0.1)], [0.1]),
    ("deadline halfwidth", lambda v: DeadlineSpec(0.4, v), [0, _down(0.4)], [-5e-324, 0.4]),
    ("deadline factor", lambda v: DeadlineSpec(0.4, 0.1, v), [1e-300, MAX_DEADLINE_SCALE / 0.5],
     [0.0, _up(MAX_DEADLINE_SCALE / 0.5)]),
    ("remaining demand", lambda v: _verdict(v, 4.0), [0, MAX_COMMODITY_DEMAND],
     [-5e-324, _up(MAX_COMMODITY_DEMAND)]),
    ("remaining slots", lambda v: _verdict(3.0, v), [1, 1e300], [_down(1.0)]),
]
NOT_REALS = [True, "0.5", None, math.nan, math.inf, -math.inf]
# the three forms of a refusal: not a finite number, below the least value or
# at most the open end, past the maximum
REFUSAL = (r"^[^\n]*( must be a finite number, got [^\n]+| must be >=? \S+, got \S+"
           r"| \S+ exceeds the maximum \S+)\Z")


@pytest.mark.parametrize("what, call, ends, past", REALS, ids=[c[0] for c in REALS])
def test_every_real_parameter_is_finite_and_in_range(what, call, ends, past):
    for v in ends:
        call(v)
        call(np.float64(v))
    for v in NOT_REALS + past:
        with pytest.raises(ValidationError, match=REFUSAL):
            call(v)


def test_real_names_the_fault_it_refuses():
    assert [(type(x), x) for x in (_real(np.float32(0.5), "x"), _real(np.int64(3), "x", 3, 3),
                                   _real(2**53, "x"))] == [(float, 0.5), (float, 3.0),
                                                            (float, 2.0**53)]
    for v, message in [(True, "x must be a finite number, got True"),
                       ("1", "x must be a finite number, got '1'"),
                       (10**400, "x must be a finite number, got 1" + "0" * 400),
                       (-1, "x must be >= 0, got -1"),
                       (0.0, "x must be > 0, got 0.0"),
                       (2.5, "x 2.5 exceeds the maximum 2")]:
        with pytest.raises(ValidationError) as refused:
            _real(v, "x", 0, 2, above=0)
        assert str(refused.value) == message

"""The direct HiGHS backend: status mapping, post-solve check, input forms."""

import json
import math
import os
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import event, given, seed, settings
from hypothesis import strategies as st
from scipy.optimize._highspy._core import HighsModelStatus
from scipy.optimize._linprog_highs import _highs_to_scipy_status_message

from conftest import LINPROG_STATUS, against_linprog
from entsched import cli, lp, mred
from entsched.lp import LpStatus, SolverError, check_point, classify
from entsched.topology import generate_waxman, sample_sd_pairs

SRC = Path(__file__).resolve().parents[1] / "src"
TESTS = Path(__file__).resolve().parent
CORE = "scipy.optimize._highspy._core"


@pytest.mark.parametrize("model_status", list(HighsModelStatus.__members__.values()),
                         ids=list(HighsModelStatus.__members__))
def test_status_mapping_matches_linprog_except_model_error(model_status):
    scipy_status, _ = _highs_to_scipy_status_message(model_status, "")
    # LINPROG_STATUS is how a linprog-based backend reads linprog's status
    expected = LINPROG_STATUS.get(scipy_status)
    if model_status == HighsModelStatus.kModelError:
        # linprog read a model HiGHS refused to load as infeasible
        assert expected == LpStatus.INFEASIBLE
        expected = None
    if expected is None:
        # any other status comes back by its name, for the planner to judge
        assert classify(model_status) == f"HiGHS model status {model_status.name}"
    else:
        assert classify(model_status) == expected


# a column of bounds [0, 1], one of [0, 1] and one with a surplus lower
# bound of 17; a held row with b_ub = -17 and an equality row with b_eq = 0
BOUNDS = np.array([(0.0, 1.0), (0.0, 1.0), (17.0, np.inf)])


def _check(x=(0.5, 1.0, 17.0), objective=1.0, ub_slack=(0.0,), eq_residual=(0.0,)):
    check_point(np.array(x, dtype=float), objective, BOUNDS, np.array([-17.0]),
                np.array(ub_slack, dtype=float), np.zeros(1), np.array(eq_residual, dtype=float))


def _out(bound: float, times: float) -> float:
    """`times` margins of `bound` past it."""
    return times * lp.margin(bound)


@pytest.mark.parametrize("v", [0.0, -1e-9, 0.5, 1.0, -17.0, 17.0, 3e8, -2.5e12, 1e-300])
def test_a_scalar_margin_is_the_written_rule(v):
    assert lp.margin(v) == 1e-7 * max(1.0, abs(v))
    assert lp.margin(np.array([v]))[0] == lp.margin(v)


def test_check_accepts_a_point_within_tolerance():
    _check(x=(-_out(0.0, 0.5), 1 + _out(1.0, 0.5), 17 - _out(17.0, 0.5)),
           ub_slack=(-_out(-17.0, 0.5),), eq_residual=(-_out(0.0, 0.5),))
    _check(eq_residual=(_out(0.0, 0.5),))
    # an infinite bound checks nothing on its side
    _check(x=(0.5, 1.0, 1e300))


@pytest.mark.parametrize("case", [
    {"x": (np.nan, 0.5, 17.0)},
    {"x": (0.5, np.inf, 17.0)},
    {"objective": np.nan},
    {"x": (-_out(0.0, 2), 0.5, 17.0)},
    {"x": (0.5, 1 + _out(1.0, 2), 17.0)},
    {"x": (0.5, 0.5, 17 - _out(17.0, 2))},
    {"ub_slack": (-_out(-17.0, 2),)},
    {"eq_residual": (_out(0.0, 2),)},
    {"eq_residual": (-_out(0.0, 2),)},
    {"ub_slack": (np.nan,)},
    {"eq_residual": (np.nan,)},
], ids=["nan-x", "inf-x", "nan-objective", "below-lower", "above-upper", "below-surplus-bound",
        "ub-slack", "eq-residual-high", "eq-residual-low", "nan-slack", "nan-residual"])
def test_check_rejects_an_infeasible_point(case):
    with pytest.raises(SolverError, match="optimal point"):
        _check(**case)


def _csc(shape, indptr, indices, data) -> lp.CscMatrix:
    """A `lp.CscMatrix` written out column by column, with the backend's dtypes."""
    return lp.CscMatrix(shape, np.array(indptr, dtype=np.int32),
                        np.array(indices, dtype=np.int32), np.array(data, dtype=float))


def _no_rows(n: int) -> lp.CscMatrix:
    return _csc((0, n), [0] * (n + 1), [], [])


NONE = np.zeros(0)
FREE, NONNEG = (-np.inf, np.inf), (0.0, np.inf)
# the held row x + y <= 4
SUM_AT_MOST_4 = ({0: 1.0, 1: 1.0}, 4.0)


def test_highs_infinity_is_inf():
    # bounds and right-hand sides reach HiGHS as they are, ±inf for none
    assert lp._highs.kHighsInf == math.inf


def test_linprog_input_forms():
    # held rows only, bounded columns, eq rows only with a free column, infinite upper bounds
    minus = _csc((1, 2), [0, 1, 2], [0, 0], [1, -1])
    with against_linprog():
        solve = lp.get_backend().solve
        solve(np.array([-1.0, -2.0]), A_eq=_no_rows(2), b_eq=NONE, ub_rows=[SUM_AT_MOST_4],
              bounds=np.array([NONNEG, NONNEG]))
        solve(np.array([-1.0, -2.0]), A_eq=_no_rows(2), b_eq=NONE, ub_rows=[SUM_AT_MOST_4],
              bounds=np.array([(0.0, 3.0), (0.0, 3.0)]))
        solve(np.array([1.0, 1.0]), A_eq=minus, b_eq=np.array([1.0]), ub_rows=[],
              bounds=np.array([FREE, NONNEG]))
        solve(np.array([-1.0, 0.0]), A_eq=minus, b_eq=np.array([0.0]), ub_rows=[],
              bounds=np.array([NONNEG, NONNEG]))
        solve(np.array([1.0, 1.0]), A_eq=_no_rows(2), b_eq=NONE,
              ub_rows=[({1: -1.0, 0: -1.0}, -3.0)], bounds=np.array([(0.0, 1.0), (0.0, 1.0)]))


WIDE = _csc((1, 3), [0, 1, 1, 2], [0, 0], [1, 1])
# a held row that names a third column
WIDE_ROW = [({0: 1.0, 2: 1.0}, 1.0)]


@pytest.mark.parametrize("program, message", [
    ({"ub_rows": WIDE_ROW}, "kModelError"),
    ({"A_eq": WIDE, "b_eq": np.ones(1)}, "2 costs for 3 matrix columns"),
    ({"ub_rows": WIDE_ROW, "A_eq": WIDE, "b_eq": np.ones(1)}, "2 costs for 3 matrix columns"),
    ({"A_eq": _csc((1, 0), [0], [], []), "b_eq": np.ones(1)}, "2 costs for 0 matrix columns"),
], ids=["ub", "eq", "both", "no-columns"])
def test_matrices_whose_width_is_not_the_costs_are_a_solver_error(program, message):
    program = {"A_eq": _no_rows(2), "b_eq": NONE, "ub_rows": [],
               "bounds": np.array([NONNEG, NONNEG]), **program}
    with pytest.raises(SolverError, match=message):
        lp.get_backend().solve(np.ones(2), **program)


@pytest.mark.parametrize("column", [5, -1])
def test_a_held_row_naming_a_column_outside_the_program_is_a_solver_error(column):
    # HiGHS refuses the row, so no solve runs without it
    with pytest.raises(SolverError, match="kModelError"):
        lp.get_backend().solve(np.ones(2), A_eq=_no_rows(2), b_eq=NONE,
                               ub_rows=[({0: 1.0, column: 1.0}, 1.0)],
                               bounds=np.array([NONNEG, NONNEG]))


# max x + 2y subject to the balance row x + y - z == 0 and held rows on z
# and x - y: z <= 4 is the start's program, x - y <= 1 the row appended
THREE = dict(A_eq=_csc((1, 3), [0, 1, 2, 3], [0, 0, 0], [1, 1, -1]), b_eq=np.zeros(1),
             bounds=np.array([NONNEG] * 3))
Z_AT_MOST_4, X_LESS_Y_AT_MOST_1 = ({2: 1.0}, 4.0), ({0: 1.0, 1: -1.0}, 1.0)


def _start():
    """The optimal basis of max x + 2y subject to x + y - z == 0, z <= 4 and
    x, y, z >= 0: one balance row and one held row."""
    return lp.get_backend().solve(np.array([-1.0, -2.0, 0.0]), ub_rows=[Z_AT_MOST_4],
                                  **THREE).basis


def test_a_start_basis_takes_a_basic_slack_for_each_new_row():
    # the appended row's slack is basic at the end of the rows, after the
    # start's balance and held rows, so the start is optimal as it stands
    start = _start()
    with against_linprog() as backend:
        res = lp.get_backend().solve(np.array([-1.0, -2.0, 0.0]),
                                     ub_rows=[Z_AT_MOST_4, X_LESS_Y_AT_MOST_1], start=start,
                                     **THREE)
    assert backend.warm == 1
    assert res.objective == -8.0 and res.iterations == 0
    basic = lp._highs.HighsBasisStatus.kBasic
    assert res.basis.row_status == start.row_status + [basic]


@pytest.mark.parametrize("program, message", [
    ({"c": -np.ones(4), "A_eq": _csc((1, 4), [0, 1, 2, 3, 3], [0, 0, 0], [1, 1, -1]),
      "ub_rows": [Z_AT_MOST_4], "bounds": np.array([NONNEG] * 4)},
     "HiGHS refused the start basis"),
    ({"c": -np.ones(3), "A_eq": _no_rows(3), "ub_rows": [Z_AT_MOST_4],
      "bounds": np.array([NONNEG] * 3)},
     "a start basis of 2 rows for 1 rows"),
], ids=["more-columns", "fewer-rows"])
def test_a_start_basis_that_does_not_fit_is_a_solver_error(program, message):
    # no cold solve stands in for a refused start
    with pytest.raises(SolverError, match=message):
        lp.get_backend().solve(b_eq=np.zeros(program["A_eq"].shape[0]), start=_start(),
                               **program)


def test_a_start_with_fewer_rows_than_the_balance_rows_is_a_solver_error():
    # the start's two rows are a prefix of no program with three balance rows
    with pytest.raises(SolverError, match="a start basis of 2 rows for 3 rows"):
        lp.get_backend().solve(np.array([-1.0, -2.0, 0.0]),
                               A_eq=_csc((3, 3), [0, 1, 2, 3], [0, 1, 2], [1, 1, 1]),
                               b_eq=np.zeros(3), ub_rows=[], bounds=np.array([NONNEG] * 3),
                               start=_start())


def _swap_highs(monkeypatch, Highs) -> None:
    """Hand the backend a copy of the HiGHS bindings whose solver is `Highs`."""
    bindings = types.SimpleNamespace(**{**vars(lp._highs), "_Highs": Highs})
    monkeypatch.setattr(lp, "_highs", bindings)


def test_set_basis_gets_the_start_itself_after_its_own_held_rows(monkeypatch):
    # the start holds the balance row and its one held row; the second
    # held row is appended after setBasis, which gets the start untouched
    start = _start()
    calls = []

    class Highs(lp._highs._Highs):
        def passModel(self, *args):
            calls.append(("passModel", args[1]))
            return super().passModel(*args)

        def addRows(self, *args):
            calls.append(("addRows", args[0]))
            return super().addRows(*args)

        def setBasis(self, basis):
            calls.append(("setBasis", basis))
            return super().setBasis(basis)

    _swap_highs(monkeypatch, Highs)
    program = dict(ub_rows=[Z_AT_MOST_4, X_LESS_Y_AT_MOST_1], **THREE)
    lp.get_backend().solve(np.array([-1.0, -2.0, 0.0]), start=start, **program)
    assert calls == [("passModel", 1), ("addRows", 1), ("setBasis", start), ("addRows", 1)]
    assert calls[2][1] is start
    calls.clear()
    lp.get_backend().solve(np.array([-1.0, -2.0, 0.0]), **program)
    assert calls == [("passModel", 1), ("addRows", 2)]


def test_a_status_short_of_optimal_is_a_solver_error_naming_the_stage(monkeypatch):
    # the backend returns the status by its name; the stage that asked raises
    class Highs(lp._highs._Highs):
        def getModelStatus(self):
            return lp._highs.HighsModelStatus.kIterationLimit

    net = sample_sd_pairs(generate_waxman(6, 0.8, 0.8, 1, 3, 0.9, 0.9, seed=0), 2, seed=1)
    m = mred.build_mred(net)
    _swap_highs(monkeypatch, Highs)
    with pytest.raises(SolverError, match="^total stage: .*kIterationLimit$"):
        mred.solve_max_total(net, m)


@pytest.fixture
def option_log(monkeypatch):
    """Each fresh solver's setOptionValue calls, in order, through a
    bindings copy whose _Highs records them before passing them on."""
    log = []

    class Highs(lp._highs._Highs):
        def __init__(self):
            super().__init__()
            log.append([])

        def setOptionValue(self, *args):
            log[-1].append(args)
            return super().setOptionValue(*args)

    _swap_highs(monkeypatch, Highs)
    return log


# a program whose every matrix entry has a magnitude in [0.1, 10] runs
# unscaled with Dantzig pricing; any other runs with the base options
BANDED = (*lp._OPTIONS, ("simplex_scale_strategy", 0), ("simplex_primal_edge_weight_strategy", 0))


def test_a_cold_and_a_warm_solve_set_the_same_options(option_log):
    # the options follow the program's matrix, not its start: in band, then
    # the same program with one held coefficient out of it
    start = _start()
    for coefficient, options, objective in [(-1.0, BANDED, -8.0), (1e3, lp._OPTIONS, -1.0)]:
        option_log.clear()
        program = dict(ub_rows=[Z_AT_MOST_4, ({0: 1.0, 1: coefficient}, 1.0)], **THREE)
        cold = lp.get_backend().solve(np.array([-1.0, -2.0, 0.0]), **program)
        warm = lp.get_backend().solve(np.array([-1.0, -2.0, 0.0]), start=start, **program)
        assert cold.objective == warm.objective == objective
        assert option_log == [list(options)] * 2
    assert ("presolve", "off") in lp._OPTIONS and ("simplex_strategy", 4) in lp._OPTIONS


# the edge value sits in a held row (id A_ub, linprog's name for the
# inequality rows) or in the balance rows A_eq, with 1 in the other
@pytest.mark.parametrize("matrix", ["A_ub", "A_eq"])
@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["positive", "negative"])
@pytest.mark.parametrize("magnitude, options", [
    (0.1, BANDED), (10.0, BANDED), (0.099, lp._OPTIONS), (10.01, lp._OPTIONS),
])
def test_the_band_holds_both_its_edges(option_log, matrix, sign, magnitude, options):
    edge = sign * magnitude
    held, balance = (edge, 1.0) if matrix == "A_ub" else (1.0, edge)
    res = lp.get_backend().solve(np.array([-1.0]), A_eq=_csc((1, 1), [0, 1], [0], [balance]),
                                 b_eq=np.zeros(1), ub_rows=[({0: held}, 1.0)],
                                 bounds=np.array([(0.0, 1.0)]))
    assert res.objective == 0.0
    assert option_log == [list(options)]


def _statuses(basis):
    return None if basis is None else ([int(v) for v in basis.col_status],
                                       [int(v) for v in basis.row_status])


@seed(0x8186f63b1b7aa497fb062e978598214862a55548769d69f92eb6305c69d5af6d5855f1826a6fc923c776d925a6bf5b35)
@settings(max_examples=20, deadline=None, derandomize=True)
@given(nodes=st.integers(4, 10), net_seed=st.integers(0, 10_000), sd_count=st.integers(1, 4),
       share=st.floats(0.1, 0.99), delta=st.integers(1, 12))
def test_a_program_gives_bitwise_equal_results_on_two_fresh_models(nodes, net_seed, sd_count,
                                                                   share, delta):
    # every planner's programs on one model, and again in the reverse order
    # on another: each program has one start, so whatever the model solved
    # before, it must come out the same, iterations and basis included
    net = generate_waxman(nodes, alpha=0.8, beta=0.8, cap_lo=1, cap_hi=3, p=0.9, q=0.9,
                          seed=net_seed)
    net = sample_sd_pairs(net, sd_count, seed=net_seed + 1)
    ranked = mred.solve_lexicographic(net, net.sorted_sd[::-1], mred.build_mred(net))
    probe = [(sd, share * ranked.eta.get(sd, 0.0) * delta, float(delta)) for sd in net.sorted_sd]
    planners = [
        lambda m: mred.solve_max_total(net, m),
        lambda m: mred.solve_lexicographic(net, net.sorted_sd[::-1], m),
        lambda m: mred.solve_single_pair_edr(net, net.sorted_sd[0], m),
        lambda m: mred.build_and_check_mred_dc(net, probe, m),
        lambda m: mred.build_and_check_mred_dc(net, [(net.sorted_sd[0], 1e6, 1.0)], m),
    ]
    models = mred.build_mred(net), mred.build_mred(net)
    for plan in planners:
        plan(models[0])
    for plan in planners[::-1]:
        plan(models[1])
    first, second = (m._optima for m in models)
    assert first.keys() == second.keys()
    if any(lower for _, _, lower in first):
        event("a need-bounded program")
    for key, a in first.items():
        b = second[key]
        assert (a.status, a.objective, a.iterations) == (b.status, b.objective, b.iterations)
        assert np.array_equal(a.x, b.x)
        assert _statuses(a.basis) == _statuses(b.basis)


def test_oversized_coefficient_is_a_solver_error_not_infeasible():
    with pytest.raises(SolverError, match="kModelError"):
        lp.get_backend().solve(np.array([-1.0]), A_eq=_no_rows(1), b_eq=NONE,
                               ub_rows=[({0: 1e19}, 1.0)], bounds=np.array([NONNEG]))


def _fresh(script: str) -> subprocess.CompletedProcess:
    """`script` run in a fresh interpreter that imports the package from
    `src/` and the test helpers from `tests/`."""
    path = os.pathsep.join((str(SRC), str(TESTS)))
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)


def _simulate_without_bindings(tmp_path, prelude: str) -> None:
    """Run `simulate` in a fresh interpreter after `prelude` and check
    that it ends with exit 2 and the one line naming the bindings."""
    net, load = tmp_path / "net.json", tmp_path / "load.jsonl"
    assert cli.main(["gen-topology", "--nodes", "5", "--sd-count", "2", "--seed", "3",
                     "--out", str(net)]) == 0
    assert cli.main(["gen-workload", "--net", str(net), "--rate", "0.6", "--mean-demand", "3",
                     "--min-demand", "1", "--horizon", "5", "--seed", "5",
                     "--out", str(load)]) == 0
    proc = _fresh(
        f"{prelude}; from entsched import cli; "
        f"sys.exit(cli.main(['simulate', '--net', {str(net)!r}, '--workload', {str(load)!r}, "
        "'--policy', 'ESDI-B', '--seed', '1']))"
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith("solver error: scipy-highs: cannot load scipy's HiGHS bindings")
    assert scipy.__version__ in lines[0]


def test_missing_bindings_end_simulate_with_one_solver_line(tmp_path):
    # a None entry in sys.modules makes importing the bindings fail
    _simulate_without_bindings(tmp_path, f"import sys; sys.modules[{CORE!r}] = None")


def test_missing_extension_file_ends_simulate_with_one_solver_line(tmp_path):
    # the extension lookup finds no _core file; every other lookup is untouched
    _simulate_without_bindings(tmp_path, (
        "import sys, importlib.machinery as m; find = m.FileFinder.find_spec; "
        f"m.FileFinder.find_spec = lambda self, name, target=None: "
        f"None if name == {CORE!r} else find(self, name, target)"
    ))


def test_the_package_imports_neither_scipy_optimize_nor_scipy_sparse():
    proc = _fresh(
        "import json, sys, entsched, entsched.cli; from entsched import lp; "
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m.startswith(('scipy.optimize', 'scipy.sparse'))))); "
        f"print(lp._highs is sys.modules[{CORE!r}] is not None)"
    )
    assert proc.returncode == 0, proc.stderr
    loaded, shared = proc.stdout.splitlines()
    loaded = json.loads(loaded)
    # the extension registers its own submodules under its name
    assert [m for m in loaded if not m.startswith(CORE)] == []
    assert CORE in loaded
    assert shared == "True"


@pytest.mark.parametrize("scipy_first", [True, False], ids=["scipy-first", "entsched-first"])
def test_scipy_optimize_and_the_package_share_one_extension_module(scipy_first):
    proc = _fresh(("import scipy.optimize\n" if scipy_first else "") + textwrap.dedent(f"""
        import sys
        from entsched import lp, mred
        import scipy.optimize
        from scipy.optimize._highspy import _core, _highs_wrapper
        print(lp._highs is _core is _highs_wrapper._h is sys.modules[{CORE!r}])
        from conftest import against_linprog, star_net
        net = star_net()
        model = mred.build_mred(net)
        with against_linprog() as backend:
            mred.solve_max_total(net, model)
        print(model.solves, backend.warm)
    """))
    assert proc.returncode == 0, proc.stderr
    # both stages of the plan were solved, each matching linprog's optimum,
    # and the min_share stage from the total's basis
    assert proc.stdout.splitlines() == ["True", "2 1"]

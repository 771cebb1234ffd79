"""The package's export list stays in step with what the package holds."""

import ast
import builtins
import types
from collections import Counter
from pathlib import Path

import entsched


def test_export_list_is_sorted_unique_and_resolves():
    names = entsched.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(entsched, n)] == []
    # every public name the package imports is exported, so dropping an
    # export means dropping its import too
    public = {n for n, v in vars(entsched).items()
              if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert public == set(names)


# the nodes that read a name: as a name, an attribute or an import
READERS = (ast.Name, ast.Attribute, ast.alias)


def _name(node: ast.AST) -> str:
    """The name a `READERS` node reads."""
    return node.id if isinstance(node, ast.Name) else node.attr if isinstance(
        node, ast.Attribute) else node.name


def _names(node: ast.AST) -> set[str]:
    """The names `node` reads anywhere within it."""
    return {_name(n) for n in ast.walk(node) if isinstance(n, READERS)}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def test_every_top_level_definition_is_used_outside_the_tests():
    # a function or class only the tests call is code the package does not
    # run; it is used when another top-level statement of the package (an
    # import in `__init__` counts) or the benchmark harness reads its name
    root = Path(__file__).resolve().parents[1]
    harness = set().union(*(_names(_parse(p)) for p in (root / "perfbench").glob("*.py")))
    tops = [(path.stem, node) for path in sorted((root / "src" / "entsched").glob("*.py"))
            for node in _parse(path).body]
    readers = Counter(name for _, node in tops for name in _names(node))
    unused = [f"{module}.{node.name}" for module, node in tops
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and node.name not in harness
              # a definition that reads its own name does not count as a reader
              and readers[node.name] == (node.name in _names(node))]
    assert unused == []


# the exception of each exit code: 1 bad input, 2 the LP solver, 3 a broken invariant
EXIT_EXCEPTIONS = {"ValidationError", "SolverError", "ConservationError"}


def _raised(exc: ast.expr) -> str:
    """The name a `raise` statement raises: the class it calls or names."""
    if isinstance(exc, ast.Call):
        exc = exc.func
    return exc.id if isinstance(exc, ast.Name) else ast.unparse(exc)


def test_the_package_raises_one_exception_per_exit_code():
    # the CLI maps each exception to its exit code, so a fourth type would
    # end in a traceback or share a code with one of the three
    package = Path(__file__).resolve().parents[1] / "src" / "entsched"
    trees = {path.stem: _parse(path) for path in sorted(package.glob("*.py"))}
    bases = {node.name: {b.id for b in node.bases if isinstance(b, ast.Name)}
             for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef)}
    exceptions = {name for name, value in vars(builtins).items()
                  if isinstance(value, type) and issubclass(value, BaseException)}
    while grown := {name for name, names in bases.items() if names & exceptions} - exceptions:
        exceptions |= grown
    defined = set(bases) & exceptions
    stray = [f"{module}:{node.lineno} raises {_raised(node.exc)}"
             for module, tree in trees.items() for node in ast.walk(tree)
             if isinstance(node, ast.Raise) and node.exc is not None
             and _raised(node.exc) not in EXIT_EXCEPTIONS]
    assert (defined, stray) == (EXIT_EXCEPTIONS, [])


def _int_of_itself(node: ast.AST) -> bool:
    """Whether `node` compares `int(x)` with `x`, the truncation test of a
    whole number."""
    if not isinstance(node, ast.Compare):
        return False
    sides = [ast.dump(side) for side in (node.left, *node.comparators)]
    return any(isinstance(side, ast.Call) and isinstance(side.func, ast.Name)
               and side.func.id == "int" and len(side.args) == 1
               and ast.dump(side.args[0]) in sides
               for side in (node.left, *node.comparators))


def test_whole_numbers_have_one_rule():
    # `topology._whole` is the one check of a count; a module importing
    # `numbers` or comparing int(x) with x is checking one a second way
    package = Path(__file__).resolve().parents[1] / "src" / "entsched"
    stray = [f"{path.stem}:{node.lineno}" for path in sorted(package.glob("*.py"))
             for node in ast.walk(_parse(path))
             if _int_of_itself(node) or path.stem != "topology" and (
                 isinstance(node, ast.Import) and any(a.name == "numbers" for a in node.names)
                 or isinstance(node, ast.ImportFrom) and node.module == "numbers")]
    assert stray == []


def test_solved_values_have_one_margin():
    # `lp.margin` is the one judge of how far a solved value may stray; a
    # 1e-7 written anywhere else is a second margin
    package = Path(__file__).resolve().parents[1] / "src" / "entsched"
    stray = [f"{path.stem}:{node.lineno}" for path in sorted(package.glob("*.py"))
             if path.stem != "lp" for node in ast.walk(_parse(path))
             if isinstance(node, ast.Constant) and type(node.value) is float and node.value == 1e-7]
    assert stray == []


def test_real_numbers_have_one_rule():
    # `topology._real` is the one check of a real parameter; another module
    # reading `isfinite`, or a `_number` helper anywhere, checks one a
    # second way. `lp`'s `np.isfinite` judges solver output, not input
    package = Path(__file__).resolve().parents[1] / "src" / "entsched"
    stray = [f"{path.stem}:{node.lineno}" for path in sorted(package.glob("*.py"))
             for node in ast.walk(_parse(path))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "_number"
             or path.stem not in ("topology", "lp") and isinstance(node, READERS)
             and _name(node) == "isfinite"]
    assert stray == []

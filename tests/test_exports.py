"""The package's export list stays in step with what the package holds."""

import types

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

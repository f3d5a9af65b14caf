"""The source line counter: every line of the package is counted once, the
public names are those of ``tarst.__all__``, and the settable surface is
what the imported package's signatures and dataclass fields say."""

import dataclasses
import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

import tarst

ROOT = Path(__file__).resolve().parent.parent
LOC = ROOT / "tools" / "loc.py"


def _loc_module():
    spec = importlib.util.spec_from_file_location("loc", LOC)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_loc_counts_sum_to_each_files_line_count():
    out = subprocess.run([sys.executable, str(LOC)], capture_output=True, text=True,
                         check=True).stdout
    *table, names, surface = out.splitlines()
    assert names == f"public names: {len(tarst.__all__)}"
    assert surface == f"settable surface: {_loc_module().settable_surface()}"
    header, *rows = (line.split() for line in table)
    assert header == ["file", "code", "docstring", "blank", "comment", "lines"]
    files = sorted((ROOT / "src" / "tarst").glob("*.py"))
    lines = [len(p.read_text(encoding="utf-8").splitlines()) for p in files]
    assert [row[0] for row in rows] == [p.name for p in files] + ["total"]
    counts = [[int(v) for v in row[1:]] for row in rows]
    assert [sum(c[:4]) for c in counts] == [c[4] for c in counts]
    assert [c[4] for c in counts] == [*lines, sum(lines)]
    assert counts[-1] == [sum(col) for col in zip(*counts[:-1])]


def test_loc_kinds_of_lines(tmp_path):
    p = tmp_path / "m.py"
    p.write_text('"""Module\n\ndocstring."""\n\n# a comment\nimport os\n\n\n'
                 'class C:\n    """One line."""\n\n    def f(self):\n'
                 '        """Two\n        lines."""\n        x = "not a docstring"\n'
                 '        return x  # trailing comments are code\n')
    assert _loc_module().count(p) == {"code": 5, "docstring": 6, "blank": 4, "comment": 1}


def test_loc_settable_surface_matches_the_imported_package():
    def settable(obj):
        if dataclasses.is_dataclass(obj):
            return len(dataclasses.fields(obj))
        return len(inspect.signature(obj).parameters) if inspect.isfunction(obj) else 0

    assert _loc_module().settable_surface() == sum(settable(getattr(tarst, name))
                                                   for name in tarst.__all__)

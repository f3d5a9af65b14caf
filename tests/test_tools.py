"""The source line counter: every line of the package is counted once, the
public names are those of ``tarst.__all__``, the settable surfaces of the
package and of the benchmark harness are what the imported modules'
signatures and dataclass annotations say, and every public name is
referred to by the package or the benchmark. The package, tests, demos and
tools import no name they do not use. The paired benchmark comparison
summarizes fixed numbers as its docstring says, without the package."""

import ast
import dataclasses
import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

import tarst
from tarst import bench

ROOT = Path(__file__).resolve().parent.parent
LOC = ROOT / "tools" / "loc.py"


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_loc_counts_sum_to_each_files_line_count():
    out = subprocess.run([sys.executable, str(LOC)], capture_output=True, text=True,
                         check=True).stdout
    *table, names, surface, bench_surface, unreferenced = out.splitlines()
    loc = _tool("loc")
    assert names == f"public names: {len(tarst.__all__)}"
    assert surface == f"settable surface: {loc.settable_surface(loc._public())}"
    assert bench_surface == f"bench settable surface: {loc.settable_surface(loc._names('bench'))}"
    # a public name that nothing in the package or the benchmark calls fails
    # here: drop it, or call it
    assert unreferenced == "unreferenced public names: none"
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
    assert _tool("loc").count(p) == {"code": 5, "docstring": 6, "blank": 4, "comment": 1}


def test_loc_unreferenced_public_names(tmp_path, monkeypatch):
    pkg, bench_dir = tmp_path / "pkg", tmp_path / "bench"
    pkg.mkdir()
    bench_dir.mkdir()
    (pkg / "a.py").write_text(
        '__all__ = ["called", "unused", "traced", "imported", "attr", "defined"]\n\n\n'
        'def called(called=1):\n    return called\n\n\n'
        'def unused(unused=0):\n    return "unused " + "x"\n\n\n'
        'def defined():\n    pass\n\n\ndefined = 2\n')
    (pkg / "__init__.py").write_text('from .a import *\n__all__ = ["__version__"]\n')
    (pkg / "b.py").write_text('from .a import imported\n__all__ = ["unused"]\n'
                              'y = called()\nz = pkg.attr\n')
    (bench_dir / "t.py").write_text('TRACED = (("a", "traced"),)\n')
    loc = _tool("loc")
    monkeypatch.setattr(loc, "PACKAGE", pkg)
    # parameters, other strings, __all__ entries and definitions are no
    # reference, and __version__ is no public name here
    assert loc.unreferenced((pkg, bench_dir)) == ["unused", "defined", "unused"]
    assert loc.unreferenced((pkg,)) == ["unused", "traced", "defined", "unused"]


def _settable(obj) -> int:
    """Function parameters, or the fields a dataclass annotates itself: a
    subclass counts the fields it redeclares, not those it inherits."""
    if dataclasses.is_dataclass(obj):
        return len(inspect.get_annotations(obj))
    return len(inspect.signature(obj).parameters) if inspect.isfunction(obj) else 0


def test_loc_settable_surface_matches_the_imported_package():
    loc = _tool("loc")
    assert loc.settable_surface(loc._public()) == sum(_settable(getattr(tarst, name))
                                                      for name in tarst.__all__)


def test_loc_bench_settable_surface_matches_the_imported_harness():
    loc = _tool("loc")
    assert loc.settable_surface(loc._names("bench")) == sum(
        _settable(getattr(bench, name)) for name in bench.__all__)
    # Pattern2Config counts the two outlier defaults it redeclares
    assert _settable(bench.Pattern2Config) == 2


def _unused_imports(path, loc) -> list:
    """(line, name) for each name that ``path`` imports and never refers to.
    A name its literal ``__all__`` lists is a re-export, so it counts as used;
    ``from __future__`` and star imports bind no name to check."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if loc._assigns_all(node):
            used.update(e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [a.asname or a.name for a in node.names if a.name != "*"]
        else:
            continue
        found += [(node.lineno, name) for name in names if name not in used]
    return found


def test_no_unused_imports():
    loc = _tool("loc")
    files = sorted(p for d in ("src/tarst", "tests", "demos", "tools")
                   for p in (ROOT / d).rglob("*.py"))
    assert len(files) > 20
    assert [f"{p.relative_to(ROOT)}:{line}: {name}"
            for p in files for line, name in _unused_imports(p, loc)] == []


def test_unused_imports_names_each_unused_binding(tmp_path):
    p = tmp_path / "m.py"
    p.write_text('from __future__ import annotations\nimport os.path\nimport numpy as np\n'
                 'from a import b, c as d, e\nfrom f import *\nfrom g import h\n'
                 '__all__ = ["e"]\n\n\ndef f(x: d):\n    return os.sep\n')
    assert _unused_imports(p, _tool("loc")) == [(3, "np"), (4, "b"), (6, "h")]


def test_ab_summary_of_fixed_runs():
    ab = _tool("ab")
    parent, change = [5.0, 4.8, 5.2, 5.1, 4.9], [4.5, 4.9, 4.6, 4.4, 4.9]
    s = ab.summarize(parent, change, "lower")
    assert s["parent"] == (4.9, 5.0, 5.1)
    assert s["change"] == (4.5, 4.6, 4.9)
    assert s["delta"] == 4.6 - 5.0 and s["rel"] == (4.6 - 5.0) / 5.0
    # the second pair is the parent's, the last a tie
    assert (s["parent_wins"], s["change_wins"], s["ties"]) == (1, 3, 1)
    assert ab.row("op_rel.p50", s) == ("| op_rel.p50 | 5 [4.9, 5.1] | 4.6 [4.5, 4.9] "
                                       "| -0.4 (-8.0%) | 1 / 3 / 1 |")
    # a higher-is-better metric swaps the wins; a zero parent median has no ratio
    s = ab.summarize([0.0, 0.0, 1.0], [1.0, 0.0, 0.5], "higher")
    assert (s["parent_wins"], s["change_wins"], s["ties"], s["rel"]) == (1, 1, 1, None)
    assert ab.row("x", s).endswith("| +0.5 | 1 / 1 / 1 |")


def test_ab_imports_nothing_of_the_package():
    tree = ast.parse((ROOT / "tools" / "ab.py").read_text(encoding="utf-8"))
    imported = {a.name.partition(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.Import) for a in node.names}
    imported |= {node.module.partition(".")[0] for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)}
    assert "tarst" not in imported and imported <= sys.stdlib_module_names

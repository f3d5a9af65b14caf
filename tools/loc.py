"""Count the lines of the package source by kind.

Usage: python tools/loc.py

Prints one row per module of src/tarst and a total row, with four counts
that add up to each file's line count:

* docstring: the lines of module, class and function docstrings (found with
  ``ast``), blank lines inside them included;
* blank: other lines that hold only whitespace;
* comment: other lines whose first non-blank character is ``#``;
* code: every other line.

A last line gives the number of public names, the length of ``tarst.__all__``,
read with ``ast`` without importing the package: ``__init__.py`` joins the
modules' ``__all__`` lists and adds ``__version__``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tarst"
KINDS = ("code", "docstring", "blank", "comment")


def count(path) -> dict:
    """{kind: lines} for one Python file."""
    text = Path(path).read_text(encoding="utf-8")
    docstring = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstring.update(range(first.lineno, first.end_lineno + 1))
    counts = dict.fromkeys(KINDS, 0)
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if lineno in docstring:
            kind = "docstring"
        elif not stripped:
            kind = "blank"
        elif stripped.startswith("#"):
            kind = "comment"
        else:
            kind = "code"
        counts[kind] += 1
    return counts


def _all_node(module: str):
    """The expression assigned to ``__all__`` in ``module``'s source file."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    return next(node.value for node in tree.body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["__all__"])


def public_names() -> int:
    """len(tarst.__all__): in ``__init__.py``'s list each ``*module.__all__``
    counts the names of that module's literal ``__all__``, any other item one."""
    return sum(len(ast.literal_eval(_all_node(item.value.value.id)))
               if isinstance(item, ast.Starred) else 1
               for item in _all_node("__init__").elts)


def main() -> None:
    rows = {path.name: count(path) for path in sorted(PACKAGE.glob("*.py"))}
    rows["total"] = {kind: sum(row[kind] for row in rows.values()) for kind in KINDS}
    print(f"{'file':<14}" + "".join(f"{kind:>10}" for kind in (*KINDS, "lines")))
    for name, row in rows.items():
        print(f"{name:<14}" + "".join(f"{row[kind]:>10}" for kind in KINDS)
              + f"{sum(row.values()):>10}")
    print(f"public names: {public_names()}")


if __name__ == "__main__":
    main()

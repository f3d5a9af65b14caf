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
read from ``__init__.py`` with ``ast`` without importing the package.
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


def public_names() -> int:
    """len(__all__) as assigned in the package's ``__init__.py``."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return next(len(ast.literal_eval(node.value)) for node in tree.body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["__all__"])


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

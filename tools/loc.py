"""Count the lines of the package source by kind.

Usage: python tools/loc.py

Prints one row per module of src/tarst and a total row, with four counts
that add up to each file's line count:

* docstring: the lines of module, class and function docstrings (found with
  ``ast``), blank lines inside them included;
* blank: other lines that hold only whitespace;
* comment: other lines whose first non-blank character is ``#``;
* code: every other line.

Three last lines give the number of public names (the length of
``tarst.__all__``); the settable surface: the parameters of the public
functions plus the fields a public dataclass declares itself (any other
public name, such as an exception class or ``__version__``, counts none);
and the same surface over ``tarst.bench.__all__``, the benchmark harness's
knobs. All are read with ``ast`` without importing the package:
``__init__.py`` joins the modules' ``__all__`` lists and adds
``__version__``.
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


def _body(module: str) -> list:
    """The top-level statements of ``module``'s source file."""
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8")).body


def _all_node(module: str):
    """The expression assigned to ``__all__`` in ``module``'s source file."""
    return next(node.value for node in _body(module)
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["__all__"])


def _names(module: str):
    """(module, name) for each name of ``module``'s literal ``__all__``."""
    return ((module, name) for name in ast.literal_eval(_all_node(module)))


def _public():
    """(module, name) for each name of tarst.__all__: in ``__init__.py``'s
    list each ``*module.__all__`` gives :func:`_names` of that module, any
    other item itself."""
    for item in _all_node("__init__").elts:
        if isinstance(item, ast.Starred):
            yield from _names(item.value.value.id)
        else:
            yield "__init__", ast.literal_eval(item)


def public_names() -> int:
    """len(tarst.__all__)."""
    return sum(1 for _ in _public())


def _settable(node) -> int:
    """The parameters of a function or the fields a dataclass annotates in
    its own body; 0 otherwise."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        a = node.args
        return len([*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))])
    if isinstance(node, ast.ClassDef) and any(
            getattr(getattr(d, "func", d), "id", None) == "dataclass" for d in node.decorator_list):
        return sum(isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
                   for s in node.body)
    return 0


def settable_surface(names) -> int:
    """The settable values of ``names``, (module, name) pairs such as
    :func:`_public` gives: :func:`_settable` summed over the top-level
    definitions they refer to."""
    return sum(_settable(next((node for node in _body(module)
                               if getattr(node, "name", None) == name), None))
               for module, name in names)


def main() -> None:
    rows = {path.name: count(path) for path in sorted(PACKAGE.glob("*.py"))}
    rows["total"] = {kind: sum(row[kind] for row in rows.values()) for kind in KINDS}
    print(f"{'file':<14}" + "".join(f"{kind:>10}" for kind in (*KINDS, "lines")))
    for name, row in rows.items():
        print(f"{name:<14}" + "".join(f"{row[kind]:>10}" for kind in KINDS)
              + f"{sum(row.values()):>10}")
    print(f"public names: {public_names()}")
    print(f"settable surface: {settable_surface(_public())}")
    print(f"bench settable surface: {settable_surface(_names('bench'))}")


if __name__ == "__main__":
    main()

"""Count the lines of the package source by kind.

Usage: python tools/loc.py

Prints one row per module of src/tarst and a total row, with four counts
that add up to each file's line count:

* docstring: the lines of module, class and function docstrings (found with
  ``ast``), blank lines inside them included;
* blank: other lines that hold only whitespace;
* comment: other lines whose first non-blank character is ``#``;
* code: every other line.

Four last lines give the number of public names (the length of
``tarst.__all__``); the settable surface: the parameters of the public
functions plus the fields a public dataclass declares itself (any other
public name, such as an exception class or ``__version__``, counts none);
the same surface over ``tarst.bench.__all__``, the benchmark harness's
knobs; and the unreferenced public names: the names of the modules'
``__all__`` lists that no Python file under src/tarst or perfbench refers
to, or ``none``. A reference is an identifier, an attribute, an imported
name or a string constant equal to the name, outside any ``__all__``
list; a definition (``def``, ``class`` or an assigned name) is none. All
are read with ``ast`` without importing the package: ``__init__.py``
joins the modules' ``__all__`` lists and adds ``__version__``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tarst"
PERFBENCH = ROOT / "perfbench"
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


def _assigns_all(node) -> bool:
    """Whether ``node`` is the statement ``__all__ = ...``."""
    return (isinstance(node, ast.Assign)
            and [getattr(t, "id", None) for t in node.targets] == ["__all__"])


def _all_node(module: str):
    """The expression assigned to ``__all__`` in ``module``'s source file."""
    return next(node.value for node in _body(module) if _assigns_all(node))


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


def _references(tree):
    """The names one parsed file refers to, by the rule of the module
    docstring."""
    skip = {id(n) for node in ast.walk(tree) if _assigns_all(node)
            for n in ast.walk(node.value)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in skip):
            yield node.value


def unreferenced(roots=(PACKAGE, PERFBENCH)) -> list:
    """The names of the package modules' ``__all__`` lists, ``__version__``
    aside, in file and list order, that no ``*.py`` file under ``roots``
    refers to."""
    names = [item.value for path in sorted(PACKAGE.glob("*.py"))
             for node in _body(path.stem) if _assigns_all(node)
             for item in node.value.elts
             if isinstance(item, ast.Constant) and item.value != "__version__"]
    seen = {name for root in roots for path in sorted(Path(root).rglob("*.py"))
            for name in _references(ast.parse(path.read_text(encoding="utf-8")))}
    return [name for name in names if name not in seen]


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
    print(f"unreferenced public names: {', '.join(unreferenced()) or 'none'}")


if __name__ == "__main__":
    main()

"""Every module of the package, every test file and every script uses each
name it imports, and the package reads each private name it defines. One
place in the package builds a simulator run record (``SimRun``), one
makes a ``Fraction`` from two ints (``rational.reduced``), and one turns a
grid into ints (``grids``).

The import check skips the package's ``__init__`` (its imports are the
package's re-exports) and ``from __future__`` imports. A top-level ``_private``
function, class or assignment counts as read when some module of the
package, its own included, loads it as a name or as an attribute; tests
do not count.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "lftlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# package modules keep their bare file names as test ids
CHECKED = MODULES + sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("scripts/*.py"))


def _unused(tree: ast.Module) -> list[str]:
    """Each name an import binds and no expression reads, with its line."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize(
    "path", CHECKED, ids=lambda p: p.name if p.parent == SRC else p.relative_to(ROOT).as_posix()
)
def test_no_unused_import(path):
    unused = _unused(ast.parse(path.read_text(), filename=str(path)))
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_the_check_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os.path\nfrom typing import Iterable, Optional\n"
    tree = ast.parse(source + "x: Optional[int] = os.sep\n")
    assert _unused(tree) == ["Iterable (line 3)"]


def _unread_privates(trees: dict[str, ast.Module]) -> list[str]:
    """Each top-level single-underscore name a module defines and no module
    reads, with its module and line."""
    defined = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined.setdefault(name, (module, node.lineno))
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{m}.{name} (line {line})" for name, (m, line) in defined.items() if name not in read]


def test_no_unread_private_name():
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
    unread = _unread_privates(trees)
    assert not unread, f"private names no module reads: {', '.join(unread)}"


def test_the_check_finds_an_unread_private_name():
    a = ast.parse(
        "_seen = 1\n_rebound = 2\n_rebound = 3\n__dunder__ = 4\n"
        "def _called(): return _seen\ndef _via_attr(): pass\nclass _Left: pass\n"
    )
    b = ast.parse("from . import a\nx = a._via_attr()\ny = a._called()\n")
    assert _unread_privates({"a": a, "b": b}) == ["a._rebound (line 2)", "a._Left (line 7)"]


def test_one_place_builds_every_simulator_run():
    calls = [
        f"{p.name}:{node.lineno}"
        for p in MODULES
        for node in ast.walk(ast.parse(p.read_text(), filename=str(p)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "SimRun"
    ]
    assert len(calls) == 1, f"SimRun( is called at {', '.join(calls)}; route every run through qlft._finish"


def _fraction_pairs(tree: ast.Module) -> list[int]:
    """Lines that build a Fraction from a numerator and a denominator:
    ``Fraction``, ``fractions.Fraction`` or a name bound to either, called
    with two arguments or a ``denominator``, or mapped by ``map``."""
    names = {"Fraction"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "fractions":
            names |= {a.asname for a in node.names if a.name == "Fraction" and a.asname}
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Name) and node.value.id in names:
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}

    def is_fraction(expr):
        return (isinstance(expr, ast.Name) and expr.id in names) or (
            isinstance(expr, ast.Attribute) and expr.attr == "Fraction"
        )

    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (
            (is_fraction(node.func) and (len(node.args) > 1 or any(k.arg == "denominator" for k in node.keywords)))
            or (isinstance(node.func, ast.Name) and node.func.id == "map" and node.args and is_fraction(node.args[0]))
        )
    )


def test_one_place_makes_a_fraction_from_two_ints():
    calls = [
        f"{p.name}:{line}"
        for p in MODULES
        if p.name != "rational.py"
        for line in _fraction_pairs(ast.parse(p.read_text(), filename=str(p)))
    ]
    assert not calls, f"two-int Fractions built at {', '.join(calls)}; use rational.reduced"


def test_the_check_finds_every_two_int_fraction():
    source = (
        "import fractions\nfrom fractions import Fraction\nF = Fraction\n"
        "a = Fraction(1)\nb = Fraction(1, 2)\nc = F(3, 4)\nd = fractions.Fraction(5, 6)\n"
        "e = map(Fraction, xs, ys)\ng = Fraction(7, denominator=8)\nh = F('1/2')\n"
    )
    assert _fraction_pairs(ast.parse(source)) == [5, 6, 7, 8, 9]


def _grid_ints(tree: ast.Module) -> list[int]:
    """Lines that make a grid's integer form: a call of ``progression``
    (by name or as an attribute), or a ``split`` call with a ``.explicit``
    attribute anywhere in its arguments."""

    def named(call, name):
        f = call.func
        return (isinstance(f, ast.Name) and f.id == name) or (isinstance(f, ast.Attribute) and f.attr == name)

    def reads_explicit(call):
        args = [*call.args, *(k.value for k in call.keywords)]
        return any(isinstance(n, ast.Attribute) and n.attr == "explicit" for a in args for n in ast.walk(a))

    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (named(node, "progression") or (named(node, "split") and reads_explicit(node)))
    )


def test_one_place_turns_a_grid_into_ints():
    calls = [
        f"{p.name}:{line}"
        for p in MODULES
        if p.name != "grids.py"
        for line in _grid_ints(ast.parse(p.read_text(), filename=str(p)))
    ]
    assert not calls, f"grid integer forms made at {', '.join(calls)}; read grids' progression or ratios"


def test_the_check_finds_every_grid_split_and_progression():
    source = (
        "from . import rational\nfrom .rational import progression, split\n"
        "a = progression(g.x0, g.gamma)\nb = rational.progression(s0, step)\nc = split(dual.explicit)\n"
        "d = split(dual.explicit or (dual.s0,) * k)\ne = split(s * u for s in dual.explicit)\n"
        "f = split(values=g.explicit)\nh = split(samples)\ni = g.progression\nj = dual.explicit\n"
    )
    assert _grid_ints(ast.parse(source)) == [3, 4, 5, 6, 7, 8]

"""Static checks over the source of `bernlab`."""
import ast
import builtins
import symtable
from pathlib import Path

import pytest

import bernlab

SRC = Path(bernlab.__file__).resolve().parent
MODULES = sorted(SRC.glob("*.py"))


def undefined_globals(path: Path) -> list:
    """(scope, name) for every name that a function or class scope of the
    module reads as a global but that the module does not bind and is no
    builtin: a function that lost its module-level import, say, and sits on
    a path no test runs. Under `from __future__ import annotations` names
    used only in annotations are not recorded, so they need no import."""
    top = symtable.symtable(path.read_text(), str(path), "exec")
    bound = {s.get_name() for s in top.get_symbols()
             if s.is_assigned() or s.is_imported()}
    known = bound | set(dir(builtins))
    found = []

    def visit(table):
        for child in table.get_children():
            for sym in child.get_symbols():
                if sym.is_global() and sym.is_referenced() and sym.get_name() not in known:
                    found.append((child.get_name(), sym.get_name()))
            visit(child)

    visit(top)
    return found


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_global_read_is_bound(path):
    assert undefined_globals(path) == []


def test_check_sees_a_lost_import(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "from __future__ import annotations\n"
        "import math\n"
        "def f(a: np.ndarray) -> float:\n"
        "    return float(np.sum(a)) + math.pi + len(a)\n"
        "class C:\n"
        "    def g(self):\n"
        "        import numpy as np\n"
        "        return [np.sqrt(x) for x in range(3)] + [undefined_name]\n")
    assert undefined_globals(src) == [("f", "np"), ("g", "undefined_name")]


# The memos that may outlive one CLI call, each with the reason. perfbench
# runs `cli.main` in-process, so a memo at module level (or in a class body)
# that is not listed here would time a warm cache that no CLI user gets.
CROSS_CALL_CACHES = {
    "cli._parser": "the argparse parser, which parse_args does not change",
    "criteria.kappa0": "a pure function of delta, a few Fraction operations",
    "marginals._bump_cocycle": "one BumpCocycle per D, whose H and gamma memos "
                               "depend on D and their arguments alone",
}


def cross_call_caches(path: Path) -> list:
    """'module.name' of every functools.cache or lru_cache that the module
    applies at module level or in a class body, as a decorator or a call,
    where its memo lives as long as the process."""
    def is_cache(node):
        if isinstance(node, ast.Call):  # lru_cache(maxsize=...)
            node = node.func
        name = getattr(node, "attr", getattr(node, "id", None))
        return name in ("cache", "lru_cache")

    found = []

    def visit(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(map(is_cache, node.decorator_list)):
                    found.append(prefix + node.name)
            elif isinstance(node, ast.ClassDef):
                visit(node.body, prefix + node.name + ".")
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value:
                if any(isinstance(n, ast.Call) and is_cache(n.func)
                       for n in ast.walk(node.value)):
                    target = node.targets[0] if isinstance(node, ast.Assign) else node.target
                    found.append(prefix + ast.unparse(target))

    visit(ast.parse(path.read_text()).body, path.stem + ".")
    return found


def test_cross_call_caches_are_allowlisted():
    found = [name for path in MODULES for name in cross_call_caches(path)]
    assert sorted(found) == sorted(CROSS_CALL_CACHES)


def test_check_sees_a_planted_cache(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "import functools\n"
        "from functools import lru_cache\n"
        "@functools.cache\n"
        "def f(x):\n"
        "    return x\n"
        "class C:\n"
        "    @lru_cache(maxsize=None)\n"
        "    def g(self):\n"
        "        return 1\n"
        "    @functools.cached_property\n"
        "    def per_instance(self):\n"
        "        return functools.cache(len)\n"
        "table = functools.lru_cache(maxsize=8)(len)\n")
    assert cross_call_caches(src) == ["mod.f", "mod.C.g", "mod.table"]

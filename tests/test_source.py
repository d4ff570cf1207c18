"""Static checks over the source of `bernlab`."""
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

"""List the functions under src/transgerm that no Tier-1 test calls.

Runs the Tier-1 suite in this process with a profile hook on every thread,
records the code object of each Python call, and compares them with every
function definition (methods and nested functions included) parsed from the
package sources.  ``__repr__`` methods are exempt.  Prints each function
never called and exits 1 if there is one; exits with pytest's status if the
suite itself fails.

    PYTHONPATH=src python tools/reach.py
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "transgerm"
EXEMPT = {"__repr__"}


def definitions() -> dict[tuple[str, int], str]:
    """(source file, first line) -> dotted name, for every def in the
    package.  The first line is the first decorator's, as in co_firstlineno."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = prefix + child.name
                    if child.name not in EXEMPT:
                        first = min([child.lineno]
                                    + [d.lineno for d in child.decorator_list])
                        out[(str(path), first)] = f"{path.name}:{first} {name}"
                    visit(child, name + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(), str(path)), "")
    return out


def run_tier1() -> tuple[int, set]:
    """Run Tier-1 under the profile hook; (pytest status, code objects)."""
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    os.chdir(ROOT)
    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              "--continue-on-collection-errors"])
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return int(status), seen


def main() -> int:
    status, seen = run_tier1()
    if status:
        print(f"Tier-1 failed (pytest status {status}); reach not computed")
        return status
    called = {(str(Path(c.co_filename).resolve()), c.co_firstlineno)
              for c in seen}
    unreached = sorted(name for key, name in definitions().items()
                       if key not in called)
    for name in unreached:
        print(f"unreached: {name}")
    print(f"{len(unreached)} function(s) under src/transgerm reached by no test")
    return 1 if unreached else 0


if __name__ == "__main__":
    sys.exit(main())

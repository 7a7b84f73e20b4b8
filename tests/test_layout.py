"""The library holds only code it runs.

Every module-level function and class in `src/qrwe` must be read
somewhere in `src/qrwe`, `demos/` or `perfbench/` other than its own
definition and the re-exports of `qrwe/__init__.py`.  Code read only by
the tests belongs with them, in `tests/references.py`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qrwe"


def _reads(node) -> set:
    """Every name `node` loads, as a bare name or as an attribute."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def _scan():
    """(defined, read): the module-level functions and classes of the
    package as {name: module}, and every name read outside its own
    definition in the package (re-exports aside), demos and perfbench."""
    defined, read = {}, set()
    files = sorted(PACKAGE.glob("*.py"))
    files += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    for path in files:
        if path == PACKAGE / "__init__.py":
            continue
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if path.parent == PACKAGE:
                    defined[node.name] = path.stem
                read |= _reads(node) - {node.name}
            else:
                read |= _reads(node)
    return defined, read


def test_every_library_definition_has_a_library_reader():
    defined, read = _scan()
    unread = sorted("%s.%s" % (module, name) for name, module in defined.items()
                    if name not in read)
    assert not unread, "read only by the tests (move them to tests/references.py): %s" % unread


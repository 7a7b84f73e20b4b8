"""The library holds only code it runs.

Every module-level function and class in `src/qrwe`, and every method
and property of those classes but the dunders, must be read somewhere in
`src/qrwe`, `demos/` or `perfbench/` other than its own definition and
the re-exports of `qrwe/__init__.py`.  The scan goes by name: a member
counts as read wherever an attribute of that name is.  Code read only by
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


def _members(node):
    """The methods and properties of a class, dunders aside."""
    return [sub for sub in node.body
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (sub.name.startswith("__") and sub.name.endswith("__"))]


def _scan(sources):
    """(defined, read) over `sources`, a list of (where, text, library):
    the module-level functions, classes and class members of the
    library sources as a set of (where, name), and every name any source
    reads outside its own definition.  A class's own name read inside
    its methods does not count."""
    defined, read = set(), set()
    for where, text, library in sources:
        for node in ast.parse(text, filename=where).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                members = _members(node) if isinstance(node, ast.ClassDef) else []
                if library:
                    defined.add((where, node.name))
                    defined |= {("%s.%s" % (where, node.name), member.name) for member in members}
                for member in members:
                    read |= _reads(member) - {member.name, node.name}
                rest = [sub for sub in ast.iter_child_nodes(node) if sub not in members]
                read |= set().union(*map(_reads, rest)) - {node.name}
            else:
                read |= _reads(node)
    return defined, read


def _unread(sources):
    defined, read = _scan(sources)
    return sorted("%s.%s" % (where, name) for where, name in defined if name not in read)


def _project_sources():
    """The package (re-exports aside), demos and perfbench."""
    files = sorted(PACKAGE.glob("*.py"))
    files += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    return [(path.stem, path.read_text(), path.parent == PACKAGE)
            for path in files if path != PACKAGE / "__init__.py"]


def test_every_library_definition_has_a_library_reader():
    unread = _unread(_project_sources())
    assert not unread, "read only by the tests (move them to tests/references.py): %s" % unread


def test_a_class_or_member_read_only_by_itself_is_unread():
    library = """
class Foo:
    def build(self) -> "Foo":
        return Foo(self.build())

    @property
    def size(self):
        return 1

    def __len__(self):
        return self.size
"""
    assert _unread([("fixture", library, True)]) == ["fixture.Foo", "fixture.Foo.build"]
    user = "Foo().build()\n"
    assert _unread([("fixture", library, True), ("user", user, False)]) == []

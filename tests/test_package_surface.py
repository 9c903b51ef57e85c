"""Package surface: every public top-level name in miotcore has a user.

A public name (no leading underscore) defined at the top level of a
module under src/miotcore counts as used when some Python file under
src/, perfbench/ or scripts/ reads it, as a name, an attribute or an
import; defining or assigning it is no read.  Names that only the tests
read belong in the test tree, as the Erlang mixture went to
tests/erlang_mixture.py, unless they are listed below with the reason
they stay in the package.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "miotcore"
USER_TREES = ("src", "perfbench", "scripts")

# public names only tests read, each with the reason it stays in the package
TEST_ONLY = {
    "falpha_system_discrete": "exact first-alarm law of a source population, one "
                              "device included, the generator's differential "
                              "oracle at finite Q",
}


def _defined(tree):
    """Public names a module's top level defines: defs, classes, assignments."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id


def _read(tree):
    """Every name a module reads: loaded names, attributes and imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def _trees(paths):
    return {path: ast.parse(path.read_text(), str(path)) for path in paths}


def unused_public_names():
    """Public top-level names of miotcore that no file of USER_TREES reads."""
    users = _trees(p for tree in USER_TREES for p in sorted((ROOT / tree).rglob("*.py")))
    read = set()
    for tree in users.values():
        read.update(_read(tree))
    unused = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for name in _defined(users[path]):
            if not name.startswith("_") and name not in read:
                unused.add(name)
    return unused


def test_every_public_name_has_a_user_outside_the_tests():
    assert unused_public_names() == set(TEST_ONLY)

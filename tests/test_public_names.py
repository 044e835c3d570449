"""No dead public names: every public module-level function and class in
src/actkit has a reader outside its own definition, in the package, the
benchmark or the demos.  Tests do not count as readers, and neither
does an import alone.  A string that spells the name counts, as the
benchmark wraps functions by name.  Names are matched by spelling, so
two modules' functions of one name keep each other alive.

No private imports: a module of src/actkit uses only the public names of
another, so a name without an underscore is the whole of what one module
offers the others."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# public names kept for a caller that an open ROADMAP item brings
AWAITING_CALLER = {
    "posefeat.save_codebook_set": "ROADMAP item 7 (actkit features)",
    "posefeat.load_codebook_set": "ROADMAP item 7 (actkit features)",
}


def _sources(root):
    """Every non-test Python file of the package, benchmark and demos."""
    return [p for d in ("src", "perfbench", "demos")
            for p in sorted((root / d).rglob("*.py"))
            if not p.name.startswith("test_")]


def _names(node):
    """Every name, attribute and string constant used under node."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def dead_public_names(root) -> list:
    """module.name of every public top-level function or class of
    root/src/actkit that no source under root reads outside its own
    definition."""
    package = root / "src" / "actkit"
    defined, read = [], set()
    for path in _sources(root):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for top in tree.body:
            own = None
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.ClassDef)):
                own = top.name
                if path.parent == package and not own.startswith("_"):
                    defined.append(f"{path.stem}.{own}")
            read.update(n for n in _names(top) if n != own)
    return sorted(d for d in defined if d.split(".")[1] not in read)


def test_every_public_name_has_a_reader():
    assert dead_public_names(ROOT) == sorted(AWAITING_CALLER)


def test_the_scan_finds_names_only_their_own_body_reads(tmp_path):
    package = tmp_path / "src" / "actkit"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "def lonely(n):\n    return lonely(n - 1) if n else 0\n\n\n"
        "def used():\n    return 1\n\n\n"
        "def wrapped():\n    return 2\n\n\n"
        "def _private():\n    return 3\n\n\n"
        "class Node:\n    def copy(self) -> 'Node':\n        return Node()\n",
        encoding="utf-8")
    (tmp_path / "demos").mkdir()
    (tmp_path / "demos" / "caller.py").write_text(
        "from actkit.mod import Node, lonely, used\n\n"
        "print(used())\nWRAPS = (('mod', 'wrapped'),)\n", encoding="utf-8")
    (tmp_path / "demos" / "test_caller.py").write_text(
        "from actkit.mod import lonely\n\nlonely(3)\n", encoding="utf-8")
    assert dead_public_names(tmp_path) == ["mod.Node", "mod.lonely"]


def private_imports(root) -> list:
    """module: name of every underscore name that a module of
    root/src/actkit takes from another actkit module, by a from-import
    or as an attribute of an imported actkit module.  Dunder names such
    as __version__ are public."""
    found = []
    for path in sorted((root / "src" / "actkit").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("actkit")):
                for alias in node.names:
                    if node.module is None or node.module == "actkit":
                        modules.add(alias.asname or alias.name)
                    elif alias.name.startswith("_") \
                            and not alias.name.endswith("__"):
                        found.append(f"{path.stem}: {alias.name}")
            elif isinstance(node, ast.Import):
                modules.update(alias.asname for alias in node.names
                               if alias.name.startswith("actkit.")
                               and alias.asname)
        found.extend(
            f"{path.stem}: {node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.attr.startswith("_") and not node.attr.endswith("__"))
    return found


def test_no_module_imports_a_private_name_of_another():
    assert private_imports(ROOT) == []


def test_the_scan_finds_private_imports(tmp_path):
    package = tmp_path / "src" / "actkit"
    package.mkdir(parents=True)
    (package / "a.py").write_text(
        "from . import __version__, b\n"
        "from .b import _hidden, shown\n"
        "from actkit.b import _also\n"
        "import actkit.b as bee\n\n\n"
        "def _own():\n    return b._through(), bee._aliased, b.shown\n",
        encoding="utf-8")
    (package / "b.py").write_text(
        "def _hidden():\n    return _hidden\n", encoding="utf-8")
    assert sorted(private_imports(tmp_path)) == [
        "a: _also", "a: _hidden", "a: b._through", "a: bee._aliased"]

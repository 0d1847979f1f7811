import ast
import importlib
import pathlib

import pytest

import stou

SOURCES = sorted(pathlib.Path(stou.__file__).parent.glob("*.py"))
# the demos and the benchmark harness, apart from its tests: the other code
# that reads the package's public names
ROOT = pathlib.Path(__file__).resolve().parent.parent
READERS = sorted([*ROOT.glob("demos/*.py"), *(path for path in ROOT.glob("perfbench/*.py")
                                              if not path.name.startswith("test_"))])


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads
    and does not list in __all__."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in getattr(node.value, "elts", ())}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def _name_read(node) -> str | None:
    """The name a bare name, attribute or imported name reads; None for
    any other node."""
    return (node.id if isinstance(node, ast.Name) else
            node.attr if isinstance(node, ast.Attribute) else
            node.name if isinstance(node, ast.alias) else None)


def _names_read(node) -> list[str]:
    """Every name a node reads: bare names, attributes and imported names."""
    return [name for sub in ast.walk(node) if (name := _name_read(sub)) is not None]


def unreferenced_private_defs(sources: dict[str, str]) -> list[str]:
    """Module-level private functions and classes that no code in any of
    the sources reads, apart from their own bodies."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = [name for tree in trees.values() for name in _names_read(tree)]
    return [
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and reads.count(node.name) == _names_read(node).count(node.name)
    ]


def unread_public_defs(sources: dict[str, str], readers: list[str]) -> list[str]:
    """Public module-level functions and classes of the sources, and public
    methods of their classes, that no code in the sources or the readers
    reads by name, apart from their own bodies.  Any read of the name
    counts, so a method named like a numpy attribute passes wherever an
    array's attribute is read: `.flat` on an array kept
    FieldSample.flat from being found."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = [name for tree in [*trees.values(), *map(ast.parse, readers)]
             for name in _names_read(tree)]
    defs = [
        (f"{module}:{node.name}", node)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ]
    defs += [
        (f"{label}.{method.name}", method)
        for label, node in defs
        if isinstance(node, ast.ClassDef)
        for method in node.body
        if isinstance(method, ast.FunctionDef)
    ]
    return [
        label for label, node in defs
        if not node.name.startswith("_")
        and reads.count(node.name) == _names_read(node).count(node.name)
    ]


# the wording of model._require_int and model._require_positive, and the
# "must be >= k" of hand-written copies that spelled the integer rule short
BOUNDS_RULE_PHRASES = ("must be an integer", "must be finite and > 0, got", "must be >=")


def bounds_rule_copies(source: str) -> list[str]:
    """String constants, and literal parts of f-strings, that spell out
    one of the bounds rules' error texts."""
    found = [
        (node.lineno, node.value)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and any(phrase in node.value for phrase in BOUNDS_RULE_PHRASES)
    ]
    return [f"line {line}: {value!r}" for line, value in sorted(found)]


def factor_reads(source: str) -> list[str]:
    """Lines that read the name cholesky_factor, as a bare name, an
    attribute or an imported name."""
    lines = {node.lineno for node in ast.walk(ast.parse(source))
             if _name_read(node) == "cholesky_factor"}
    return [f"line {line}" for line in sorted(lines)]


def test_finds_an_unused_import():
    source = "import os\nimport sys\nfrom math import pi, tau\n__all__ = ['tau']\nprint(sys)\n"
    assert unused_imports(source) == ["os (line 1)", "pi (line 3)"]


def test_finds_an_unreferenced_private_def():
    sources = {
        "a": "def _used():\n    pass\n\ndef _recursive():\n    return _recursive()\n",
        "b": "from a import _used\nclass _Lone:\n    pass\ndef public():\n    pass\n",
    }
    assert unreferenced_private_defs(sources) == ["a:_recursive", "b:_Lone"]


def test_finds_an_unread_public_def():
    sources = {
        "a": ("def used():\n    pass\n\ndef recursive():\n    return recursive()\n"
              "class Box:\n    def read(self):\n        return self.size()\n"
              "    def size(self):\n        return 1\n    def lone(self):\n        pass\n"
              "    def _private(self):\n        pass\n"),
        "b": "from a import used\nclass Lone:\n    pass\ndef _private():\n    pass\n",
    }
    readers = ["import a\na.Box().read()\n"]
    assert unread_public_defs(sources, readers) == ["a:recursive", "b:Lone", "a:Box.lone"]


def test_finds_a_bounds_rule_copy():
    source = ('x = f"{n} must be an integer >= 1, got {v!r}"\n'
              'y = "must be finite and > 0, got"\nz = "must be >= 1"\n')
    assert bounds_rule_copies(source) == [
        "line 1: ' must be an integer >= 1, got '",
        "line 2: 'must be finite and > 0, got'",
        "line 3: 'must be >= 1'",
    ]


def test_finds_a_factor_read():
    source = ("import stou.cholesky\nx = stou.cholesky.cholesky_factor\n"
              "from .cholesky import cholesky_factor as build\ny = 'cholesky_factor'\n")
    assert factor_reads(source) == ["line 2", "line 3"]


def test_no_command_builds_a_factor():
    # simulate_exact draws every exact field without one; a factor of
    # 101 x 101 sites would hold 0.21 GB
    found = {path.name: factor_reads(path.read_text(encoding="utf-8"))
             for path in SOURCES if path.name != "cholesky.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


# public names that no pipeline path reads, kept because the acceptance
# checklist, the floor of the tests, tests them
ACCEPTANCE_ONLY = {
    "cl:l_pair": "criterion 1, the pair density",
    "cl:score_u": "criterion 2, the score against finite differences",
    "mm:mm_from_moments": "criterion 4, the moment fit of population moments",
}


def test_every_public_def_is_read():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    readers = [path.read_text(encoding="utf-8") for path in READERS]
    assert readers
    assert sorted(unread_public_defs(sources, readers)) == sorted(ACCEPTANCE_ONLY)


def test_bounds_rules_are_spelled_only_in_model():
    found = {path.name: bounds_rule_copies(path.read_text(encoding="utf-8"))
             for path in SOURCES if path.name != "model.py"}
    assert {name: copies for name, copies in found.items() if copies} == {}


def test_modules_have_no_unreferenced_private_defs():
    sources = {path.name: path.read_text(encoding="utf-8") for path in SOURCES}
    assert unreferenced_private_defs(sources) == []


def test_modules_have_no_unused_imports():
    found = {path.name: unused_imports(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert {name: names for name, names in found.items() if names} == {}


def star_exports(module) -> list[str]:
    """The names `from module import *` binds: __all__, or without one
    every public name."""
    return getattr(module, "__all__", [name for name in vars(module) if not name.startswith("_")])


def test_package_exports_are_in_their_modules_all():
    """Every name the package's table assigns to a module is one the module
    exports: in its __all__ where it has one (errors.py has none)."""
    missing = [
        f"{module}.{name}"
        for module, names in stou._EXPORTS.items()
        for name in names
        if name not in star_exports(importlib.import_module(f"stou.{module}"))
    ]
    assert stou._EXPORTS and missing == []


def test_every_export_is_the_object_its_module_defines():
    for module, names in stou._EXPORTS.items():
        defining = importlib.import_module(f"stou.{module}")
        for name in names:
            assert getattr(stou, name) is getattr(defining, name), name


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        stou.no_such_name


def test_dir_and_star_import_follow_all():
    assert {"__all__", *stou.__all__, *stou._EXPORTS} <= set(dir(stou))
    namespace = {}
    exec("from stou import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(stou.__all__)

"""No module imports a name it never uses, and no private helper is left
unused.

Every module under ``src/shiftgibbs/`` and ``tests/`` is parsed with
``ast``; each name an import statement binds must occur somewhere else in
the module (as a name, the root of an attribute chain, a string
annotation, or an ``__all__`` entry).  Package ``__init__.py`` files are
skipped, since their imports are the public re-exports, and so is
``from __future__``.

Every private name a module under ``src/shiftgibbs/`` defines (a
module-level ``_name`` or a ``_method`` of a module-level class) must be
read somewhere in ``src/shiftgibbs/``, as a name or an attribute.

Every public function, class and method there must be reached from
``src/shiftgibbs/`` or the ``perfbench/`` harness: read as a name or an
attribute, or named by a string constant (the tracer binds methods by
name).  Re-exports in ``__init__.py`` do not count, ``bundled.py`` (the
example systems) is exempt, and the few names kept for the tests alone
are listed in ``KEPT`` with their reason.

No module under ``src/shiftgibbs/`` calls ``np.unique``, sorts a set
(``sorted(set(...))``, ``sorted`` of a set display or comprehension, or
``sorted(name)`` where the enclosing function binds ``name`` to a set) or
groups by ``.setdefault(key, []).append(...)``: keys are numbered densely
by ``_kernels.dense_ids`` alone.

No module under ``src/shiftgibbs/`` but ``pressure.py`` reads an attribute
``.keys`` (a ``.keys()`` call does not count): the transfer cover's key
and context format is known to ``pressure`` alone.

Every ``VolumeGuardError(...)`` call under ``src/shiftgibbs/`` passes a
message, a string constant or an f-string, that starts with
``GUARD_PREFIX``: every exit-3 refusal reads the same way.

No module under ``src/shiftgibbs/`` imports ``random`` or reaches
``numpy.random``: every check is exact over its whole volume, so no result
depends on a sampler or a seed.

Every certificate under ``src/shiftgibbs/`` reads its gap q as
``SoficPresentation.gap``: ``decoupling_gap`` is called only in
``cli._cmd_gap`` (the one command that offers the exact-length variant),
and ``._pair_dist`` is read only in ``shifts.py``.

No module under ``src/shiftgibbs/`` has a ``while <expr>.any():`` loop
outside ``shifts._levels``: every breadth-first search is that one
frontier loop.

No module under ``src/shiftgibbs/`` imports ``dataclasses``, uses
``namedtuple`` or ``NamedTuple``, or calls ``exec``, ``eval`` or
``compile``: importing the package compiles no generated code, and
``_records.record`` makes its record classes.

The per-center checks ``verify.lemma_212_check`` and
``verify.decoupling_1d_check`` read no ``np`` name: their tables hold every
per-center quantity as an array indexed by center class, so a check is
lookups.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "shiftgibbs").glob("*.py"))
MODULES = sorted(p for p in SOURCES + sorted((ROOT / "tests").glob("*.py"))
                 if p.name != "__init__.py")
HARNESS = sorted((ROOT / "perfbench").glob("*.py"))
# public names that only the tests call, with the reason they stay
KEPT = {
    "strong_gibbs_constant": "bounds (2m+1) D_m in acceptance criterion 4 "
                             "and TestStrongGibbs",
    "apply_block_code": "the per-word oracle of factor_presentation",
    "LemmaReport.all_hold": "the tests' verdict over a report's rows",
}


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import statement -> its line."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def used_names(tree: ast.Module) -> set[str]:
    used = set()
    texts = []  # string annotations and ``__all__`` entries
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            annotations.append(node.value)
        for ann in filter(None, annotations):
            texts.extend(c.value for c in ast.walk(ann)
                         if isinstance(c, ast.Constant) and isinstance(c.value, str))
    for text in texts:
        expr = ast.parse(text, mode="eval")
        used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = used_names(tree)
    return [f"line {line}: {name}"
            for name, line in sorted(imported_names(tree).items(),
                                     key=lambda item: item[1])
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_finds_unused_imports():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from math import pi, tau as turn\n"
              "x: 'np.ndarray' = pi\n"
              "y = 'turn.pot'\n")
    assert unused_imports(source) == ["line 2: os", "line 4: turn"]


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Private module-level names and private methods of module-level
    classes -> the line of their definition."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        defined[n.id] = node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defined[item.name] = item.lineno
    return {name: line for name, line in defined.items() if _private(name)}


def read_names(tree: ast.Module) -> set[str]:
    """Names and attribute names the module reads."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}


def unused_private(sources: dict[str, str]) -> list[str]:
    """``module:line: name`` for each private definition in ``sources``
    (module name -> source text) that no module reads."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = set().union(*map(read_names, trees.values()))
    return [f"{module}:{line}: {name}" for module, tree in trees.items()
            for name, line in private_definitions(tree).items() if name not in read]


def test_no_unused_private_helpers():
    assert unused_private({p.name: p.read_text(encoding="utf-8")
                           for p in SOURCES}) == []


def test_scan_finds_unused_private_helpers():
    sources = {
        "a.py": ("_LIMIT = 3\n_SPARE = 4\n"
                 "def _used():\n    return _LIMIT\n"
                 "def _dead():\n    _dead_local = 1\n"
                 "class Box:\n"
                 "    def __init__(self):\n        self._size = 0\n"
                 "    def _grow(self):\n        return 1\n"
                 "    def _shrink(self):\n        return 0\n"),
        "b.py": "from a import _used, Box\nBox()._grow()\n_used()\n",
    }
    assert unused_private(sources) == ["a.py:2: _SPARE", "a.py:5: _dead",
                                       "a.py:12: _shrink"]


def public_definitions(tree: ast.Module) -> dict[str, int]:
    """Public module-level functions and classes, and public methods of
    module-level classes as ``Class.method`` -> the line of their
    definition."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defined[f"{node.name}.{item.name}"] = item.lineno
    return {name: line for name, line in defined.items()
            if not name.split(".")[-1].startswith("_")}


def referenced_names(tree: ast.Module) -> set[str]:
    """``read_names`` plus the identifiers of every string constant that is
    a dotted name (such as a traced span, ``"shifts.word_matrix"``)."""
    strings = [n.value for n in ast.walk(tree)
               if isinstance(n, ast.Constant) and isinstance(n.value, str)]
    return read_names(tree) | {part for text in strings
                               if all(p.isidentifier() for p in text.split("."))
                               for part in text.split(".")}


def unreached_public(sources: dict[str, str], readers: dict[str, str],
                     kept: dict[str, str]) -> list[str]:
    """``module:line: name`` for each public definition in ``sources`` that
    no module of ``readers`` (module name -> source text, both) references
    and that is not in ``kept``."""
    read = set().union(*(referenced_names(ast.parse(t)) for t in readers.values()))
    return [f"{module}:{line}: {name}" for module, text in sources.items()
            for name, line in public_definitions(ast.parse(text)).items()
            if name.split(".")[-1] not in read and name not in kept]


def test_no_unreached_public_code():
    readers = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8")
               for p in SOURCES + HARNESS if p.name != "__init__.py"}
    sources = {name: text for name, text in readers.items()
               if name.startswith("src/") and not name.endswith("/bundled.py")}
    assert unreached_public(sources, readers, KEPT) == []


def test_scan_finds_unreached_public_code():
    sources = {
        "a.py": ("def run():\n    return Box().size\n"
                 "def spare():\n    return 0\n"
                 "def oracle():\n    return 1\n"
                 "class Box:\n"
                 "    def __init__(self):\n        self.n = 0\n"
                 "    @property\n    def size(self):\n        return self.n\n"
                 "    def grow(self):\n        return 1\n"
                 "    def shrink(self):\n        return 0\n"),
    }
    readers = dict(sources, harness="run()\nSPANS = ('a.grow', 'shrink it')\n")
    assert unreached_public(sources, readers, {"oracle": "test-only"}) == [
        "a.py:3: spare", "a.py:15: Box.shrink"]


def _is_set(node: ast.AST) -> bool:
    """A set display, a set comprehension or a ``set(...)`` call."""
    return (isinstance(node, (ast.Set, ast.SetComp))
            or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "set"))


def _set_names(function: ast.AST) -> set[str]:
    """Names that ``function`` (nested functions included) binds to a set."""
    return {target.id for node in ast.walk(function)
            if isinstance(node, ast.Assign) and _is_set(node.value)
            for target in node.targets if isinstance(target, ast.Name)}


def renumbering_calls(source: str) -> list[str]:
    """``line N: text`` for each ``np.unique`` / ``numpy.unique`` call, each
    ``sorted`` of a set (a ``set(...)`` call, a set display or
    comprehension, or a name the enclosing function binds to one) and each
    ``.setdefault(key, []).append(...)`` grouping in ``source``."""
    tree = ast.parse(source)
    set_names = {}  # id of each call -> the set names of its function
    for function in ast.walk(tree):
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names = _set_names(function)
            for node in ast.walk(function):
                set_names.setdefault(id(node), set()).update(names)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, args = node.func, node.args
        unique = (isinstance(func, ast.Attribute) and func.attr == "unique"
                  and isinstance(func.value, ast.Name)
                  and func.value.id in ("np", "numpy"))
        sorted_set = (isinstance(func, ast.Name) and func.id == "sorted" and args
                      and (_is_set(args[0])
                           or (isinstance(args[0], ast.Name)
                               and args[0].id in set_names.get(id(node), ()))))
        grouping = (isinstance(func, ast.Attribute) and func.attr == "append"
                    and isinstance(func.value, ast.Call)
                    and isinstance(func.value.func, ast.Attribute)
                    and func.value.func.attr == "setdefault"
                    and len(func.value.args) == 2
                    and isinstance(func.value.args[1], ast.List)
                    and not func.value.args[1].elts)
        if unique or sorted_set or grouping:
            found.append((node.lineno, node.col_offset, ast.unparse(node)))
    return [f"line {line}: {text}" for line, _col, text in sorted(found)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_second_renumbering(path):
    assert renumbering_calls(path.read_text(encoding="utf-8")) == []


def test_scan_finds_second_renumbering():
    source = ("import numpy as np\nimport numpy\n"
              "a = np.unique([2, 1])\n"
              "b = numpy.unique(a, return_index=True)\n"
              "c = sorted(set(a.tolist()))\n"
              "d = sorted(a)\ne = set(a)\nf = a.unique\n"
              "g = sorted({(k, 1) for k in a})\n"
              "h = sorted({1, 2})\n"
              "def walk(start):\n"
              "    seen = {start}\n"
              "    order = sorted(seen)\n"
              "    return sorted(order)\n"
              "def other(seen):\n"
              "    return sorted(seen)\n"
              "groups = {}\n"
              "groups.setdefault(1, []).append(2)\n"
              "groups.setdefault(1, set()).add(2)\n"
              "groups.setdefault(1, [0]).append(2)\n")
    assert renumbering_calls(source) == [
        "line 3: np.unique([2, 1])",
        "line 4: numpy.unique(a, return_index=True)",
        "line 5: sorted(set(a.tolist()))",
        "line 9: sorted({(k, 1) for k in a})",
        "line 10: sorted({1, 2})",
        "line 13: sorted(seen)",
        "line 18: groups.setdefault(1, []).append(2)"]


def key_reads(source: str) -> list[str]:
    """``line N: text`` for each read of an attribute ``.keys`` in
    ``source`` that is not the callee of a call."""
    tree = ast.parse(source)
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    return [f"line {node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "keys"
            and id(node) not in called]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "pressure.py"],
                         ids=lambda p: p.name)
def test_cover_keys_read_in_pressure_alone(path):
    assert key_reads(path.read_text(encoding="utf-8")) == []


def test_scan_finds_key_reads():
    source = ("a = transfer.keys % 4\n"
              "b = table.keys()\n"
              "c = len(t.keys)\n"
              "d = keys + t.keyset\n")
    assert key_reads(source) == ["line 1: transfer.keys", "line 3: t.keys"]


GUARD_PREFIX = "volume too large for brute force:"


def _leading_text(node: ast.AST) -> str | None:
    """The literal text a string constant or an f-string starts with (up
    to its first replacement field); None for any other expression."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if not isinstance(node, ast.JoinedStr):
        return None
    text = ""
    for part in node.values:
        if not isinstance(part, ast.Constant):
            break
        text += part.value
    return text


def unprefixed_guards(source: str) -> list[str]:
    """``line N: text`` for each ``VolumeGuardError(...)`` call in
    ``source`` whose first argument is not a string constant or f-string
    starting with ``GUARD_PREFIX``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name != "VolumeGuardError":
            continue
        text = _leading_text(node.args[0]) if node.args else None
        if text is None or not text.startswith(GUARD_PREFIX):
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_volume_guard_messages_share_the_prefix(path):
    assert unprefixed_guards(path.read_text(encoding="utf-8")) == []


def test_scan_finds_unprefixed_guards():
    source = ("raise VolumeGuardError('volume too large for brute force: x')\n"
              "raise VolumeGuardError(f'volume too large for brute force: {n}')\n"
              "raise VolumeGuardError('volume too large '\n"
              "                       f'for brute force: {n} x {n}')\n"
              "raise VolumeGuardError(f'{n} terms exceed the limb bound')\n"
              "raise exceptions.VolumeGuardError('too many words')\n"
              "raise VolumeGuardError(message)\n"
              "raise VolumeGuardError()\n"
              "raise ValidationError('bad input')\n")
    assert unprefixed_guards(source) == [
        "line 5: VolumeGuardError(f'{n} terms exceed the limb bound')",
        "line 6: exceptions.VolumeGuardError('too many words')",
        "line 7: VolumeGuardError(message)",
        "line 8: VolumeGuardError()"]


def random_imports(source: str) -> list[str]:
    """``line N: text`` for each import in ``source`` of the ``random``
    module, of a name from it or of ``numpy.random``, and each read of
    ``np.random`` / ``numpy.random``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            hit = any(alias.name.split(".")[0] == "random"
                      or alias.name.startswith("numpy.random")
                      for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            hit = node.level == 0 and (module.split(".")[0] == "random"
                                       or module.startswith("numpy.random")
                                       or (module == "numpy" and any(
                                           a.name == "random" for a in node.names)))
        else:
            hit = (isinstance(node, ast.Attribute) and node.attr == "random"
                   and isinstance(node.value, ast.Name)
                   and node.value.id in ("np", "numpy"))
        if hit:
            found.append((node.lineno, node.col_offset, ast.unparse(node)))
    return [f"line {line}: {text}" for line, _col, text in sorted(found)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_sampler(path):
    assert random_imports(path.read_text(encoding="utf-8")) == []


def test_scan_finds_random_imports():
    source = ("import math, random\n"
              "from random import Random\n"
              "import random as rnd\n"
              "from . import random_walk\n"
              "from .random import draw\n"
              "import numpy.random\n"
              "from numpy import random\n"
              "rng = np.random.default_rng(0)\n"
              "x = rng.random()\n"
              "def f():\n    import random\n")
    assert random_imports(source) == [
        "line 1: import math, random",
        "line 2: from random import Random",
        "line 3: import random as rnd",
        "line 6: import numpy.random",
        "line 7: from numpy import random",
        "line 8: np.random",
        "line 11: import random"]


def stray_gap_reads(module: str, source: str) -> list[str]:
    """``line N: text`` for each ``decoupling_gap`` call in ``source`` (the
    file ``module``) outside ``cli.py``'s ``_cmd_gap``, and each read of
    ``._pair_dist`` outside ``shifts.py``."""
    tree = ast.parse(source)
    allowed = {id(node) for function in tree.body
               if module == "cli.py" and isinstance(function, ast.FunctionDef)
               and function.name == "_cmd_gap" for node in ast.walk(function)}
    found = []
    for node in ast.walk(tree):
        func = getattr(node, "func", None)
        gap_call = (isinstance(node, ast.Call) and id(node) not in allowed
                    and "decoupling_gap" in (getattr(func, "id", None),
                                             getattr(func, "attr", None)))
        dist_read = (isinstance(node, ast.Attribute) and node.attr == "_pair_dist"
                     and module != "shifts.py")
        if gap_call or dist_read:
            found.append((node.lineno, node.col_offset, ast.unparse(node)))
    return [f"line {line}: {text}" for line, _col, text in sorted(found)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_gap_read_from_the_presentation(path):
    assert stray_gap_reads(path.name, path.read_text(encoding="utf-8")) == []


def test_scan_finds_stray_gap_reads():
    source = ("def _cmd_gap(args):\n"
              "    return decoupling_gap(p, args.variant)\n"
              "def _cmd_factor(args):\n"
              "    return shifts.decoupling_gap(p) + p.gap\n"
              "q = int(p._pair_dist.max())\n"
              "f = decoupling_gap\n"
              "def _pair_dist(self):\n    return self._pair_dist\n")
    assert stray_gap_reads("cli.py", source) == [
        "line 4: shifts.decoupling_gap(p)", "line 5: p._pair_dist",
        "line 8: self._pair_dist"]
    assert stray_gap_reads("verify.py", source) == [
        "line 2: decoupling_gap(p, args.variant)",
        "line 4: shifts.decoupling_gap(p)", "line 5: p._pair_dist",
        "line 8: self._pair_dist"]
    assert stray_gap_reads("shifts.py", source) == [
        "line 2: decoupling_gap(p, args.variant)",
        "line 4: shifts.decoupling_gap(p)"]


def generated_code(source: str) -> list[str]:
    """``line N: text`` for each import of ``dataclasses``, each import or
    read of ``namedtuple`` / ``NamedTuple`` (both ``eval`` at class
    creation) and each call of ``exec``, ``eval`` or ``compile`` in
    ``source``."""
    tuple_factories = ("namedtuple", "NamedTuple")
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            hit = any(alias.name.split(".")[0] == "dataclasses" for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = (node.module == "dataclasses"
                   or any(alias.name in tuple_factories for alias in node.names))
        elif isinstance(node, ast.Attribute):
            hit = node.attr in tuple_factories
        else:
            hit = (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                   and node.func.id in ("exec", "eval", "compile"))
        if hit:
            found.append((node.lineno, node.col_offset, ast.unparse(node)))
    return [f"line {line}: {text}" for line, _col, text in sorted(found)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_generated_code(path):
    assert generated_code(path.read_text(encoding="utf-8")) == []


def test_scan_finds_generated_code():
    source = ("import dataclasses\n"
              "from dataclasses import dataclass, field\n"
              "import collections, typing\n"
              "from collections import namedtuple, OrderedDict\n"
              "from typing import NamedTuple\n"
              "Pair = collections.namedtuple('Pair', 'a b')\n"
              "class Row(typing.NamedTuple):\n    a: int\n"
              "exec('x = 1')\n"
              "y = eval('1 + 1')\n"
              "code = compile('1', '<s>', 'eval')\n"
              "pattern = re.compile('a+')\n"
              "from ._records import record\n"
              "evaluate = executor.exec\n")
    assert generated_code(source) == [
        "line 1: import dataclasses",
        "line 2: from dataclasses import dataclass, field",
        "line 4: from collections import namedtuple, OrderedDict",
        "line 5: from typing import NamedTuple",
        "line 6: collections.namedtuple",
        "line 7: typing.NamedTuple",
        "line 9: exec('x = 1')",
        "line 10: eval('1 + 1')",
        "line 11: compile('1', '<s>', 'eval')"]


def frontier_loops(module: str, source: str) -> list[str]:
    """``line N: text`` for each ``while <expr>.any():`` loop in ``source``
    (the file ``module``) outside ``shifts.py``'s module-level
    ``_levels``."""
    tree = ast.parse(source)
    allowed = {id(node) for function in tree.body
               if module == "shifts.py" and isinstance(function, ast.FunctionDef)
               and function.name == "_levels" for node in ast.walk(function)}
    found = []
    for node in ast.walk(tree):
        test = getattr(node, "test", None)
        if (isinstance(node, ast.While) and id(node) not in allowed
                and isinstance(test, ast.Call) and isinstance(test.func, ast.Attribute)
                and test.func.attr == "any"):
            found.append((node.lineno, node.col_offset, f"while {ast.unparse(test)}:"))
    return [f"line {line}: {text}" for line, _col, text in sorted(found)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_one_frontier_loop(path):
    assert frontier_loops(path.name, path.read_text(encoding="utf-8")) == []


def test_scan_finds_frontier_loops():
    source = ("def _levels(support, seed):\n"
              "    while frontier.any():\n        depth += 1\n"
              "def strongly_connected(support):\n"
              "    for adj in (support, support.T):\n"
              "        while frontier.any():\n            pass\n"
              "def support_period(support):\n"
              "    while frontier.any():\n        depth += 1\n"
              "class SoficPresentation:\n"
              "    def _pair_dist(self):\n"
              "        while frontier.any():\n            d += 1\n"
              "while True:\n    break\n"
              "while not power.all():\n    pass\n"
              "while any(rows):\n    pass\n"
              "while (a & b).any(axis=0):\n    pass\n")
    assert frontier_loops("shifts.py", source) == [
        "line 6: while frontier.any():", "line 9: while frontier.any():",
        "line 13: while frontier.any():", "line 21: while (a & b).any(axis=0):"]
    assert frontier_loops("verify.py", source) == [
        "line 2: while frontier.any():", "line 6: while frontier.any():",
        "line 9: while frontier.any():", "line 13: while frontier.any():",
        "line 21: while (a & b).any(axis=0):"]


LOOKUP_CHECKS = ("lemma_212_check", "decoupling_1d_check")


def array_work_in_checks(source: str) -> list[str]:
    """``line N: text`` for each attribute of ``np`` read, or other read of
    the name ``np``, inside a module-level function of ``source`` named in
    ``LOOKUP_CHECKS``."""
    found = []
    for function in ast.parse(source).body:
        if not (isinstance(function, ast.FunctionDef)
                and function.name in LOOKUP_CHECKS):
            continue
        roots = set()
        for node in ast.walk(function):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "np"):
                roots.add(id(node.value))
                found.append((node.lineno, node.col_offset, ast.unparse(node)))
        for node in ast.walk(function):
            if (isinstance(node, ast.Name) and node.id == "np"
                    and id(node) not in roots):
                found.append((node.lineno, node.col_offset, "np"))
    return [f"line {line}: {text}" for line, _col, text in sorted(found)]


def test_checks_are_lookups():
    source = (ROOT / "src" / "shiftgibbs" / "verify.py").read_text(encoding="utf-8")
    defined = {f.name for f in ast.parse(source).body if isinstance(f, ast.FunctionDef)}
    assert set(LOOKUP_CHECKS) <= defined
    assert array_work_in_checks(source) == []


def test_scan_finds_array_work_in_checks():
    source = ("def lemma_212_check(tables, u_bar):\n"
              "    t = tables\n"
              "    u_ext = int(np.count_nonzero(np.bincount(\n"
              "        t.ext_ids[(t.center_ids == u_id).any(axis=0)])))\n"
              "    return u_ext\n"
              "def decoupling_1d_check(tables, u_bar):\n"
              "    keys = tables.class_keys\n"
              "    ref = np.minimum(np.searchsorted(keys, ref_keys), len(keys) - 1)\n"
              "    spread = np.maximum(g_max[has] - g_min[ref[has]],\n"
              "                        g_max[ref[has]] - g_min[has])\n"
              "    xp = np\n"
              "    return float(tables.est[u_id])\n"
              "def _center_id(tables, u_bar):\n"
              "    return int(np.searchsorted(tables.centers, key)[0])\n"
              "class Suite:\n"
              "    def lemma_212_check(self):\n"
              "        return np.zeros(1)\n")
    assert array_work_in_checks(source) == [
        "line 3: np.count_nonzero", "line 3: np.bincount",
        "line 8: np.minimum", "line 8: np.searchsorted", "line 9: np.maximum",
        "line 11: np"]

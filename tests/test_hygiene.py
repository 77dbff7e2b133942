"""Dead-code, budget and cache guards over the package sources, by syntax
tree, with one exception below.

Every name a module imports is used in that module, and every top-level
function, class and assigned name and every method is referenced
somewhere in src/, tests/ or perfbench/ besides its own definition, and
every private module-level constant (``_RANK_NS``) is read in src/
itself, so a deleted kernel leaves none of its constants behind.
Distance budgets travel as one ``codes.Budget`` value: no function takes
or passes the old ``enum_budget``/``rank_budget`` keywords, and only
codes.py reads a budget's fields.  Row operations go through the field's
row kernels: no comprehension outside the ``Field`` class combines a field
``add``/``sub`` with a ``mul`` entry by entry.  An object's private state
is its own: no function writes to, writes into, or calls a
single-underscore attribute of an object other than ``self`` or ``cls``,
except for the writes listed in ``FOREIGN_PRIVATE_WRITES``.  Every
``lru_cache`` wraps a module-level function or a method of a module-level
class, where the cold-cache fixture of conftest finds and clears it.
Every place the benchmark's tracer (perfbench/tracer.py) wraps or reads
still exists, so no change to the package silently breaks a traced run.
Two guards run code instead of reading it: hashing a ``Factorization``,
the key of most caches, reads none of its factors, and each traced
target resolves on the imported package.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import re
from pathlib import Path

from qclrc import algebra, qc

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qclrc"
TRACER = ROOT / "perfbench" / "tracer.py"
SEARCHED = ("src", "tests", "perfbench")
OLD_BUDGET_KEYWORDS = {"enum_budget", "rank_budget"}
BUDGET_FIELDS = {"enum", "rank"}
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
PRIVATE_CONSTANT = re.compile(r"_[A-Z][A-Z0-9_]*")
FOREIGN_PRIVATE_WRITES = {
    # The factorization keeps one cyclic subcode per index set, filled
    # here; perfbench/tracer.py reads the dict to count cache hits, so it
    # stays a dict on the factorization until the tracer reads a record
    # of its own.
    "codes.subcode_from_bz: fact._subcode_cache",
}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _modules() -> list[Path]:
    return sorted(PACKAGE.glob("*.py"))


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _references(tree: ast.Module) -> set[str]:
    """Identifiers a file refers to: loaded names, attributes, imported
    names, and string constants that are dotted identifiers (such as
    ``__all__`` entries or ``"LinearCode.from_rows"``)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                         ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                out |= set(parts)
    return out


def _definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of top-level functions, classes, assigned names and
    the methods of top-level classes."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.append((node.name, node.lineno))
        elif isinstance(node, ast.ClassDef):
            out.append((node.name, node.lineno))
            out += [(item.name, item.lineno) for item in node.body
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef))]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            out += [(t.id, node.lineno) for target in targets
                    for t in ast.walk(target) if isinstance(t, ast.Name)]
    return [(name, line) for name, line in out if not _is_dunder(name)]


def test_every_import_is_used():
    unused = []
    for path in _modules():
        if path.name == "__init__.py":
            continue
        tree = _tree(path)
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == \
                    "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{path.name}:{node.lineno} {bound}")
    assert unused == []


def test_every_definition_is_referenced():
    referenced: set[str] = set()
    for top in SEARCHED:
        for path in (ROOT / top).rglob("*.py"):
            referenced |= _references(_tree(path))
    dead = [f"{path.name}:{line} {name}" for path in _modules()
            for name, line in _definitions(_tree(path))
            if name not in referenced]
    assert dead == []


def test_every_private_constant_is_read_by_the_package():
    """A constant only the tests or the benchmark read is dead: the
    tests pin it, but no kernel of the package uses it."""
    read: set[str] = set()
    for path in _modules():
        read |= _references(_tree(path))
    constants = [(path.name, name, line) for path in _modules()
                 for name, line in _definitions(_tree(path))
                 if PRIVATE_CONSTANT.fullmatch(name)]
    assert len(constants) >= 20
    assert [f"{path}:{line} {name}" for path, name, line in constants
            if name not in read] == []


def test_budget_travels_as_one_value():
    old, reads = [], []
    for path in _modules():
        for node in ast.walk(_tree(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                a = node.args
                names = [arg.arg for arg in (*a.posonlyargs, *a.args,
                                             *a.kwonlyargs)]
            elif isinstance(node, ast.Call):
                names = [kw.arg for kw in node.keywords]
            else:
                names = []
            old += [f"{path.name}:{node.lineno} {name}" for name in names
                    if name in OLD_BUDGET_KEYWORDS]
            if isinstance(node, ast.Attribute) and \
                    node.attr in BUDGET_FIELDS and path.name != "codes.py":
                reads.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert old == []
    assert reads == []


def test_row_loops_use_the_kernel():
    """A comprehension that calls both ``.add`` or ``.sub`` and ``.mul``
    is a row operation written entry by entry; it belongs in
    ``Field.axpy``/``Field.scale_row``, whose class is exempt."""
    found = []
    for path in _modules():
        tree = _tree(path)
        exempt = {id(node) for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef) and cls.name == "Field"
                  for node in ast.walk(cls)}
        for node in ast.walk(tree):
            if not isinstance(node, COMPREHENSIONS) or id(node) in exempt:
                continue
            called = {call.func.attr for call in ast.walk(node)
                      if isinstance(call, ast.Call)
                      and isinstance(call.func, ast.Attribute)}
            if called & {"add", "sub"} and "mul" in called:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


class _ForeignPrivate(ast.NodeVisitor):
    """``module.function: object._attribute`` for every write to or into,
    and every call of, a single-underscore attribute of an object other
    than ``self`` or ``cls``."""

    def __init__(self, module: str):
        self.module = module
        self.scope: list[str] = []
        self.found: list[str] = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def _note(self, node: ast.AST) -> None:
        if isinstance(node, ast.Attribute) and _is_private(node.attr) and \
                not (isinstance(node.value, ast.Name)
                     and node.value.id in ("self", "cls")):
            where = ".".join([self.module] + self.scope)
            self.found.append(f"{where}: {ast.unparse(node)}")

    def _target(self, node: ast.AST) -> None:
        if isinstance(node, (ast.Tuple, ast.List)):
            for elt in node.elts:
                self._target(elt)
            return
        while isinstance(node, (ast.Subscript, ast.Starred)):
            node = node.value   # a write into the attribute
        self._note(node)

    def visit_Assign(self, node):
        for target in node.targets:
            self._target(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        self._target(node.target)
        self.generic_visit(node)

    visit_AnnAssign = visit_AugAssign

    def visit_Delete(self, node):
        for target in node.targets:
            self._target(target)
        self.generic_visit(node)

    def visit_Call(self, node):
        self._note(node.func)
        self.generic_visit(node)


def test_private_state_is_written_by_its_owner():
    found = set()
    for path in _modules():
        visitor = _ForeignPrivate(path.stem)
        visitor.visit(_tree(path))
        found |= set(visitor.found)
    assert found == FOREIGN_PRIVATE_WRITES


def _cache_uses(tree: ast.Module) -> list[ast.AST]:
    """Every reference to ``lru_cache`` or ``functools.cache``."""
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id in ("lru_cache",
                                                          "cache")
            or isinstance(node, ast.Attribute)
            and node.attr in ("lru_cache", "cache")
            and isinstance(node.value, ast.Name)
            and node.value.id == "functools"]


def test_every_cache_is_reachable_from_its_module():
    """Decorating a top-level function or a method of a top-level class,
    or wrapping a function in a top-level assignment, leaves the cache
    in ``vars()`` of the module or the class; anywhere else (a nested
    function, a call inside a body) the cache is out of reach."""
    misplaced = []
    for path in _modules():
        tree = _tree(path)
        allowed: list[ast.AST] = []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                allowed += node.decorator_list
            elif isinstance(node, ast.ClassDef):
                allowed += [deco for item in node.body
                            if isinstance(item, (ast.FunctionDef,
                                                 ast.AsyncFunctionDef))
                            for deco in item.decorator_list]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                allowed.append(node.value)
        reachable = {id(sub) for node in allowed if node is not None
                     for sub in ast.walk(node)}
        misplaced += [f"{path.name}:{node.lineno}"
                      for node in _cache_uses(tree)
                      if id(node) not in reachable]
    assert misplaced == []


def test_factorization_hash_reads_no_factor(monkeypatch):
    fact = algebra.factor_unity(11, 5)
    hashed = []

    def counted(info):
        hashed.append(info)
        return 0
    monkeypatch.setattr(algebra.FactorInfo, "__hash__", counted)
    assert hash(fact) == hash(algebra.factor_unity(11, 5))
    assert hashed == []


def _tracer_targets() -> dict:
    """``TARGETS`` of the benchmark's tracer, read from its source."""
    for node in _tree(TRACER).body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["TARGETS"]):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py assigns no TARGETS")


def test_every_traced_target_resolves():
    """The traced run wraps each (module, attribute path) of the
    tracer's ``TARGETS``: a function of the module, or a method in its
    class's own ``vars()``."""
    targets = [place for places in _tracer_targets().values()
               for place in places]
    missing = []
    for module_name, attr in targets:
        try:
            owner = importlib.import_module(module_name)
            *classes, name = attr.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            found = vars(owner)[name]
        except (ImportError, AttributeError, KeyError):
            missing.append(f"{module_name}:{attr}")
            continue
        if not callable(getattr(found, "__func__", found)):
            missing.append(f"{module_name}:{attr}")
    assert len(targets) >= 20
    assert missing == []


def test_the_tracer_hit_counters_read_existing_caches():
    """The tracer counts cache hits by reading
    ``Factorization._subcode_cache`` and
    ``ConstituentDecomposition._dcache``, the only private state it
    reads; both stay dict fields of their dataclasses."""
    read = {node.attr for node in ast.walk(_tree(TRACER))
            if isinstance(node, ast.Attribute)
            and node.attr.startswith("_") and not _is_dunder(node.attr)}
    assert read == {"_subcode_cache", "_dcache"}
    for cls, name in ((algebra.Factorization, "_subcode_cache"),
                      (qc.ConstituentDecomposition, "_dcache")):
        fields = {f.name: f for f in dataclasses.fields(cls)}
        assert fields[name].default_factory is dict

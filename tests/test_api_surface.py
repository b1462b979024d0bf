"""A pin on the number of settable values in `src/ccgeo`.

A settable value is a defaulted parameter of a `def` (positional or
keyword-only) or a field with a default in a dataclass.  Each one is a
setting that tests and benchmarks would have to cover, so the count is
pinned: a change that adds or removes one must say so here.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ccgeo"

#: settable values in src/ccgeo; 51 since symexpr._compile's form lost its
#: default (its one caller, symexpr._kernel, always passes the form), after
#: ReachGraph's res lost its default (keyword-only and required, like
#: reach_graph's: every caller passes it), verify_uniform_hormander lost jets
#: (its one caller passing precomputed jets went with check_scaling_map), and
#: Box.grid's per_axis, reach_graph's res and MetricEstimate.intersects's slack
#: their defaults
SETTABLE_VALUES = 51

#: the packaged scenarios: perfbench builds its reach and scale op lists from
#: every .scn file in src/ccgeo/fixtures, so a new one there changes them
PACKAGED_FIXTURES = (
    "degenerate.scn",
    "elliptic.scn",
    "grushin.scn",
    "grushin_straightened.scn",
    "heat.scn",
    "heisenberg.scn",
)


def _is_dataclass(cls: ast.ClassDef) -> bool:
    """Decorated `@dataclass` or `@dataclass(...)`, the forms src/ccgeo uses."""
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass" for d in cls.decorator_list)


def count_settable(tree: ast.AST) -> int:
    """Defaulted `def` parameters plus dataclass fields with a default."""
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            count += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None for s in node.body)
    return count


def test_counter_reads_defaults_and_dataclass_fields():
    src = (
        "from dataclasses import dataclass\n"
        "def f(a, b=1, *args, c, d=2, **kw): pass\n"
        "g = lambda x=1: x\n"
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    x: int\n"
        "    y: int = 0\n"
        "    def m(self, z=3): pass\n"
        "class B:\n"
        "    w: int = 0\n"
    )
    assert count_settable(ast.parse(src)) == 4  # b, d, y, z


def test_settable_values_are_pinned():
    count = sum(count_settable(ast.parse(p.read_text())) for p in sorted(SRC.rglob("*.py")))
    assert count == SETTABLE_VALUES, (
        f"src/ccgeo has {count} settable values, the pin says {SETTABLE_VALUES}: update "
        "SETTABLE_VALUES in this file and give the reason for each added or removed value in CHANGES.md"
    )


def _top_level_names(tree: ast.Module) -> set[str]:
    """Names a module defines at its top level: defs, classes and assignments."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def _exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return [ast.literal_eval(e) for e in node.value.elts]
    return []


def test_exports_are_defined_in_their_module():
    # a deleted function must not leave its name behind in __all__
    stale = {}
    for p in sorted(SRC.rglob("*.py")):
        tree = ast.parse(p.read_text())
        missing = set(_exports(tree)) - _top_level_names(tree)
        if missing:
            stale[p.name] = sorted(missing)
    assert not stale, f"__all__ names with no top-level definition: {stale}"


def test_export_check_sees_a_stale_name():
    tree = ast.parse("from x import y\n__all__ = ['f', 'C', 'K', 'y', 'gone']\ndef f(): pass\nclass C: pass\nK = 1\n")
    assert set(_exports(tree)) - _top_level_names(tree) == {"y", "gone"}  # an import is not a definition


def test_packaged_fixtures_are_pinned():
    # test-only scenarios belong under tests/fixtures
    assert tuple(sorted(p.name for p in (SRC / "fixtures").glob("*.scn"))) == PACKAGED_FIXTURES


def _calls_of(tree: ast.AST, name: str) -> int:
    """Calls of `name` or of `<anything>.name` in a syntax tree."""
    return sum(
        isinstance(node, ast.Call) and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        for node in ast.walk(tree)
    )


def test_compile_has_one_call_site():
    # every kernel comes from symexpr._kernel's one cache; a second caller of the
    # compiler would be a second cache, or none
    calls = {p.name: _calls_of(ast.parse(p.read_text()), "_compile") for p in sorted(SRC.rglob("*.py"))}
    assert {k: v for k, v in calls.items() if v} == {"symexpr.py": 1}


def test_call_counter_sees_plain_and_attribute_calls():
    tree = ast.parse("_compile(a, 'point')\nsymexpr._compile(b, f)\nx = _compile\ny._compile.z()\n")
    assert _calls_of(tree, "_compile") == 2

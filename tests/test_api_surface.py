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


def _scatter_owners(tree: ast.AST) -> list[str]:
    """The qualified name of the function around each `<anything>.minimum.at(...)` call."""
    owners = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            f = getattr(child, "func", None)
            if isinstance(child, ast.Call) and isinstance(f, ast.Attribute) and f.attr == "at":
                if getattr(f.value, "attr", None) == "minimum":
                    owners.append(".".join(scope))
            visit(child, scope)

    visit(tree, ())
    return owners


def test_minimum_at_is_called_only_in_the_oracle_settle():
    # one owner of the round settle: the order-free least-cost and least-index scatters
    owners = {p.name: _scatter_owners(ast.parse(p.read_text())) for p in sorted(SRC.rglob("*.py"))}
    assert {k: v for k, v in owners.items() if v} == {"ccmetric.py": ["_Slots.settle", "_Slots.settle"]}


def test_scatter_owners_see_methods_and_module_level_calls():
    tree = ast.parse(
        "np.minimum.at(a, k, c)\nclass S:\n    def f(self):\n        def g():\n            numpy.minimum.at(b, k, c)\n"
        "        np.maximum.at(a, k, c)\n        np.minimum.reduce(a)\n"
    )
    assert _scatter_owners(tree) == ["", "S.f.g"]


def _call_sites(tree: ast.Module, name: str) -> dict[str, int]:
    """Calls of `name` (by `_calls_of`) per top-level function and per method,
    a nested function's counting in its own; "" keys those outside every function."""
    defs = [(d.name, d) for d in tree.body if isinstance(d, ast.FunctionDef)]
    defs += [
        (f"{c.name}.{d.name}", d)
        for c in tree.body if isinstance(c, ast.ClassDef)
        for d in c.body if isinstance(d, ast.FunctionDef)
    ]
    sites = {q: k for q, d in defs if (k := _calls_of(d, name))}
    outside = _calls_of(tree, name) - sum(sites.values())
    return {"": outside, **sites} if outside else sites


def _src_call_sites(name: str) -> dict[str, dict[str, int]]:
    return {p.name: s for p in sorted(SRC.rglob("*.py")) if (s := _call_sites(ast.parse(p.read_text()), name))}


def test_call_sites_count_nested_calls_in_their_function_or_method():
    tree = ast.parse("f(1)\ndef g():\n    def h():\n        m.f()\n    f()\nclass C:\n    def k(self):\n        f()\n")
    assert _call_sites(tree, "f") == {"": 1, "g": 2, "C.k": 1}


def test_integrate_controls_is_called_only_by_sampling_and_shooting():
    # shooting integrates the rows of every seed still stepping in one call per step
    assert _src_call_sites("integrate_controls") == {"ccmetric.py": {"sample_ball": 1, "_shoot": 1}}


def test_linalg_solve_is_called_only_by_the_batched_newton_solve_and_pullback():
    # one nan-safe batched Newton solve, ccmetric._newton_steps, serves the
    # geodesic solve and ScalingMap.invert
    assert _src_call_sites("solve") == {"ccmetric.py": {"_newton_steps": 1}, "scaling.py": {"pullback": 1}}


def _defined_functions(tree: ast.AST) -> set[str]:
    return {node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def test_geodesic_equations_have_one_builder_and_one_caller():
    # the normal geodesic equations, of the generators and of the scaled frame, are built
    # once per system in hormander and read only by the one geodesic solve
    defined = {p.name: _defined_functions(ast.parse(p.read_text())) for p in sorted(SRC.rglob("*.py"))}
    assert {k for k, names in defined.items() if any("geodesic" in f and "equation" in f for f in names)} == {"hormander.py"}
    assert _src_call_sites("_geodesic_equations") == {"ccmetric.py": {"_geodesic_upper": 1}}

"""Structural invariants of ``src/repro``: each thing is written once.

Every simplification PR left behind a count that must not grow back — one
loader for generated Python, one native-kernel ladder, one on-disk store,
one executable node, one partition plan, one run state, one operator
table.  They are counted here, on the source text and its AST, so they run
with the tier-1 suite instead of in a CI shell step.
"""

import ast
import inspect
import os
import re
import textwrap

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "repro")
TABLE = os.path.join("lang", "operators.py")


def _sources(*subpaths):
    """``{path relative to src/repro: text}`` of every module under
    ``subpaths`` (files or directories; default: the whole package)."""
    found = {}
    for subpath in subpaths or ("",):
        root = os.path.join(SRC, subpath)
        if os.path.isfile(root):
            walk = [(os.path.dirname(root), [], [os.path.basename(root)])]
        else:
            walk = os.walk(root)
        for directory, _dirs, files in walk:
            for name in files:
                if name.endswith(".py"):
                    path = os.path.join(directory, name)
                    with open(path) as handle:
                        found[os.path.relpath(path, SRC)] = handle.read()
    return found


def _count(pattern, *subpaths):
    regex = re.compile(pattern)
    return sum(
        len(regex.findall(line))
        for text in _sources(*subpaths).values()
        for line in text.splitlines()
    )


def _trees(*subpaths):
    return {
        path: ast.parse(text) for path, text in _sources(*subpaths).items()
    }


# -- one run state, one loader, one ladder, one store, one pipe ---------------


def test_build_state_is_the_only_allocation_under_the_emitters():
    users = [
        path
        for path, text in _sources(
            "scalarize",
            os.path.join("exec", "backends.py"),
            os.path.join("exec", "native.py"),
            os.path.join("interp", "loop_interp.py"),
        ).items()
        if "np.zeros" in text
    ]
    assert users == [os.path.join("scalarize", "emit_common.py")]
    assert _count(r"np\.zeros", os.path.join("scalarize", "emit_common.py")) == 1


def test_the_extent_rule_has_three_spellings_at_most():
    # ScalarProgram.layout, the reference interpreter's allocate_array and
    # mp-shard's chunk geometry.
    assert _count(re.escape("max(hi - lo + 1, 1)")) <= 3


@pytest.mark.parametrize(
    "pattern, where, expected",
    [
        (r"(_SCALAR_DEFAULTS|SCALAR_INIT) *=", (), 1),
        (r"exec\(compile\(", (), 1),
        (r"^(?!\s*def ).*compile_shared\(", (), 1),
        (r"mkstemp\(", (), 1),
        (r"\.Pipe\(", ("daemon", "exec"), 1),
    ],
)
def test_written_once(pattern, where, expected):
    assert _count(pattern, *where) == expected


@pytest.mark.parametrize(
    "pattern, where, bound",
    [
        (r"os\.listdir\(", ("service", "tune"), 2),
        # the alias + __all__ entry the frozen benchmark imports
        (r"ReductionLoop", (), 2),
    ],
)
def test_bounded(pattern, where, bound):
    assert _count(pattern, *where) <= bound


def test_nest_fallback_reason_is_an_adapter_with_no_loop_of_its_own():
    from repro.parallel.shard import nest_fallback_reason

    tree = ast.parse(textwrap.dedent(inspect.getsource(nest_fallback_reason)))
    loops = (ast.For, ast.While, ast.comprehension)
    assert not any(isinstance(node, loops) for node in ast.walk(tree))


def test_generated_python_binds_the_arrays_it_is_handed():
    from repro.benchsuite import get_benchmark
    from repro.fusion import LEVELS_BY_NAME
    from repro.parallel.engine import render_numpy_par
    from repro.scalarize import compile_program, render_numpy, render_python

    tomcatv = compile_program(
        get_benchmark("Tomcatv").test_program(), LEVELS_BY_NAME["c2+f4+cse"]
    )
    for render in (render_python, render_numpy, render_numpy_par):
        assert "_inputs" not in render(tomcatv), render.__name__


# -- one operator table --------------------------------------------------------


def test_intrinsic_names_are_tabulated_once():
    """No dict literal outside the table is keyed by intrinsic names."""
    from repro.lang.operators import INTRINSICS

    offenders = []
    for path, tree in _trees().items():
        if path == TABLE:
            continue
        for node in ast.walk(tree):
            if not isinstance(node, ast.Dict):
                continue
            keys = {
                key.value for key in node.keys
                if isinstance(key, ast.Constant) and isinstance(key.value, str)
            }
            if len(keys & set(INTRINSICS)) >= 2:
                offenders.append("%s:%d" % (path, node.lineno))
    assert offenders == []


def test_the_result_kind_rule_is_spelled_in_the_table_only():
    """``/`` and ``^`` are float, comparisons boolean, else the join."""
    from repro.lang import operators

    spellers = set()
    for path, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Compare, ast.BoolOp)):
                strings = {
                    leaf.value for leaf in ast.walk(node)
                    if isinstance(leaf, ast.Constant)
                }
                if {"/", "^"} <= strings:
                    spellers.add(path)
    assert spellers == set()
    for name, row in operators.BINARY.items():
        if name in ("/", "^"):
            assert row.result == operators.FLOAT
        elif name in ("+", "-", "*", "%"):
            assert row.result == operators.JOIN
        else:
            assert row.result == operators.BOOLEAN


def test_join_kinds_is_defined_once():
    definitions = [
        path
        for path, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "join_kinds"
    ]
    assert definitions == [TABLE]
    assert _count(r"_KIND_RANK *=") == 1


def test_the_lazy_frontend_takes_kinds_from_the_table():
    """Not from the back end: where ``repro.array`` computes a kind
    (``graph``, ``ops``) nothing of ``repro.scalarize`` is imported."""
    for path, tree in _trees(
        os.path.join("array", "graph.py"), os.path.join("array", "ops.py")
    ).items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert not (node.module or "").startswith("repro.scalarize"), path
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    assert not alias.name.startswith("repro.scalarize"), path

"""Structural invariants of ``src/repro``: each thing is written once.

Every simplification PR left behind a count that must not grow back — one
loader for generated Python, one native-kernel ladder, one on-disk store,
one executable node, one partition plan, one run state, one operator
table.  They are counted here, on the source text and its AST, so they run
with the tier-1 suite instead of in a CI shell step.  So is the public
surface: a change that adds a knob has to edit the count here.
"""

import argparse
import ast
import inspect
import os
import re
import subprocess
import sys
import textwrap

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "repro")
TABLE = os.path.join("lang", "operators.py")

#: The deleted tile-parallel backend's name: the user-error tests ask
#: for it, and nothing under ``src/repro`` may spell it.
REMOVED_BACKEND = "np-par"


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


# -- the public surface --------------------------------------------------------


def _subcommands():
    from repro.cli import _build_parser

    (action,) = [
        action for action in _build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return action.choices


def test_service_takes_nine_parameters():
    from repro.service import Service

    parameters = inspect.signature(Service.__init__).parameters
    assert len(parameters) - 1 == 9, list(parameters)


def test_cli_has_eight_subcommands_and_twenty_six_flags():
    subcommands = _subcommands()
    assert len(subcommands) == 8, sorted(subcommands)
    flags = {
        name: {
            option
            for action in parser._actions
            for option in action.option_strings
            if option.startswith("--") and option != "--help"
        }
        for name, parser in subcommands.items()
    }
    assert len(set().union(*flags.values())) == 26, flags
    # Requests run concurrently only on the daemon's worker processes
    # (--daemon-workers): no subcommand sizes a thread fan-out or a batch.
    assert not [
        name for name in flags if flags[name] & {"--workers", "--batch-max"}
    ]


def test_five_environment_variables():
    names = set(re.findall(r"REPRO_[A-Z_]+", "\n".join(_sources().values())))
    assert len(names) == 5, sorted(names)


def test_one_way_to_serve_concurrently():
    # Requests run concurrently on the daemon's forked workers, one job
    # per dispatch; no second way (batches, shared replies, another
    # start method, a thread pool) may come back beside it.
    from repro.daemon import DaemonConfig
    from repro.service import Service

    pattern = "take_batch|_coalesce_key|batch_max|mp_method|REPRO_DAEMON_MP"
    assert _count(pattern) == 0
    assert _count("ThreadPoolExecutor", "service") == 0
    assert len(DaemonConfig.__dataclass_fields__) == 10
    assert "workers" not in inspect.signature(Service.submit_many).parameters


def test_five_backends_and_no_tile_engine():
    from repro.exec import BACKEND_CHOICES

    assert len(BACKEND_CHOICES) == 5, BACKEND_CHOICES
    pattern = "TileEngine|render_numpy_par|" + re.escape(REMOVED_BACKEND)
    assert _count(pattern) == 0


def test_an_artifact_is_built_addressed_and_run_one_way():
    # One build path for both frontends, one address per frontend (source
    # or trace digest), and an artifact runs on the backend it holds code
    # for; admission hashes nothing, the worker's reply names the digest.
    from repro.daemon.admission import Job
    from repro.service import CompiledProgram, Service

    pattern = "_build_ir|ir_digest|canonical_program|canonical_expr|event_spans"
    assert _count(pattern) == 0
    tree = ast.parse(textwrap.dedent(inspect.getsource(Service)))
    builders = [
        node.name for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_build")
    ]
    assert builders == ["_build"]
    execute = inspect.signature(CompiledProgram.execute).parameters
    assert list(execute) == ["self", "request"]
    assert "digest" not in Job.__dataclass_fields__


def test_a_service_imports_no_parallel_module():
    code = (
        "import sys\n"
        "from repro.service import Service\n"
        "Service(persistent=False)\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.parallel')))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(SRC, os.pardir))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
        # the allocator policy, set once per process by repro.exec.backends
        (r"mallopt\(", (), 1),
        # cache-less kernels are unlinked once loaded: no scratch directory
        (r"_scratch_dir", (os.path.join("exec", "native.py"),), 0),
        (r"atexit\.register\(shutil\.rmtree", (os.path.join("exec", "native.py"),), 0),
        # an mp-shard run's plan, steps and views are one prepared run:
        # no second memo beside it, no per-call region environment
        (r"plan_cache|_region_env", (), 0),
        # a schedule without combining spells its one-event groups inline
        (r"singleton_messages", (), 0),
        # mp-shard ranks wait on their pipe barrier and broadcast scalars
        # down its pipes: no multiprocessing barrier, no pickle segment
        (r"ctx\.Barrier|_SCAL_SEG_BYTES", (), 0),
        # the §5.5 element size and the runaway-loop step limit
        (r"ELEM_BYTES *=", ("parallel", "exec"), 1),
        (r"50_000_000", (), 1),
    ],
)
def test_written_once(pattern, where, expected):
    assert _count(pattern, *where) == expected


@pytest.mark.parametrize(
    "pattern, where, bound",
    [
        (r"os\.listdir\(", ("service",), 2),
        # the alias + __all__ entry the frozen benchmark imports
        (r"ReductionLoop", (), 2),
    ],
)
def test_bounded(pattern, where, bound):
    assert _count(pattern, *where) <= bound


def test_no_result_is_recognised_by_its_name():
    """What a run returns is declared (``ScalarProgram.result_scalars``):
    no code under ``src/`` or ``tests/`` filters results by how a name is
    spelled.  The namers (``contraction_scalar``, ``is_cse_scalar``) stay."""
    filters = re.compile(r"""(startswith\(\s*(["'])_\2|endswith\(\s*(["'])__s\3)""")
    tests = os.path.dirname(__file__)
    texts = list(_sources().values())
    for name in os.listdir(tests):
        if name.endswith(".py"):
            with open(os.path.join(tests, name)) as handle:
                texts.append(handle.read())
    assert sum(len(filters.findall(text)) for text in texts) == 0


def test_an_exchange_is_one_immutable_value_from_schedule_to_report():
    # mp-shard executes, interns and reports the tuples plan_run builds:
    # no planned-object classes, no dict rebuilt from them, no second
    # interning table, no forwarding properties.
    from repro.exec.mp_shard import ExchangeRecord
    from repro.parallel.comm import CommEvent
    from repro.parallel.commopt import CommOptions
    from repro.parallel.shard import EventPlan, Exchange, PlannedMessage

    pattern = (
        "PlannedCopy|PlannedEvent|ExchangeDescription|event_dicts|"
        "_described|fallback_indices"
    )
    assert _count(pattern) == 0
    for value in (
        CommEvent, CommOptions, EventPlan, Exchange, PlannedMessage,
        ExchangeRecord,
    ):
        assert issubclass(value, tuple), value


def test_nest_fallback_reason_is_an_adapter_with_no_loop_of_its_own():
    from repro.parallel.shard import nest_fallback_reason

    tree = ast.parse(textwrap.dedent(inspect.getsource(nest_fallback_reason)))
    loops = (ast.For, ast.While, ast.comprehension)
    assert not any(isinstance(node, loops) for node in ast.walk(tree))


def test_generated_python_binds_the_arrays_it_is_handed():
    from repro.benchsuite import get_benchmark
    from repro.fusion import LEVELS_BY_NAME
    from repro.scalarize import compile_program, render_numpy, render_python

    tomcatv = compile_program(
        get_benchmark("Tomcatv").test_program(), LEVELS_BY_NAME["c2+f4+cse"]
    )
    for render in (render_python, render_numpy):
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


def test_no_ir_expression_node_is_changed_after_it_is_built():
    """``repro.ir.expr.compile_memo`` keeps what a node references for a
    whole compile, which holds only while nodes never change: a field of an
    ``ir/expr.py`` node is assigned in its own class's ``__init__`` and
    nowhere else.  Modules that import nothing from ``repro.ir`` (the
    language front end and its own AST) hold no IR node and are skipped."""
    trees = _trees()
    expr_path = os.path.join("ir", "expr.py")
    slots = {}  # IR node class -> its fields
    for node in trees[expr_path].body:
        if not isinstance(node, ast.ClassDef):
            continue
        if node.name != "IRExpr" and not any(
            getattr(base, "id", None) in slots for base in node.bases
        ):
            continue
        slots[node.name] = set()
        for item in node.body:
            if isinstance(item, ast.Assign):
                if ast.unparse(item.targets[0]) == "__slots__":
                    slots[node.name] = set(ast.literal_eval(item.value))
    fields = set().union(*slots.values())
    assert {"value", "name", "offset", "left", "operand", "args"} <= fields

    def stores(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                if node.attr in fields:
                    yield node

    changed = []
    for path, tree in trees.items():
        if path == expr_path:
            for cls in tree.body:
                for item in getattr(cls, "body", ()):
                    if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                        if cls.name in slots:
                            continue
                    changed += ["%s:%d" % (path, n.lineno) for n in stores(item)]
        elif _imports_ir(tree):
            changed += [
                "%s:%d" % (path, n.lineno)
                for n in stores(tree)
                if not (isinstance(n.value, ast.Name) and n.value.id == "self")
            ]
    assert changed == []


def _imports_ir(tree):
    """Does the module import anything from ``repro.ir``?"""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            if node.module.split(".")[:2] == ["repro", "ir"]:
                return True
            if node.module == "repro" and any(a.name == "ir" for a in node.names):
                return True
        if isinstance(node, ast.Import) and any(
            a.name.split(".")[:2] == ["repro", "ir"] for a in node.names
        ):
            return True
    return False

"""Array-level redundancy elimination (CSE) over fused clusters.

Fusion and contraction eliminate *storage* traffic; this pass eliminates
redundant *computation* that fusion exposes.  Within one fusible cluster
every member statement evaluates over the same iteration space, so a
term ``f(A@d1, ..., s, Index_k)`` that appears (textually identical,
after contraction rewriting) in several member right-hand sides computes
the same value at every point of the cluster's region.  The pass
value-numbers such terms, hoists each profitable one into a
cluster-local scalar (an :class:`ElemAssign` with a scalar target —
exactly the shape a contracted statement already takes, so all four
emitters handle it with no new machinery), and replaces the occurrences
with a scalar read.

Value numbering is *offset-canonicalized*: two terms whose array
references differ by one constant shift share a value class (the recipe
of "Redundant Array Computation Elimination", arXiv 2506.21960).  A
class collapses to a single hoisted evaluation only where the shift is
zero — the dependence structure then proves the elements coincide
pointwise at every iteration.  Classes whose members are related by a
*non-zero* shift are reported in the statistics as cross-iteration reuse
candidates but are not rewritten: realizing them needs carried rotating
scalars, which would serialize the vectorized back ends (see
ALGORITHMS.md section 11).

Legality of a hoist (term ``T`` with occurrences in member statements
``i <= ... <= j`` of one cluster):

1. ``T`` reads no array written by the cluster.  This makes ``T``
   loop-invariant with respect to the cluster's own stores, so the hoist
   is valid under element order (interp/codegen_py/c) and under
   whole-region statement order (codegen_np) alike.
2. No scalar read by ``T`` is (re)defined by a member statement between
   the first occurrence and a reused occurrence; occurrences past the
   first such definition simply stay inline (a later round may hoist
   them again separately).
3. The rewrite must not change a nest's thread class
   (:meth:`repro.scalarize.loopnest.PartitionPlan.thread_class`): a
   cluster that reads one of its own arrays at a non-zero offset is
   ``per-statement``, and introducing the *first* scalar-target
   statement into such a nest would make it ``serial`` — those clusters
   are skipped unless they already carry contracted statements.  The
   rule also fixes which terms are hoisted, so the generated text and
   the hoist counts are pinned by it.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from repro.ir import expr as ir
from repro.ir.statement import ArrayStatement, ReductionStatement
from repro.util.vectors import is_zero

#: A hoist must save at least this many operation evaluations per index
#: point: ``(uses - 1) * op_count >= MIN_SAVED_OPS``.  At 2, a one-op
#: term used twice (saving a single add) is not worth the scalar
#: traffic, while a 2-op stencil sum used twice (or a one-op term used
#: three times) is.
MIN_SAVED_OPS = 2

#: Prefix for hoisted-term scalars.
CSE_SCALAR_PREFIX = "_cse"


def is_cse_scalar(name: str) -> bool:
    """True for scalars introduced by redundancy elimination."""
    return name.startswith(CSE_SCALAR_PREFIX)


class HoistedTerm(NamedTuple):
    """One hoisted term: evaluate ``rhs`` into ``scalar`` once per point,
    immediately before statement ``before_uid``."""

    scalar: str
    rhs: ir.IRExpr
    before_uid: int
    uses: int
    saved_ops: int


class ClusterCSE(NamedTuple):
    """Redundancy-elimination outcome for one fusible cluster."""

    hoists: List[HoistedTerm]
    rewritten: Dict[int, ir.IRExpr]  # statement uid -> rewritten rhs


class CSEStats(NamedTuple):
    """Block-level accounting (drives the cost prior and the bench)."""

    clusters_scanned: int = 0
    clusters_skipped: int = 0
    terms_hoisted: int = 0
    uses_replaced: int = 0
    saved_ops_per_point: int = 0
    value_classes: int = 0
    shifted_classes: int = 0

    def merge(self, other: "CSEStats") -> "CSEStats":
        return CSEStats(*(a + b for a, b in zip(self, other)))


class BlockCSE:
    """Per-cluster hoists and rewritten right-hand sides for one block."""

    __slots__ = ("clusters", "stats")

    def __init__(
        self, clusters: Dict[int, ClusterCSE], stats: CSEStats
    ) -> None:
        self.clusters = clusters
        self.stats = stats

    def for_cluster(self, cluster_id: int) -> Optional[ClusterCSE]:
        return self.clusters.get(cluster_id)

    def __repr__(self) -> str:
        return "BlockCSE(%d clusters, %d terms, %d ops/point saved)" % (
            len(self.clusters),
            self.stats.terms_hoisted,
            self.stats.saved_ops_per_point,
        )


# -- value numbering ---------------------------------------------------------


def _key(expr: ir.IRExpr, memo: Optional[Dict[ir.IRExpr, Tuple]] = None) -> Tuple:
    """A structural key: equal keys <=> identical terms (dtype-exact).

    ``Const(1)``, ``Const(1.0)`` and ``Const(True)`` must not share a
    key — they promote differently — hence the value's type is part of
    the key.  ``memo`` holds the keys of nodes already seen: a node never
    changes, so neither does its key.
    """
    if memo is None:
        memo = {}
    key = memo.get(expr)
    if key is not None:
        return key
    if isinstance(expr, ir.Const):
        key = ("c", type(expr.value).__name__, repr(expr.value))
    elif isinstance(expr, ir.ScalarRef):
        key = ("s", expr.name)
    elif isinstance(expr, ir.ArrayRef):
        key = ("a", expr.name, expr.offset)
    elif isinstance(expr, ir.IndexRef):
        key = ("i", expr.dim)
    elif isinstance(expr, ir.BinOp):
        key = ("b", expr.op, _key(expr.left, memo), _key(expr.right, memo))
    elif isinstance(expr, ir.UnOp):
        key = ("u", expr.op, _key(expr.operand, memo))
    elif isinstance(expr, ir.Call):
        key = ("f", expr.name) + tuple(_key(arg, memo) for arg in expr.args)
    else:
        # Reduce (or future nodes): opaque, never value-numbered.
        key = ("opaque", id(expr))
    memo[expr] = key
    return key


def _canonical_key(
    expr: ir.IRExpr, memo: Optional[Dict[ir.IRExpr, Tuple]] = None
) -> Tuple:
    """The shift-canonicalized key: offsets relative to the term's first
    array reference, so ``A@(0,1) + B@(0,0)`` and ``A@(1,1) + B@(1,0)``
    share a value class (they read the same elements one iteration
    apart)."""
    refs = expr.array_refs()
    if not refs:
        return _key(expr, memo)
    base = refs[0].offset

    def visit(node: ir.IRExpr) -> Optional[ir.IRExpr]:
        if isinstance(node, ir.ArrayRef):
            delta = tuple(o - b for o, b in zip(node.offset, base))
            return ir.ArrayRef(node.name, delta)
        return None

    return _key(expr.map(visit), memo)


def _replace_key(
    expr: ir.IRExpr,
    key: Tuple,
    repl: ir.IRExpr,
    memo: Optional[Dict[ir.IRExpr, Tuple]] = None,
) -> ir.IRExpr:
    """Top-down replacement of every subtree matching ``key``.

    Top-down, not :meth:`IRExpr.map` (bottom-up): rewriting an inner
    occurrence first would destroy the match of an enclosing one.
    """
    if _key(expr, memo) == key:
        return repl
    children = list(expr.children())
    if not children:
        return expr
    new_children = [_replace_key(child, key, repl, memo) for child in children]
    if all(new is old for new, old in zip(new_children, children)):
        return expr
    return expr._rebuild(new_children)


# -- per-cluster analysis ----------------------------------------------------


class _Entry:
    """One statement of the working body: a cluster member or a hoist."""

    __slots__ = ("uid", "rhs", "scalar_def", "hoist")

    def __init__(self, uid, rhs, scalar_def, hoist=None):
        self.uid = uid
        self.rhs = rhs
        self.scalar_def = scalar_def
        self.hoist = hoist  # (scalar, uses, saved_ops) for hoist entries


class _Candidate(NamedTuple):
    key: Tuple
    expr: ir.IRExpr
    positions: List[int]  # entry index of every legal occurrence
    saved: int


def _rewrite_contracted(
    stmt: ArrayStatement, range_scalars: Dict[tuple, str]
) -> Optional[ir.IRExpr]:
    """The statement's rhs with contracted-range reads as scalars, or
    ``None`` when a contracted read is offset (scalarization will reject
    the plan; redundancy elimination stays out of the way)."""
    bad = []

    def visit(node: ir.IRExpr) -> Optional[ir.IRExpr]:
        if isinstance(node, ir.ArrayRef):
            scalar = range_scalars.get((stmt.uid, node.name))
            if scalar is not None:
                if not is_zero(node.offset):
                    bad.append(node)
                    return None
                return ir.ScalarRef(scalar)
        return None

    rewritten = stmt.rhs.map(visit)
    return None if bad else rewritten


def _candidates(
    entries: List[_Entry],
    written_arrays: Set[str],
    memo: Optional[Dict[ir.IRExpr, Tuple]] = None,
) -> List[_Candidate]:
    occurrences: Dict[Tuple, List[Tuple[int, ir.IRExpr]]] = {}
    for pos, entry in enumerate(entries):
        for node in entry.rhs.walk():
            if not isinstance(node, (ir.BinOp, ir.UnOp, ir.Call)):
                continue
            if isinstance(node, ir.Reduce):
                continue
            occurrences.setdefault(_key(node, memo), []).append((pos, node))

    result: List[_Candidate] = []
    for key, occs in occurrences.items():
        if len(occs) < 2:
            continue
        expr = occs[0][1]
        if any(ref.name in written_arrays for ref in expr.array_refs()):
            continue
        scalar_reads = {ref.name for ref in expr.scalar_refs()}
        first_pos = occs[0][0]
        legal = [first_pos]
        barrier = None
        for pos, _node in occs[1:]:
            if barrier is None:
                for between in range(max(legal[-1], first_pos), pos):
                    defined = entries[between].scalar_def
                    if defined is not None and defined in scalar_reads:
                        barrier = between
                        break
            if barrier is not None and pos > barrier:
                break
            legal.append(pos)
        if len(legal) < 2:
            continue
        saved = (len(legal) - 1) * expr.op_count()
        if saved < MIN_SAVED_OPS:
            continue
        result.append(_Candidate(key, expr, legal, saved))
    return result


def _eliminate_cluster(
    members: List[ArrayStatement],
    range_scalars: Dict[tuple, str],
    name_fn,
) -> Tuple[Optional[ClusterCSE], CSEStats]:
    entries: List[_Entry] = []
    written_arrays: Set[str] = set()
    has_contracted = False
    offset_self_read = False
    key_memo: Dict[ir.IRExpr, Tuple] = {}

    for stmt in members:
        rhs = _rewrite_contracted(stmt, range_scalars)
        if rhs is None:
            return None, CSEStats(clusters_scanned=1, clusters_skipped=1)
        if isinstance(stmt, ReductionStatement):
            scalar_def = stmt.scalar_target
            has_contracted = True
        else:
            scalar_def = range_scalars.get((stmt.uid, stmt.target))
            if scalar_def is not None:
                has_contracted = True
            else:
                written_arrays.add(stmt.target)
        entries.append(_Entry(stmt.uid, rhs, scalar_def))

    for entry in entries:
        for ref in entry.rhs.array_refs():
            if ref.name in written_arrays and not is_zero(ref.offset):
                offset_self_read = True

    # Shift-canonical value classes (reported, not rewritten; see module
    # docstring) — computed before any rewriting so the statistics
    # describe the source cluster.
    classes: Dict[Tuple, Set[Tuple]] = {}
    for entry in entries:
        for node in entry.rhs.walk():
            if isinstance(node, (ir.BinOp, ir.UnOp, ir.Call)):
                classes.setdefault(_canonical_key(node, key_memo), set()).add(
                    _key(node, key_memo)
                )
    value_classes = sum(1 for keys in classes.values() if len(keys) >= 1)
    shifted_classes = sum(1 for keys in classes.values() if len(keys) >= 2)

    stats = CSEStats(
        clusters_scanned=1,
        value_classes=value_classes,
        shifted_classes=shifted_classes,
    )

    if offset_self_read and not has_contracted:
        # Hoisting would introduce the first scalar-target statement into
        # a per-statement nest, making its thread class serial (legality
        # rule 3): skip the cluster.
        return None, stats._replace(clusters_skipped=1)

    while True:
        candidates = _candidates(entries, written_arrays, key_memo)
        if not candidates:
            break
        best = max(candidates, key=lambda c: (c.saved, -c.positions[0]))
        scalar = name_fn()
        repl = ir.ScalarRef(scalar)
        first, last = best.positions[0], best.positions[-1]
        for pos in range(first, last + 1):
            entries[pos].rhs = _replace_key(entries[pos].rhs, best.key, repl, key_memo)
        entries.insert(
            first,
            _Entry(
                None,
                best.expr,
                scalar,
                hoist=(scalar, len(best.positions), best.saved),
            ),
        )
        stats = stats._replace(
            terms_hoisted=stats.terms_hoisted + 1,
            uses_replaced=stats.uses_replaced + len(best.positions),
            saved_ops_per_point=stats.saved_ops_per_point + best.saved,
        )

    if stats.terms_hoisted == 0:
        return None, stats

    hoists: List[HoistedTerm] = []
    rewritten: Dict[int, ir.IRExpr] = {}
    pending: List[_Entry] = []
    for entry in entries:
        if entry.hoist is not None:
            pending.append(entry)
            continue
        for hoist_entry in pending:
            scalar, uses, saved = hoist_entry.hoist
            hoists.append(
                HoistedTerm(scalar, hoist_entry.rhs, entry.uid, uses, saved)
            )
        pending = []
        rewritten[entry.uid] = entry.rhs
    # pending cannot be non-empty here: a hoist is always inserted at the
    # position of a real occurrence, so a real entry follows it.
    return ClusterCSE(hoists, rewritten), stats


# -- block driver ------------------------------------------------------------


def eliminate_redundancies(
    partition, range_scalars, block_ordinal: int = 0
) -> BlockCSE:
    """Run redundancy elimination over every cluster of one block.

    ``partition`` is the block's :class:`FusionPartition` after all
    fusion passes; ``range_scalars`` the contraction outcome
    (``(statement uid, array) -> scalar``); ``block_ordinal`` the
    block's position in the program, making hoist-scalar names a pure
    function of (source, level) — statement uids are process-global and
    would break generated-code determinism (and with it the compile
    cache's fingerprinting).  Returns a :class:`BlockCSE` consumed by
    the scalarizer.
    """
    clusters: Dict[int, ClusterCSE] = {}
    stats = CSEStats()
    counter = [0]

    def name_fn() -> str:
        name = "%s%d_%d" % (CSE_SCALAR_PREFIX, block_ordinal, counter[0])
        counter[0] += 1
        return name

    for cluster_id in partition.cluster_order():
        members = partition.statement_order(cluster_id)
        if len(members) == 0:
            continue
        cluster_cse, cluster_stats = _eliminate_cluster(
            members, range_scalars, name_fn
        )
        stats = stats.merge(cluster_stats)
        if cluster_cse is not None:
            clusters[cluster_id] = cluster_cse
    return BlockCSE(clusters, stats)

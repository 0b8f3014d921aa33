"""Execution of XQuery⁻ subexpressions over runtime buffers.

When an ``on-first`` handler fires (or a conditional string has to be
emitted), the engine evaluates an XQuery⁻ expression whose free variables are
*scope variables* -- variables bound by the surrounding ``process-stream``
blocks.  The data available for a scope variable is

* its event buffer, projected according to the buffer tree (Section 5), and
* its on-the-fly condition value store (for paths that are compared against
  constants and are therefore never buffered).

This module provides the environment abstraction
(:class:`ScopeBinding` / :class:`RuntimeEnvironment`) and an evaluator that
mirrors :mod:`repro.xquery.semantics` but resolves paths through that hybrid
environment.  Variables bound by for-loops during the evaluation itself are
ordinary tree nodes (materialised from buffers), so nested loops and join
conditions work exactly as in the reference evaluator.

Value joins (paper §6 computes them "by naive nested loops") are
**probed** by default: a ``for $v in $s/π where χ`` whose ``χ`` compares an
operand of ``$v`` with an operand of outer variables only looks up an index
over ``$s/π`` built once per handler firing -- a hash index for ``=``,
sorted numeric keys for ``<``/``<=``/``>``/``>=``.  The index is a
*candidate prefilter*: it never drops a node that can satisfy ``χ``, the
candidates are taken in document order and the full ``χ`` is evaluated on
each one, so the output is exactly the nested loop's.  A
:class:`RuntimeEnvironment` built with ``indexed_joins=False`` runs the
nested loop of the paper.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Tuple, Union

from repro.engine.buffers import EventBuffer
from repro.engine.projection import BufferTreeNode
from repro.xmlstream.tree import XMLNode
from repro.xquery.ast import (
    AndCondition,
    ComparisonCondition,
    Condition,
    EmptyCondition,
    EmptyExpr,
    ExistsCondition,
    ForExpr,
    IfExpr,
    NotCondition,
    NumberLiteral,
    OrCondition,
    PathOutputExpr,
    PathRef,
    ScaledPath,
    SequenceExpr,
    StringLiteral,
    TextExpr,
    TrueCondition,
    VarOutputExpr,
    XQExpr,
    conjuncts,
)
from repro.xquery.errors import XQueryEvaluationError
from repro.xquery.semantics import (
    compare_existential,
    equality_key,
    _as_number,
    _format_number,
)

Path = Tuple[str, ...]


class ScopeBinding:
    """Runtime data bound to one scope variable."""

    def __init__(
        self,
        var: str,
        element_name: str,
        *,
        buffer: Optional[EventBuffer] = None,
        buffer_tree: Optional[BufferTreeNode] = None,
        value_store: Optional[Dict[Path, List[str]]] = None,
    ):
        self.var = var
        self.element_name = element_name
        self.buffer = buffer
        self.buffer_tree = buffer_tree
        self.value_store = value_store if value_store is not None else {}

    # --------------------------------------------------------------- data

    @property
    def root_marked(self) -> bool:
        """Whether the buffer captures the scope element itself (``{$x}`` output)."""
        return self.buffer_tree is not None and self.buffer_tree.marked

    def materialize(self) -> XMLNode:
        """Build a navigable node for this scope from the buffered events.

        ``allow_open=True``: handler conditions may navigate a scope buffer
        *mid-stream*, while the scope element (and the deferred child being
        gated) are still open; Definition 3.6 safety guarantees the
        navigated paths themselves are complete.
        """
        if self.buffer is None:
            return XMLNode(self.element_name)
        if self.root_marked:
            node = self.buffer.to_single_node(allow_open=True)
            if node is None:
                return XMLNode(self.element_name)
            return node
        return self.buffer.to_tree(self.element_name, allow_open=True)

    def covers_path(self, path: Path) -> bool:
        """Whether the buffer tree captures the content reachable via ``path``."""
        return self.buffer_tree is not None and self.buffer_tree.covers(path)

    def stored_values(self, path: Path) -> Optional[List[str]]:
        """On-the-fly captured values for ``path``, if it is tracked."""
        return self.value_store.get(path)


Binding = Union[XMLNode, ScopeBinding]


class RuntimeEnvironment:
    """Variable environment mixing tree nodes and scope bindings.

    One environment (and the children :meth:`with_node` derives from it)
    serves one handler firing.  The materialised scope trees, the resolved
    values of tree-node paths and the join indexes are cached for that
    firing only: buffers cannot change while a handler body runs, and a new
    firing builds a new environment, so nothing cached can go stale.
    ``indexed_joins=False`` selects the paper's nested-loop joins, which
    re-resolve every compared path per pair: neither the join index nor
    the value memo is kept.
    """

    def __init__(
        self, bindings: Optional[Dict[str, Binding]] = None, *, indexed_joins: bool = True
    ):
        self._bindings: Dict[str, Binding] = dict(bindings or {})
        self._materialized: Dict[str, XMLNode] = {}
        # (id(node), path) -> (node, values); the node pins its id.
        self._values: Optional[Dict[Tuple[int, Path], Tuple[XMLNode, List[str]]]] = (
            {} if indexed_joins else None
        )
        self._joins: Dict[tuple, "_JoinIndex"] = {}
        self.indexed_joins = indexed_joins

    def with_node(self, var: str, node: XMLNode) -> "RuntimeEnvironment":
        """Child environment with an additional tree-node binding."""
        child = RuntimeEnvironment.__new__(RuntimeEnvironment)
        child._bindings = {**self._bindings, var: node}
        child._materialized = self._materialized
        child._values = self._values
        child._joins = self._joins
        child.indexed_joins = self.indexed_joins
        return child

    def binding(self, var: str) -> Binding:
        try:
            return self._bindings[var]
        except KeyError:
            raise XQueryEvaluationError(f"unbound variable {var} at handler execution time") from None

    def _materialized_scope(self, var: str, binding: ScopeBinding) -> XMLNode:
        if var not in self._materialized:
            self._materialized[var] = binding.materialize()
        return self._materialized[var]

    # ----------------------------------------------------------- resolution

    def resolve_nodes(self, var: str, path: Path) -> List[XMLNode]:
        """Nodes reachable from ``var`` via ``path`` (for loops and outputs)."""
        binding = self.binding(var)
        if isinstance(binding, XMLNode):
            return binding.select_path(path)
        return self._materialized_scope(var, binding).select_path(path)

    def resolve_values(self, var: str, path: Path) -> List[str]:
        """Atomised string values reachable from ``var`` via ``path`` (for conditions).

        Values of tree nodes are memoised for the firing; callers must not
        mutate the returned list.
        """
        binding = self.binding(var)
        if isinstance(binding, XMLNode):
            return self._node_values(binding, path)
        if binding.covers_path(path):
            return self._node_values(self._materialized_scope(var, binding), path)
        stored = binding.stored_values(path)
        if stored is not None:
            return list(stored)
        # The path is neither buffered nor tracked: for a safe query this
        # means it simply cannot have any matches in the current scope.
        return []

    def _node_values(self, node: XMLNode, path: Path) -> List[str]:
        if self._values is None:
            return [match.text_content() for match in node.select_path(path)]
        key = (id(node), path)
        hit = self._values.get(key)
        if hit is None:
            hit = (node, [match.text_content() for match in node.select_path(path)])
            self._values[key] = hit
        return hit[1]

    def join_candidates(self, loop: ForExpr, inner, op: str, outer) -> List[XMLNode]:
        """The nodes of ``loop``'s path that may satisfy ``inner op outer``.

        ``inner`` reads the loop variable, ``outer`` only variables bound
        outside the loop.  The index over the loop's nodes is built on first
        use in this firing, keyed by the source node and path like
        :attr:`_materialized`.
        """
        source = self.binding(loop.source)
        if not isinstance(source, XMLNode):
            source = self._materialized_scope(loop.source, source)
        hashed = op == "="
        key = (id(source), loop.path, inner, hashed)
        index = self._joins.get(key)
        if index is None:
            nodes = source.select_path(loop.path)
            values = [_operand_values(inner, self.with_node(loop.var, node)) for node in nodes]
            index = _JoinIndex(source, nodes, values, hashed)
            self._joins[key] = index
        return index.candidates(op, _operand_values(outer, self))

    def resolve_count(self, var: str, path: Path) -> int:
        """Number of nodes reachable via ``path`` (for ``exists`` / ``empty``)."""
        binding = self.binding(var)
        if isinstance(binding, XMLNode):
            return len(binding.select_path(path))
        if binding.covers_path(path):
            return len(self._materialized_scope(var, binding).select_path(path))
        stored = binding.stored_values(path)
        if stored is not None:
            return len(stored)
        return 0

    def output_node(self, var: str) -> XMLNode:
        """The node to serialise for ``{$var}``."""
        binding = self.binding(var)
        if isinstance(binding, XMLNode):
            return binding
        return self._materialized_scope(var, binding)


class _JoinIndex:
    """Candidate prefilter over one loop's nodes for one join operand.

    ``hashed`` indexes by :func:`~repro.xquery.semantics.equality_key`
    (for ``=``); otherwise numeric values are kept sorted for ``bisect``
    and nodes with a non-numeric value are candidates for every probe,
    since they compare as strings.  NaN matches no numeric comparison and
    is left out of both.
    """

    __slots__ = ("source", "nodes", "buckets", "numbers", "positions", "always")

    def __init__(self, source: XMLNode, nodes: List[XMLNode], values: List[List[str]], hashed: bool):
        self.source = source  # pins id(source), part of the index's cache key
        self.nodes = nodes
        self.buckets: Dict[tuple, List[int]] = {}
        self.always: List[int] = []
        pairs: List[Tuple[float, int]] = []
        for position, node_values in enumerate(values):
            for value in node_values:
                if hashed:
                    key = equality_key(value)
                    if key is not None:
                        self.buckets.setdefault(key, []).append(position)
                    continue
                number = _as_number(value)
                if number is None:
                    self.always.append(position)
                elif number == number:
                    pairs.append((number, position))
        pairs.sort()
        self.numbers = [number for number, _ in pairs]
        self.positions = [position for _, position in pairs]

    def candidates(self, op: str, outer_values: List[str]) -> List[XMLNode]:
        """Nodes in document order that may satisfy ``node op outer`` for some outer value."""
        hits = set()
        if op == "=":
            for value in outer_values:
                key = equality_key(value)
                if key is not None:
                    hits.update(self.buckets.get(key, ()))
        else:
            bounds = []
            for value in outer_values:
                number = _as_number(value)
                if number is None:
                    # A string comparison can hold against any inner value.
                    return self.nodes
                if number == number:
                    bounds.append(number)
            hits.update(self.always)
            if bounds:
                if op in ("<", "<="):
                    bound = max(bounds)
                    end = (bisect_left if op == "<" else bisect_right)(self.numbers, bound)
                    hits.update(self.positions[:end])
                else:
                    bound = min(bounds)
                    start = (bisect_right if op == ">" else bisect_left)(self.numbers, bound)
                    hits.update(self.positions[start:])
        nodes = self.nodes
        return [nodes[position] for position in sorted(hits)]


class OutputTarget:
    """Minimal protocol the evaluator writes to (implemented by the sink)."""

    def write_text(self, text: str) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def write_node(self, node: XMLNode) -> None:  # pragma: no cover - interface
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Expression evaluation


def execute_expression(expr: XQExpr, env: RuntimeEnvironment, sink) -> None:
    """Evaluate ``expr`` over the runtime environment, writing to ``sink``."""
    if isinstance(expr, EmptyExpr):
        return
    if isinstance(expr, TextExpr):
        sink.write_text(expr.text)
        return
    if isinstance(expr, SequenceExpr):
        for item in expr.items:
            execute_expression(item, env, sink)
        return
    if isinstance(expr, ForExpr):
        probe = None
        if expr.where is not None and env.indexed_joins:
            probe = _join_probe(expr.where, expr.var)
        if probe is None:
            nodes = env.resolve_nodes(expr.source, expr.path)
        else:
            nodes = env.join_candidates(expr, *probe)
        for node in nodes:
            inner = env.with_node(expr.var, node)
            if expr.where is not None and not evaluate_condition_runtime(expr.where, inner):
                continue
            execute_expression(expr.body, inner, sink)
        return
    if isinstance(expr, IfExpr):
        if evaluate_condition_runtime(expr.condition, env):
            execute_expression(expr.body, env, sink)
        return
    if isinstance(expr, PathOutputExpr):
        for node in env.resolve_nodes(expr.var, expr.path):
            sink.write_node(node)
        return
    if isinstance(expr, VarOutputExpr):
        sink.write_node(env.output_node(expr.var))
        return
    raise TypeError(f"not an XQuery- expression: {expr!r}")


#: ``a op b`` holds exactly when ``b flipped[op] a`` does (``!=`` is never probed).
_FLIPPED = {"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _join_probe(where: Condition, var: str):
    """``(inner, op, outer)`` of a probe-able join conjunct of ``where``, or ``None``.

    ``inner`` is a path operand of the loop variable ``var``, ``outer`` one
    of another variable, and ``op`` is oriented as ``inner op outer``.
    """
    for atom in conjuncts(where):
        if not isinstance(atom, ComparisonCondition) or atom.op not in _FLIPPED:
            continue
        left, right = _operand_var(atom.left), _operand_var(atom.right)
        if left is None or right is None or (left == var) == (right == var):
            continue
        if left == var:
            return atom.left, atom.op, atom.right
        return atom.right, _FLIPPED[atom.op], atom.left
    return None


def _operand_var(operand) -> Optional[str]:
    if isinstance(operand, PathRef):
        return operand.var
    if isinstance(operand, ScaledPath):
        return operand.ref.var
    return None


# ---------------------------------------------------------------------------
# Condition evaluation


def evaluate_condition_runtime(condition: Condition, env: RuntimeEnvironment) -> bool:
    """Evaluate a condition over the runtime environment."""
    if isinstance(condition, TrueCondition):
        return True
    if isinstance(condition, AndCondition):
        return all(evaluate_condition_runtime(item, env) for item in condition.items)
    if isinstance(condition, OrCondition):
        return any(evaluate_condition_runtime(item, env) for item in condition.items)
    if isinstance(condition, NotCondition):
        return not evaluate_condition_runtime(condition.inner, env)
    if isinstance(condition, ExistsCondition):
        return env.resolve_count(condition.ref.var, condition.ref.path) > 0
    if isinstance(condition, EmptyCondition):
        return env.resolve_count(condition.ref.var, condition.ref.path) == 0
    if isinstance(condition, ComparisonCondition):
        left = _operand_values(condition.left, env)
        right = _operand_values(condition.right, env)
        return compare_existential(left, condition.op, right)
    raise TypeError(f"not a condition: {condition!r}")


def _operand_values(operand, env: RuntimeEnvironment) -> List[str]:
    if isinstance(operand, PathRef):
        return env.resolve_values(operand.var, operand.path)
    if isinstance(operand, StringLiteral):
        return [operand.value]
    if isinstance(operand, NumberLiteral):
        return [_format_number(operand.value)]
    if isinstance(operand, ScaledPath):
        values = []
        for raw in env.resolve_values(operand.ref.var, operand.ref.path):
            number = _as_number(raw)
            if number is not None:
                values.append(_format_number(operand.coefficient * number))
        return values
    raise TypeError(f"not an operand: {operand!r}")

"""Algebraic simplifications driven by cardinality constraints (Section 7).

The paper's concluding section sketches two DTD-driven simplifications that
precede the FluX rewriting:

* **For-loop fusion.**  Two adjacent loops over the same path can be merged
  when the path selects at most one node per binding of the outer variable
  (``a ∈ ||≤1``)::

      { for $x in $r/a return α } { for $y in $r/a return β }
          ==>   { for $x in $r/a return α β[$y := $x] }

  Merging loops frequently removes the need to buffer the path at all
  (e.g. the ``publisher`` example in Section 7).

* **Singleton-loop re-anchoring.**  A loop nested inside another loop over
  the *same* singleton path re-traverses data that the enclosing loop already
  binds; the inner loop can be replaced by its body with the loop variable
  substituted::

      { for $u in $r/a return ... { for $w in $r/a return γ } ... }
          ==>   { for $u in $r/a return ... γ[$w := $u] ... }      (a ∈ ||≤1)

  This is what makes the re-rooted absolute paths of XMark queries 8 and 11
  (``/site/closed_auctions/...`` inside a loop over ``/site/people/person``)
  schedulable: after re-anchoring, the dependency on ``closed_auctions``
  becomes visible to the Figure-2 algorithm at the ``site`` level, which then
  produces exactly the "buffer people and closed auctions, join from buffers"
  plan the paper reports.

Both passes operate on *normalised* queries (single-step loop paths) and need
the DTD for the cardinality checks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.dtd.schema import DTD, ROOT_ELEMENT
from repro.xquery.analysis import rename_variable
from repro.xquery.ast import (
    AndCondition,
    Condition,
    EmptyExpr,
    ForExpr,
    IfExpr,
    PathOutputExpr,
    ROOT_VARIABLE,
    SequenceExpr,
    TextExpr,
    VarOutputExpr,
    XQExpr,
    condition_path_refs,
    conjuncts,
    sequence,
    sequence_items,
)

#: Maximum number of fixpoint rounds for :func:`simplify`.
_MAX_ROUNDS = 8


class _TypeContext:
    """Tracks the DTD element type each in-scope variable ranges over."""

    def __init__(self, dtd: DTD, root_var: str):
        self._dtd = dtd
        self._types: Dict[str, str] = {root_var: ROOT_ELEMENT, ROOT_VARIABLE: ROOT_ELEMENT}

    def bind(self, var: str, element_type: Optional[str]) -> None:
        if element_type is not None:
            self._types[var] = element_type

    def element_type(self, var: str) -> Optional[str]:
        return self._types.get(var)

    def child_type(self, var: str, step: str) -> Optional[str]:
        """The DTD element type a single path step resolves to, if declared."""
        if step in self._dtd:
            return step
        return None

    def at_most_one(self, var: str, step: str) -> bool:
        """Whether ``step ∈ ||≤1`` holds for the content model of ``var``'s type."""
        parent_type = self.element_type(var)
        if parent_type is None or parent_type not in self._dtd:
            return False
        return self._dtd.constraints(parent_type).at_most_one(step)

    def copy(self) -> "_TypeContext":
        clone = _TypeContext.__new__(_TypeContext)
        clone._dtd = self._dtd
        clone._types = dict(self._types)
        return clone


# ---------------------------------------------------------------------------
# Singleton-loop re-anchoring


def reanchor_singleton_loops(expr: XQExpr, dtd: DTD, *, root_var: str = ROOT_VARIABLE) -> XQExpr:
    """Replace nested loops over already-bound singleton paths by their bodies."""
    context = _TypeContext(dtd, root_var)
    return _reanchor(expr, dtd, context, {})


def _reanchor(
    expr: XQExpr,
    dtd: DTD,
    context: _TypeContext,
    singleton_bindings: Dict[Tuple[str, Tuple[str, ...]], str],
) -> XQExpr:
    if isinstance(expr, (EmptyExpr, TextExpr, VarOutputExpr, PathOutputExpr)):
        return expr
    if isinstance(expr, SequenceExpr):
        return sequence(
            [_reanchor(item, dtd, context, singleton_bindings) for item in expr.items]
        )
    if isinstance(expr, IfExpr):
        return IfExpr(expr.condition, _reanchor(expr.body, dtd, context, singleton_bindings))
    if isinstance(expr, ForExpr):
        key = (expr.source, expr.path)
        bound_var = singleton_bindings.get(key)
        if bound_var is not None and bound_var != expr.var:
            # The enclosing scope already binds this singleton path: drop the
            # loop and substitute the existing variable.
            replaced = rename_variable(expr.body, expr.var, bound_var)
            return _reanchor(replaced, dtd, context, singleton_bindings)
        inner_context = context.copy()
        inner_bindings = dict(singleton_bindings)
        step = expr.path[0] if len(expr.path) == 1 else None
        if step is not None:
            inner_context.bind(expr.var, inner_context.child_type(expr.source, step))
            if context.at_most_one(expr.source, step):
                inner_bindings[key] = expr.var
        body = _reanchor(expr.body, dtd, inner_context, inner_bindings)
        return ForExpr(expr.var, expr.source, expr.path, body, expr.where)
    raise TypeError(f"not an XQuery- expression: {expr!r}")


# ---------------------------------------------------------------------------
# For-loop fusion


def fuse_for_loops(expr: XQExpr, dtd: DTD, *, root_var: str = ROOT_VARIABLE) -> XQExpr:
    """Merge adjacent for-loops over the same singleton path (Section 7 rule)."""
    context = _TypeContext(dtd, root_var)
    return _fuse(expr, dtd, context)


def _fuse(expr: XQExpr, dtd: DTD, context: _TypeContext) -> XQExpr:
    if isinstance(expr, (EmptyExpr, TextExpr, VarOutputExpr, PathOutputExpr)):
        return expr
    if isinstance(expr, IfExpr):
        return IfExpr(expr.condition, _fuse(expr.body, dtd, context))
    if isinstance(expr, ForExpr):
        inner_context = context.copy()
        if len(expr.path) == 1:
            inner_context.bind(expr.var, inner_context.child_type(expr.source, expr.path[0]))
        return ForExpr(
            expr.var, expr.source, expr.path, _fuse(expr.body, dtd, inner_context), expr.where
        )
    if isinstance(expr, SequenceExpr):
        items = [_fuse(item, dtd, context) for item in expr.items]
        fused = []
        for item in items:
            previous = fused[-1] if fused else None
            if (
                previous is not None
                and isinstance(previous, ForExpr)
                and isinstance(item, ForExpr)
                and previous.source == item.source
                and previous.path == item.path
                and previous.where is None
                and item.where is None
                and len(item.path) == 1
                and context.at_most_one(item.source, item.path[0])
            ):
                merged_body = sequence(
                    [previous.body, rename_variable(item.body, item.var, previous.var)]
                )
                inner_context = context.copy()
                inner_context.bind(
                    previous.var, inner_context.child_type(previous.source, previous.path[0])
                )
                fused[-1] = ForExpr(
                    previous.var,
                    previous.source,
                    previous.path,
                    _fuse(merged_body, dtd, inner_context),
                )
            else:
                fused.append(item)
        return sequence(fused)
    raise TypeError(f"not an XQuery- expression: {expr!r}")


# ---------------------------------------------------------------------------
# Guard hoisting


def hoist_guards(expr: XQExpr) -> XQExpr:
    """Fold the guards normalisation pushed into every item back into loops.

    Normalisation (Figure 1) turns ``for $t ... where χ return <r>{$t}</r>``
    into ``for $t ... return {if χ then <r>}{if χ then {$t}}{if χ then </r>}``,
    which evaluates ``χ`` once per output item.  This pass undoes that for
    execution, bottom-up:

    * adjacent guards sharing conjuncts merge: ``{if χ then α}{if χ and ψ
      then β}`` becomes ``{if χ then α {if ψ then β}}`` (normalisation
      nests ``if``-s as conjunctions),
    * a loop whose body is one ``{if χ then α}`` becomes
      ``for ... where χ return α``,
    * the conjuncts of a ``where`` that do not read the loop's own variable
      are lifted out of the loop as ``{if χ then {for ...}}``, so an
      enclosing loop can take them over in turn.

    Conditions are side-effect free, so every step preserves output.  The
    result is no longer in normal form; it is meant for execution only.
    """
    if isinstance(expr, SequenceExpr):
        return sequence(_merge_adjacent([hoist_guards(item) for item in expr.items]))
    if isinstance(expr, IfExpr):
        return IfExpr(expr.condition, hoist_guards(expr.body))
    if isinstance(expr, ForExpr):
        body = hoist_guards(expr.body)
        guards = list(conjuncts(expr.where)) if expr.where is not None else []
        if isinstance(body, IfExpr):
            guards += conjuncts(body.condition)
            body = body.body
        local = [c for c in guards if any(r.var == expr.var for r in condition_path_refs(c))]
        lifted = [c for c in guards if c not in local]
        loop = ForExpr(expr.var, expr.source, expr.path, body, _conjunction(local))
        return IfExpr(_conjunction(lifted), loop) if lifted else loop
    return expr


def _merge_adjacent(items: List[XQExpr]) -> List[XQExpr]:
    merged: List[XQExpr] = []
    for item in items:
        if merged and isinstance(merged[-1], IfExpr) and isinstance(item, IfExpr):
            combined = _merge_guards(merged[-1], item)
            if combined is not None:
                merged[-1] = combined
                continue
        merged.append(item)
    return merged


def _merge_guards(first: IfExpr, second: IfExpr) -> Optional[IfExpr]:
    """One ``{if χ then ...}`` over both items, χ their shared conjuncts."""
    left, right = conjuncts(first.condition), conjuncts(second.condition)
    shared = [c for c in left if c in right]
    if not shared:
        return None

    def remainder(atoms, body):
        rest = [c for c in atoms if c not in shared]
        return IfExpr(_conjunction(rest), body) if rest else body

    first_items = sequence_items(remainder(left, first.body))
    body = _merge_adjacent([*first_items, remainder(right, second.body)])
    return IfExpr(_conjunction(shared), sequence(body))


def _conjunction(atoms: List[Condition]) -> Optional[Condition]:
    if not atoms:
        return None
    return atoms[0] if len(atoms) == 1 else AndCondition(atoms)


# ---------------------------------------------------------------------------
# Combined pass


def simplify(expr: XQExpr, dtd: DTD, *, root_var: str = ROOT_VARIABLE) -> XQExpr:
    """Apply re-anchoring and loop fusion until a fixpoint is reached."""
    current = expr
    for _ in range(_MAX_ROUNDS):
        reanchored = reanchor_singleton_loops(current, dtd, root_var=root_var)
        fused = fuse_for_loops(reanchored, dtd, root_var=root_var)
        if fused == current:
            return current
        current = fused
    return current

"""Seeded, DTD-directed random case generation.

The generator produces, per case,

1. a random **DTD**: a layered grammar (so every document is finite) whose
   content models mix sequences, choices, ``*``/``+``/``?`` modifiers,
   ``(#PCDATA)`` leaves, ``EMPTY`` elements and mixed content, with every
   child symbol used at most once per model so the grammars stay
   deterministic (1-unambiguous) as the XML spec requires of real DTDs.
   Adversarial shapes are generated on purpose: deep single-child spines,
   optional/starred content that may collapse to nothing, attribute-heavy
   elements (declared through the paper's attribute-to-subelement
   adaptation, so the case runs with ``expand_attrs``), and empty elements.
2. a random **document** conforming to that DTD, with text drawn from a
   vocabulary that includes markup-like characters (``<``, ``&``, ``]]>``,
   quotes, preserved inner whitespace) and numeric values shared between
   distant leaves so generated joins actually match.  Numeric leaves also
   draw from a mixed pool of number look-alikes and strings (``" 7 "``,
   ``"7.0"``, ``"-0"``, ``"1e1"``, ``"nan"``, ``"1_0"``, ``"abc"``, ``""``),
   where the general comparison switches between numeric and string
   semantics per pair of values.
3. random **queries** over the schema: nested for-loops, ``where``
   conditions (comparisons, ``exists``/``empty``, conjunctions), joins
   against outer loop variables (all six operators, either operand
   orientation, optionally scaled by a constant), projection-heavy mixes
   (leaf path outputs) and buffer-heavy mixes (whole-subtree outputs).
   Each candidate is compiled through the real scheduler; candidates the
   rewrite cannot schedule safely are discarded and redrawn, so every
   emitted query is a safe FluX query by construction.  The draw sequence
   is a pure function of ``(seed, index)`` -- replaying a seed reproduces
   the identical cases.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.conformance.cases import Case
from repro.dtd.parser import parse_dtd
from repro.dtd.schema import DTD
from repro.engine.engine import FluxEngine
from repro.flux.errors import FluxError
from repro.xmlstream.serializer import escape_attribute, escape_text
from repro.xquery.ast import (
    AndCondition,
    ComparisonCondition,
    Condition,
    EmptyCondition,
    ExistsCondition,
    ForExpr,
    IfExpr,
    NumberLiteral,
    PathOutputExpr,
    PathRef,
    ROOT_VARIABLE,
    ScaledPath,
    StringLiteral,
    TextExpr,
    VarOutputExpr,
    XQExpr,
    sequence,
)
from repro.xquery.errors import XQueryError
from repro.xquery.parser import parse_query

#: Text chunks the document generator draws from.  Markup-like characters,
#: quotes, a CDATA terminator and preserved inner whitespace are all here on
#: purpose -- they stress entity escaping and whitespace handling end to end.
_TEXT_POOL = (
    "alpha",
    "beta gamma",
    "a<b&c>d",
    'say "hi" & <bye>',
    "it's ]]> fine",
    "  padded  ",
    "line one line two",
    "x&amp;-literal",
    "",
)

#: Numeric strings leaves share so generated joins and comparisons hit.
_NUMBER_POOL = ("0", "1", "2", "3", "5", "7", "10", "42", "3.5", "12.5")

#: Values numeric leaves also draw from: equal numbers spelled differently,
#: strings that parse as floats (``"nan"``, ``"1_0"``) and plain strings, so
#: joins mix numeric and string comparison within one operand.
_MIXED_POOL = ("7", " 7 ", "7.0", "-0", "0", "1e1", "10", "nan", "1_0", "abc", "")

#: Comparison operators and the coefficients of scaled join operands.
_OPERATORS = ("=", "!=", "<", "<=", ">", ">=")
_COEFFICIENTS = (2.0, 0.5, -1.0)

_ATTRIBUTE_NAMES = ("id", "kind", "rank")


@dataclass(frozen=True)
class SchemaSpec:
    """A generated schema plus the structural facts the query maker needs."""

    dtd_source: str
    root: str
    expand_attrs: bool
    #: element -> child tags usable as path steps (post-expansion view).
    children: Dict[str, Tuple[str, ...]]
    #: elements declared ``(#PCDATA)`` whose text is numeric.
    numeric_leaves: frozenset
    #: elements declared ``(#PCDATA)`` (including attribute subelements).
    text_leaves: frozenset

    def dtd(self) -> DTD:
        """Parse the source into a fresh :class:`DTD`."""
        return parse_dtd(self.dtd_source)


class CaseGenerator:
    """Deterministic case stream: ``CaseGenerator(seed).case(i)`` is pure.

    ``max_queries`` bounds the per-case query count; ``document_scale``
    multiplies the repetition bounds of starred/plus content (1 keeps
    documents in the low kilobytes, which is what lets an oracle sweep of
    hundreds of cases finish in seconds).
    """

    def __init__(self, seed: int, *, max_queries: int = 3, document_scale: int = 1):
        if max_queries < 1:
            raise ValueError("max_queries must be at least 1")
        self.seed = seed
        self.max_queries = max_queries
        self.document_scale = max(1, document_scale)

    # ------------------------------------------------------------------ cases

    def case(self, index: int) -> Case:
        """Generate case ``index`` of this seed's stream."""
        rng = random.Random((self.seed * 1_000_003 + index) & 0xFFFFFFFF)
        schema = self._schema(rng)
        document = self._document(rng, schema)
        queries = self._queries(rng, schema)
        return Case(
            seed=self.seed,
            index=index,
            root=schema.root,
            dtd_source=schema.dtd_source,
            document=document,
            queries=tuple((f"q{i}", source) for i, source in enumerate(queries)),
            expand_attrs=schema.expand_attrs,
        )

    def cases(self, count: int, *, start: int = 0):
        """Iterate ``count`` consecutive cases starting at ``start``."""
        for index in range(start, start + count):
            yield self.case(index)

    # ----------------------------------------------------------------- schema

    def _schema(self, rng: random.Random) -> SchemaSpec:
        layer_count = rng.randint(2, 4)
        layers: List[List[str]] = [["e0"]]
        counter = 1
        for _ in range(1, layer_count):
            width = rng.randint(1, 3)
            layers.append([f"e{counter + i}" for i in range(width)])
            counter += width
        leaf_count = rng.randint(2, 4)
        leaves = [f"t{i}" for i in range(leaf_count)]
        numeric = frozenset(rng.sample(leaves, rng.randint(1, leaf_count)))

        declarations: List[str] = []
        attlists: List[str] = []
        children: Dict[str, Tuple[str, ...]] = {}
        attributes: Dict[str, Tuple[str, ...]] = {}
        text_leaves = set(leaves)

        # A deep single-child spine hanging off the root stresses nesting.
        spine: List[str] = []
        if rng.random() < 0.5:
            spine = [f"d{i}" for i in range(rng.randint(2, 5))]

        for depth, layer in enumerate(layers):
            deeper = layers[depth + 1] if depth + 1 < len(layers) else []
            for name in layer:
                child_pool = list(deeper) + leaves
                picked = rng.sample(child_pool, min(len(child_pool), rng.randint(1, 4)))
                if name == "e0" and spine:
                    picked.append(spine[0])
                # Attribute-heavy shape: declared through the paper's
                # attribute-to-subelement adaptation (expand_attrs mode).
                attrs: Tuple[str, ...] = ()
                if rng.random() < 0.35:
                    attrs = tuple(rng.sample(_ATTRIBUTE_NAMES, rng.randint(1, 2)))
                    attributes[name] = attrs
                model, used = self._content_model(rng, picked, prefix_symbols=[f"{name}_{a}" for a in attrs])
                declarations.append(f"<!ELEMENT {name} {model}>")
                for attr in attrs:
                    declarations.append(f"<!ELEMENT {name}_{attr} (#PCDATA)>")
                    attlists.append(f"<!ATTLIST {name} {attr} CDATA #REQUIRED>")
                    text_leaves.add(f"{name}_{attr}")
                children[name] = tuple([f"{name}_{a}" for a in attrs] + used)

        for position, name in enumerate(spine):
            nxt = spine[position + 1] if position + 1 < len(spine) else rng.choice(leaves)
            declarations.append(f"<!ELEMENT {name} ({nxt})>")
            children[name] = (nxt,)

        for leaf in leaves:
            # Empty elements are an adversarial shape of their own.
            if rng.random() < 0.15 and leaf not in numeric:
                declarations.append(f"<!ELEMENT {leaf} EMPTY>")
                text_leaves.discard(leaf)
                children[leaf] = ()
            else:
                declarations.append(f"<!ELEMENT {leaf} (#PCDATA)>")
                children[leaf] = ()

        source = "\n".join(declarations + attlists)
        return SchemaSpec(
            dtd_source=source,
            root="e0",
            expand_attrs=bool(attributes),
            children=children,
            numeric_leaves=numeric & text_leaves,
            text_leaves=frozenset(text_leaves),
        )

    def _content_model(
        self, rng: random.Random, symbols: Sequence[str], *, prefix_symbols: Sequence[str]
    ) -> Tuple[str, List[str]]:
        """A deterministic content model over ``symbols`` in DTD syntax.

        ``prefix_symbols`` (the expanded attribute subelements) come first as
        required singletons -- exactly where the attribute expansion emits
        them.  Every symbol appears at most once, which keeps the model
        1-unambiguous.  Returns the model source and the element-symbol
        order actually used.
        """
        items: List[str] = list(prefix_symbols)
        used: List[str] = []
        pending = list(symbols)
        while pending:
            if len(pending) >= 2 and rng.random() < 0.3:
                group = [pending.pop(0), pending.pop(0)]
                rendered = "(" + "|".join(group) + ")"
                used.extend(group)
            else:
                symbol = pending.pop(0)
                rendered = symbol
                used.append(symbol)
            modifier = rng.choice(("", "", "?", "*", "+"))
            items.append(rendered + modifier)
        if not items:
            return "EMPTY", []
        if len(items) == 1 and not prefix_symbols and rng.random() < 0.3:
            # Mixed content: text interleaved with every chosen child, so
            # the model and the advertised child steps stay consistent.
            return "(#PCDATA|" + "|".join(used) + ")*", used
        return "(" + ",".join(items) + ")", used

    # --------------------------------------------------------------- document

    def _document(self, rng: random.Random, schema: SchemaSpec) -> str:
        dtd = schema.dtd()
        out: List[str] = []
        self._emit_element(rng, dtd, schema, schema.root, out, depth=0)
        return "".join(out)

    def _emit_element(
        self,
        rng: random.Random,
        dtd: DTD,
        schema: SchemaSpec,
        name: str,
        out: List[str],
        depth: int,
    ) -> None:
        attrs = [
            (attr_name, self._attr_value(rng))
            for attr_name in dtd.attributes_of(name)
        ]
        declaration = dtd.declaration(name)
        content = declaration.content.to_source()
        if content == "EMPTY" and rng.random() < 0.5 and not attrs:
            out.append(f"<{name}/>")
            return
        rendered_attrs = "".join(
            f' {attr}="{escape_attribute(value)}"' for attr, value in attrs
        )
        out.append(f"<{name}{rendered_attrs}>")
        if content == "EMPTY":
            pass
        elif declaration.is_element_only:
            for child in self._expand_particle(rng, dtd.content_particle(name)):
                # Attribute subelements come from the expansion, never from
                # the document text itself.
                if attrs and child.startswith(f"{name}_"):
                    continue
                self._emit_element(rng, dtd, schema, child, out, depth + 1)
        elif declaration.allows_text and not dtd.symbols(name):
            # (#PCDATA): plain text leaf.
            out.append(escape_text(self._leaf_text(rng, schema, name)))
        else:
            # Mixed content: interleave text and permitted children.
            permitted = sorted(dtd.symbols(name))
            for _ in range(rng.randint(0, 3)):
                if permitted and rng.random() < 0.5:
                    self._emit_element(rng, dtd, schema, rng.choice(permitted), out, depth + 1)
                else:
                    out.append(escape_text(rng.choice(_TEXT_POOL)))
        out.append(f"</{name}>")

    def _expand_particle(self, rng: random.Random, particle) -> List[str]:
        from repro.dtd.ast import Choice, Epsilon, Optional as Opt, Plus, Sequence, Star, Symbol

        scale = self.document_scale
        if isinstance(particle, Symbol):
            return [particle.name]
        if isinstance(particle, Epsilon):
            return []
        if isinstance(particle, Sequence):
            expanded: List[str] = []
            for item in particle.items:
                expanded.extend(self._expand_particle(rng, item))
            return expanded
        if isinstance(particle, Choice):
            return self._expand_particle(rng, rng.choice(particle.items))
        if isinstance(particle, Star):
            expanded = []
            for _ in range(rng.randint(0, 3 * scale)):
                expanded.extend(self._expand_particle(rng, particle.inner))
            return expanded
        if isinstance(particle, Plus):
            expanded = []
            for _ in range(rng.randint(1, 3 * scale)):
                expanded.extend(self._expand_particle(rng, particle.inner))
            return expanded
        if isinstance(particle, Opt):
            return self._expand_particle(rng, particle.inner) if rng.random() < 0.6 else []
        raise TypeError(f"not a content particle: {particle!r}")

    def _leaf_text(self, rng: random.Random, schema: SchemaSpec, name: str) -> str:
        if name in schema.numeric_leaves:
            return rng.choice(_NUMBER_POOL if rng.random() < 0.6 else _MIXED_POOL)
        return rng.choice(_TEXT_POOL)

    def _attr_value(self, rng: random.Random) -> str:
        return rng.choice(_NUMBER_POOL + ("v<1>", 'two "words"', "plain", ""))

    # ---------------------------------------------------------------- queries

    def _queries(self, rng: random.Random, schema: SchemaSpec) -> List[str]:
        dtd = None
        count = rng.randint(1, self.max_queries)
        sources: List[str] = []
        for _ in range(count):
            for _attempt in range(25):
                candidate = self._query_candidate(rng, schema)
                source = candidate.to_source()
                try:
                    if dtd is None:
                        from repro.core.api import load_dtd

                        dtd = load_dtd(schema.dtd_source, root_element=schema.root)
                    # Round-trip through the concrete syntax, then compile
                    # through the real scheduler: only safe, schedulable
                    # queries are emitted.
                    FluxEngine(parse_query(source), dtd)
                except (FluxError, XQueryError):
                    continue
                sources.append(source)
                break
            else:
                # Always-schedulable fallback: stream-copy the document root.
                sources.append(
                    f"<all>{{ for $w in $ROOT/{schema.root} return {{ $w }} }}</all>"
                )
        return sources

    def _query_candidate(self, rng: random.Random, schema: SchemaSpec) -> XQExpr:
        self._var_counter = 0
        body = self._for_expr(rng, schema, ROOT_VARIABLE, "#ROOT", outer=(), depth=0)
        items: List[XQExpr] = [TextExpr("<out>")]
        items.append(body)
        if rng.random() < 0.3:
            items.append(self._for_expr(rng, schema, ROOT_VARIABLE, "#ROOT", outer=(), depth=1))
        items.append(TextExpr("</out>"))
        return sequence(items)

    def _fresh_var(self) -> str:
        self._var_counter += 1
        return f"$v{self._var_counter}"

    def _random_path(
        self,
        rng: random.Random,
        schema: SchemaSpec,
        start: str,
        *,
        max_len: int,
        min_len: int = 1,
    ) -> Optional[Tuple[Tuple[str, ...], str]]:
        """A random downward path in the schema graph, with its end element."""
        steps: List[str] = []
        current = start if start != "#ROOT" else None
        for position in range(max_len):
            options = schema.children.get(current, ()) if current else (schema.root,)
            if not options:
                break
            step = rng.choice(options)
            steps.append(step)
            current = step
            if position + 1 >= min_len and rng.random() < 0.4:
                break
        if len(steps) < min_len or current is None:
            return None
        return tuple(steps), current

    def _text_path(
        self, rng: random.Random, schema: SchemaSpec, start: str, *, numeric: bool = False
    ) -> Optional[Tuple[str, ...]]:
        """A path from ``start`` ending at a text leaf (numeric if asked)."""
        wanted = schema.numeric_leaves if numeric else schema.text_leaves
        for _ in range(8):
            found = self._random_path(rng, schema, start, max_len=4)
            if found and found[1] in wanted:
                return found[0]
        return None

    def _for_expr(
        self,
        rng: random.Random,
        schema: SchemaSpec,
        source_var: str,
        source_element: str,
        outer: Tuple[Tuple[str, str], ...],
        depth: int,
    ) -> XQExpr:
        found = self._random_path(rng, schema, source_element, max_len=3)
        if found is None:
            return TextExpr("<none/>")
        path, end = found
        var = self._fresh_var()
        bound = outer + ((var, end),)

        where = None
        if rng.random() < 0.55:
            where = self._condition(rng, schema, bound)

        items: List[XQExpr] = [TextExpr("<row>")]
        picks = rng.randint(1, 3)
        for _ in range(picks):
            roll = rng.random()
            if roll < 0.35:
                leaf = self._text_path(rng, schema, end)
                items.append(
                    PathOutputExpr(var, leaf) if leaf else VarOutputExpr(var)
                )
            elif roll < 0.55:
                # Buffer-heavy shape: copy the whole bound subtree.
                items.append(VarOutputExpr(var))
            elif roll < 0.62 and depth < 2 and schema.children.get(end):
                items.append(self._for_expr(rng, schema, var, end, bound, depth + 1))
            elif roll < 0.8:
                items.append(self._join_loop(rng, schema, bound))
            else:
                condition = self._condition(rng, schema, bound)
                if condition is not None:
                    inner = self._text_path(rng, schema, end)
                    body = PathOutputExpr(var, inner) if inner else TextExpr("<hit/>")
                    items.append(IfExpr(condition, body))
                else:
                    items.append(TextExpr("<mark/>"))
        items.append(TextExpr("</row>"))
        return ForExpr(var=var, source=source_var, path=path, body=sequence(items), where=where)

    def _join_loop(
        self,
        rng: random.Random,
        schema: SchemaSpec,
        bound: Tuple[Tuple[str, str], ...],
    ) -> XQExpr:
        """XMark Q8's shape: a loop over another variable's path, joined with ``bound[-1]``.

        The loop ranges over a path of an enclosing loop's variable or of
        ``$ROOT`` (a re-anchored absolute path).  Unless re-anchoring
        removes the loop, the scheduler then buffers both sides and the
        join runs in an ``on-first`` handler, where the executor probes it.
        """
        sources = bound[:-1] + ((ROOT_VARIABLE, "#ROOT"),)
        outer_var, outer_element = bound[-1]
        var = self._fresh_var()
        for _attempt in range(4):
            source_var, source_element = sources[rng.randrange(len(sources))]
            found = self._random_path(rng, schema, source_element, max_len=3)
            if found is None:
                continue
            path, end = found
            where = self._join(rng, schema, var, end, outer_var, outer_element)
            if where is not None:
                break
        else:
            return TextExpr("<none/>")
        leaf = self._text_path(rng, schema, end)
        output = PathOutputExpr(var, leaf) if leaf and rng.random() < 0.4 else VarOutputExpr(var)
        body = sequence([TextExpr("<hit>"), output, TextExpr("</hit>")])
        return ForExpr(var=var, source=source_var, path=path, body=body, where=where)

    def _join(
        self,
        rng: random.Random,
        schema: SchemaSpec,
        var: str,
        element: str,
        outer_var: str,
        outer_element: str,
    ) -> Optional[Condition]:
        """Compare a numeric leaf of ``var`` with one of ``outer_var``."""
        inner = self._text_path(rng, schema, element, numeric=True)
        outer = self._text_path(rng, schema, outer_element, numeric=True)
        if not inner or not outer:
            return None
        operands = [PathRef(var, inner), PathRef(outer_var, outer)]
        if rng.random() < 0.3:
            side = rng.randrange(2)
            operands[side] = ScaledPath(rng.choice(_COEFFICIENTS), operands[side])
        if rng.random() < 0.5:
            operands.reverse()
        return ComparisonCondition(operands[0], rng.choice(_OPERATORS), operands[1])

    def _condition(
        self,
        rng: random.Random,
        schema: SchemaSpec,
        bound: Tuple[Tuple[str, str], ...],
    ) -> Optional[Condition]:
        var, element = bound[-1]
        roll = rng.random()
        if roll < 0.25:
            found = self._random_path(rng, schema, element, max_len=3)
            if found is None:
                return None
            maker = ExistsCondition if rng.random() < 0.6 else EmptyCondition
            return maker(PathRef(var, found[0]))
        if roll < 0.5 and len(bound) >= 2:
            # Join: compare this loop's numeric leaf with an outer loop's.
            outer_var, outer_element = bound[rng.randrange(len(bound) - 1)]
            join = self._join(rng, schema, var, element, outer_var, outer_element)
            if join is not None:
                return join
        leaf = self._text_path(rng, schema, element, numeric=rng.random() < 0.6)
        if leaf is None:
            return None
        op = rng.choice(_OPERATORS)
        if rng.random() < 0.6:
            literal = NumberLiteral(float(rng.choice(("1", "3", "5", "10", "42"))))
        else:
            literal = StringLiteral(rng.choice(("alpha", "beta gamma", "plain", "7")))
        condition: Condition = ComparisonCondition(PathRef(var, leaf), op, literal)
        if rng.random() < 0.25:
            found = self._random_path(rng, schema, element, max_len=2)
            if found is not None:
                condition = AndCondition([condition, ExistsCondition(PathRef(var, found[0]))])
        return condition

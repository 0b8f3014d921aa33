"""A small in-memory XML node tree.

The FluX engine itself never builds a tree of the whole document -- that is
the point of the paper -- but a tree representation is still needed in three
places:

* the *naive* baseline engine (Galax-like) materializes the full document,
* the *projection* baseline materializes the projected document,
* XQuery⁻ subexpressions that run over buffered data navigate the buffered
  events as a tree.

:class:`XMLNode` is intentionally minimal: a name, an ordered child list
(elements and text), and helpers for navigation and atomization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence, Union

from repro.xmlstream.events import (
    Characters,
    EndDocument,
    EndElement,
    Event,
    StartDocument,
    StartElement,
)


@dataclass
class XMLNode:
    """An element node with ordered children (elements and text chunks)."""

    name: str
    children: List[Union["XMLNode", str]] = field(default_factory=list)

    # -------------------------------------------------------------- building

    def append_child(self, child: Union["XMLNode", str]) -> None:
        """Append an element child or a text chunk."""
        self.children.append(child)

    # ------------------------------------------------------------ navigation

    def child_elements(self) -> Iterator["XMLNode"]:
        """Iterate over element children in document order."""
        for child in self.children:
            if isinstance(child, XMLNode):
                yield child

    def children_named(self, name: str) -> List["XMLNode"]:
        """Return element children with the given tag name, in document order."""
        return [child for child in self.child_elements() if child.name == name]

    def select_path(self, path: Sequence[str]) -> List["XMLNode"]:
        """Evaluate a fixed path ``a1/a2/.../an`` relative to this node.

        Returns all matching descendant nodes in document order.  An empty
        path returns ``[self]``.
        """
        current = [self]
        for step in path:
            next_nodes: List[XMLNode] = []
            for node in current:
                next_nodes.extend(node.children_named(step))
            current = next_nodes
        return current

    # ------------------------------------------------------------- contents

    def text_content(self) -> str:
        """Concatenated character data of the whole subtree (atomization)."""
        parts: List[str] = []
        # Explicit stack (children pushed in reverse): subtrees may nest
        # deeper than Python's recursion limit.
        stack: List[Union[XMLNode, str]] = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, XMLNode):
                stack.extend(reversed(node.children))
            else:
                parts.append(node)
        return "".join(parts)

    def subtree_size(self) -> int:
        """Number of element nodes in the subtree (including this node)."""
        size = 0
        stack: List[XMLNode] = [self]
        while stack:
            node = stack.pop()
            size += 1
            stack.extend(node.child_elements())
        return size

    # ----------------------------------------------------------- conversion

    def to_events(self) -> List[Event]:
        """Serialize the subtree rooted at this node to a list of events."""
        events: List[Event] = []
        append = events.append
        # Each open element keeps an iterator over its remaining children,
        # so the walk needs no recursion however deep the subtree is.
        append(StartElement(self.name))
        stack = [(self.name, iter(self.children))]
        while stack:
            name, children = stack[-1]
            for child in children:
                if isinstance(child, XMLNode):
                    append(StartElement(child.name))
                    stack.append((child.name, iter(child.children)))
                    break
                append(Characters(child))
            else:
                stack.pop()
                append(EndElement(name))
        return events

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"XMLNode({self.name!r}, {len(self.children)} children)"


def events_to_tree(events: Iterable[Event], *, close_open: bool = False) -> Optional[XMLNode]:
    """Build a tree from an event stream; returns the root element.

    Document events are optional.  If the stream contains no elements the
    function returns ``None``.  If the stream contains a *forest* (several
    top-level elements, as buffered fragments may), the forest is wrapped in a
    synthetic element named ``#fragment``.

    ``close_open`` tolerates a stream that ends with elements still open
    (their end events have not been buffered yet) by closing them
    virtually.  Scope buffers are materialised *mid-stream* when a handler
    condition navigates them while the scope element is still being read;
    Definition 3.6 safety guarantees the navigated paths are complete even
    though enclosing elements are not.
    """
    roots: List[XMLNode] = []
    stack: List[XMLNode] = []
    for event in events:
        if isinstance(event, (StartDocument, EndDocument)):
            continue
        if isinstance(event, StartElement):
            node = XMLNode(event.name)
            if stack:
                stack[-1].append_child(node)
            else:
                roots.append(node)
            stack.append(node)
        elif isinstance(event, EndElement):
            if not stack:
                raise ValueError(f"unbalanced end element </{event.name}> in event stream")
            open_node = stack.pop()
            if open_node.name != event.name:
                raise ValueError(
                    f"unbalanced events: </{event.name}> closes <{open_node.name}>"
                )
        elif isinstance(event, Characters):
            if stack:
                stack[-1].append_child(event.text)
        else:
            raise TypeError(f"not an XML event: {event!r}")
    if stack and not close_open:
        raise ValueError(f"unclosed element <{stack[-1].name}> in event stream")
    if not roots:
        return None
    if len(roots) == 1:
        return roots[0]
    fragment = XMLNode("#fragment")
    for root in roots:
        fragment.append_child(root)
    return fragment


def events_to_wrapped_tree(
    events: Iterable[Event], wrapper_name: str, *, close_open: bool = False
) -> XMLNode:
    """Materialise a buffered forest under a wrapper node.

    The single place the buffer classes share the wrapper/``#fragment``
    convention: an empty stream yields a bare wrapper, a forest's
    ``#fragment`` shell is replaced by the wrapper, and a single root is
    reparented under it.  Both :class:`~repro.engine.buffers.EventBuffer`
    and the spillable paged buffer delegate here, which is what keeps
    bounded and unbounded materialization byte-identical.
    """
    root = events_to_tree(events, close_open=close_open)
    if root is None:
        return XMLNode(wrapper_name)
    if root.name == "#fragment":
        return XMLNode(wrapper_name, list(root.children))
    return XMLNode(wrapper_name, [root])


def tree_to_events(root: XMLNode, *, document_events: bool = False) -> List[Event]:
    """Serialize a tree to a list of events (optionally with document markers)."""
    events: List[Event] = []
    if document_events:
        events.append(StartDocument())
    events.extend(root.to_events())
    if document_events:
        events.append(EndDocument())
    return events


def forest_to_trees(events: Iterable[Event]) -> List[XMLNode]:
    """Build the list of top-level element trees contained in an event stream."""
    root = events_to_tree(events)
    if root is None:
        return []
    if root.name == "#fragment":
        return [child for child in root.child_elements()]
    return [root]

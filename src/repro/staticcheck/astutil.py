"""Small AST helpers shared by the rule plugins."""

from __future__ import annotations

import ast
import typing as t


def dotted_name(node: ast.AST) -> str | None:
    """Render a ``Name``/``Attribute`` chain as ``"a.b.c"``.

    Returns ``None`` for anything that is not a pure attribute chain
    (calls, subscripts, literals...), because those have no stable
    dotted spelling.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def iter_functions(tree: ast.AST) -> t.Iterator[
        tuple[ast.ClassDef | None, ast.FunctionDef | ast.AsyncFunctionDef]]:
    """Yield ``(enclosing_class_or_None, function)`` once per def."""
    methods: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods.add(id(item))
                    yield node, item
    for node in ast.walk(tree):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and id(node) not in methods):
            yield None, node


def local_walk(fn: ast.FunctionDef | ast.AsyncFunctionDef
               ) -> t.Iterator[ast.AST]:
    """Walk a function body *without* descending into nested defs.

    Lambdas are included (they execute in the enclosing scope's dynamic
    extent), nested ``def``/``class`` bodies are not.
    """
    stack: list[ast.AST] = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def marked_functions(tree: ast.Module, lines: list[str],
                     marker: "t.Pattern[str]") -> t.Iterator[
        ast.FunctionDef | ast.AsyncFunctionDef]:
    """Functions whose span contains a line matching ``marker``.

    A marker line is attributed to the *innermost* function containing
    it, so a marked closure does not drag its enclosing function into
    the marked contract.  Module-level marker lines attribute to
    nothing.  Both comments and docstring lines count — the raw source
    is scanned, not the AST.
    """
    marker_lines = [i for i, text in enumerate(lines, start=1)
                    if marker.search(text)]
    if not marker_lines:
        return
    spans = []
    for _cls, fn in iter_functions(tree):
        end = getattr(fn, "end_lineno", fn.lineno)
        spans.append((fn.lineno, end, fn))
    marked: set[int] = set()
    for line in marker_lines:
        innermost = None
        innermost_size = None
        for start, end, fn in spans:
            if start <= line <= end:
                size = end - start
                if innermost_size is None or size < innermost_size:
                    innermost, innermost_size = fn, size
        if innermost is not None:
            marked.add(id(innermost))
    seen: set[int] = set()
    for _start, _end, fn in spans:
        if id(fn) in marked and id(fn) not in seen:
            seen.add(id(fn))
            yield fn


def has_own_yield(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """True if the function body itself contains ``yield``/``yield from``."""
    return any(isinstance(node, (ast.Yield, ast.YieldFrom))
               for node in local_walk(fn))

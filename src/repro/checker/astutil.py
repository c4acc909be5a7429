"""Shared AST helpers for the checker's rule modules.

The rule families (ASYNC, RES, ERR, COST) all need the same few
primitives: resolving a call target to a dotted name, walking a scope
without descending into nested functions, and knowing which function a
node belongs to for diagnostics.  Keeping them here keeps each
``rules_*`` module a plain list of pattern checks.
"""

from __future__ import annotations

import ast
from typing import Iterator

#: Scope boundaries: walks stop here so a rule sees one function at a time.
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def dotted_name(node: ast.AST) -> str | None:
    """Dotted path of a ``Name``/``Attribute`` chain, else ``None``.

    ``asyncio.open_unix_connection`` -> ``"asyncio.open_unix_connection"``;
    chains rooted in a call or subscript (``foo().bar``) resolve the
    reachable suffix with a ``?`` root so suffix matching still works.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    elif parts:
        parts.append("?")
    else:
        return None
    return ".".join(reversed(parts))


def call_name(node: ast.AST) -> str | None:
    """Dotted name of a call's target, else ``None``."""
    if isinstance(node, ast.Call):
        return dotted_name(node.func)
    return None


def has_keyword(call: ast.Call, name: str) -> bool:
    return any(kw.arg == name for kw in call.keywords)


def own_scope_walk(root: ast.AST) -> Iterator[ast.AST]:
    """Walk ``root``'s subtree without entering nested function scopes."""
    stack: list[ast.AST] = [root]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, SCOPES):
                continue
            stack.append(child)


def iter_functions(tree: ast.AST) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    """Every function definition in ``tree``, nested ones included."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def enclosing_function_names(tree: ast.AST) -> dict[ast.AST, str]:
    """Map every node to the name of its innermost enclosing function.

    Module-level nodes map to ``"<module>"``.  Used to fill the
    ``function`` field of diagnostics.
    """
    names: dict[ast.AST, str] = {}

    def visit(node: ast.AST, owner: str) -> None:
        names[node] = owner
        child_owner = owner
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            child_owner = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, child_owner)

    visit(tree, "<module>")
    return names


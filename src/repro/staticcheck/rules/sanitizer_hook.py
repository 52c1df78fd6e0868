"""Rule ``sanitizer-hook``: instrumented choke points stay instrumented.

ShareSan (docs/sanitizer.md) validates ownership at the places every
byte already flows through: physical-memory stores and queue-ring index
transitions.  Those choke points only stay exhaustive if *new*
mutation sites added to them emit too — a ring-index mutation the
sanitizer never sees is a blind spot in every detector downstream.

Per function, in ``repro/memory/physmem.py`` and
``repro/nvme/queues.py``: assigning (or aug-assigning) ``self.head``,
``self.tail``, ``self.db_tail`` or ``self.phase``, or storing into a
subscript of the instance's own state (``self.<store>[...] = ...``, such
as a slice of the paged byte store), requires the function to emit on
the probe —
the seam's one idiom, ``for f in self.probe.<event>: f(...)``
(:mod:`repro.sim.probe`).  A deliberate silent site takes an explicit
``# staticcheck: ignore[sanitizer-hook]`` with a justification.
"""

from __future__ import annotations

import ast
import typing as t

from ..astutil import dotted_name, iter_functions, local_walk
from ..findings import Finding
from ..registry import register
from ..rule import FileContext, Rule

_RING_INDEX = frozenset({"head", "tail", "db_tail", "phase"})
_SCOPE = ("repro/memory/physmem.py", "repro/nvme/queues.py")


def _is_emit(node: ast.AST) -> bool:
    """``for f in <...>.probe.<event>:`` — the subscriber tuple of one
    probe event being walked."""
    return (isinstance(node, ast.For)
            and isinstance(node.iter, ast.Attribute)
            and (dotted_name(node.iter.value) or "").split(".")[-1]
            == "probe")


def _is_mutation(target: ast.AST) -> bool:
    if (isinstance(target, ast.Attribute)
            and target.attr in _RING_INDEX
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"):
        return True
    return (isinstance(target, ast.Subscript)
            and (dotted_name(target.value) or "").startswith("self."))


@register
class SanitizerHook(Rule):
    name = "sanitizer-hook"
    summary = "physmem/queue mutation sites must emit on the probe"

    def applies(self, ctx: FileContext) -> bool:
        return ctx.module_rel in _SCOPE

    def check(self, ctx: FileContext) -> t.Iterator[Finding]:
        for _cls, fn in iter_functions(ctx.tree):
            mutations: list[ast.AST] = []
            hooked = False
            for node in local_walk(fn):
                if _is_emit(node):
                    hooked = True
                targets: t.Sequence[ast.AST] = ()
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, ast.AugAssign):
                    targets = (node.target,)
                mutations.extend(tgt for tgt in targets
                                 if _is_mutation(tgt))
            if hooked:
                continue
            for target in mutations:
                yield self.finding(
                    ctx, target,
                    "memory/ring state mutated in a function that emits "
                    "nothing on the probe: ShareSan would miss this "
                    "site (emit, or suppress with a justification)")

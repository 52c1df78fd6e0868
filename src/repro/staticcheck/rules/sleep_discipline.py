"""Rule ``sleep-discipline``: a ``sleep()`` is yielded where it is made.

:meth:`repro.sim.core.Simulator.sleep` arms the calling process's own
timer and hands it back; the next ``sleep()`` of that process arms the
same object again.  A reference that outlives the yield therefore
aliases a later sleep: bound to a name and inspected after resuming it
reads "not processed" again, inside ``any_of``/``all_of`` the composite
watches whatever the process sleeps on next, and a bare ``x.sleep(ns)``
statement leaves the timer armed so that the sleeps after it silently
fall back to allocating.  ``timeout()`` is the event to keep or compose.

Every ``<x>.sleep(...)`` call must be the direct operand of a ``yield``.
"""

from __future__ import annotations

import ast
import typing as t

from ..findings import Finding
from ..registry import register
from ..rule import FileContext, Rule


@register
class SleepDiscipline(Rule):
    name = "sleep-discipline"
    summary = "sleep() results must be yielded directly, never kept"

    def check(self, ctx: FileContext) -> t.Iterator[Finding]:
        yielded = {id(node.value) for node in ast.walk(ctx.tree)
                   if isinstance(node, ast.Yield)}
        for node in ast.walk(ctx.tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "sleep"
                    and id(node) not in yielded):
                yield self.finding(
                    ctx, node,
                    "sleep() hands back the process's own re-armable "
                    "timer: yield it directly, or use timeout() for an "
                    "event that is kept, composed or given callbacks")

"""bounded-queue: in-process buffers in library code must have a hard bound.

Backpressure only works if *every* buffer between a producer and its consumer
has an explicit capacity (in ``src/`` today that is the worker pool's task
queue, whose suppression records what bounds its depth): an unbounded ``Queue`` or ``deque`` absorbs overload silently
until memory pressure does the load shedding, unobservably and at the worst
possible moment.  In library code
(``src/``) this rule requires:

* ``queue.Queue`` / ``LifoQueue`` / ``PriorityQueue`` and
  ``multiprocessing``'s ``Queue`` / ``JoinableQueue``: an explicit ``maxsize``
  that is not ``0`` / ``None`` (both mean "infinite" to the stdlib).
* ``collections.deque``: an explicit ``maxlen`` that is not ``None``.
* ``SimpleQueue`` (either module): always a finding — it has no capacity
  parameter at all, so there is no way to construct it bounded.

A non-literal bound (``maxsize=config.queue_max``) is fine: the rule enforces
that a bound was *chosen*, not what it is.  Deliberately unbounded buffers
need a ``# repro-lint: disable=bounded-queue -- <why the depth is bounded
elsewhere>`` suppression, which is exactly the audit trail we want.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional

from tools.lint import config
from tools.lint.engine import FileContext, Finding, Rule, register
from tools.lint.rules._util import last_component

#: Constructor names matched for the ``maxsize`` requirement.  Matching by
#: final component (``Queue`` and ``mp_context.Queue`` alike) deliberately
#: over-approximates: a false positive on an unrelated ``Queue`` class is a
#: one-line reasoned suppression, an unbounded stdlib queue is an incident.
_MAXSIZE_NAMES = config.QUEUE_MAXSIZE_CONSTRUCTORS
_UNBOUNDABLE_NAMES = config.QUEUE_UNBOUNDABLE_CONSTRUCTORS


def _is_unbounded_literal(node: ast.AST) -> bool:
    """Whether an explicit capacity argument still means "no bound"."""
    if not isinstance(node, ast.Constant):
        return False
    return node.value is None or node.value == 0


def _capacity_argument(
    call: ast.Call, keyword: str, position: int
) -> Optional[ast.AST]:
    """The capacity expression of a constructor call, however it was passed."""
    for kw in call.keywords:
        if kw.arg == keyword:
            return kw.value
    if len(call.args) > position:
        return call.args[position]
    return None


@register
class BoundedQueue(Rule):
    """Unbounded ``Queue``/``deque``/``SimpleQueue`` construction in src/."""

    name = "bounded-queue"
    description = (
        "queue.Queue/deque construction in library code must pass an "
        "explicit maxsize/maxlen bound; unbounded in-process buffers hide "
        "overload until memory pressure sheds the load for you"
    )

    def applies(self, ctx: FileContext) -> bool:
        """Library code only; experiment drivers may buffer freely."""
        return ctx.rel_path.startswith(config.LIBRARY_PATH_PREFIXES)

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Flag capacity-less (or explicitly infinite) buffer constructions."""
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = last_component(node.func)
            if callee in _UNBOUNDABLE_NAMES:
                findings.append(ctx.finding(
                    node, self.name,
                    f"{callee} cannot be bounded (no capacity parameter); "
                    "use a Queue with an explicit maxsize instead",
                ))
                continue
            if callee in _MAXSIZE_NAMES:
                capacity = _capacity_argument(node, "maxsize", 0)
                if capacity is None or _is_unbounded_literal(capacity):
                    findings.append(ctx.finding(
                        node, self.name,
                        f"{callee} without an explicit positive maxsize is an "
                        "unbounded buffer; pass a hard bound (0/None mean "
                        "infinite)",
                    ))
                continue
            if callee == "deque":
                capacity = _capacity_argument(node, "maxlen", 1)
                if capacity is None or _is_unbounded_literal(capacity):
                    findings.append(ctx.finding(
                        node, self.name,
                        "deque without an explicit maxlen is an unbounded "
                        "buffer; pass a hard bound",
                    ))
        return findings

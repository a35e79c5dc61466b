"""What a loop's iterations can run: the loop plus every user function
it can reach (paper §3.2, §3.4, §4.1).  The multi-core audits, the
static DDG, the commutativity prover, LICM and lint all ask
:func:`loop_region` rather than walk callees themselves.

An indirect call (``(c ? f : g)(x)``) reaches every *address-taken*
function: one named by an ``Ident`` outside a call's callee position.
MiniC has no function-pointer declarators, so only a function body can
name one.  Nothing is kept between calls: a pass that rewrites the
program never reads a stale call graph.
"""

from __future__ import annotations

from typing import List, Mapping, NamedTuple

from . import ast


class LoopRegion(NamedTuple):
    #: preorder; at the first call to each user function the walk
    #: descends into it, params then body, before the call's operands
    nodes: List[ast.Node]
    #: the user functions reached, in first-call order
    callees: List[ast.FunctionDef]
    #: whether any call in the region is indirect
    indirect: bool


def address_taken(functions: Mapping[str, ast.FunctionDef]
                  ) -> List[ast.FunctionDef]:
    """Defined functions an indirect call may target, in table order."""
    taken = set()
    for fn in functions.values():
        callee_pos = set()
        for node in fn.body.walk() if fn.body is not None else ():
            if isinstance(node, ast.Call):
                callee_pos.add(id(node.func))
            elif isinstance(node, ast.Ident) and id(node) not in callee_pos \
                    and isinstance(node.decl, ast.FunctionDef):
                taken.add(node.name)
    return [fn for name, fn in functions.items()
            if name in taken and fn.body is not None]


def loop_region(loop: ast.LoopStmt,
                functions: Mapping[str, ast.FunctionDef]) -> LoopRegion:
    """The region of ``loop``; ``functions`` maps name -> definition,
    as :attr:`repro.frontend.sema.SemaResult.functions` does."""
    nodes: List[ast.Node] = []
    callees: List[ast.FunctionDef] = []
    indirect = False
    stack: List[ast.Node] = [loop]
    while stack:
        node = stack.pop()
        nodes.append(node)
        stack.extend(reversed(list(node.children())))
        if not isinstance(node, ast.Call) or (indirect
                                              and node.callee_name is None):
            continue
        if node.callee_name is None:
            indirect = True
            targets = address_taken(functions)
        else:
            targets = [functions.get(node.callee_name)]
        targets = [fn for fn in targets if fn is not None
                   and fn.body is not None and fn not in callees]
        callees.extend(targets)
        for fn in reversed(targets):
            stack.append(fn.body)
            stack.extend(reversed(fn.params))
    return LoopRegion(nodes, callees, indirect)

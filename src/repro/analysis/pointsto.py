"""Flow-insensitive, field-insensitive Andersen-style points-to analysis.

The expansion pipeline uses this in two places the paper calls out:

* **expansion-set selection** (§3.4): "we perform alias analysis in the
  compiler to find out whether a data structure gets referenced by
  private memory accesses ... If not, the data structure will not be
  expanded";
* **selective promotion** (§3.4): "if the object that a pointer points
  to is not involved in privatization, we do not promote the pointer at
  all".

Abstraction:

* an **object** is an allocation site: ``("var", decl_nid)`` for every
  declared variable, ``("heap", call_nid)`` per malloc/calloc/realloc
  call, ``("str", nid)`` per string literal, ``("ret", fn_name)`` as the
  return-value slot of each function;
* every object has one **content variable** holding what pointers
  stored anywhere inside it may point to (field-insensitive within an
  object, but objects from different sites stay separate — which is the
  granularity expansion decisions need, since expansion is per site);
* inclusion constraints are solved with a standard worklist.

The dynamic profiler provides per-site object ground truth, so the test
suite can check this analysis is a sound over-approximation on every
benchmark kernel.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..frontend import ast
from ..frontend.ctypes import ArrayType, CType, StructType
from ..frontend.sema import SemaResult

#: object / constraint-variable handles
Obj = Tuple[str, object]
Handle = Tuple[str, object]

_ALLOC_FNS = ("malloc", "calloc", "realloc")


def _contains_pointer(ctype: CType, seen=None) -> bool:
    """Does a value of this type (transitively) contain pointers?"""
    if ctype.is_pointer:
        return True
    if isinstance(ctype, ArrayType):
        return _contains_pointer(ctype.elem, seen)
    if isinstance(ctype, StructType):
        seen = seen or set()
        if ctype.name in seen:
            return False
        seen.add(ctype.name)
        return any(_contains_pointer(f.type, seen) for f in ctype.fields)
    return False


class PointsToResult:
    """Solved points-to sets plus the queries the pipeline needs."""

    def __init__(self):
        #: content-variable handle -> set of objects
        self.pts: Dict[Handle, Set[Obj]] = {}
        #: object -> static types it was observed allocated/declared as
        self.object_types: Dict[Obj, Set[CType]] = {}
        #: object -> human label
        self.object_labels: Dict[Obj, str] = {}
        #: per access-expression nid: objects the access may touch
        self.access_objects: Dict[int, Set[Obj]] = {}

    def pts_of(self, handle: Handle) -> Set[Obj]:
        return self.pts.get(handle, set())

    def objects_of_access(self, nid: int) -> Set[Obj]:
        return self.access_objects.get(nid, set())


class _Solver:
    """Inclusion-constraint worklist solver."""

    def __init__(self):
        self.pts: Dict[Handle, Set[Obj]] = {}
        self.copy_edges: Dict[Handle, Set[Handle]] = {}   # src -> dsts
        self.load_cons: Dict[Handle, Set[Handle]] = {}    # ptr -> dsts
        self.store_cons: Dict[Handle, Set[Handle]] = {}   # ptr -> srcs
        self._work: List[Handle] = []

    def _pts(self, h: Handle) -> Set[Obj]:
        return self.pts.setdefault(h, set())

    def add_base(self, dst: Handle, obj: Obj) -> None:
        if obj not in self._pts(dst):
            self.pts[dst].add(obj)
            self._work.append(dst)

    def add_copy(self, dst: Handle, src: Handle) -> None:
        if dst == src:
            return
        dsts = self.copy_edges.setdefault(src, set())
        if dst not in dsts:
            dsts.add(dst)
            if self._pts(src):
                self._work.append(src)

    def add_load(self, dst: Handle, ptr: Handle) -> None:
        dsts = self.load_cons.setdefault(ptr, set())
        if dst not in dsts:
            dsts.add(dst)
            if self._pts(ptr):
                self._work.append(ptr)

    def add_store(self, ptr: Handle, src: Handle) -> None:
        srcs = self.store_cons.setdefault(ptr, set())
        if src not in srcs:
            srcs.add(src)
            if self._pts(ptr):
                self._work.append(ptr)

    def solve(self) -> None:
        while self._work:
            h = self._work.pop()
            pts_h = self._pts(h)
            # resolve load/store constraints through h's points-to set
            for dst in self.load_cons.get(h, ()):
                for obj in list(pts_h):
                    self.add_copy(dst, ("obj", obj))
            for src in self.store_cons.get(h, ()):
                for obj in list(pts_h):
                    self.add_copy(("obj", obj), src)
            # propagate along copy edges
            for dst in self.copy_edges.get(h, ()):
                pts_dst = self._pts(dst)
                new = pts_h - pts_dst
                if new:
                    pts_dst |= new
                    self._work.append(dst)


class _ConstraintGen:
    def __init__(self, program: ast.Program, sema: SemaResult):
        self.program = program
        self.sema = sema
        self.solver = _Solver()
        self.result = PointsToResult()
        self._tmp_count = 0

    # -- helpers -----------------------------------------------------------
    def _fresh(self) -> Handle:
        self._tmp_count += 1
        return ("tmp", self._tmp_count)

    def _note_object(self, obj: Obj, ctype: Optional[CType], label: str):
        if ctype is not None:
            self.result.object_types.setdefault(obj, set()).add(ctype)
        self.result.object_labels.setdefault(obj, label)

    def _var_obj(self, decl: ast.VarDecl) -> Obj:
        obj: Obj = ("var", decl.nid)
        self._note_object(obj, decl.ctype, decl.name)
        return obj

    # -- entry ------------------------------------------------------------
    def run(self) -> PointsToResult:
        for fn in self.program.functions():
            self._walk_stmt(fn.body, fn)
        for decl in self.sema.globals:
            if decl.init is not None:
                self._bind_init(decl, decl.init)
        self.solver.solve()
        self.result.pts = self.solver.pts
        self._collect_access_objects()
        return self.result

    def _bind_init(self, decl: ast.VarDecl, init) -> None:
        if isinstance(init, list):
            for item in init:
                self._bind_init(decl, item)
            return
        # always walk the initializer: calls inside it generate
        # argument-to-parameter constraints even when the declared
        # variable itself holds no pointers
        handle = self._rv(init)
        if _contains_pointer(decl.ctype):
            self.solver.add_copy(("obj", self._var_obj(decl)), handle)

    # -- statements ----------------------------------------------------------
    def _walk_stmt(self, stmt: ast.Stmt, fn: ast.FunctionDef) -> None:
        if isinstance(stmt, ast.Block):
            for s in stmt.stmts:
                self._walk_stmt(s, fn)
        elif isinstance(stmt, ast.DeclStmt):
            for decl in stmt.decls:
                self._var_obj(decl)
                if decl.init is not None:
                    self._bind_init(decl, decl.init)
        elif isinstance(stmt, ast.ExprStmt):
            self._walk_expr(stmt.expr)
        elif isinstance(stmt, ast.If):
            self._walk_expr(stmt.cond)
            self._walk_stmt(stmt.then, fn)
            if stmt.els is not None:
                self._walk_stmt(stmt.els, fn)
        elif isinstance(stmt, (ast.While, ast.DoWhile)):
            self._walk_expr(stmt.cond)
            self._walk_stmt(stmt.body, fn)
        elif isinstance(stmt, ast.For):
            if stmt.init is not None:
                self._walk_stmt(stmt.init, fn)
            if stmt.cond is not None:
                self._walk_expr(stmt.cond)
            if stmt.step is not None:
                self._walk_expr(stmt.step)
            self._walk_stmt(stmt.body, fn)
        elif isinstance(stmt, ast.Return):
            if stmt.expr is not None:
                handle = self._walk_expr(stmt.expr)
                if handle is not None:
                    ret_obj: Obj = ("ret", fn.name)
                    self._note_object(ret_obj, fn.ret_type, f"{fn.name}()")
                    self.solver.add_copy(("obj", ret_obj), handle)
        # Break/Continue: nothing

    # -- expressions -----------------------------------------------------------
    def _walk_expr(self, expr: ast.Expr) -> Optional[Handle]:
        """Generate constraints for ``expr``; returns its rvalue handle
        when the expression may produce pointers, else None."""
        return self._rv(expr)

    def _lv(self, expr: ast.Expr):
        """Resolve an lvalue: ('objs', [Obj...]) for statically known
        locations, ('ptr', handle) when the location is *(handle)."""
        if isinstance(expr, ast.Ident):
            if isinstance(expr.decl, ast.VarDecl):
                return ("objs", [self._var_obj(expr.decl)])
            return ("objs", [])
        if isinstance(expr, ast.Unary) and expr.op == "*":
            return ("ptr", self._rv(expr.operand))
        if isinstance(expr, ast.Index):
            base_t = expr.base.ctype
            if base_t is not None and base_t.is_array:
                self._rv(expr.index)
                return self._lv(expr.base)
            self._rv(expr.index)
            return ("ptr", self._rv(expr.base))
        if isinstance(expr, ast.Member):
            if expr.arrow:
                return ("ptr", self._rv(expr.base))
            return self._lv(expr.base)
        if isinstance(expr, ast.Cast):
            return self._lv(expr.expr)
        if isinstance(expr, ast.Comma):
            self._rv(expr.left)
            return self._lv(expr.right)
        return ("objs", [])

    def _lv_objects_handle(self, lv) -> Handle:
        """A handle whose pts() is the content of the lvalue's objects."""
        kind, payload = lv
        if kind == "objs":
            if len(payload) == 1:
                return ("obj", payload[0])
            tmp = self._fresh()
            for obj in payload:
                self.solver.add_copy(tmp, ("obj", obj))
            return tmp
        tmp = self._fresh()
        self.solver.add_load(tmp, payload)
        return tmp

    def _assign_into(self, lv, src: Handle) -> None:
        kind, payload = lv
        if kind == "objs":
            for obj in payload:
                self.solver.add_copy(("obj", obj), src)
        else:
            self.solver.add_store(payload, src)

    def _rv(self, expr: ast.Expr) -> Handle:
        if isinstance(expr, (ast.IntLit, ast.FloatLit, ast.SizeofType)):
            return self._fresh()
        if isinstance(expr, ast.SizeofExpr):
            self._rv(expr.expr)
            return self._fresh()
        if isinstance(expr, ast.StrLit):
            obj: Obj = ("str", expr.nid)
            self._note_object(obj, expr.ctype, "strlit")
            tmp = self._fresh()
            self.solver.add_base(tmp, obj)
            return tmp
        if isinstance(expr, ast.Ident):
            if isinstance(expr.decl, ast.VarDecl):
                if expr.decl.ctype.is_array:
                    tmp = self._fresh()
                    self.solver.add_base(tmp, self._var_obj(expr.decl))
                    return tmp
                return ("obj", self._var_obj(expr.decl))
            return self._fresh()
        if isinstance(expr, ast.Unary):
            if expr.op == "&":
                lv = self._lv(expr.operand)
                kind, payload = lv
                if kind == "objs":
                    tmp = self._fresh()
                    for obj in payload:
                        self.solver.add_base(tmp, obj)
                    return tmp
                return payload  # &*p, &p[i], &p->f alias p's targets
            if expr.op == "*":
                return self._lv_objects_handle(("ptr", self._rv(expr.operand)))
            if expr.op in ("++", "--", "p++", "p--"):
                return self._rv(expr.operand)
            self._rv(expr.operand)
            return self._fresh()
        if isinstance(expr, ast.Binary):
            lh = self._rv(expr.left)
            rh = self._rv(expr.right)
            lt = expr.left.ctype.decay() if expr.left.ctype else None
            rt = expr.right.ctype.decay() if expr.right.ctype else None
            if expr.op in ("+", "-"):
                if lt is not None and lt.is_pointer:
                    return lh
                if rt is not None and rt.is_pointer:
                    return rh
            return self._fresh()
        if isinstance(expr, ast.Assign):
            lv = self._lv(expr.target)
            src = self._rv(expr.value)
            target_t = expr.target.ctype
            if target_t is not None and _contains_pointer(target_t):
                self._assign_into(lv, src)
            elif isinstance(target_t, StructType) and _contains_pointer(target_t):
                self._assign_into(lv, src)
            return src
        if isinstance(expr, ast.Cond):
            self._rv(expr.cond)
            th = self._rv(expr.then)
            eh = self._rv(expr.els)
            tmp = self._fresh()
            self.solver.add_copy(tmp, th)
            self.solver.add_copy(tmp, eh)
            return tmp
        if isinstance(expr, ast.Call):
            return self._call(expr)
        if isinstance(expr, (ast.Index, ast.Member)):
            return self._lv_objects_handle(self._lv(expr))
        if isinstance(expr, ast.Cast):
            inner = self._rv(expr.expr)
            return inner
        if isinstance(expr, ast.Comma):
            self._rv(expr.left)
            return self._rv(expr.right)
        return self._fresh()  # pragma: no cover

    def _call(self, expr: ast.Call) -> Handle:
        name = expr.callee_name
        arg_handles = [self._rv(a) for a in expr.args]
        if name in _ALLOC_FNS and name not in self.sema.functions:
            obj: Obj = ("heap", expr.nid)
            self._note_object(obj, None, f"{name}@L{expr.loc[0]}:{expr.loc[1]}")
            tmp = self._fresh()
            self.solver.add_base(tmp, obj)
            if name == "realloc" and arg_handles:
                self.solver.add_copy(tmp, arg_handles[0])
                # contents survive the copy
                self.solver.add_load(("obj", obj), arg_handles[0])
            return tmp
        if name == "memcpy" or name == "memmove":
            # pointer contents may be copied between objects
            if len(arg_handles) >= 2:
                tmp = self._fresh()
                self.solver.add_load(tmp, arg_handles[1])
                self.solver.add_store(arg_handles[0], tmp)
            return arg_handles[0] if arg_handles else self._fresh()
        fn = self.sema.functions.get(name) if name else None
        if fn is not None:
            for param, handle in zip(fn.params, arg_handles):
                if _contains_pointer(param.ctype):
                    self.solver.add_copy(("obj", self._var_obj(param)), handle)
            if _contains_pointer(fn.ret_type):
                ret_obj: Obj = ("ret", fn.name)
                self._note_object(ret_obj, fn.ret_type, f"{fn.name}()")
                return ("obj", ret_obj)
        return self._fresh()

    # -- post-solve: per-access object sets ----------------------------------
    def _collect_access_objects(self) -> None:
        """For every load/store expression in the program, the objects
        it may touch (used for expansion-set selection)."""
        for fn in self.program.functions():
            for node in fn.body.walk():
                objs = self._access_objs(node)
                if objs is not None:
                    self.result.access_objects[node.nid] = objs

    def _access_objs(self, node: ast.Node) -> Optional[Set[Obj]]:
        if isinstance(node, ast.Ident) and isinstance(node.decl, ast.VarDecl):
            return {("var", node.decl.nid)}
        if isinstance(node, ast.Unary) and node.op == "*":
            return set(self._resolve_ptr(node.operand))
        if isinstance(node, ast.Index):
            base_t = node.base.ctype
            if base_t is not None and base_t.is_array:
                return self._access_objs(node.base)
            return set(self._resolve_ptr(node.base))
        if isinstance(node, ast.Member):
            if node.arrow:
                return set(self._resolve_ptr(node.base))
            return self._access_objs(node.base)
        if isinstance(node, ast.Assign):
            return self._access_objs(node.target)
        if isinstance(node, ast.Call):
            name = node.callee_name
            if name in ("memset", "memcpy", "memmove", "strlen") and node.args:
                out: Set[Obj] = set()
                for arg in node.args:
                    at = arg.ctype.decay() if arg.ctype else None
                    if at is not None and at.is_pointer:
                        out |= set(self._resolve_ptr(arg))
                return out
        return None

    def _resolve_ptr(self, expr: ast.Expr) -> Set[Obj]:
        """Objects a pointer-valued expression may point to (post-solve)."""
        if isinstance(expr, ast.Cast):
            return self._resolve_ptr(expr.expr)
        if isinstance(expr, ast.Binary) and expr.op in ("+", "-"):
            lt = expr.left.ctype.decay() if expr.left.ctype else None
            if lt is not None and lt.is_pointer:
                return self._resolve_ptr(expr.left)
            return self._resolve_ptr(expr.right)
        if isinstance(expr, ast.Ident) and isinstance(expr.decl, ast.VarDecl):
            if expr.decl.ctype.is_array:
                return {("var", expr.decl.nid)}
            return set(self.solver.pts.get(("obj", ("var", expr.decl.nid)), ()))
        if isinstance(expr, ast.Unary) and expr.op == "&":
            lv_objs = self._access_objs(expr.operand)
            return lv_objs if lv_objs is not None else set()
        if isinstance(expr, (ast.Member, ast.Index, ast.Unary)):
            # loads of pointers from memory: union content of base objects
            base_objs = self._access_objs(expr)
            out: Set[Obj] = set()
            if base_objs:
                for obj in base_objs:
                    out |= self.solver.pts.get(("obj", obj), set())
            return out
        if isinstance(expr, ast.Call):
            name = expr.callee_name
            if name in _ALLOC_FNS:
                return {("heap", expr.nid)}
            fn = self.sema.functions.get(name) if name else None
            if fn is not None:
                return set(self.solver.pts.get(("obj", ("ret", fn.name)), ()))
            return set()
        if isinstance(expr, ast.Cond):
            return self._resolve_ptr(expr.then) | self._resolve_ptr(expr.els)
        if isinstance(expr, ast.Comma):
            return self._resolve_ptr(expr.right)
        if isinstance(expr, ast.Assign):
            return self._resolve_ptr(expr.value)
        return set()


def analyze_pointsto(program: ast.Program, sema: SemaResult) -> PointsToResult:
    """Build and solve points-to constraints for a whole program."""
    return _ConstraintGen(program, sema).run()

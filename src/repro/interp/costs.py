"""The cycle cost model, defined once.

Every tier charges from this table: the walker (``interp/machine.py``),
the builtins every tier calls into (``interp/builtins.py``), the closure
compiler (which binds entries as constants at import) and the C emitter
(which folds them into ``cy8`` literals).  It has no imports of its own
so that all of them can bind it at module level.
"""

#: cycles per abstract operation, loosely calibrated to the paper's
#: Opteron testbed (what matters for the reproduction is the *ratio*
#: between redirection arithmetic, loads/stores, and runtime calls).
COSTS = {
    "alu": 1,          # add/sub/bit/cmp/branch
    "imul": 3,
    "idiv": 20,
    "falu": 1,         # pipelined FP add/mul throughput
    "fdiv": 15,
    "fmath": 30,       # sqrt/exp/...
    "load": 4,
    "store": 4,
    "reg": 0,          # register-allocated slot (local scalars, fixed
                       # VLA copy slots, SRoA'd small structs): reading
                       # or writing a register operand costs nothing
                       # beyond the ALU op already charged
    "lea": 1,          # pointer +/- integer (one lea)
    "ptrdiff": 2,      # pointer difference (sub + shift)
    "call": 15,        # user function call overhead
    "ret": 5,
    "builtin": 10,     # builtin dispatch
    "malloc": 60,
    "free": 40,
    "print": 50,
    "byte_op": 0.125,  # per byte of memset/memcpy/struct copy
}

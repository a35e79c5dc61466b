"""MiniC type system.

Types model a faithful C subset with real byte-level layout semantics:
sizes, alignment, struct field offsets, array strides.  Byte-accurate
layout is load-bearing for this reproduction: the paper's *span*
machinery (Table 3) and bonded-mode redirection (Table 2) index into
expanded structures with expressions like ``tid * span / sizeof(*p)``,
and benchmarks such as 256.bzip2 recast buffers between 2-byte and
4-byte element types.

Types are immutable value objects (except ``StructType``, which is
interned by name so recursive structs can refer to themselves).
"""

from __future__ import annotations

import struct as _struct
from typing import Dict, List, Optional, Sequence, Tuple


class CTypeError(Exception):
    """Raised for invalid type construction or layout queries."""


class CType:
    """Base class of all MiniC types."""

    #: size in bytes; None for incomplete types (void, unsized arrays)
    size: Optional[int] = None
    #: alignment in bytes
    align: int = 1

    def __eq__(self, other: object) -> bool:  # pragma: no cover - overridden
        return self is other

    def __hash__(self) -> int:
        return hash(repr(self))

    def __repr__(self) -> str:  # pragma: no cover - overridden
        return self.__class__.__name__

    # -- convenience predicates -------------------------------------------
    @property
    def is_integer(self) -> bool:
        return isinstance(self, IntType)

    @property
    def is_float(self) -> bool:
        return isinstance(self, FloatType)

    @property
    def is_arith(self) -> bool:
        return self.is_integer or self.is_float

    @property
    def is_pointer(self) -> bool:
        return isinstance(self, PointerType)

    @property
    def is_array(self) -> bool:
        return isinstance(self, ArrayType)

    @property
    def is_struct(self) -> bool:
        return isinstance(self, StructType)

    @property
    def is_void(self) -> bool:
        return isinstance(self, VoidType)

    def decay(self) -> "CType":
        """Array-to-pointer decay; identity for other types."""
        if isinstance(self, ArrayType):
            return PointerType(self.elem)
        return self


class VoidType(CType):
    size = None
    align = 1

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VoidType)

    def __hash__(self) -> int:
        return hash("void")

    def __repr__(self) -> str:
        return "void"


#: integer kind -> (size, struct format char for signed variant)
_INT_KINDS: Dict[str, Tuple[int, str]] = {
    "char": (1, "b"),
    "short": (2, "h"),
    "int": (4, "i"),
    "long": (8, "q"),
}


class IntType(CType):
    """Integral type: char/short/int/long, signed or unsigned."""

    def __init__(self, kind: str = "int", signed: bool = True):
        if kind not in _INT_KINDS:
            raise CTypeError(f"unknown integer kind {kind!r}")
        self.kind = kind
        self.signed = signed
        self.size, fmt = _INT_KINDS[kind]
        self.align = self.size
        self.fmt = fmt if signed else fmt.upper()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IntType)
            and other.kind == self.kind
            and other.signed == self.signed
        )

    def __hash__(self) -> int:
        return hash(("int", self.kind, self.signed))

    def __repr__(self) -> str:
        return self.kind if self.signed else f"unsigned {self.kind}"

    @property
    def min_value(self) -> int:
        if not self.signed:
            return 0
        return -(1 << (8 * self.size - 1))

    @property
    def max_value(self) -> int:
        bits = 8 * self.size
        return (1 << (bits - 1)) - 1 if self.signed else (1 << bits) - 1

    def wrap(self, value: int) -> int:
        """Wrap a Python int into this type's representable range
        (two's-complement semantics, matching C's modular conversion)."""
        bits = 8 * self.size
        value &= (1 << bits) - 1
        if self.signed and value >= 1 << (bits - 1):
            value -= 1 << bits
        return value


_FLOAT_KINDS: Dict[str, Tuple[int, str]] = {"float": (4, "f"), "double": (8, "d")}


class FloatType(CType):
    """Floating type: float or double."""

    def __init__(self, kind: str = "double"):
        if kind not in _FLOAT_KINDS:
            raise CTypeError(f"unknown float kind {kind!r}")
        self.kind = kind
        self.size, self.fmt = _FLOAT_KINDS[kind]
        self.align = self.size

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FloatType) and other.kind == self.kind

    def __hash__(self) -> int:
        return hash(("float", self.kind))

    def __repr__(self) -> str:
        return self.kind

    def wrap(self, value: float) -> float:
        """Round-trip through the storage format (float32 truncation)."""
        if self.kind == "float":
            return _struct.unpack("<f", _struct.pack("<f", value))[0]
        return float(value)


#: pointers are 8 bytes, like the paper's x86-64 testbed
POINTER_SIZE = 8


class PointerType(CType):
    size = POINTER_SIZE
    align = POINTER_SIZE
    fmt = "q"

    def __init__(self, pointee: CType):
        self.pointee = pointee

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PointerType) and other.pointee == self.pointee

    def __hash__(self) -> int:
        return hash(("ptr", self.pointee))

    def __repr__(self) -> str:
        return f"{self.pointee!r}*"


class ArrayType(CType):
    def __init__(self, elem: CType, length: Optional[int]):
        if elem.size is None:
            raise CTypeError(f"array of incomplete type {elem!r}")
        if length is not None and length < 0:
            raise CTypeError("negative array length")
        self.elem = elem
        self.length = length
        self.size = None if length is None else elem.size * length
        self.align = elem.align

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ArrayType)
            and other.elem == self.elem
            and other.length == self.length
        )

    def __hash__(self) -> int:
        return hash(("arr", self.elem, self.length))

    def __repr__(self) -> str:
        n = "" if self.length is None else str(self.length)
        return f"{self.elem!r}[{n}]"


class Field:
    """A struct field with its computed byte offset."""

    __slots__ = ("name", "type", "offset")

    def __init__(self, name: str, ctype: CType, offset: int = 0):
        self.name = name
        self.type = ctype
        self.offset = offset

    def __repr__(self) -> str:
        return f"{self.type!r} {self.name}@{self.offset}"


def _align_up(n: int, a: int) -> int:
    return (n + a - 1) // a * a


class StructType(CType):
    """A named struct. May start incomplete and be completed later
    (supports self-referential types like linked-list nodes)."""

    def __init__(self, name: str, fields: Optional[Sequence[Tuple[str, CType]]] = None):
        self.name = name
        self.fields: List[Field] = []
        self._by_name: Dict[str, Field] = {}
        self.size = None
        self.align = 1
        self.complete = False
        if fields is not None:
            self.define(fields)

    def define(self, fields: Sequence[Tuple[str, CType]]) -> "StructType":
        """Lay out the fields with natural alignment + tail padding."""
        if self.complete:
            raise CTypeError(f"struct {self.name} redefined")
        offset = 0
        align = 1
        for fname, ftype in fields:
            if ftype.size is None:
                raise CTypeError(
                    f"field {fname!r} of struct {self.name} has incomplete type"
                )
            if fname in self._by_name:
                raise CTypeError(f"duplicate field {fname!r} in struct {self.name}")
            offset = _align_up(offset, ftype.align)
            field = Field(fname, ftype, offset)
            self.fields.append(field)
            self._by_name[fname] = field
            offset += ftype.size
            align = max(align, ftype.align)
        self.size = _align_up(max(offset, 1), align)
        self.align = align
        self.complete = True
        return self

    def field(self, name: str) -> Field:
        try:
            return self._by_name[name]
        except KeyError:
            raise CTypeError(f"struct {self.name} has no field {name!r}") from None

    def has_field(self, name: str) -> bool:
        return name in self._by_name

    def __eq__(self, other: object) -> bool:
        # nominal typing, like C
        return isinstance(other, StructType) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("struct", self.name))

    def __repr__(self) -> str:
        return f"struct {self.name}"


class FunctionType(CType):
    size = None
    align = 1

    def __init__(self, ret: CType, params: Sequence[CType], varargs: bool = False):
        self.ret = ret
        self.params = list(params)
        self.varargs = varargs

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FunctionType)
            and other.ret == self.ret
            and other.params == self.params
            and other.varargs == self.varargs
        )

    def __hash__(self) -> int:
        return hash(("fn", self.ret, tuple(self.params), self.varargs))

    def __repr__(self) -> str:
        ps = ", ".join(repr(p) for p in self.params)
        if self.varargs:
            ps = ps + ", ..." if ps else "..."
        return f"{self.ret!r}({ps})"


# -- canonical singletons ---------------------------------------------------
VOID = VoidType()
CHAR = IntType("char")
UCHAR = IntType("char", signed=False)
SHORT = IntType("short")
USHORT = IntType("short", signed=False)
INT = IntType("int")
UINT = IntType("int", signed=False)
LONG = IntType("long")
ULONG = IntType("long", signed=False)
FLOAT = FloatType("float")
DOUBLE = FloatType("double")
CHAR_PTR = PointerType(CHAR)
VOID_PTR = PointerType(VOID)


def sizeof(ctype: CType) -> int:
    """C ``sizeof``. Raises on incomplete types (void, unsized arrays)."""
    if ctype.size is None:
        raise CTypeError(f"sizeof incomplete type {ctype!r}")
    return ctype.size


def common_arith_type(a: CType, b: CType) -> CType:
    """The usual arithmetic conversions, simplified: any double wins,
    then float, then the wider/unsigned-er integer (minimum int)."""
    if not (a.is_arith and b.is_arith):
        raise CTypeError(f"no common arithmetic type for {a!r} and {b!r}")
    for kind in ("double", "float"):
        if (a.is_float and a.kind == kind) or (b.is_float and b.kind == kind):
            return FloatType(kind)
    assert isinstance(a, IntType) and isinstance(b, IntType)
    # integer promotion: everything at least int
    rank = {"char": 0, "short": 1, "int": 2, "long": 3}
    kind = max(a.kind, b.kind, "int", key=lambda k: rank[k])
    signed = a.signed and b.signed if rank[a.kind] == rank[b.kind] else (
        a.signed if rank[a.kind] > rank[b.kind] else b.signed
    )
    # anything below int promotes to signed int
    if rank[kind] <= rank["int"] and kind != "int":
        return INT
    if kind == "int" and (a.kind != "int" or b.kind != "int"):
        # promoted operands: unsignedness only survives from same-rank ints
        signed = not (
            (a.kind == "int" and not a.signed) or (b.kind == "int" and not b.signed)
        )
    return IntType(kind, signed)


def is_assignable(dst: CType, src: CType) -> bool:
    """Loose C assignment compatibility used by the semantic checker."""
    if dst == src:
        return True
    if dst.is_arith and src.is_arith:
        return True
    if dst.is_pointer and src.is_pointer:
        d, s = dst.pointee, src.pointee  # type: ignore[attr-defined]
        return d.is_void or s.is_void or d == s
    if dst.is_pointer and src.is_integer:
        return True  # NULL and int->ptr casts are common in benchmark C
    if dst.is_integer and src.is_pointer:
        return True
    return False

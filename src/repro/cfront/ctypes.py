"""Type representation for the C subset.

The toolkit uses the paper's *logical model of memory*: integers are
unbounded mathematical integers, pointer arithmetic ``p + i`` yields a
pointer to the same object as ``p``, and arrays are objects whose elements
are reached through an index selector.  Widths therefore matter only to
``sizeof``, which we give a fixed conventional layout.
"""

from repro.cfront.errors import TypeError_


class CType:
    """Base class of all C types.  Types are immutable values."""

    def is_integer(self):
        return False

    def is_pointer(self):
        return False

    def is_struct(self):
        return False

    def is_array(self):
        return False

    def is_void(self):
        return False

    def is_function(self):
        return False

    def is_scalar(self):
        """True for values representable in a single machine word."""
        return self.is_integer() or self.is_pointer()

    def sizeof(self):
        raise TypeError_("sizeof applied to incomplete type %s" % self)

    def __ne__(self, other):
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result


class IntType(CType):
    """All integer flavors (char, short, int, long, signed, unsigned, bool)."""

    __slots__ = ("name",)

    def __init__(self, name="int"):
        self.name = name

    def is_integer(self):
        return True

    def sizeof(self):
        return {"char": 1, "short": 2, "int": 4, "long": 8, "bool": 1}.get(self.name, 4)

    def __eq__(self, other):
        # All integer flavors are interchangeable under the logical model.
        return isinstance(other, IntType)

    def __hash__(self):
        return hash("IntType")

    def __str__(self):
        return self.name

    def __repr__(self):
        return "IntType(%r)" % self.name


class VoidType(CType):
    __slots__ = ()

    def is_void(self):
        return True

    def __eq__(self, other):
        return isinstance(other, VoidType)

    def __hash__(self):
        return hash("VoidType")

    def __str__(self):
        return "void"

    def __repr__(self):
        return "VoidType()"


class PointerType(CType):
    __slots__ = ("target",)

    def __init__(self, target):
        self.target = target

    def is_pointer(self):
        return True

    def sizeof(self):
        return 8

    def __eq__(self, other):
        if not isinstance(other, PointerType):
            return NotImplemented if not isinstance(other, CType) else False
        # void* is compatible with any pointer type.
        if self.target.is_void() or other.target.is_void():
            return True
        return self.target == other.target

    def __hash__(self):
        return hash("PointerType")

    def __str__(self):
        return "%s*" % self.target

    def __repr__(self):
        return "PointerType(%r)" % self.target


class StructField:
    """A named field with its type and declaration order."""

    __slots__ = ("name", "type", "index")

    def __init__(self, name, ctype, index):
        self.name = name
        self.type = ctype
        self.index = index

    def __repr__(self):
        return "StructField(%r, %r)" % (self.name, self.type)


class StructType(CType):
    """A (possibly incomplete) struct.

    Struct types are interned by tag name in the parser's environment, so
    identity comparison on the tag suffices for type equality; this also
    allows self-referential structs (``struct cell { struct cell *next; }``).
    """

    __slots__ = ("tag", "fields", "_field_map")

    def __init__(self, tag):
        self.tag = tag
        self.fields = None  # None while incomplete
        self._field_map = None

    @property
    def is_complete(self):
        return self.fields is not None

    def define(self, fields):
        if self.is_complete:
            raise TypeError_("redefinition of struct %s" % self.tag)
        self.fields = list(fields)
        self._field_map = {field.name: field for field in self.fields}

    def field(self, name):
        if not self.is_complete:
            raise TypeError_("access into incomplete struct %s" % self.tag)
        if name not in self._field_map:
            raise TypeError_("struct %s has no field %r" % (self.tag, name))
        return self._field_map[name]

    def is_struct(self):
        return True

    def sizeof(self):
        if not self.is_complete:
            raise TypeError_("sizeof incomplete struct %s" % self.tag)
        return sum(field.type.sizeof() for field in self.fields)

    def __eq__(self, other):
        if not isinstance(other, StructType):
            return NotImplemented if not isinstance(other, CType) else False
        return self.tag == other.tag

    def __hash__(self):
        return hash(("StructType", self.tag))

    def __str__(self):
        return "struct %s" % self.tag

    def __repr__(self):
        return "StructType(%r)" % self.tag


class ArrayType(CType):
    __slots__ = ("element", "length")

    def __init__(self, element, length=None):
        self.element = element
        self.length = length

    def is_array(self):
        return True

    def sizeof(self):
        if self.length is None:
            raise TypeError_("sizeof array of unknown length")
        return self.element.sizeof() * self.length

    def decay(self):
        """The pointer type an array converts to in expression contexts."""
        return PointerType(self.element)

    def __eq__(self, other):
        if not isinstance(other, ArrayType):
            return NotImplemented if not isinstance(other, CType) else False
        return self.element == other.element

    def __hash__(self):
        return hash("ArrayType")

    def __str__(self):
        return "%s[%s]" % (self.element, "" if self.length is None else self.length)

    def __repr__(self):
        return "ArrayType(%r, %r)" % (self.element, self.length)


class FunctionType(CType):
    __slots__ = ("ret", "params", "variadic")

    def __init__(self, ret, params, variadic=False):
        self.ret = ret
        self.params = list(params)
        self.variadic = variadic

    def is_function(self):
        return True

    def __eq__(self, other):
        if not isinstance(other, FunctionType):
            return NotImplemented if not isinstance(other, CType) else False
        return (
            self.ret == other.ret
            and len(self.params) == len(other.params)
            and all(a == b for a, b in zip(self.params, other.params))
        )

    def __hash__(self):
        return hash(("FunctionType", len(self.params)))

    def __str__(self):
        return "%s(%s)" % (self.ret, ", ".join(str(p) for p in self.params))

    def __repr__(self):
        return "FunctionType(%r, %r)" % (self.ret, self.params)


INT = IntType("int")
CHAR = IntType("char")
LONG = IntType("long")
BOOL = IntType("bool")
VOID = VoidType()
VOID_PTR = PointerType(VOID)


def decay(ctype):
    """Array-to-pointer decay for expression contexts."""
    if ctype.is_array():
        return ctype.decay()
    return ctype


def assignable(dst, src):
    """Whether a value of type ``src`` may be assigned to a ``dst`` lvalue."""
    dst = decay(dst)
    src = decay(src)
    if dst == src:
        return True
    # The NULL constant (an integer) may flow into any pointer; pointers do
    # not implicitly convert back to integers.
    if dst.is_pointer() and src.is_integer():
        return True
    return False

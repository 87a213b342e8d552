"""AST node types for the supported Java subset.

Every node carries a Span, built when first read.  Member lists on type
declarations preserve source order; convenience accessors partition them by
kind.  Comments are kept on the compilation unit and attached to
declarations they immediately precede.

Every node class is a dataclass, but dataclass() writes none of its
methods: the __init__ of every class comes from one exec at the end of the
module (_define_inits), with the parameters and body dataclass would give it.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import MISSING, dataclass, field
from typing import Iterator, Optional, Union

from .lexer import Span, TokenKind, extent_span

_NODE_CLASSES: list[type] = []  # in definition order, for _define_inits


def _node(cls: type) -> type:
    """Make a node class a dataclass that gets its __init__ from _define_inits.

    dataclass() compiles every method it writes with an exec of its own,
    each import, whatever the bytecode cache holds; and for a class without
    a docstring it asks inspect.signature for one.  So it writes no method
    here (the __repr__ and __eq__ are written once on Node), and it runs
    while the class holds a stand-in docstring.  The class then gets its
    own back, or the text dataclass would build,
    ``Name(field: 'type' = default, ...)``.
    """
    own_doc = cls.__doc__
    cls.__doc__ = "-"  # any docstring keeps dataclass() from building one
    dataclass(init=False, repr=False, eq=False)(cls)
    cls.__doc__ = own_doc or f"{cls.__name__}({', '.join(map(_param_text, dataclasses.fields(cls)))})"
    _NODE_CLASSES.append(cls)
    return cls


class _Factory:
    """Default of a parameter whose field has a default_factory."""

    def __repr__(self) -> str:
        return "<factory>"


_FACTORY = _Factory()


def _param_text(f: dataclasses.Field) -> str:
    """An __init__ parameter as inspect.signature prints it."""
    if f.default is not MISSING:
        return f"{f.name}: {f.type!r} = {f.default!r}"
    if f.default_factory is not MISSING:
        return f"{f.name}: {f.type!r} = <factory>"
    return f"{f.name}: {f.type!r}"


def _define_inits(classes: list[type]) -> None:
    """Give every node class the __init__ that dataclass() would write, from
    one exec: the same parameters, annotations and defaults, a fresh value
    from each default_factory, and a plain assignment per field, which runs
    a span property's slot setter."""
    scope: dict[str, object] = {"__name__": __name__, "_FACTORY": _FACTORY}
    lines: list[str] = []
    for i, cls in enumerate(classes):
        params, body = ["self"], []
        for f in dataclasses.fields(cls):
            if not f.init or f.kw_only:
                raise TypeError(f"{cls.__name__}.{f.name}: a node field is a plain __init__ parameter")
            value = f.name
            if f.default is not MISSING:
                scope[default := f"_d{i}_{f.name}"] = f.default
                params.append(f"{f.name}={default}")
            elif f.default_factory is not MISSING:
                scope[factory := f"_d{i}_{f.name}"] = f.default_factory
                params.append(f"{f.name}=_FACTORY")
                value = f"{factory}() if {f.name} is _FACTORY else {f.name}"
            else:
                params.append(f.name)
            body.append(f"    self.{f.name} = {value}")
        lines += [f"def _init{i}({', '.join(params)}):", *body]
    exec("\n".join(lines), scope)
    for i, cls in enumerate(classes):
        init = scope[f"_init{i}"]
        init.__name__, init.__qualname__ = "__init__", f"{cls.__qualname__}.__init__"
        # Annotations set here, not written in the source, cost no compiling.
        init.__annotations__ = {f.name: f.type for f in dataclasses.fields(cls)} | {"return": None}
        cls.__init__ = init


@functools.cache
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


def _spans_on_demand(cls: type) -> type:
    """Serve the span field ``x`` of a node class from its first slot, ``_x``.

    The parser fills the slot with the extent ``(line_index, start, end)``,
    the text offsets the node or name covers, and the first read of ``x``
    builds the Span (extent_span) and keeps it; the checkers read well under
    half of the spans.  A span given by hand is a Span already.  Setting the
    field runs the slot's own setter, without Python code.
    """
    slot = cls.__dict__[cls.__slots__[0]]
    get, put = slot.__get__, slot.__set__

    def read(node: Node) -> Span:
        value = get(node)
        if value.__class__ is tuple:
            value = extent_span(value)
            put(node, value)
        return value

    setattr(cls, cls.__slots__[0][1:], property(read, put))
    return cls


@_spans_on_demand
@_node
class Node:
    __slots__ = ("_span", "__dict__")
    span: Span

    __hash__ = None  # equal nodes need equal hashes, and a node's fields can change

    # Both walk the tree over an explicit stack, so a tree of any depth (the
    # parser reads else-if and ternary chains of any length) prints and compares.

    def __repr__(self) -> str:
        """``Class(field=value, ...)``, the text a dataclass repr would give."""
        out: list[str] = []
        todo: list[_ReprPiece] = [self]  # text to emit, or a node or list to expand
        while todo:
            item = todo.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            if isinstance(item, Node):
                pieces: list[_ReprPiece] = [f"{type(item).__qualname__}("]
                for i, name in enumerate(_field_names(type(item))):
                    pieces += (f"{', ' if i else ''}{name}=", _repr_piece(getattr(item, name)))
                pieces.append(")")
            else:
                pieces = ["["]
                for i, value in enumerate(item):
                    pieces += (", " if i else "", _repr_piece(value))
                pieces.append("]")
            todo.extend(reversed(pieces))
        return "".join(out)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        pairs: list[tuple[object, object]] = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is b:
                continue
            if isinstance(a, Node):
                if b.__class__ is not a.__class__:
                    return False
                pairs += ((getattr(a, name), getattr(b, name)) for name in _field_names(type(a)))
            elif isinstance(a, list):
                if not isinstance(b, list) or len(a) != len(b):
                    return False
                pairs += zip(a, b)
            elif a != b:
                return False
        return True


_ReprPiece = Union[str, Node, list]


def _repr_piece(value: object) -> _ReprPiece:
    """A node or list, left for Node.__repr__ to expand, or any other value's repr."""
    return value if isinstance(value, (Node, list)) else repr(value)


@_node
class Comment(Node):
    kind: TokenKind  # LINE_COMMENT, BLOCK_COMMENT, or JAVADOC
    text: str

    @property
    def is_javadoc(self) -> bool:
        return self.kind is TokenKind.JAVADOC

    @property
    def line_span(self) -> int:
        return self.span.end_line - self.span.start_line + 1


# --------------------------------------------------------------------------
# Types and declarations
# --------------------------------------------------------------------------

@_node
class TypeRef(Node):
    """A textual type reference: dotted name, type arguments, array dims."""

    name: str  # dotted source name, e.g. "java.util.List" or "int"
    type_args: list["TypeRef"] = field(default_factory=list)
    array_dims: int = 0
    bound_kind: str | None = None  # "extends"/"super" for wildcard bounds
    bound: Optional["TypeRef"] = None

    @property
    def simple_name(self) -> str:
        return self.name.rsplit(".", 1)[-1]

    def referenced_names(self) -> Iterator[str]:
        """Yield every simple type name this reference mentions."""
        if self.name not in ("?",):
            yield self.simple_name
        for arg in self.type_args:
            yield from arg.referenced_names()
        if self.bound is not None:
            yield from self.bound.referenced_names()


@_node
class Annotation(Node):
    name: str


@_node
class TypeParam(Node):
    name: str
    bounds: list[TypeRef] = field(default_factory=list)


@_node
class PackageDecl(Node):
    name: str


@_node
class ImportDecl(Node):
    name: str  # dotted name without the trailing ".*"
    is_static: bool = False
    on_demand: bool = False


@_spans_on_demand
@_node
class Param(Node):
    __slots__ = ("_name_span",)
    type: TypeRef
    name: str
    name_span: Span
    modifiers: list[str] = field(default_factory=list)
    annotations: list[Annotation] = field(default_factory=list)
    varargs: bool = False

    @property
    def is_final(self) -> bool:
        return "final" in self.modifiers


@_spans_on_demand
@_node
class VarDeclarator(Node):
    __slots__ = ("_name_span",)
    name: str
    name_span: Span
    extra_dims: int = 0
    init: Optional["Expr"] = None


@_node
class FieldDecl(Node):
    modifiers: list[str]
    annotations: list[Annotation]
    type: TypeRef
    declarators: list[VarDeclarator]
    doc: Comment | None = None

    @property
    def is_static_final(self) -> bool:
        return "static" in self.modifiers and "final" in self.modifiers


@_spans_on_demand
@_node
class MethodDecl(Node):
    __slots__ = ("_name_span",)
    modifiers: list[str]
    annotations: list[Annotation]
    type_params: list[TypeParam]
    return_type: TypeRef | None  # None for constructors
    name: str
    name_span: Span
    params: list[Param]
    throws: list[TypeRef]
    body: Optional["Block"]
    is_constructor: bool = False
    doc: Comment | None = None

    @property
    def is_static(self) -> bool:
        return "static" in self.modifiers

    def visibility(self) -> str:
        for m in ("public", "protected", "private"):
            if m in self.modifiers:
                return m
        return "package"


@_node
class Initializer(Node):
    static: bool
    body: "Block"


@_node
class EnumConstant(Node):
    name: str
    args: list["Expr"] = field(default_factory=list)


@_spans_on_demand
@_node
class TypeDecl(Node):
    __slots__ = ("_name_span",)
    kind: str  # "class" | "interface" | "enum"
    name: str
    name_span: Span
    modifiers: list[str]
    annotations: list[Annotation]
    type_params: list[TypeParam]
    extends: list[TypeRef]  # classes: 0..1 entry; interfaces: any
    implements: list[TypeRef]
    members: list[Union[FieldDecl, MethodDecl, Initializer, "TypeDecl"]]
    enum_constants: list[EnumConstant] = field(default_factory=list)
    doc: Comment | None = None

    @property
    def fields(self) -> list[FieldDecl]:
        return [m for m in self.members if isinstance(m, FieldDecl)]

    @property
    def methods(self) -> list[MethodDecl]:
        return [m for m in self.members if isinstance(m, MethodDecl) and not m.is_constructor]

    @property
    def constructors(self) -> list[MethodDecl]:
        return [m for m in self.members if isinstance(m, MethodDecl) and m.is_constructor]

    @property
    def nested_types(self) -> list["TypeDecl"]:
        return [m for m in self.members if isinstance(m, TypeDecl)]

    @property
    def is_abstract(self) -> bool:
        return "abstract" in self.modifiers

    def visibility(self) -> str:
        for m in ("public", "protected", "private"):
            if m in self.modifiers:
                return m
        return "package"


@_node
class CompilationUnit(Node):
    package: PackageDecl | None
    imports: list[ImportDecl]
    types: list[TypeDecl]
    comments: list[Comment] = field(default_factory=list)

    def all_types(self) -> Iterator[TypeDecl]:
        """Top-level and nested type declarations, outer first."""
        stack = list(self.types)
        while stack:
            t = stack.pop(0)
            yield t
            stack = t.nested_types + stack


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------

@_node
class Stmt(Node):
    pass


@_node
class Expr(Node):
    pass


@_node
class Block(Stmt):
    statements: list[Stmt]


@_node
class LocalVarDecl(Stmt):
    modifiers: list[str]
    annotations: list[Annotation]
    type: TypeRef
    declarators: list[VarDeclarator]


@_node
class ExprStmt(Stmt):
    expr: Expr


@_node
class IfStmt(Stmt):
    cond: Expr
    then: Stmt
    orelse: Stmt | None = None


@_node
class WhileStmt(Stmt):
    cond: Expr
    body: Stmt


@_node
class DoWhileStmt(Stmt):
    body: Stmt
    cond: Expr


@_node
class ForStmt(Stmt):
    init: list[Stmt]  # LocalVarDecl or ExprStmt entries
    cond: Expr | None
    update: list[Expr]
    body: Stmt


@_spans_on_demand
@_node
class ForEachStmt(Stmt):
    __slots__ = ("_var_name_span",)
    var_modifiers: list[str]
    var_type: TypeRef
    var_name: str
    var_name_span: Span
    iterable: Expr
    body: Stmt


@_node
class SwitchArm(Node):
    labels: list[Expr | None]  # None marks the default label
    statements: list[Stmt]

    @property
    def is_default(self) -> bool:
        return any(lbl is None for lbl in self.labels)


@_node
class SwitchStmt(Stmt):
    selector: Expr
    arms: list[SwitchArm]

    @property
    def has_default(self) -> bool:
        return any(arm.is_default for arm in self.arms)

    def case_label_count(self) -> int:
        return sum(1 for arm in self.arms for lbl in arm.labels if lbl is not None)


@_spans_on_demand
@_node
class CatchClause(Node):
    __slots__ = ("_name_span",)
    types: list[TypeRef]  # multi-catch alternatives
    name: str
    name_span: Span
    modifiers: list[str]
    body: Block


@_node
class TryStmt(Stmt):
    resources: list[LocalVarDecl]
    body: Block
    catches: list[CatchClause]
    finally_block: Block | None = None


@_node
class ReturnStmt(Stmt):
    value: Expr | None = None


@_node
class ThrowStmt(Stmt):
    expr: Expr = None  # type: ignore[assignment]


@_node
class BreakStmt(Stmt):
    label: str | None = None


@_node
class ContinueStmt(Stmt):
    label: str | None = None


@_node
class EmptyStmt(Stmt):
    pass


@_node
class SynchronizedStmt(Stmt):
    lock: Expr
    body: Block


@_node
class LabeledStmt(Stmt):
    label: str
    stmt: Stmt


@_node
class AssertStmt(Stmt):
    cond: Expr
    message: Expr | None = None


@_node
class LocalTypeDecl(Stmt):
    decl: TypeDecl


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------

@_node
class Assign(Expr):
    target: Expr
    op: str  # "=", "+=", ...
    value: Expr


@_node
class Ternary(Expr):
    cond: Expr
    if_true: Expr
    if_false: Expr


@_node
class Binary(Expr):
    op: str
    left: Expr
    right: Expr


@_node
class Unary(Expr):
    op: str
    operand: Expr
    prefix: bool = True


@_node
class Cast(Expr):
    type: TypeRef
    expr: Expr


@_node
class InstanceOf(Expr):
    expr: Expr
    type: TypeRef


@_spans_on_demand
@_node
class MethodCall(Expr):
    __slots__ = ("_name_span",)
    receiver: Expr | None
    name: str
    name_span: Span
    args: list[Expr]


@_node
class FieldAccess(Expr):
    receiver: Expr
    name: str


@_node
class Name(Expr):
    identifier: str


@_node
class ThisExpr(Expr):
    pass


@_node
class SuperExpr(Expr):
    pass


@_node
class Literal(Expr):
    kind: TokenKind
    lexeme: str
    radix: int | None = None
    suffix: str | None = None


@_node
class Paren(Expr):
    expr: Expr


@_node
class NewObject(Expr):
    type: TypeRef
    args: list[Expr]
    anon_body: list[Union[FieldDecl, MethodDecl, Initializer, TypeDecl]] | None = None


@_node
class NewArray(Expr):
    type: TypeRef
    dim_exprs: list[Expr]
    extra_dims: int = 0
    initializer: Optional["ArrayInitializer"] = None


@_node
class ArrayInitializer(Expr):
    values: list[Expr]


@_node
class ArrayAccess(Expr):
    array: Expr
    index: Expr


@_node
class Lambda(Expr):
    params: list[Param]  # inferred-type params carry a name-only TypeRef ""
    body: Union[Expr, Block]


@_node
class MethodRef(Expr):
    receiver: Expr | TypeRef
    name: str  # method name or "new"


@_node
class ClassLiteral(Expr):
    type: TypeRef


_define_inits(_NODE_CLASSES)


# --------------------------------------------------------------------------
# Generic traversal
# --------------------------------------------------------------------------

# Field annotations whose values can never hold a Node; their fields are
# skipped when looking for children.
_LEAF_ANNOTATIONS = frozenset({"Span", "TokenKind", "str", "str | None", "int", "int | None", "bool", "list[str]"})


@functools.cache
def child_fields(cls: type) -> tuple[str, ...]:
    """Names of the fields of a node class that may hold child nodes.

    Keyed on the class, so the cache holds one entry per node class.
    """
    return tuple(f.name for f in dataclasses.fields(cls) if f.type not in _LEAF_ANNOTATIONS)


def iter_child_nodes(node: Node) -> list[Node]:
    """The direct Node children of a node, in field order, as a new list.

    A list rather than a generator: the index pass calls this once per node.
    """
    out: list[Node] = []
    for name in child_fields(type(node)):
        value = getattr(node, name)
        if isinstance(value, Node):
            out.append(value)
        elif value.__class__ is list and value:
            out += [item for item in value if isinstance(item, Node)]
    return out


def walk(node: Node) -> Iterator[Node]:
    """Yield node and all descendants, depth-first, in source order.

    Iterative, so deeply nested expressions cannot exhaust the call stack.
    """
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        children = iter_child_nodes(current)
        children.reverse()
        stack += children

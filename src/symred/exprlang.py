"""Tiny arithmetic expression language used by scenario files: tokenizer,
parser, printer and a closure compiler.

Grammar (EBNF), with the usual precedence (power binds tightest, then unary
minus, then * and /, then + and -; binary operators associate left, the
integer exponent tower associates right):

    expr     = term { ("+" | "-") term } ;
    term     = factor { ("*" | "/") factor } ;
    factor   = "-" factor | power ;
    power    = atom [ "^" exponent ] ;
    exponent = integer [ "^" exponent ] ;
    atom     = number | ident | ident "(" expr ")" | "(" expr ")" ;
    vector   = "[" expr { "," expr } "]" ;
    matrix   = "[" vector { "," vector } "]" ;

Identifiers are coordinates (x1..xn, t1..tk, w1..wq) or the functions sin,
cos, exp and sqrt.  Exponents are nonnegative integer literals; "-2^2"
therefore parses as -(2^2).  Parsing either succeeds or raises ParseError
with a 1-based position; no input crashes the parser.

:func:`compile_exprs` turns the entries of one field into one program of
nested Python closures once, so a field evaluated at many points does no
per-point tree walking; a subtree repeated across or within the entries
is computed once per evaluation and its value reused.  A program runs on
one point as Python floats or on a batch of points as float64 columns,
one per coordinate.  On columns, ``+ - * /`` and negation are numpy's
elementwise IEEE operations, which give the bits the Python float
operations give; ``sin cos exp sqrt`` and ``^`` make the same ``math``
call or ``**`` on each element, because numpy's ``exp`` and ``power``
round differently on some inputs.  So every value is the bits a tree walk
gives.  Scenario files are untrusted input: the closures are built from
the AST, and no generated source is ever passed to ``eval`` or ``exec``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import NonFiniteError, ParseError, ValidationError

__all__ = [
    "Token",
    "tokenize",
    "Num",
    "Coord",
    "Neg",
    "BinOp",
    "Pow",
    "Call",
    "FUNCTIONS",
    "ExprParser",
    "parse_expression",
    "format_expr",
    "compile_expr",
    "compile_exprs",
    "eval_expr",
    "free_names",
    "validate_expr",
]

FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "sqrt": math.sqrt,
}

_COLUMN = np.ndarray  # a batch value: one float64 entry per point

_MAX_DEPTH = 200
_MAX_EXPONENT = 1_000_000

_SINGLE = {
    "+": "PLUS",
    "-": "MINUS",
    "*": "STAR",
    "/": "SLASH",
    "^": "CARET",
    "(": "LPAREN",
    ")": "RPAREN",
    "[": "LBRACKET",
    "]": "RBRACKET",
    ",": "COMMA",
    "=": "EQUALS",
    ".": "DOT",
}


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    column: int


def _is_ascii_digit(ch: str) -> bool:
    # str.isdigit accepts unicode digits that float() rejects
    return "0" <= ch <= "9"


def tokenize(text: str) -> list[Token]:
    """Scan text into tokens, keeping newlines; comments run from '#' to EOL."""
    tokens: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            tokens.append(Token("NEWLINE", "\n", line, col))
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
                col += 1
            continue
        if _is_ascii_digit(ch):
            start, start_col = i, col
            while i < n and _is_ascii_digit(text[i]):
                i += 1
            if i < n and text[i] == ".":
                i += 1
                while i < n and _is_ascii_digit(text[i]):
                    i += 1
            if i < n and text[i] in "eE":
                j = i + 1
                if j < n and text[j] in "+-":
                    j += 1
                if j < n and _is_ascii_digit(text[j]):
                    i = j
                    while i < n and _is_ascii_digit(text[i]):
                        i += 1
            lexeme = text[start:i]
            col = start_col + len(lexeme)
            if not math.isfinite(float(lexeme)):
                raise ParseError(f"number literal {lexeme!r} overflows", line, start_col)
            tokens.append(Token("NUMBER", lexeme, line, start_col))
            continue
        if ch.isalpha() or ch == "_":
            start, start_col = i, col
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            lexeme = text[start:i]
            col = start_col + len(lexeme)
            tokens.append(Token("IDENT", lexeme, line, start_col))
            continue
        kind = _SINGLE.get(ch)
        if kind is None:
            raise ParseError(f"unexpected character {ch!r}", line, col)
        tokens.append(Token(kind, ch, line, col))
        i += 1
        col += 1
    tokens.append(Token("EOF", "", line, col))
    return tokens


def _is_int_literal(tok: Token) -> bool:
    return tok.kind == "NUMBER" and "." not in tok.text and "e" not in tok.text \
        and "E" not in tok.text


class Expr:
    """Base class for AST nodes; concrete nodes are frozen dataclasses."""

    __slots__ = ()


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class Coord(Expr):
    name: str


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    power: int


@dataclass(frozen=True)
class Call(Expr):
    fn: str
    arg: Expr


class ExprParser:
    """Recursive-descent parser over a token list.

    The same instance parses plain expressions, vectors and matrices;
    scenario parsing drives it over per-statement token slices.
    """

    def __init__(self, tokens: list[Token], pos: int = 0):
        self.tokens = tokens
        self.pos = pos

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str, expected_name: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"unexpected {tok.kind} {tok.text!r}", tok.line, tok.column,
                expected=(expected_name,),
            )
        return self.advance()

    def at_end(self) -> bool:
        return self.peek().kind == "EOF"

    # expression grammar ---------------------------------------------------

    def parse_expr(self, depth: int = 0) -> Expr:
        start = self.peek()
        node = self.parse_term(depth + 1)
        while self.peek().kind in ("PLUS", "MINUS"):
            op = self.advance().text
            node = BinOp(op, node, self.parse_term(depth + 1))
        # the tree walks recurse once per level, and a + - * / chain is as
        # deep as it is long, so a whole expression's height is bounded too
        height = _height(node) if depth == 0 else 0
        if height > _MAX_DEPTH:
            raise ParseError(f"expression nests too deeply ({height} levels, at most "
                             f"{_MAX_DEPTH})", start.line, start.column)
        return node

    def parse_term(self, depth: int) -> Expr:
        node = self.parse_factor(depth + 1)
        while self.peek().kind in ("STAR", "SLASH"):
            op = self.advance().text
            node = BinOp(op, node, self.parse_factor(depth + 1))
        return node

    def parse_factor(self, depth: int) -> Expr:
        # every recursion of the grammar passes here, so this bounds nesting
        if depth > _MAX_DEPTH:
            tok = self.peek()
            raise ParseError("expression nests too deeply", tok.line, tok.column)
        if self.peek().kind == "MINUS":
            self.advance()
            return Neg(self.parse_factor(depth + 1))
        return self.parse_power(depth + 1)

    def parse_power(self, depth: int) -> Expr:
        node = self.parse_atom(depth + 1)
        if self.peek().kind == "CARET":
            self.advance()
            return Pow(node, self._parse_exponent())
        return node

    def _parse_exponent(self) -> int:
        tok = self.peek()
        if not _is_int_literal(tok):
            raise ParseError(
                f"exponent must be a nonnegative integer literal, got {tok.text!r}",
                tok.line, tok.column, expected=("integer",),
            )
        self.advance()
        value = int(tok.text)
        if self.peek().kind == "CARET":
            self.advance()
            upper = self._parse_exponent()
            if upper * math.log10(max(value, 2)) > 12:
                raise ParseError("integer exponent tower too large", tok.line, tok.column)
            value = value ** upper
        if value > _MAX_EXPONENT:
            raise ParseError("integer exponent too large", tok.line, tok.column)
        return value

    def parse_atom(self, depth: int) -> Expr:
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "IDENT":
            self.advance()
            if self.peek().kind == "LPAREN":
                self.advance()
                arg = self.parse_expr(depth + 1)
                self.expect("RPAREN", "')'")
                return Call(tok.text, arg)
            return Coord(tok.text)
        if tok.kind == "LPAREN":
            self.advance()
            node = self.parse_expr(depth + 1)
            self.expect("RPAREN", "')'")
            return node
        raise ParseError(
            f"unexpected {tok.kind} {tok.text!r}", tok.line, tok.column,
            expected=("number", "identifier", "'('"),
        )

    # aggregate values -----------------------------------------------------

    def parse_vector(self) -> tuple[Expr, ...]:
        self.expect("LBRACKET", "'['")
        entries = [self.parse_expr()]
        while self.peek().kind == "COMMA":
            self.advance()
            entries.append(self.parse_expr())
        self.expect("RBRACKET", "']'")
        return tuple(entries)

    def parse_matrix(self) -> tuple[tuple[Expr, ...], ...]:
        open_tok = self.expect("LBRACKET", "'['")
        rows = [self.parse_vector()]
        while self.peek().kind == "COMMA":
            self.advance()
            rows.append(self.parse_vector())
        self.expect("RBRACKET", "']'")
        width = len(rows[0])
        for idx, row in enumerate(rows):
            if len(row) != width:
                raise ValidationError(
                    f"matrix starting at line {open_tok.line} is ragged: "
                    f"row {idx + 1} has {len(row)} entries, expected {width}"
                )
        return tuple(rows)

    def parse_value(self):
        """Expression, vector or matrix, dispatched on the leading brackets."""
        if self.peek().kind == "LBRACKET":
            after = self.tokens[self.pos + 1] if self.pos + 1 < len(self.tokens) else self.peek()
            if after.kind == "LBRACKET":
                return self.parse_matrix()
            return self.parse_vector()
        return self.parse_expr()


def parse_expression(text: str) -> Expr:
    """Parse a single expression; the whole string must be consumed."""
    parser = ExprParser(tokenize(text))
    node = parser.parse_expr()
    while parser.peek().kind == "NEWLINE":
        parser.advance()
    tok = parser.peek()
    if tok.kind != "EOF":
        raise ParseError(f"trailing {tok.kind} {tok.text!r} after expression",
                         tok.line, tok.column, expected=("end of input",))
    return node


_LEVEL_SUM, _LEVEL_PROD, _LEVEL_UNARY, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _level(e: Expr) -> int:
    if isinstance(e, BinOp):
        return _LEVEL_SUM if e.op in "+-" else _LEVEL_PROD
    if isinstance(e, Neg):
        return _LEVEL_UNARY
    if isinstance(e, Pow):
        return _LEVEL_POW
    return _LEVEL_ATOM


def _wrap(e: Expr, minimum: int) -> str:
    text = format_expr(e)
    return f"({text})" if _level(e) < minimum else text


def format_expr(e: Expr) -> str:
    """Render an AST back to source; parsing the output reproduces the AST."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Coord):
        return e.name
    if isinstance(e, Neg):
        return "-" + _wrap(e.arg, _LEVEL_UNARY)
    if isinstance(e, Pow):
        return _wrap(e.base, _LEVEL_ATOM) + f"^{e.power}"
    if isinstance(e, Call):
        return f"{e.fn}({format_expr(e.arg)})"
    if isinstance(e, BinOp):
        own = _level(e)
        return f"{_wrap(e.left, own)}{e.op}{_wrap(e.right, own + 1)}"
    raise TypeError(f"not an expression node: {e!r}")


def compile_expr(e: Expr, names: Iterable[str]) -> Callable[[Sequence], object]:
    """Compile an AST into a closure over a positional list of values.

    ``names`` orders the coordinates: the closure reads ``names[i]`` from
    ``values[i]``.  This is the one-entry case of :func:`compile_exprs`.
    """
    program = compile_exprs((e,), names)
    return lambda values: program(values)[0]


def compile_exprs(exprs: Sequence[Expr], names: Iterable[str]) -> Callable[[Sequence], list]:
    """Compile the entries of one field into one program over a positional
    list of values, one value per name.

    ``program(values)`` returns the entries' values as a list.  ``values``
    is one point, a float per name, or a batch of points, a float64 column
    per name, all of one length; on a batch each entry's value is a column,
    or a Python number if the entry reads no coordinate.  The program does
    the float operations of walking each entry's tree in turn, in the same
    order, except that a subtree occurring more than once (``cos(t1)`` in
    every entry of a rotation, the normalizing square root of a section) is
    computed once per call, the first time the walk reaches it, and its
    value reused afterwards.  Evaluation is pure, so the values are the same
    bits and the first error raised is the same error.  The closures are
    built from the AST, never from source text.  Division by zero, square
    roots of negative numbers and overflowing powers or functions raise
    NonFiniteError when the program runs, and an overflowing product or sum
    is a silent inf, on a batch as on floats; an unknown coordinate or
    function raises ValidationError here, at compile time.  A batch that
    raises is evaluated again one point at a time, so its first failing
    point raises the error it raises alone.
    """
    names = tuple(names)
    compiler = _Compiler(names, exprs)
    entries = [compiler.compile(e) for e in exprs]
    pad = [0.0] * compiler.slots  # the shared values follow the coordinates
    size = len(names) + len(pad)

    def run(values):
        v = [*values, *pad]
        if len(v) != size:
            raise ValueError(f"expected {len(names)} values, got {len(values)}")
        return [entry(v) for entry in entries]

    def program(values):
        if not (len(values) and type(values[0]) is _COLUMN):
            return run(values)
        try:
            with np.errstate(all="ignore"):
                return run(values)
        except (NonFiniteError, ArithmeticError, ValueError) as exc:
            error = exc  # raised only if no point raises its own
        for point in zip(*[column.tolist() for column in values]):
            run(point)
        raise error

    return program


def _parts(e: Expr) -> tuple:
    """What a node is apart from its children, and its children.  A literal
    is labelled by its type and exact repr, so 0.0 and -0.0 (equal as
    floats) differ."""
    if isinstance(e, BinOp):
        return (BinOp, e.op), (e.left, e.right)
    if isinstance(e, Coord):
        return (Coord, e.name), ()
    if isinstance(e, Num):
        return (Num, type(e.value), repr(e.value)), ()
    if isinstance(e, Call):
        return (Call, e.fn), (e.arg,)
    if isinstance(e, Pow):
        return (Pow, e.power), (e.base,)
    if isinstance(e, Neg):
        return (Neg,), (e.arg,)
    raise TypeError(f"not an expression node: {e!r}")


def _walk(e: Expr):
    """Every node with its depth (the root at 1), found without recursion."""
    stack = [(e, 1)]
    while stack:
        node, level = stack.pop()
        yield node, level
        stack.extend((kid, level + 1) for kid in _parts(node)[1])


def _height(e: Expr) -> int:
    """Nodes on the longest root-to-leaf path."""
    return max(level for _, level in _walk(e))


class _Compiler:
    """Builds the closures of one program.

    Structurally equal subtrees get the same number.  The first occurrence
    of a repeated subtree stores its value in a slot after the coordinates
    and the slots before it; every later occurrence reads it back.  The
    compile walk visits nodes in evaluation order, so a slot is always
    written before it is read.
    """

    def __init__(self, names: tuple, exprs: Sequence[Expr]):
        self.index = {name: i for i, name in enumerate(names)}
        self.width = len(names)
        self.numbers: dict = {}   # (label, child numbers) -> number
        self.of_node: dict = {}   # id(node) -> number
        self.children: dict = {}  # number -> child numbers
        roots = [self.number(e) for e in exprs]
        # references per distinct subtree, each distinct parent counted once
        uses = dict.fromkeys(self.children, 0)
        for num in [*roots, *(kid for kids in self.children.values() for kid in kids)]:
            uses[num] += 1
        self.repeated = {num for num, count in uses.items() if count > 1 and self.children[num]}
        self.stored: dict = {}  # subtree number -> slot position
        self.slots = 0

    def number(self, e: Expr) -> int:
        num = self.of_node.get(id(e))
        if num is None:
            label, kids = _parts(e)
            kids = tuple([self.number(kid) for kid in kids])
            num = self.numbers.setdefault((label, kids), len(self.numbers))
            self.children[num] = kids
            self.of_node[id(e)] = num
        return num

    def compile(self, e: Expr) -> Callable[[list], float]:
        num = self.number(e)
        if num in self.stored:
            return itemgetter(self.stored[num])
        fn = self._node(e)
        if num in self.repeated:
            slot = self.stored[num] = self.width + self.slots
            self.slots += 1
            fn = self._store(fn, slot)
        return fn

    @staticmethod
    def _store(fn, slot: int):
        def store(v):
            value = v[slot] = fn(v)
            return value

        return store

    def _node(self, e: Expr) -> Callable[[list], object]:
        if isinstance(e, Num):
            value = e.value
            return lambda v: value
        if isinstance(e, Coord):
            try:
                return itemgetter(self.index[e.name])
            except KeyError:
                raise ValidationError(f"unknown coordinate {e.name!r}") from None
        if isinstance(e, Neg):
            arg = self.compile(e.arg)
            return lambda v: -arg(v)
        if isinstance(e, Pow):
            base, power = self.compile(e.base), e.power

            def raised(v):
                x = base(v)
                try:
                    if type(x) is _COLUMN:
                        return np.array([y ** power for y in x.tolist()], dtype=float)
                    return float(x ** power)
                except OverflowError:
                    raise NonFiniteError("power overflows") from None

            return raised
        if isinstance(e, Call):
            try:
                fn = FUNCTIONS[e.fn]
            except KeyError:
                raise ValidationError(f"unknown function {e.fn!r}") from None
            arg, fn_name = self.compile(e.arg), e.fn
            is_sqrt = fn_name == "sqrt"

            def call(v):
                x = arg(v)
                column = type(x) is _COLUMN
                if is_sqrt and ((x < 0).any() if column else x < 0):
                    raise NonFiniteError(f"sqrt of negative value {x}")
                try:
                    if column:
                        return np.array([fn(y) for y in x.tolist()], dtype=float)
                    return fn(x)
                except OverflowError:
                    raise NonFiniteError(f"{fn_name} overflows") from None

            return call
        if isinstance(e, BinOp):
            left, right = self.compile(e.left), self.compile(e.right)
            if e.op == "+":
                return lambda v: left(v) + right(v)
            if e.op == "-":
                return lambda v: left(v) - right(v)
            if e.op == "*":
                return lambda v: left(v) * right(v)

            def divide(v):
                numerator, denominator = left(v), right(v)
                if type(denominator) is _COLUMN:
                    zero = not denominator.all()
                else:
                    zero = denominator == 0.0
                if zero:
                    raise NonFiniteError("division by zero")
                return numerator / denominator

            return divide
        raise TypeError(f"not an expression node: {e!r}")


def eval_expr(e: Expr, env: dict) -> float:
    """Evaluate an AST once over a coordinate environment (name -> value).

    A one-off :func:`compile_expr`; code that evaluates the same expression
    at many points should compile it once instead.
    """
    return compile_expr(e, env)(list(env.values()))


def free_names(e: Expr) -> set[str]:
    """Coordinate names referenced by an expression."""
    return {node.name for node, _ in _walk(e) if isinstance(node, Coord)}


def _function_names(e: Expr) -> set[str]:
    return {node.fn for node, _ in _walk(e) if isinstance(node, Call)}


def validate_expr(e: Expr, allowed: set[str], context: str) -> None:
    """Reject unknown coordinates or functions with a descriptive error."""
    unknown = free_names(e) - set(allowed)
    if unknown:
        raise ValidationError(
            f"{context}: unknown identifier(s) {sorted(unknown)}; "
            f"allowed coordinates are {sorted(allowed)}"
        )
    bad_fns = _function_names(e) - set(FUNCTIONS)
    if bad_fns:
        raise ValidationError(
            f"{context}: unknown function(s) {sorted(bad_fns)}; "
            f"available functions are {sorted(FUNCTIONS)}"
        )

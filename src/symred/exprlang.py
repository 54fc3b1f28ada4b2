"""Tiny arithmetic expression language used by scenario files: tokenizer,
parser, printer, and a compiler to straight-line programs.

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
with a 1-based position; no input crashes the parser, and no expression is
more than 200 levels high.

:func:`compile_exprs` turns the entries of one map into one
:class:`Program` in a single walk of each parsed tree: the walk rejects
unknown coordinates and functions, folds every subtree that reads no
coordinate (and does not raise) into a constant, gives structurally equal
subtrees one slot, and appends one instruction (operation, argument slots,
result slot) per remaining node, in evaluation order (Aho, Lam, Sethi &
Ullman, *Compilers*, 2006: value numbering of a basic block).  One
interpreter runs that list on one point's Python floats or on a batch's
float64 columns, one per coordinate, with every value the bits a tree walk
gives.  Scenario files are untrusted input: a program is data built from
the AST, and no generated source is ever passed to ``eval`` or ``exec``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

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
    "Program",
    "compile_exprs",
    "eval_expr",
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

    # expression grammar ---------------------------------------------------
    # Each rule returns its node and the node's height (nodes on the longest
    # root-to-leaf path), so the height is bounded without another walk.

    def parse_expr(self) -> Expr:
        start = self.peek()
        node, height = self._sum(0)
        # the compile walk recurses once per level, and a + - * / chain is as
        # deep as it is long, so a whole expression's height is bounded too
        if height > _MAX_DEPTH:
            raise ParseError(f"expression nests too deeply ({height} levels, at most "
                             f"{_MAX_DEPTH})", start.line, start.column)
        return node

    def _sum(self, depth: int) -> tuple[Expr, int]:
        node, height = self._product(depth + 1)
        while self.peek().kind in ("PLUS", "MINUS"):
            op = self.advance().text
            right, right_height = self._product(depth + 1)
            node, height = BinOp(op, node, right), 1 + max(height, right_height)
        return node, height

    def _product(self, depth: int) -> tuple[Expr, int]:
        node, height = self._factor(depth + 1)
        while self.peek().kind in ("STAR", "SLASH"):
            op = self.advance().text
            right, right_height = self._factor(depth + 1)
            node, height = BinOp(op, node, right), 1 + max(height, right_height)
        return node, height

    def _factor(self, depth: int) -> tuple[Expr, int]:
        # every recursion of the grammar passes here, so this bounds nesting
        if depth > _MAX_DEPTH:
            tok = self.peek()
            raise ParseError("expression nests too deeply", tok.line, tok.column)
        if self.peek().kind == "MINUS":
            self.advance()
            arg, height = self._factor(depth + 1)
            return Neg(arg), height + 1
        return self._power(depth + 1)

    def _power(self, depth: int) -> tuple[Expr, int]:
        node, height = self._atom(depth + 1)
        if self.peek().kind == "CARET":
            self.advance()
            return Pow(node, self._parse_exponent()), height + 1
        return node, height

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

    def _atom(self, depth: int) -> tuple[Expr, int]:
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.advance()
            return Num(float(tok.text)), 1
        if tok.kind == "IDENT":
            self.advance()
            if self.peek().kind == "LPAREN":
                self.advance()
                arg, height = self._sum(depth + 1)
                self.expect("RPAREN", "')'")
                return Call(tok.text, arg), height + 1
            return Coord(tok.text), 1
        if tok.kind == "LPAREN":
            self.advance()
            node = self._sum(depth + 1)
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


def _divide(numerator, denominator):
    if (not denominator.all()) if type(denominator) is _COLUMN else denominator == 0.0:
        raise NonFiniteError("division by zero")
    return numerator / denominator


def _power(power: int):
    def raised(x):
        try:
            if type(x) is _COLUMN:
                return np.array([y ** power for y in x.tolist()], dtype=float)
            return float(x ** power)
        except OverflowError:
            raise NonFiniteError("power overflows") from None

    return raised


def _function(name: str, fn):
    is_sqrt = name == "sqrt"

    def call(x):
        column = type(x) is _COLUMN
        if is_sqrt and ((x < 0).any() if column else x < 0):
            raise NonFiniteError(f"sqrt of negative value {x}")
        try:
            if column:
                return np.array([fn(y) for y in x.tolist()], dtype=float)
            return fn(x)
        except OverflowError:
            raise NonFiniteError(f"{name} overflows") from None

    return call


# an instruction's operation, by label: the binary operators, "neg" for
# unary minus, a function name, or an int exponent
_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _divide,
        "neg": operator.neg}

# what evaluating a subtree may raise; a constant subtree that raises is not
# folded, so it raises when the program runs, as it would unfolded
_EVAL_ERRORS = (NonFiniteError, ArithmeticError, ValueError)


class Program:
    """A straight-line program: the entries of one map over a positional
    list of values, one value per coordinate name.

    Slot ``i`` holds coordinate ``i`` for ``i < width``; every later slot
    holds a constant folded at compile time, or the result of one
    instruction ``(op, argument slots, result slot)``.  ``code`` lists the
    instructions in the order a tree walk of the entries first reaches
    them, and ``outputs`` gives each entry's slot.
    """

    __slots__ = ("width", "template", "code", "outputs")

    def __init__(self, width: int, template: list, code: list, outputs: tuple):
        self.width = width
        self.template = template  # slots from width on: a constant, or None
        self.code = code
        self.outputs = outputs

    @property
    def folded(self) -> tuple:
        """Each entry's value if the compile walk folded it to a constant,
        else None."""
        return tuple(self.template[s - self.width] if s >= self.width else None
                     for s in self.outputs)

    def __call__(self, values) -> list:
        """The entries' values, as a list (see :meth:`run`)."""
        slots = self.run(values)
        return [slots[s] for s in self.outputs]

    def run(self, values) -> list:
        """Every slot's value after running the program on ``values``.

        ``values`` is one point, a float per name, or a batch of points, a
        float64 column per name, all of one length; on a batch a slot is a
        column, or a Python number if it reads no coordinate.  A batch that
        raises is run again one point at a time, so its first failing point
        raises the error it raises alone.
        """
        if not (len(values) and type(values[0]) is _COLUMN):
            return self._execute(values)
        try:
            with np.errstate(all="ignore"):
                return self._execute(values)
        except _EVAL_ERRORS as exc:
            error = exc  # raised only if no point raises its own
        for point in zip(*[column.tolist() for column in values]):
            self._execute(point)
        raise error

    def _execute(self, values) -> list:
        if len(values) != self.width:
            raise ValueError(f"expected {self.width} values, got {len(values)}")
        v = [*values, *self.template]
        for op, args, out in self.code:
            # unpacking the arguments with * would cost more than the op
            if len(args) == 2:
                v[out] = op(v[args[0]], v[args[1]])
            else:
                v[out] = op(v[args[0]])
        return v


def compile_exprs(exprs: Sequence[Expr], names: Iterable[str],
                  context: str = "expression") -> Program:
    """Compile the entries of one map into one :class:`Program` over the
    coordinates ``names``, in one walk of each entry's tree.

    The walk rejects an entry that reads a coordinate not in ``names`` or
    calls a function not in FUNCTIONS with a ValidationError naming
    ``context``; folds every subtree that reads no coordinate, and whose
    evaluation does not raise, into a constant; and gives structurally
    equal subtrees one slot, literals being told apart by their exact repr
    (0.0 and -0.0 are equal as floats).  Running the program does the float
    operations of walking each entry's tree in turn, in the same order,
    except that a shared subtree is computed once and a folded one never.
    Evaluation is pure, so the values are the bits of the tree walks and
    the first error raised is theirs: division by zero, square roots of
    negative numbers and overflowing powers or functions raise
    NonFiniteError, and an overflowing product or sum is a silent inf, on
    a batch as on floats.
    """
    names = tuple(names)
    width = len(names)
    index = {name: i for i, name in enumerate(names)}
    ops = {**_OPS, **{name: _function(name, fn) for name, fn in FUNCTIONS.items()}}
    slots: dict = {}  # constant repr, or (label, argument slots) -> slot
    template: list = []
    code: list = []
    unknown_names: set = set()
    unknown_fns: set = set()

    def constant(value) -> int:
        slot = slots.get(repr(value))
        if slot is None:
            slot = slots[repr(value)] = width + len(template)
            template.append(value)
        return slot

    def emit(label, args: tuple) -> int:
        key = (label, args)
        slot = slots.get(key)
        if slot is not None:
            return slot
        if min(args) < 0:  # an argument names an unknown coordinate or function
            return -1
        op = ops.get(label)
        if op is None:  # an exponent
            op = ops[label] = _power(label)
        if min(args) >= width:
            known = [template[a - width] for a in args]
            if None not in known:
                try:
                    slot = constant(op(*known))
                except _EVAL_ERRORS:
                    pass
        if slot is None:
            slot = width + len(template)
            template.append(None)
            code.append((op, args, slot))
        slots[key] = slot
        return slot

    def visit(e: Expr) -> int:
        kind = type(e)
        if kind is Num:
            return constant(e.value)
        if kind is Coord:
            if e.name not in index:
                unknown_names.add(e.name)
                return -1
            return index[e.name]
        if kind is BinOp:
            return emit(e.op, (visit(e.left), visit(e.right)))
        if kind is Neg:
            return emit("neg", (visit(e.arg),))
        if kind is Pow:
            return emit(e.power, (visit(e.base),))
        if kind is Call:
            arg = visit(e.arg)
            if e.fn not in FUNCTIONS:
                unknown_fns.add(e.fn)
                return -1
            return emit(e.fn, (arg,))
        raise TypeError(f"not an expression node: {e!r}")

    outputs = []
    for e in exprs:
        outputs.append(visit(e))
        if unknown_names:
            raise ValidationError(
                f"{context}: unknown identifier(s) {sorted(unknown_names)}; "
                f"allowed coordinates are {sorted(names)}"
            )
        if unknown_fns:
            raise ValidationError(
                f"{context}: unknown function(s) {sorted(unknown_fns)}; "
                f"available functions are {sorted(FUNCTIONS)}"
            )
    return Program(width, template, code, tuple(outputs))


def eval_expr(e: Expr, env: dict) -> float:
    """Evaluate an AST once over a coordinate environment (name -> value).

    A one-off :func:`compile_exprs`; code that evaluates the same expression
    at many points should compile it once instead.
    """
    return compile_exprs((e,), env)(list(env.values()))[0]

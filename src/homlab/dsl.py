"""Workbench description language: tokenizer, parser, canonical printer.

One statement per line, comments from `#` to the end of the line.
Declarations build complexes, vertex maps, diagram parts, filtrations and
named sequents; exactly one command statement picks what to run.  Cross
references resolve while parsing, and each diagram statement is added
to the diagram builder (`simp.DiagramBuilder`), which checks it, as it
is read, so every error carries the line and column it came from.

    complex S1 = {01, 12, 02}
    filtration F on S1 = skeletal
    cellular F

Vertex labels inside simplex literals and map entries are single
characters; `0` names the empty complex and cannot be redeclared.
"""

import re
from typing import Dict, List, NamedTuple, Optional, Tuple

from .logic import (
    Add,
    And,
    App,
    Eq,
    Exists,
    Neg,
    Record,
    Sequent,
    Top,
    Var,
    Zero,
    check_sequent,
    sort_name,
)
from .simp import (
    EMPTY_NAME,
    DiagramBuilder,
    Filtration,
    SimpPair,
    SimplicialComplex,
)


class DslError(ValueError):
    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


_IDENT_RE = re.compile(r"[A-Za-z0-9_]+(?:\.[A-Za-z0-9_]+)*")
_TOKEN_RE = re.compile(
    r"""(?P<WS>[ \t]+)
      | (?P<COMMENT>\#.*)
      | (?P<ARROW>->)
      | (?P<TURNSTILE>\|-)
      | (?P<IDENT>""" + _IDENT_RE.pattern + r""")
      | (?P<QUOTED>"[^"\n]*")
      | (?P<OP>[{}()\[\],:/=.&+\-@])
    """,
    re.VERBOSE,
)

_SORT_RE = re.compile(r"h(\d+)")


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


def tokenize(text: str) -> List[List[Token]]:
    """Token rows, one per nonempty statement line."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        pos = 0
        row: List[Token] = []
        while pos < len(raw):
            m = _TOKEN_RE.match(raw, pos)
            if m is None:
                raise DslError(lineno, pos + 1,
                               f"unexpected character {raw[pos]!r}")
            kind = m.lastgroup
            if kind not in ("WS", "COMMENT"):
                row.append(Token(kind, m.group(), lineno, pos + 1))
            pos = m.end()
        if row:
            rows.append(row)
    return rows


class WorkbenchSpec(Record):
    """Everything a run needs, fully cross-checked at parse time: each
    diagram declaration has been added to `diagram`, which checks it.

    `diagram` holds the complexes and diagram declarations in file order,
    and the diagram they assemble;
    `map_names` gives the map each edge, square map and cube was declared
    with.  The other dicts are keyed by name.  The command is a tuple like
    ("cellular", "F") or ("validate",).
    """

    __slots__ = ("diagram", "maps", "map_names", "filtrations", "sequents",
                 "command")

    def __init__(self):
        self.diagram = DiagramBuilder()
        self.maps: Dict[str, Dict[str, str]] = {}
        self.map_names: Dict[str, str] = {}
        self.filtrations: Dict[str, tuple] = {}
        self.sequents: Dict[str, Sequent] = {}
        self.command: Optional[tuple] = None


class _Parser:
    """Cursor over one statement's tokens."""

    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)

    def peek(self) -> Optional[Token]:
        return None if self.at_end() else self.tokens[self.pos]

    def error(self, message: str, tok: Optional[Token] = None):
        if tok is None:
            last = self.tokens[-1]
            raise DslError(last.line, last.col + len(last.text), message)
        raise DslError(tok.line, tok.col, f"{message} at token {tok.text!r}")

    def next(self, message="unexpected end of statement") -> Token:
        if self.at_end():
            self.error(message)
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.next(f"expected {text!r}")
        if tok.text != text:
            self.error(f"expected {text!r}", tok)
        return tok

    def ident(self, what="a name") -> Token:
        tok = self.next(f"expected {what}")
        if tok.kind != "IDENT":
            self.error(f"expected {what}", tok)
        return tok

    def done(self):
        if not self.at_end():
            self.error("trailing input", self.peek())


def parse(text: str) -> WorkbenchSpec:
    ws = WorkbenchSpec()
    rows = tokenize(text)
    # names of diagram parts (edges, triples, squares, square maps, cubes),
    # which share one namespace apart from the complexes
    parts = set()
    for row in rows:
        _parse_statement(_Parser(row), ws, parts)
    if ws.command is None:
        last = rows[-1][-1].line if rows else 1
        raise DslError(last, 1, "no command statement")
    return ws


def _claim_complex(ws, tok):
    if tok.text in ws.diagram.assembled.complexes:
        if tok.text == EMPTY_NAME:
            msg = "0 names the empty complex and cannot be redeclared"
        else:
            msg = f"name {tok.text!r} already declared"
        raise DslError(tok.line, tok.col, msg)


def _claim_part(parts, tok):
    if tok.text in parts:
        raise DslError(tok.line, tok.col,
                       f"name {tok.text!r} already declared")
    parts.add(tok.text)


def _get_complex(ws, tok) -> SimplicialComplex:
    if tok.text not in ws.diagram.complexes:
        raise DslError(tok.line, tok.col, f"unknown complex {tok.text!r}")
    return ws.diagram.complexes[tok.text]


def _get_map(ws, tok) -> Dict[str, str]:
    if tok.text not in ws.maps:
        raise DslError(tok.line, tok.col, f"unknown map {tok.text!r}")
    return ws.maps[tok.text]


def _pair_ref(p: _Parser, ws) -> Tuple[str, str]:
    """total or total / sub, both resolved; the pair itself is validated."""
    total = p.ident("a complex name")
    _get_complex(ws, total)
    sub = Token("IDENT", EMPTY_NAME, total.line, total.col)
    if not p.at_end() and p.peek().text == "/":
        p.expect("/")
        sub = p.ident("a complex name")
        _get_complex(ws, sub)
    try:
        SimpPair(_get_complex(ws, total), _get_complex(ws, sub))
    except ValueError as exc:
        raise DslError(sub.line, sub.col, str(exc))
    return total.text, sub.text


def _assemble(tok: Token, step, *args) -> None:
    """Run one DiagramBuilder step; its ValueError is located at tok."""
    try:
        step(*args)
    except ValueError as exc:
        raise DslError(tok.line, tok.col, str(exc))


def _vertex(p: _Parser) -> Token:
    tok = p.next("expected a vertex")
    if tok.kind != "IDENT" or len(tok.text) != 1:
        p.error("vertex labels are single characters", tok)
    return tok


def _listed(p: _Parser, close: str, item, empty: bool) -> list:
    """The comma separated items up to `close`, after the opening bracket;
    `item(p, items)` reads one, given those read so far.  `empty` allows
    a list with none."""
    items = []
    if empty and not p.at_end() and p.peek().text == close:
        p.next()
        return items
    while True:
        items.append(item(p, items))
        tok = p.next(f"expected ',' or {close!r}")
        if tok.text == close:
            return items
        if tok.text != ",":
            p.error(f"expected ',' or {close!r}", tok)


def _simplex(p: _Parser, _) -> tuple:
    tok = p.next("expected a simplex literal or '}'")
    if tok.kind != "IDENT" or "." in tok.text:
        p.error("expected a simplex literal", tok)
    if len(set(tok.text)) != len(tok.text):
        p.error("repeated vertex in simplex literal", tok)
    return tuple(tok.text)


def _map_entry(p: _Parser, entries) -> tuple:
    tok = p.next("expected a vertex or '}'")
    if tok.kind != "IDENT" or len(tok.text) != 1:
        p.error("vertex labels are single characters", tok)
    if tok.text in dict(entries):
        p.error("vertex mapped twice", tok)
    p.expect(":")
    return tok.text, _vertex(p).text


def _arrow(p: _Parser, parts: set, what: str, end):
    """`NAME : SRC -> TGT by MAP` after its keyword; NAME, `what`, is
    claimed as a diagram part and `end(p)` reads each end.  Returns the
    name, both ends and the map token."""
    name = p.ident(what)
    _claim_part(parts, name)
    p.expect(":")
    src = end(p)
    p.expect("->")
    tgt = end(p)
    p.expect("by")
    return name, src, tgt, p.ident("a map name")


# keyword: (what names it, the kind of part at its ends, its
# DiagramBuilder step) for the maps between two diagram parts
_PART_MAPS = {"squaremap": ("a square map name", "square", "add_square_map"),
              "cube": ("a cube name", "triple", "add_cube")}


def _parse_statement(p: _Parser, ws: WorkbenchSpec, parts: set):
    head = p.ident("a statement keyword")
    word = head.text

    if word == "complex":
        name = p.ident("a complex name")
        _claim_complex(ws, name)
        p.expect("=")
        p.expect("{")
        simplices = _listed(p, "}", _simplex, empty=True)
        p.done()
        cx = SimplicialComplex.from_maximal_simplices(simplices)
        ws.diagram.add_complex(name.text, cx)
        return

    if word == "map":
        name = p.ident("a map name")
        if name.text in ws.maps:
            p.error("map name already declared", name)
        p.expect("=")
        p.expect("{")
        vmap = dict(_listed(p, "}", _map_entry, empty=True))
        p.done()
        ws.maps[name.text] = vmap
        return

    if word == "pair":
        pair = _pair_ref(p, ws)
        p.done()
        ws.diagram.add_pair(*pair)
        return

    if word == "prism":
        pair = _pair_ref(p, ws)
        p.done()
        ws.diagram.add_prism(*pair)
        return

    if word == "edge":
        name, src, tgt, mtok = _arrow(p, parts, "an edge name",
                                      lambda p: _pair_ref(p, ws))
        vmap = _get_map(ws, mtok)
        p.done()
        _assemble(mtok, ws.diagram.add_edge, name.text, src, tgt, vmap)
        ws.map_names[name.text] = mtok.text
        return

    if word == "triple":
        name = p.ident("a triple name")
        _claim_part(parts, name)
        p.expect(":")
        x = p.ident("a complex name")
        p.expect("/")
        y = p.ident("a complex name")
        z = Token("IDENT", EMPTY_NAME, y.line, y.col)
        if not p.at_end():
            p.expect("/")
            z = p.ident("a complex name")
        p.done()
        for t in (x, y, z):
            _get_complex(ws, t)
        _assemble(name, ws.diagram.add_triple, name.text, x.text, y.text,
                  z.text)
        return

    if word == "square":
        name = p.ident("a square name")
        _claim_part(parts, name)
        p.expect(":")
        u = p.ident("a complex name")
        p.expect("+")
        v = p.ident("a complex name")
        p.expect("in")
        x = p.ident("a complex name")
        p.done()
        for t in (u, v, x):
            _get_complex(ws, t)
        _assemble(name, ws.diagram.add_square, name.text, x.text, u.text,
                  v.text)
        return

    if word in _PART_MAPS:
        what, end, step = _PART_MAPS[word]
        name, src, tgt, mtok = _arrow(p, parts, what,
                                      lambda p: p.ident(f"a {end} name"))
        p.done()
        known = getattr(ws.diagram.assembled, end + "s")
        for t in (src, tgt):
            if t.text not in known:
                raise DslError(t.line, t.col, f"unknown {end} {t.text!r}")
        vmap = _get_map(ws, mtok)
        _assemble(mtok, getattr(ws.diagram, step), name.text, src.text,
                  tgt.text, vmap)
        ws.map_names[name.text] = mtok.text
        return

    if word == "filtration":
        name = p.ident("a filtration name")
        if name.text in ws.filtrations:
            p.error("filtration name already declared", name)
        p.expect("on")
        base = p.ident("a complex name")
        basec = _get_complex(ws, base)
        p.expect("=")
        tok = p.next("expected 'skeletal' or '['")
        if tok.text == "skeletal":
            p.done()
            ws.filtrations[name.text] = (base.text, "skeletal")
            return
        if tok.text != "[":
            p.error("expected 'skeletal' or '['", tok)
        steps = _listed(p, "]", lambda p, _: p.ident("a complex name"),
                        empty=False)
        p.done()
        try:
            Filtration(basec, [_get_complex(ws, t) for t in steps])
        except ValueError as exc:
            raise DslError(name.line, name.col, str(exc))
        ws.filtrations[name.text] = (base.text, tuple(t.text for t in steps))
        return

    if word == "sequent" and p.pos + 1 < len(p.tokens) \
            and p.tokens[p.pos + 1].text == "=":
        name = p.ident("a sequent name")
        if name.text in ws.sequents:
            p.error("sequent name already declared", name)
        p.expect("=")
        seq = _parse_sequent_body(p, ws.diagram.assembled.complexes)
        p.done()
        ws.sequents[name.text] = seq
        return

    # what is left must be a command statement
    if word in ("validate", "cellular", "spectral", "sequent", "end"):
        if ws.command is not None:
            p.error("a command was already given", head)
    if word == "validate":
        p.done()
        ws.command = ("validate",)
        return
    if word in ("cellular", "spectral"):
        f = p.ident("a filtration name")
        if f.text not in ws.filtrations:
            raise DslError(f.line, f.col, f"unknown filtration {f.text!r}")
        p.done()
        ws.command = (word, f.text)
        return
    if word == "sequent":
        p.done()
        if not ws.sequents:
            p.error("no sequents declared", head)
        ws.command = ("sequent",)
        return
    if word == "end":
        p.expect("-")
        tok = p.ident("'algebra'")
        if tok.text != "algebra":
            p.error("expected 'algebra'", tok)
        p.done()
        ws.command = ("end-algebra",)
        return

    p.error("unknown statement", head)


# -- sequents -----------------------------------------------------------------


def _parse_sort(p: _Parser, known) -> str:
    """A sort on complexes in `known`: the declared ones and the ones the
    diagram generated for squares and prisms."""
    tok = p.ident("a sort like h1(X,Y)")
    m = _SORT_RE.fullmatch(tok.text)
    if m is None:
        p.error("expected a sort like h1(X,Y)", tok)
    degree = int(m.group(1))
    p.expect("(")
    total = p.ident("a complex name")
    if total.text not in known:
        p.error("unknown complex", total)
    sub = EMPTY_NAME
    nxt = p.next("expected ',' or ')'")
    if nxt.text == ",":
        t = p.ident("a complex name")
        if t.text not in known:
            p.error("unknown complex", t)
        sub = t.text
        p.expect(")")
    elif nxt.text != ")":
        p.error("expected ',' or ')'", nxt)
    return sort_name((total.text, sub), degree)


def _parse_sequent_body(p: _Parser, known) -> Sequent:
    def entry(p, context):
        var = p.ident("a variable name")
        if var.text == "0":
            p.error("0 is not a variable name", var)
        if var.text in dict(context):
            p.error("duplicate context variable", var)
        p.expect(":")
        return var.text, _parse_sort(p, known)

    p.expect("[")
    context = tuple(_listed(p, "]", entry, empty=True))
    bound = set(dict(context))
    ante = _parse_formula(p, known, bound)
    p.expect("|-")
    cons = _parse_formula(p, known, bound)
    return Sequent(context, ante, cons)


def _parse_formula(p: _Parser, known, bound: set):
    left = _parse_atom(p, known, bound)
    while not p.at_end() and p.peek().text == "&":
        p.next()
        left = And(left, _parse_atom(p, known, bound))
    return left


def _parse_atom(p: _Parser, known, bound: set):
    tok = p.peek()
    if tok is None:
        p.error("expected a formula")
    if tok.text == "top":
        p.next()
        return Top()
    if tok.text == "exists":
        p.next()
        var = p.ident("a variable name")
        if var.text == "0":
            p.error("0 is not a variable name", var)
        if var.text in bound:
            p.error("variable shadows an outer binding", var)
        p.expect(":")
        sort = _parse_sort(p, known)
        p.expect(".")
        body = _parse_formula(p, known, bound | {var.text})
        return Exists(var.text, sort, body)
    if tok.text == "(" and not _opens_term(p):
        p.next()
        inner = _parse_formula(p, known, bound)
        p.expect(")")
        return inner
    lhs = _parse_term(p, known, bound)
    p.expect("=")
    rhs = _parse_term(p, known, bound)
    return Eq(lhs, rhs)


def _opens_term(p: _Parser) -> bool:
    """Whether the `(` group at the cursor is followed by `=` or `+`, so
    it opens the left side of an equation: no formula is followed by
    either.  A group left open is read as a formula."""
    depth = 0
    for i in range(p.pos, len(p.tokens)):
        depth += {"(": 1, ")": -1}.get(p.tokens[i].text, 0)
        if depth == 0:
            return i + 1 < len(p.tokens) and p.tokens[i + 1].text in ("=", "+")
    return False


def _parse_term(p: _Parser, known, bound: set):
    left = _parse_factor(p, known, bound)
    while not p.at_end() and p.peek().text == "+":
        p.next()
        left = Add(left, _parse_factor(p, known, bound))
    return left


def _parse_factor(p: _Parser, known, bound: set):
    tok = p.next("expected a term")
    if tok.text == "-" and tok.kind == "OP":
        return Neg(_parse_factor(p, known, bound))
    if tok.text == "(":
        inner = _parse_term(p, known, bound)
        p.expect(")")
        return inner
    if tok.kind == "QUOTED" or (tok.kind == "IDENT"
                                and not p.at_end()
                                and p.peek().text == "@"):
        name = tok.text[1:-1] if tok.kind == "QUOTED" else tok.text
        p.expect("@")
        deg = p.ident("a degree")
        if not deg.text.isdigit():
            p.error("expected a degree", deg)
        p.expect("(")
        arg = _parse_term(p, known, bound)
        p.expect(")")
        return App(f"{name}@{int(deg.text)}", arg)
    if tok.kind != "IDENT":
        p.error("expected a term", tok)
    if tok.text == "0":
        # sort filled in against the signature by check_sequent
        return Zero(None)
    if tok.text not in bound:
        p.error("unbound variable", tok)
    return Var(tok.text)


def resolve_zeros(seq: Sequent, sig) -> Sequent:
    """The sequent sort-checked against the signature, each bare zero
    given its sort: `logic.check_sequent`, which the parser leaves to run
    once the signature exists."""
    return check_sequent(sig, seq)


# -- canonical printing -------------------------------------------------------


def _print_simplices(cx: SimplicialComplex) -> str:
    maximal = [s for s in cx.simplices
               if not any(set(s) < set(t) for t in cx.simplices)]
    maximal.sort(key=lambda s: (len(s), tuple(cx.position(v) for v in s)))
    return "{" + ", ".join("".join(s) for s in maximal) + "}"


def _print_symbol(func: str) -> str:
    base, _, deg = func.rpartition("@")
    if _IDENT_RE.fullmatch(base):
        return f"{base}@{deg}"
    return f'"{base}"@{deg}'


def _print_term(t) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Zero):
        return "0"
    if isinstance(t, Neg):
        inner = _print_term(t.arg)
        if isinstance(t.arg, Add):
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(t, Add):
        left = _print_term(t.left)
        right = _print_term(t.right)
        if isinstance(t.right, Add):
            right = f"({right})"
        return f"{left} + {right}"
    if isinstance(t, App):
        return f"{_print_symbol(t.func)}({_print_term(t.arg)})"
    raise TypeError(f"not a term: {t!r}")


def _print_formula(f) -> str:
    if isinstance(f, Top):
        return "top"
    if isinstance(f, Eq):
        return f"{_print_term(f.left)} = {_print_term(f.right)}"
    if isinstance(f, And):
        left = _print_formula(f.left)
        if isinstance(f.left, Exists):
            left = f"({left})"
        right = _print_formula(f.right)
        if isinstance(f.right, (And, Exists)):
            right = f"({right})"
        return f"{left} & {right}"
    if isinstance(f, Exists):
        return f"exists {f.var}:{f.sort}. {_print_formula(f.body)}"
    raise TypeError(f"not a formula: {f!r}")


def print_spec(ws: WorkbenchSpec) -> str:
    """Canonical text; parsing it reproduces the WorkbenchSpec.

    Named declarations come out sorted by name, positional ones in file
    order, the command last.  Bare zeros print as plain 0 whatever sort
    resolution later gives them.
    """
    d = ws.diagram
    lines = []
    for name in sorted(d.complexes.keys() - {EMPTY_NAME}):
        lines.append(f"complex {name} = "
                     f"{_print_simplices(d.complexes[name])}")
    for name in sorted(ws.maps):
        inner = ", ".join(f"{k}:{v}"
                          for k, v in sorted(ws.maps[name].items()))
        lines.append(f"map {name} = {{{inner}}}")
    for total, sub in d.pairs:
        lines.append(f"pair {total} / {sub}")
    for name, src, tgt, _ in d.edges:
        lines.append(f"edge {name} : {src[0]} / {src[1]} -> "
                     f"{tgt[0]} / {tgt[1]} by {ws.map_names[name]}")
    for name, x, y, z in d.triples:
        lines.append(f"triple {name} : {x} / {y} / {z}")
    for name, x, u, v in d.squares:
        lines.append(f"square {name} : {u} + {v} in {x}")
    for name, src, tgt, _ in d.square_maps:
        lines.append(f"squaremap {name} : {src} -> {tgt} "
                     f"by {ws.map_names[name]}")
    for total, sub in d.prisms:
        lines.append(f"prism {total} / {sub}")
    for name, src, tgt, _ in d.cubes:
        lines.append(f"cube {name} : {src} -> {tgt} by {ws.map_names[name]}")
    for name in sorted(ws.filtrations):
        base, steps = ws.filtrations[name]
        if steps == "skeletal":
            lines.append(f"filtration {name} on {base} = skeletal")
        else:
            lines.append(f"filtration {name} on {base} = "
                         f"[{', '.join(steps)}]")
    for name in sorted(ws.sequents):
        seq = ws.sequents[name]
        ctx = ", ".join(f"{v}:{s}" for v, s in seq.context)
        lines.append(f"sequent {name} = [{ctx}] "
                     f"{_print_formula(seq.antecedent)} |- "
                     f"{_print_formula(seq.consequent)}")
    lines.append(" ".join(ws.command))
    return "\n".join(lines) + "\n"

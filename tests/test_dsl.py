"""Workbench language: parsing, located errors, canonical printing."""

import pytest

from homlab.cli import _build_diagram
from homlab.dsl import DslError, parse, print_spec, resolve_zeros
from homlab.logic import (
    Add,
    And,
    App,
    Eq,
    Exists,
    Neg,
    Top,
    Var,
    Zero,
    generate_signature,
)
from homlab.simp import DiagramBuilder, SimplicialComplex


def _parse_error(text):
    with pytest.raises(DslError) as info:
        parse(text)
    return info.value


# -- statements ----------------------------------------------------------------


def test_circle_literal_closes_faces():
    ws = parse("complex S1 = {01, 12, 02}\nvalidate\n")
    s1 = ws.diagram.complexes["S1"]
    assert len(s1.simplices) == 6
    assert s1.vertices == ("0", "1", "2")
    assert ("0", "2") in s1.simplices


def test_space_separated_simplices_error_at_second_token():
    err = _parse_error("complex B = {0 1}\nvalidate\n")
    assert err.line == 1 and err.col == 16
    assert "'1'" in str(err)


def test_repeated_vertex_in_literal():
    err = _parse_error("complex B = {aa}\nvalidate\n")
    assert "repeated vertex" in str(err)


def test_empty_complex_literal():
    ws = parse("complex N = {}\nvalidate\n")
    assert ws.diagram.complexes["N"].simplices == frozenset()


def test_empty_name_is_reserved():
    err = _parse_error("complex 0 = {a}\nvalidate\n")
    assert "cannot be redeclared" in str(err)


def test_unknown_complex_is_located():
    err = _parse_error("complex X = {ab}\n"
                       "filtration F on Y = skeletal\n"
                       "cellular F\n")
    assert err.line == 2 and err.col == 17
    assert "unknown complex 'Y'" in str(err)


def test_unexpected_character():
    err = _parse_error("complex X = {a}$\nvalidate\n")
    assert "unexpected character" in str(err)
    assert err.col == 16


def test_nonsimplicial_edge_map_is_located():
    err = _parse_error("complex X = {ab}\n"
                       "complex Y = {a, b}\n"
                       "map f = {a:a, b:b}\n"
                       "edge e : X -> Y by f\n"
                       "validate\n")
    assert err.line == 4 and err.col == 20
    assert "not simplicial" in str(err)


# a cube whose map misses vertex b of the source triple's pieces, and a
# square map that is not simplicial on the piece U (it sends ab to ac)
CUBE_MISSES_A_VERTEX = ("complex X = {ab, bc}\n"
                        "complex Y = {ab}\n"
                        "map i = {a:a}\n"
                        "triple t : X / Y\n"
                        "cube c : t -> t by i\n"
                        "validate\n")
SQUAREMAP_NOT_SIMPLICIAL = ("complex S = {ab, bc, ca}\n"
                            "complex U = {ab, bc}\n"
                            "complex V = {ca}\n"
                            "map m = {a:a, b:c, c:c}\n"
                            "square q : U + V in S\n"
                            "squaremap s : q -> q by m\n"
                            "validate\n")


def test_cube_map_is_checked_on_each_piece():
    err = _parse_error(CUBE_MISSES_A_VERTEX)
    assert (err.line, err.col) == (5, 20)
    assert "map 'c.dia' leaves vertex 'b' unmapped" in str(err)


def test_square_map_is_checked_on_each_piece():
    err = _parse_error(SQUAREMAP_NOT_SIMPLICIAL)
    assert (err.line, err.col) == (6, 25)
    assert "map 's.a' is not simplicial" in str(err)
    err = _parse_error(SQUAREMAP_NOT_SIMPLICIAL.replace("c:c", "c:d"))
    assert (err.line, err.col) == (6, 25)
    assert "map 's.b' sends 'c' to unknown vertex 'd'" in str(err)


# an edge declared under a name that the cube c or the triple t before it
# already gave one of its edges
GENERATED_NAME_TAKEN = ("complex X = {ab}\n"
                        "complex Y = {a}\n"
                        "map i = {a:a, b:b}\n"
                        "triple t : X / Y\n"
                        "cube c : t -> t by i\n"
                        "edge {name} : X / Y -> X / Y by i\n"
                        "validate\n")


@pytest.mark.parametrize("name, col", [("c.box", 32), ("t.bt", 31)])
def test_generated_edge_name_is_taken(name, col):
    err = _parse_error(GENERATED_NAME_TAKEN.replace("{name}", name))
    assert (err.line, err.col) == (6, col)
    assert f"duplicate edge name {name!r}" in str(err)


@pytest.mark.parametrize("line, name, col", [
    ("pair q.b", "q.b", 6),
    ("prism q.d", "q.d", 7),
    ("filtration G on UxI = skeletal", "UxI", 17),
])
def test_generated_complexes_are_not_declared(line, name, col):
    # declaration statements resolve declared complexes only; sorts also
    # see the generated ones (EVERY_KIND below)
    err = _parse_error("complex X = {ab, bc}\n"
                       "complex U = {ab}\n"
                       "complex V = {bc}\n"
                       "square q : U + V in X\n"
                       "prism U\n"
                       f"{line}\n"
                       "validate\n")
    assert (err.line, err.col) == (6, col)
    assert f"unknown complex {name!r}" in str(err)


def test_filtration_dimension_violation_is_located():
    err = _parse_error("complex X = {ab}\n"
                       "filtration F on X = [X]\n"
                       "cellular F\n")
    assert err.line == 2 and err.col == 12
    assert "dimension" in str(err)


def test_pair_needs_subcomplex():
    err = _parse_error("complex X = {ab}\n"
                       "complex W = {cd}\n"
                       "pair X / W\n"
                       "validate\n")
    assert err.line == 3
    assert "not a subcomplex" in str(err)


def test_triple_chain_is_checked():
    err = _parse_error("complex X = {ab}\n"
                       "complex Y = {ab}\n"
                       "complex Z = {abc}\n"
                       "triple t : X / Y / Z\n"
                       "validate\n")
    assert "not a chain" in str(err)


def test_duplicate_names_rejected():
    err = _parse_error("complex X = {a}\ncomplex X = {b}\nvalidate\n")
    assert "already declared" in str(err)
    err = _parse_error("complex X = {ab}\n"
                       "triple t : X / X\n"
                       "square t : X + X in X\n"
                       "validate\n")
    assert "already declared" in str(err)


def test_command_is_required():
    err = _parse_error("complex X = {a}\n")
    assert "no command" in str(err)


def test_single_command_only():
    err = _parse_error("complex X = {a}\nvalidate\nvalidate\n")
    assert "command was already given" in str(err)


def test_sequent_command_needs_declarations():
    err = _parse_error("complex P = {v}\nsequent\n")
    assert "no sequents declared" in str(err)


def test_unbound_variable_is_located():
    err = _parse_error("complex P = {v}\n"
                       "sequent s = [x:h0(P)] top |- x = w\n"
                       "sequent\n")
    assert err.line == 2
    assert "unbound variable" in str(err)


ARROW_HEAD = "complex X = {ab}\nmap i = {a:a, b:b}\n"


@pytest.mark.parametrize("text, line, col, message", [
    ("complex X = {a, }\nvalidate\n", 1, 17,
     "expected a simplex literal at token '}'"),
    ("complex X = {a b}\nvalidate\n", 1, 16, "expected ',' or '}' at token 'b'"),
    ("complex X = {a, \nvalidate\n", 1, 16, "expected a simplex literal or '}'"),
    ("map f = {ab:c}\nvalidate\n", 1, 10,
     "vertex labels are single characters at token 'ab'"),
    ("map f = {a:b, a:c}\nvalidate\n", 1, 15, "vertex mapped twice at token 'a'"),
    ("map f = {a:b, }\nvalidate\n", 1, 15,
     "vertex labels are single characters at token '}'"),
    ("complex X = {ab}\nfiltration F on X = []\ncellular F\n", 2, 22,
     "expected a complex name at token ']'"),
    ("complex X = {ab}\ncomplex A = {a}\nfiltration F on X = [A B]\n"
     "cellular F\n", 3, 24, "expected ',' or ']' at token 'B'"),
    ("complex X = {ab}\nsequent s = [x:h0(X) y:h0(X)] top |- x = x\n"
     "sequent\n", 2, 22, "expected ',' or ']' at token 'y'"),
    ("complex X = {a}\nsequent s = [\nsequent\n", 2, 14,
     "expected a variable name"),
    (ARROW_HEAD + "squaremap s : q -> q by i\nvalidate\n", 3, 15,
     "unknown square 'q'"),
    (ARROW_HEAD + "cube c : t -> t by i\nvalidate\n", 3, 10,
     "unknown triple 't'"),
    (ARROW_HEAD + "squaremap s : q -> q by i junk\nvalidate\n", 3, 27,
     "trailing input at token 'junk'"),
    (ARROW_HEAD + "edge e : X -> X by j junk\nvalidate\n", 3, 20,
     "unknown map 'j'"),
], ids=["simplex-after-comma", "simplex-no-comma", "simplex-cut",
        "entry-label", "entry-twice", "entry-after-comma", "steps-empty",
        "steps-no-comma", "context-no-comma", "context-cut",
        "squaremap-unknown", "cube-unknown", "squaremap-trailing",
        "edge-map-first"])
def test_list_and_arrow_errors_are_located(text, line, col, message):
    err = _parse_error(text)
    assert str(err) == f"line {line}, column {col}: {message}"
    assert (err.line, err.col) == (line, col)


def test_empty_lists_are_accepted():
    ws = parse("complex X = {}\nmap f = {}\nsequent s = [] top |- top\n"
               "sequent\n")
    assert ws.diagram.complexes["X"].simplices == frozenset()
    assert ws.maps["f"] == {}
    assert ws.sequents["s"].context == ()


def test_filtration_steps_resolve():
    ws = parse("complex T = {abc}\n"
               "complex E = {ab, bc, ac}\n"
               "complex V = {a, b, c}\n"
               "filtration G on T = [V, E, T]\n"
               "spectral G\n")
    assert ws.filtrations["G"] == ("T", ("V", "E", "T"))
    assert ws.command == ("spectral", "G")


def test_skeletal_filtration():
    ws = parse("complex X = {ab}\nfiltration F on X = skeletal\ncellular F\n")
    assert ws.filtrations["F"] == ("X", "skeletal")


# -- sequent syntax ------------------------------------------------------------


def test_sequent_ast_shape():
    ws = parse('complex P = {v}\n'
               'sequent s = [x:h0(P), y:h0(P)] x + y = y + x |- '
               'exists z:h0(P). z + z = x + -y\n'
               'sequent\n')
    seq = ws.sequents["s"]
    assert seq.context == (("x", "h0(P)"), ("y", "h0(P)"))
    assert isinstance(seq.antecedent, Eq)
    assert seq.antecedent.left == Add(Var("x"), Var("y"))
    cons = seq.consequent
    assert isinstance(cons, Exists) and cons.sort == "h0(P)"
    assert cons.body == Eq(Add(Var("z"), Var("z")),
                           Add(Var("x"), Neg(Var("y"))))


def test_sequent_pair_sort_canonicalized():
    ws = parse("complex A = {a}\n"
               "complex X = {ab}\n"
               "sequent s = [x:h1(X,A), y:h1(X,0)] top |- x = x & y = y\n"
               "sequent\n")
    seq = ws.sequents["s"]
    assert seq.context == (("x", "h1(X,A)"), ("y", "h1(X)"))


def test_quoted_symbol_application():
    ws = parse('complex P = {v}\n'
               'sequent s = [x:h0(P)] top |- "id:P/0"@0(x) = x\n'
               'sequent\n')
    seq = ws.sequents["s"]
    assert seq.consequent.left == App("id:P/0@0", Var("x"))


def test_zero_literal_left_unresolved_by_parser():
    ws = parse("complex P = {v}\n"
               "sequent s = [x:h0(P)] top |- x + 0 = x\n"
               "sequent\n")
    assert ws.sequents["s"].consequent.left.right == Zero(None)


def test_formula_grouping():
    ws = parse("complex P = {v}\n"
               "sequent s = [x:h0(P)] top |- "
               "(exists y:h0(P). y = x) & x + (x + x) = x\n"
               "sequent\n")
    cons = ws.sequents["s"].consequent
    assert isinstance(cons, And) and isinstance(cons.left, Exists)
    eq = cons.right
    assert eq.left == Add(Var("x"), Add(Var("x"), Var("x")))


def test_group_followed_by_equals_or_plus_is_a_term():
    x, y = Var("x"), Var("y")
    ws = parse("complex P = {v}\n"
               "sequent s = [x:h0(P), y:h0(P)] top |- (x + y) = y + x\n"
               "sequent t = [x:h0(P), y:h0(P)] "
               "((x) + y = -(y) & (x = y)) |- ((x + y)) + 0 = x\n"
               "sequent\n")
    assert ws.sequents["s"].consequent == Eq(Add(x, y), Add(y, x))
    t = ws.sequents["t"]
    assert t.antecedent == And(Eq(Add(x, y), Neg(y)), Eq(x, y))
    assert t.consequent == Eq(Add(Add(x, y), Zero(None)), x)
    printed = print_spec(ws).splitlines()
    assert printed[1] == "sequent s = [x:h0(P), y:h0(P)] top |- x + y = y + x"
    assert printed[2] == ("sequent t = [x:h0(P), y:h0(P)] x + y = -y & x = y"
                          " |- x + y + 0 = x")


@pytest.mark.parametrize("body, col, message", [
    # a formula in a group that `=` or `+` follows: the group is read as
    # a term, and the error is where the term ends
    ("(x = x) = x", 33, "expected ')' at token '='"),
    ("(x = x) + x = x", 33, "expected ')' at token '='"),
    ("(top) = x", 31, "unbound variable at token 'top'"),
    # a group left open is still read as a formula
    ("(x + x = x", 40, "expected ')'"),
])
def test_term_group_errors_are_located(body, col, message):
    err = _parse_error("complex P = {v}\n"
                       f"sequent s = [x:h0(P)] top |- {body}\n"
                       "sequent\n")
    assert (err.line, err.col) == (2, col)
    assert str(err).endswith(message)


def test_sort_mentions_unknown_complex():
    err = _parse_error("complex P = {v}\n"
                       "sequent s = [x:h0(Q)] top |- x = x\n"
                       "sequent\n")
    assert err.line == 2
    assert "unknown complex" in str(err)


# -- zero resolution -----------------------------------------------------------


def _point_signature():
    pt = SimplicialComplex.from_maximal_simplices([("v",)])
    diagram = DiagramBuilder().add_complex("P", pt).add_pair("P").build()
    return generate_signature(diagram, (0, 0))


def test_resolve_zeros_from_variables():
    sig = _point_signature()
    ws = parse("complex P = {v}\n"
               "sequent s = [x:h0(P)] x = 0 |- 0 + 0 = x\n"
               "sequent\n")
    seq = resolve_zeros(ws.sequents["s"], sig)
    assert seq.antecedent.right == Zero("h0(P)")
    assert seq.consequent.left == Add(Zero("h0(P)"), Zero("h0(P)"))


def test_resolve_zeros_through_application():
    sig = _point_signature()
    ws = parse('complex P = {v}\n'
               'sequent s = [x:h0(P)] top |- "id:P/0"@0(0) = x\n'
               'sequent\n')
    seq = resolve_zeros(ws.sequents["s"], sig)
    assert seq.consequent.left.arg == Zero("h0(P)")


def test_resolve_zeros_needs_an_anchor():
    sig = _point_signature()
    ws = parse("complex P = {v}\n"
               "sequent s = [x:h0(P)] 0 = 0 |- x = x\n"
               "sequent\n")
    with pytest.raises(ValueError):
        resolve_zeros(ws.sequents["s"], sig)


# -- canonical printing --------------------------------------------------------

CORPUS = [
    # every declaration kind, identity-style edge and cube maps
    ("complex A = {a, c}\n"
     "complex X = {ab, bc}\n"
     "map f = {a:a, b:b, c:a}\n"
     "pair X / A\n"
     "edge e : X / A -> X / A by f\n"
     "sequent s = [x:h0(X,A)] top |- e@0(x) = 0\n"
     "sequent\n"),
    ("complex X = {ab, bc}\n"
     "complex Y = {ab}\n"
     "complex Z = {a}\n"
     "map i = {a:a, b:b, c:c}\n"
     "triple t : X / Y / Z\n"
     "triple u : X / Y\n"
     "cube c : t -> t by i\n"
     "validate\n"),
    ("complex U = {ab}\n"
     "complex V = {bc}\n"
     "complex W = {ab, bc}\n"
     "map i = {a:a, b:b, c:c}\n"
     "square q : U + V in W\n"
     "squaremap m : q -> q by i\n"
     "prism W / 0\n"
     "validate\n"),
    ("complex P = {v}\n"
     "sequent s1 = [] top |- top\n"
     "sequent s2 = [x:h0(P), y:h0(P)] x + y = y + x |- "
     "exists z:h0(P). (z + z = x + -y & top)\n"
     'sequent s3 = [x:h0(P)] top |- "id:P/0"@0(x) = x & x = 0\n'
     "sequent\n"),
    ("complex T = {abc}\n"
     "complex E1 = {ab, bc, ac}\n"
     "complex V = {a, b, c}\n"
     "filtration G on T = [V, E1, T]\n"
     "filtration S on T = skeletal\n"
     "spectral G\n"),
    ("complex X = {ab, bc}\n"
     "complex A = {a, c}\n"
     "pair X / A\n"
     "end-algebra\n"),
    ("complex N = {}\n"
     "complex X = {abc, cd}\n"
     "filtration F on X = skeletal\n"
     "cellular F\n"),
    # left sides that open with a parenthesized term
    ("complex Q = {v}\n"
     "sequent s = [x:h0(Q), y:h0(Q)] (x + y) + -(y) = x |- "
     "(x) = (x + 0) & (-(x + y) = -y + -x)\n"
     "sequent\n"),
]


@pytest.mark.parametrize("text", CORPUS)
def test_round_trip(text):
    ws = parse(text)
    printed = print_spec(ws)
    assert parse(printed) == ws


@pytest.mark.parametrize("text", CORPUS)
def test_print_is_idempotent(text):
    printed = print_spec(parse(text))
    assert print_spec(parse(printed)) == printed


def test_printed_declarations_are_sorted():
    printed = print_spec(parse("complex B = {b}\ncomplex A = {a}\nvalidate\n"))
    assert printed == "complex A = {a}\ncomplex B = {b}\nvalidate\n"


def test_print_emits_maximal_simplices_only():
    printed = print_spec(parse("complex X = {ab, a, b, abc}\nvalidate\n"))
    assert printed == "complex X = {abc}\nvalidate\n"


# -- parse implies build ---------------------------------------------------------

# every declaration kind on the 4-cycle; the sequent's sorts name
# complexes that the square and the prism generate
EVERY_KIND = """complex C = {ab, bc, cd, ad}
complex A = {b, d}
complex P = {b}
complex U = {ab, bc}
complex V = {cd, ad}
map f = {a:c, b:b, c:a, d:d}
map g = {a:b, b:c, c:d, d:a}
pair C / A
edge e : C / A -> C / A by f
edge h : C -> C by g
triple t : C / A / P
square q : U + V in C
squaremap m : q -> q by f
cube c : t -> t by f
prism A / P
filtration F on C = skeletal
sequent s = [x:h1(C,A), y:h0(q.b), z:h0(AxI,PxI)] top |- x = x
validate
"""
# statements that reuse a name the diagram generates
NEAR_MISSES = (
    "edge c.box : C / A -> C / A by f",
    "edge t.bt : C -> C by g",
    "edge q.ia : C -> C by g",
    "edge m.b : C -> C by g",
    "complex q.b = {a}",
    "complex AxI = {a}",
    "complex PxI = {a}",
)


def _corpus():
    lines = EVERY_KIND.splitlines()
    for k in range(len(lines)):
        yield "\n".join(lines[:k] + lines[k + 1:]) + "\n"
    for extra in NEAR_MISSES:
        for k in range(5, len(lines)):
            yield "\n".join(lines[:k] + [extra] + lines[k:]) + "\n"


def test_parse_implies_build():
    parsed = 0
    for text in _corpus():
        try:
            ws = parse(text)
        except DslError:
            continue
        _build_diagram(ws)
        parsed += 1
    assert parsed >= 20

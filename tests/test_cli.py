"""Command line driver: reports, determinism, exit codes."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from homlab.cli import main

from oracles import frac_rank, quotient_invariants
from test_dsl import (
    CUBE_MISSES_A_VERTEX,
    EVERY_KIND,
    GENERATED_NAME_TAKEN,
    SQUAREMAP_NOT_SIMPLICIAL,
)

CIRCLE = "complex S1 = {01, 12, 02}\nfiltration F on S1 = skeletal\ncellular F\n"
POINT_SEQ = ("complex P = {v}\n"
             "sequent dbl = [x:h0(P)] top |- exists y:h0(P). y + y = x\n"
             "sequent\n")


def _run(tmp_path, text, *flags, name="in.hwb"):
    src = tmp_path / name
    src.write_text(text)
    out = tmp_path / (name + ".json")
    rc = main([str(src), "--out", str(out), *flags])
    report = json.loads(out.read_text()) if out.exists() else None
    return rc, report


# -- cellular ------------------------------------------------------------------


def test_cellular_circle_against_oracle(tmp_path):
    # boundary of the triangle: edges 01, 02, 12 against vertices 0, 1, 2
    d1_cols = [[-1, 1, 0], [-1, 0, 1], [0, -1, 1]]
    h0 = quotient_invariants(3, d1_cols)
    h1_rank = 3 - frac_rank([[c[i] for c in d1_cols] for i in range(3)])
    expected = [[0, [h0[0], h0[1]]], [1, [h1_rank, []]]]
    assert expected == [[0, [1, []]], [1, [1, []]]]

    rc, report = _run(tmp_path, CIRCLE)
    assert rc == 0
    body = report["results"][0]
    assert body["cellular"] is True
    assert body["offenders"] == []
    assert body["cellular_homology"] == expected
    assert body["homology"] == expected
    assert body["comparison_iso"] == [[0, True], [1, True]]


def test_cellular_failure_is_exit_one(tmp_path):
    # two disjoint edges filtered by a single point: the component cd only
    # shows up at stage 1, so H_0(X, P) = Z sits at (1, -1) off the axis
    text = ("complex X = {ab, cd}\n"
            "complex P = {a}\n"
            "filtration F on X = [P, X]\n"
            "cellular F\n")
    rc, report = _run(tmp_path, text)
    assert rc == 1
    body = report["results"][0]
    assert body["cellular"] is False
    assert body["comparison_iso"] is None
    assert [1, -1] in body["offenders"]


# -- determinism ---------------------------------------------------------------


def test_reports_are_byte_identical(tmp_path):
    src = tmp_path / "in.hwb"
    src.write_text(CIRCLE)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main([str(src), "--out", str(out1)]) == 0
    assert main([str(src), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sequent_reports_are_byte_identical(tmp_path):
    src = tmp_path / "in.hwb"
    src.write_text(POINT_SEQ)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    main([str(src), "--coeff", "Zmod4", "--out", str(out1)])
    main([str(src), "--coeff", "Zmod4", "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_digest_is_of_the_input_text(tmp_path):
    rc1, rep1 = _run(tmp_path, POINT_SEQ, "--coeff", "Zmod4", name="a.hwb")
    rc2, rep2 = _run(tmp_path, POINT_SEQ, "--coeff", "Zmod2", name="b.hwb")
    assert rep1["input_digest"] == rep2["input_digest"]
    assert rep1["coefficients"] == "Z/4" and rep2["coefficients"] == "Z/2"


# -- sequent -------------------------------------------------------------------


def test_doubling_not_surjective_mod_four(tmp_path):
    rc, report = _run(tmp_path, POINT_SEQ, "--coeff", "Zmod4")
    assert rc == 1
    assert report["ok"] is False
    row = report["results"][0]
    assert row["sequent"] == "dbl" and row["valid"] is False
    assert row["counterexample"] == [
        {"var": "x", "sort": "h0(P)", "value": [1]}]


def test_doubling_surjective_mod_three(tmp_path):
    rc, report = _run(tmp_path, POINT_SEQ, "--coeff", "Zmod3")
    assert rc == 0
    assert report["results"][0]["valid"] is True
    assert report["results"][0]["counterexample"] is None


# Failing sequents whose first counterexample in product order is easy to
# get wrong: `order` fails its consequent first at x = 1, y = 0, where its
# antecedent is false; `unused` never mentions w; `late` binds the
# antecedent's x after the consequent's y, and the first y that fails
# y + y = 0 has no x with t@1(x) = y.
COUNTEREXAMPLES = (
    "complex P = {v}\n"
    "complex X = {ab}\n"
    "complex Y = {a, b}\n"
    "triple t : X / Y\n"
    "sequent order = [x:h0(P), y:h0(P)] x = y |- x + x = 0\n"
    "sequent unused = [x:h0(P), w:h1(X,Y), z:h0(P)] z = x + x |- z = 0\n"
    "sequent boundary = [y:h1(X,Y), x:h0(P)] top |- t@1(y) = 0\n"
    "sequent halves = [x:h0(P)] top |- exists y:h0(P). y + y = x\n"
    "sequent late = [y:h0(Y), x:h1(X,Y)] t@1(x) = y |- y + y = 0\n"
    "sequent fine = [x:h0(X), y:h0(X)] top |- x + y = y + x\n"
    "sequent\n")


def test_sequent_counterexamples_pinned(tmp_path):
    src = tmp_path / "in.hwb"
    src.write_text(COUNTEREXAMPLES)
    out = tmp_path / "out.json"
    rc = main([str(src), "--coeff", "Zmod4", "--window", "0..1",
               "--out", str(out)])
    assert rc == 1
    # recorded with the tree-walking evaluator the compiled one replaced
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "1945cc61e09ffe1698e13e498c4837d15161d6a3927b0565bb49b3254cd25270"


def test_sequent_type_error_exits_two(tmp_path):
    text = ("complex P = {v}\n"
            "sequent bad = [x:h0(P), y:h1(P)] top |- x = y\n"
            "sequent\n")
    rc, report = _run(tmp_path, text, "--coeff", "Zmod2",
                      "--window", "0..1")
    assert rc == 2 and report is None


@pytest.mark.parametrize("body, flags, reason", [
    ("[x:h0(X)] top |- x = x", ("--window", "1..1"), "unknown sort 'h0(X)'"),
    ('[x:h0(X)] top |- ""@0(x) = x', (), "unknown symbol '@0'"),
    ('[x:h0(X)] top |- nosuch@0(0) = x', (), "unknown symbol 'nosuch@0'"),
], ids=["sort", "symbol", "symbol-on-zero"])
def test_sequent_error_names_the_sequent(tmp_path, capsys, body, flags,
                                         reason):
    text = f"complex X = {{ab}}\nsequent s = {body}\nsequent\n"
    rc, report = _run(tmp_path, text, "--coeff", "Zmod2", *flags)
    assert rc == 2 and report is None
    assert capsys.readouterr().err == f"error: sequent 's': {reason}\n"


def test_infinite_carrier_exits_two(tmp_path, capsys):
    rc, report = _run(tmp_path, POINT_SEQ)
    assert rc == 2 and report is None
    assert "infinite carrier" in capsys.readouterr().err


def test_ill_typed_sequent_over_z_names_its_fault(tmp_path, capsys):
    # h1(S1) = Z is in the window but no sequent reads it, so the sort
    # error comes before any carrier is built
    text = ("complex S1 = {01, 12, 02}\n"
            "sequent s = [x:h0(S1)] top |- x = x\n"
            "sequent\n")
    rc, report = _run(tmp_path, text, "--window", "1..1")
    assert rc == 2 and report is None
    assert capsys.readouterr().err == "error: sequent 's': unknown sort 'h0(S1)'\n"


def test_sequent_reading_only_torsion_over_z(tmp_path):
    # over Z, h0(X) = Z of the projective plane has an infinite carrier,
    # but the sequents read only h1(X) = Z/2
    text = ("complex X = {abc, acd, ade, aef, abf, bce, cdf, bde, bdf, cef}\n"
            "sequent twice = [x:h1(X)] top |- x + x = 0\n"
            "sequent half = [x:h1(X)] top |- exists y:h1(X). y + y = x\n"
            "sequent\n")
    rc, report = _run(tmp_path, text)
    assert rc == 1 and report["coefficients"] == "Z"
    assert [(r["sequent"], r["valid"], r["counterexample"])
            for r in report["results"]] == [
        ("half", False, [{"var": "x", "sort": "h1(X)", "value": [1]}]),
        ("twice", True, None)]
    rc, report = _run(tmp_path, text.replace("sequent half", "# "))
    assert rc == 0 and report["ok"] is True


def test_sequent_builds_only_what_its_sequents_read(tmp_path, monkeypatch):
    # the window's signature has 6 sorts and 11 symbols; the sequent reads
    # the sorts h1(X,Y) and h0(Y) and the symbol t@1 between them
    import homlab.logic as logic
    import homlab.model as model
    maps, groups, forms = [], [], []
    induced_hom, group = model.induced_hom, model.HomologyModel.group
    canonical_form = logic.CanonicalForm

    def counted_map(*args):
        maps.append(args[3])    # the leak message names the kind of map
        return induced_hom(*args)

    def counted_group(self, key, n):
        groups.append((key, n))
        return group(self, key, n)

    def counted_form(g):
        forms.append(g)
        return canonical_form(g)

    monkeypatch.setattr(model, "induced_hom", counted_map)
    monkeypatch.setattr(model.HomologyModel, "group", counted_group)
    monkeypatch.setattr(logic, "CanonicalForm", counted_form)
    text = ("complex X = {ab}\n"
            "complex Y = {a, b}\n"
            "triple t : X / Y\n"
            "sequent boundary = [y:h1(X,Y)] top |- t@1(y) = 0\n"
            "sequent\n")
    rc, report = _run(tmp_path, text, "--coeff", "Zmod2")
    assert rc == 1 and report["results"][0]["valid"] is False
    assert maps == ["connecting image is not a cycle"]
    assert sorted(groups) == [(("X", "Y"), 1), (("Y", "0"), 0)]
    assert len(forms) == 2


# A left side that opens with a parenthesized term, which `dsl` once read
# as a formula group
PAREN_LEFT = ("complex X = {ab}\n"
              "sequent s = [x:h0(X), y:h0(X)] top |- (x + y) = y + x\n"
              "sequent t = [x:h0(X), y:h0(X)] (x) + y = x |- (-y) + (y) = 0\n"
              "sequent\n")


def test_parenthesized_left_side_pinned(tmp_path):
    rc, report = _run(tmp_path, PAREN_LEFT, "--coeff", "Zmod3", name="a.hwb")
    assert rc == 0 and report["ok"] is True
    assert [r["sequent"] for r in report["results"]] == ["s", "t"]
    assert hashlib.sha256((tmp_path / "a.hwb.json").read_bytes()) \
        .hexdigest() == \
        "3012741c3981e576cb7fbdcb628c6733d82764fd63e738f3e9ac87da2cae5ab6"
    bare = PAREN_LEFT.replace("(x + y)", "x + y").replace("(x) + y", "x + y") \
        .replace("(-y) + (y)", "-y + y")
    rc, plain = _run(tmp_path, bare, "--coeff", "Zmod3", name="b.hwb")
    assert rc == 0 and plain["results"] == report["results"]


# -- validate ------------------------------------------------------------------


def test_validate_point_mod_two(tmp_path):
    rc, report = _run(tmp_path, "complex P = {v}\nvalidate\n",
                      "--coeff", "Zmod2")
    assert rc == 0 and report["ok"] is True
    rows = {r["axiom"]: r for r in report["results"]}
    for law in ("assoc", "comm", "inverse", "unit"):
        row = rows[f"group/h0(P)/{law}"]
        assert row["valid"] and row["enumerated"] and row["agree"]


def test_validate_integer_coefficients_skips_enumeration(tmp_path):
    rc, report = _run(tmp_path, "complex P = {v}\nvalidate\n")
    assert rc == 0
    assert all("enumerated" not in r for r in report["results"])


def test_empty_results_shape(tmp_path):
    rc, report = _run(tmp_path, "validate\n")
    assert rc == 0
    assert report["results"] == []
    assert report["ok"] is True


def test_flavors_expand_the_axiom_set(tmp_path):
    text = ("complex U = {ab}\n"
            "complex V = {bc}\n"
            "complex W = {ab, bc}\n"
            "square q : U + V in W\n"
            "validate\n")
    rc_core, rep_core = _run(tmp_path, text, name="core.hwb")
    rc_cd, rep_cd = _run(tmp_path, text, "--flavor", "core,cd",
                         name="cd.hwb")
    assert rc_core == 0 and rc_cd == 0
    core_names = {r["axiom"] for r in rep_core["results"]}
    cd_names = {r["axiom"] for r in rep_cd["results"]}
    assert core_names < cd_names
    assert any(n.startswith("mv/") for n in cd_names - core_names)


def test_validate_enumerates_each_distinct_problem_once(tmp_path, monkeypatch):
    # the 91 axioms of the 4-cycle are 33 distinct finite problems: the
    # group laws of its 12 sorts fall on 3 invariant lists, and identity
    # maps on equal groups have equal tables
    import homlab.cli as cli
    import homlab.logic as logic
    calls = []
    eval_sequent = logic.eval_sequent

    def counted(st, seq):
        calls.append(seq)
        return eval_sequent(st, seq)

    monkeypatch.setattr(logic, "eval_sequent", counted)
    monkeypatch.setattr(cli, "eval_sequent", counted)
    text = CYCLE_END_ALGEBRA.replace("end-algebra\n", "validate\n")
    flags = ("--coeff", "Zmod3", "--flavor", "core,homotopy,cd")
    rc, report = _run(tmp_path, text, *flags, name="shared.hwb")
    assert rc == 0 and len(report["results"]) == 91 and len(calls) == 33
    monkeypatch.setattr(cli, "eval_sequents", lambda st, sequents: [
        eval_sequent(st, seq) for seq in sequents])
    rc, _ = _run(tmp_path, text, *flags, name="each.hwb")
    assert rc == 0 and len(calls) == 33
    assert (tmp_path / "shared.hwb.json").read_bytes() == \
        (tmp_path / "each.hwb.json").read_bytes()


# -- spectral ------------------------------------------------------------------


def test_spectral_summary_fields(tmp_path):
    text = ("complex T = {abc}\n"
            "complex E1 = {ab, bc, ac}\n"
            "complex V = {a, b, c}\n"
            "filtration G on T = [V, E1, T]\n"
            "spectral G\n")
    rc, report = _run(tmp_path, text)
    assert rc == 0
    body = report["results"][0]
    assert body["converges"] is True
    assert body["stable_page"] == 3
    assert body["filtration_length"] == 2
    assert body["pages"]["1"]["1,0"] == [3, []]


def test_spectral_builds_no_differential(tmp_path, monkeypatch):
    # the report lists the groups of every page and no differential
    import homlab.niveau as niveau
    calls = []
    induced_hom = niveau.induced_hom

    def counted(*args):
        calls.append(args)
        return induced_hom(*args)

    monkeypatch.setattr(niveau, "induced_hom", counted)
    text = ("complex S = {abc, abd, acd, bcd}\n"
            "filtration F on S = skeletal\n"
            "spectral F\n")
    rc, report = _run(tmp_path, text)
    assert rc == 0 and report["results"][0]["converges"] is True
    assert calls == []


def test_runs_share_no_state(tmp_path, monkeypatch):
    # every reuse of lattice work must live inside one run: a cache that
    # outlived it would make the second run cheaper than the first
    import homlab.fga as fga
    calls = []
    hermite = fga._hermite

    def counted(rows, lower=0):
        rows = list(rows)
        calls.append((len(rows), sum(map(len, rows)), lower))
        return hermite(rows, lower)

    monkeypatch.setattr(fga, "_hermite", counted)
    text = ("complex B = {abcd}\n"
            "complex S = {abc, abd, acd, bcd}\n"
            "complex P = {a}\n"
            "complex E = {ab, ac, ad, bc, bd, cd}\n"
            "filtration F on S = [P, P, E, S]\n"
            "spectral F\n")
    counts = []
    for name in ("a.hwb", "b.hwb"):
        start = len(calls)
        rc, report = _run(tmp_path, text, "--coeff", "Zmod2", name=name)
        assert rc == 0 and report["results"][0]["converges"] is True
        counts.append(calls[start:])
    assert counts[0] and counts[0] == counts[1]


def test_validate_assembles_each_declaration_once(tmp_path, monkeypatch):
    # the square takes one union and `prism A / P` two prisms; a run that
    # assembled the diagram twice would take twice as many
    import homlab.simp as simp
    calls = {"prism": 0, "subcomplex_union": 0}
    for name in calls:
        def counted(*args, _name=name, _f=getattr(simp, name), **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(simp, name, counted)
    text = ("complex C = {ab, bc, cd, ad}\n"
            "complex A = {b, d}\n"
            "complex P = {b}\n"
            "complex U = {ab, bc}\n"
            "complex V = {cd, ad}\n"
            "square q : U + V in C\n"
            "prism A / P\n"
            "validate\n")
    rc, report = _run(tmp_path, text)
    assert rc == 0 and report["ok"] is True
    assert calls == {"prism": 2, "subcomplex_union": 1}


# -- end-algebra ---------------------------------------------------------------


def test_end_algebra_report(tmp_path):
    # A: two points, X: the path a-b-c.  Everything in sight is free:
    # H0(A) = Z^2, H0(X) = Z, H1(X, A) = Z, the rest trivial.  Identity
    # edges force nothing, so the commutant is the full product and its
    # rank is the sum of squares 4 + 1 + 1 = 6.
    text = ("complex X = {ab, bc}\n"
            "complex A = {a, c}\n"
            "pair X / A\n"
            "end-algebra\n")
    rc, report = _run(tmp_path, text, "--window", "0..1")
    assert rc == 0
    body = report["results"][0]
    assert body["action_ok"] is True and body["issues"] == []
    assert body["rank"] == 6 and body["rational_rank"] == 6
    assert body["invariants"] == [6, []]
    assert "h1(X,A)" in body["subdiagram"]["nodes"]


# perfbench's small end-algebra fixture, the 4-cycle of `cycle_diagram_file`
# at its default seed; its Z report is the one `perfbench/expected.json`
# pins as `end-algebra/cycle/Z`
CYCLE_END_ALGEBRA = """complex C = {Ol, lr, rt, Ot}
complex A = {l, t}
complex P = {l}
map f = {O:r, l:l, r:O, t:t}
map g = {O:l, l:r, r:t, t:O}
pair C / A
edge e : C / A -> C / A by f
edge h : C -> C by g
triple t : C / A / P
end-algebra
"""


@pytest.mark.parametrize("coeff, digest", [
    ("Z", "c4600f6ad996e152bc01f62e0d56f2c1ef94712fd217096e043e10ac0cc93bd0"),
    ("Zmod2",
     "ee2c2106f575a47f627c56dee3ae147839e92b967a885a05d069efd740814528"),
    ("Zmod3",
     "4694d208e06806c58bef14362cdee89cd782be2bd6334098264a5ef280e86b60"),
])
def test_end_algebra_reports_pinned(tmp_path, coeff, digest):
    # with torsion node groups the structure constants and the action
    # check run through relation lattices
    src = tmp_path / "in.hwb"
    src.write_text(CYCLE_END_ALGEBRA)
    out = tmp_path / "out.json"
    rc = main([str(src), "--coeff", coeff, "--seed", "0", "--out", str(out)])
    assert rc == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# -- flags and exit codes --------------------------------------------------------


def test_parse_error_exits_two(tmp_path, capsys):
    rc, report = _run(tmp_path, "complex B = {0 1}\nvalidate\n")
    assert rc == 2 and report is None
    assert "line 1, column 16" in capsys.readouterr().err


def test_missing_file_exits_two(tmp_path):
    assert main([str(tmp_path / "nope.hwb")]) == 2


def test_file_not_utf8_exits_two(tmp_path, capsys):
    src = tmp_path / "in.hwb"
    src.write_bytes(b"complex X = {ab}\n\xff\xfe\nvalidate\n")
    assert main([str(src)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_bad_flags_exit_two(tmp_path):
    src = tmp_path / "in.hwb"
    src.write_text("validate\n")
    assert main([str(src), "--coeff", "Zmod1"]) == 2
    assert main([str(src), "--coeff", "Q"]) == 2
    assert main([str(src), "--window", "2..1"]) == 2
    assert main([str(src), "--window", "x"]) == 2
    assert main([str(src), "--flavor", "bogus"]) == 2


def test_huge_modulus_exits_two(tmp_path, capsys):
    """A carrier of more than sys.maxsize elements cannot be listed: the
    run names the sort and its size on one error line, and exits 2."""
    src = tmp_path / "in.hwb"
    src.write_text("complex P = {v}\nvalidate\n")
    assert main([str(src), "--coeff", "Zmod100000000000000000000"]) == 2
    assert capsys.readouterr().err == (
        "error: sort h0(P) has 100000000000000000000 elements, too many to "
        "enumerate\n")


def test_flag_echo(tmp_path):
    rc, report = _run(tmp_path, "complex P = {v}\nvalidate\n",
                      "--window", "0..1", "--flavor", "cd,core",
                      "--seed", "7")
    assert rc == 0
    assert report["window"] == [0, 1]
    assert report["flavors"] == ["core", "cd"]
    assert report["seed"] == 7
    assert report["command"] == "validate"


def test_stdout_when_no_out_flag(tmp_path, capsys):
    src = tmp_path / "in.hwb"
    src.write_text(CIRCLE)
    rc = main([str(src)])
    captured = capsys.readouterr()
    assert rc == 0
    report = json.loads(captured.out)
    assert report["ok"] is True
    assert captured.out.endswith("\n")
    assert "elapsed" in captured.err


def test_module_entry(tmp_path):
    src = tmp_path / "in.hwb"
    src.write_text(CIRCLE)
    proc = subprocess.run([sys.executable, "-m", "homlab.cli", str(src)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"] is True
    assert "elapsed" in proc.stderr


@pytest.mark.parametrize("text, where", [
    (CUBE_MISSES_A_VERTEX, "line 5, column 20"),
    (SQUAREMAP_NOT_SIMPLICIAL, "line 6, column 25"),
], ids=["cube", "squaremap"])
def test_bad_cube_and_square_maps_exit_two(tmp_path, text, where):
    src = tmp_path / "in.hwb"
    src.write_text(text)
    proc = subprocess.run([sys.executable, "-m", "homlab.cli", str(src),
                           "--coeff", "Zmod2"], capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith(f"error: {where}: map ")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("old, new, line", [
    # h sends abc onto bcd, and none of its faces ac and abc is in C
    ("complex C = {ab, bc, cd, ad}", "complex C = {abc, bc, cd, ad}",
     "line 10, column 20: map 'h' is not simplicial on simplex ('a', 'c')"),
    # g sends both points b and d of A outside A
    ("C / A -> C / A by f", "C / A -> C / A by g",
     "line 9, column 28: map 'e' does not send sub into sub on simplex ('b',)"),
], ids=["simplicial", "sub"])
def test_map_error_names_one_simplex_whatever_the_hash_seed(
        tmp_path, old, new, line):
    src = tmp_path / "in.hwb"
    src.write_text(EVERY_KIND.replace(old, new, 1))
    for seed in range(1, 5):
        proc = subprocess.run(
            [sys.executable, "-m", "homlab.cli", str(src)], capture_output=True,
            text=True, env={**os.environ, "PYTHONHASHSEED": str(seed)})
        assert proc.returncode == 2 and proc.stderr == f"error: {line}\n", seed


@pytest.mark.parametrize("name, where", [
    ("c.box", "line 6, column 32"),
    ("t.bt", "line 6, column 31"),
])
def test_generated_edge_name_exits_two(tmp_path, name, where):
    src = tmp_path / "in.hwb"
    src.write_text(GENERATED_NAME_TAKEN.replace("{name}", name))
    proc = subprocess.run([sys.executable, "-m", "homlab.cli", str(src)],
                          capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"error: {where}: duplicate edge name {name!r}\n"

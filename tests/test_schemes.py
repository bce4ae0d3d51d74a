"""Scheme construction, exact window arithmetic, and the literal grammar."""

import ast
import inspect
import pickle
import random
import re
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import modelsets
from modelsets import (IntervalUnion, ParameterError, ProductWindow, QuadLatticePoint,
                       QuadNum, ResidueSet, Scheme, diffraction, format_window, generate,
                       make_scheme, parse_scheme, parse_window, star, support_differences,
                       window_ft, window_intersect, window_measure)
from modelsets.schemes import QUOTE_WIDTH, SQRT5, TAU, _excerpt, parse_expr, window_factors

TAU_OVER_SQRT5 = 0.7236067977499789  # length tau = 1 + 1/tau, divided by sqrt5


# ---------------------------------------------------------------------------
# exact field arithmetic
# ---------------------------------------------------------------------------

def test_quadnum_basics():
    tau = QuadNum(0, 1)
    assert float(tau) == pytest.approx(TAU, abs=1e-15)
    assert tau * tau == tau + 1          # defining relation
    assert 1 / tau == tau - 1            # 1/tau = tau - 1
    assert tau.conj() == 1 - tau         # tau' = 1 - tau
    assert (tau - 1) < 1 < tau
    assert QuadNum(Fraction(1, 2), 0) + QuadNum(Fraction(1, 2), 0) == 1


def test_quadnum_sign_is_exact():
    # 34 + 55*tau' is tiny but positive; 55 + 34*tau' is large
    small = QuadNum(34, 55).conj()
    assert small.sign() == 1
    assert 0 < float(small) < 0.01
    assert QuadNum(-34, -55).conj().sign() == -1
    # sqrt5 = 2*tau - 1
    assert QuadNum(-1, 2) * QuadNum(-1, 2) == 5


def test_lattice_point_arithmetic():
    p = QuadLatticePoint(2, -1)
    q = QuadLatticePoint(-1, 3)
    assert p + q == QuadLatticePoint(1, 2)
    assert -p == QuadLatticePoint(-2, 1)
    assert p.phys == pytest.approx(2 - TAU)
    assert p.star_quad() == QuadNum(1, 1)  # 2 - tau' = 2 - (1 - tau) = 1 + tau


# ---------------------------------------------------------------------------
# schemes and the star map
# ---------------------------------------------------------------------------

def test_make_scheme_normalizations():
    fib = make_scheme("fibonacci")
    assert window_measure(fib, parse_window("[0,1)")) == pytest.approx(1 / SQRT5)
    per = make_scheme("periodic", 32)
    assert make_scheme("periodic", np.int64(32)) == per
    assert ResidueSet(np.int64(32), [np.int64(33)]).literal() == "{1}@32"
    assert window_measure(per, ResidueSet(32, [5])) == pytest.approx(1 / 32)
    comb = make_scheme("combined", 32)
    assert window_measure(comb, parse_window("[0,1)x{5}@32")) == pytest.approx(1 / (SQRT5 * 32))


def test_make_scheme_rejects_bad_modulus():
    with pytest.raises(ParameterError):
        make_scheme("periodic")
    with pytest.raises(ParameterError):
        make_scheme("combined", 1)
    with pytest.raises(ParameterError):
        make_scheme("fibonacci", 7)
    with pytest.raises(ParameterError):
        make_scheme("penrose")


@pytest.mark.parametrize("make", [
    lambda: Scheme("periodic", 32.5),
    lambda: Scheme("fibonacci", 3),
    lambda: Scheme("quasi"),
    lambda: make_scheme(3),
    lambda: ProductWindow(parse_window("[0,1)"), "x"),
    lambda: ProductWindow("[0,1)", ResidueSet(32, [1])),
], ids=["float modulus", "fibonacci modulus", "unknown kind", "kind not text",
        "residue factor not a set", "real factor not a union"])
def test_scheme_and_product_constructors_check_arguments(make):
    with pytest.raises(ParameterError) as exc:
        make()
    assert "\n" not in str(exc.value)


def test_make_scheme_is_the_checked_constructor():
    assert make_scheme is Scheme
    assert type(Scheme("periodic", np.int64(32)).modulus) is int


@pytest.mark.parametrize("make", [
    lambda: ResidueSet(32.5, [1, 40]),
    lambda: ResidueSet(32, [1.5]),
    lambda: make_scheme("periodic", 32.7),
    lambda: make_scheme("periodic", "x"),
    lambda: ResidueSet("32", [1]),
], ids=["float modulus", "float residue", "float scheme modulus", "text scheme modulus",
        "text modulus"])
def test_moduli_and_residues_must_be_integers(make):
    with pytest.raises(ParameterError, match="must be an integer, got"):
        make()


def test_star_examples():
    fib = make_scheme("fibonacci")
    st = star(fib, QuadLatticePoint(0, 1))
    assert isinstance(st, QuadNum)
    assert float(st) == pytest.approx(-0.6180339887498949, abs=1e-12)

    comb = make_scheme("combined", 32)
    y, r = star(comb, QuadLatticePoint(7, 0))
    assert isinstance(y, QuadNum)
    assert float(y) == pytest.approx(7.0) and r == 7

    per = make_scheme("periodic", 32)
    st = star(per, 33)
    assert isinstance(st, int) and st == 1


def test_star_kind_mismatch():
    with pytest.raises(ParameterError):
        star(make_scheme("periodic", 32), QuadLatticePoint(1, 0))
    with pytest.raises(ParameterError):
        star(make_scheme("fibonacci"), 3)


def test_star_is_homomorphism():
    rng = random.Random(7)
    fib, per, comb = make_scheme("fibonacci"), make_scheme("periodic", 32), \
        make_scheme("combined", 32)
    for _ in range(50):
        p = QuadLatticePoint(rng.randint(-99, 99), rng.randint(-99, 99))
        q = QuadLatticePoint(rng.randint(-99, 99), rng.randint(-99, 99))
        assert star(fib, p + q) == star(fib, p) + star(fib, q)
        n, m = rng.randint(-999, 999), rng.randint(-999, 999)
        assert star(per, n + m) == (star(per, n) + star(per, m)) % 32
        (yp, rp), (yq, rq) = star(comb, p), star(comb, q)
        assert star(comb, p + q) == (yp + yq, (rp + rq) % 32)


def test_physical_star_injective_on_samples():
    seen = {}
    for u in range(-20, 21):
        for v in range(-20, 21):
            p = QuadLatticePoint(u, v)
            key = (p.to_quad(), p.star_quad())
            assert key not in seen
            seen[key] = p


# ---------------------------------------------------------------------------
# window measures and set operations
# ---------------------------------------------------------------------------

def test_window_measure_examples():
    fib = make_scheme("fibonacci")
    w = parse_window("[-1,1/tau)")
    assert window_measure(fib, w) == pytest.approx(TAU_OVER_SQRT5, abs=1e-12)
    assert window_measure(fib, IntervalUnion.empty()) == 0.0

    per = make_scheme("periodic", 32)
    a16 = ResidueSet(32, (0, 7, 8, 9, 12, 15, 17, 18, 19, 20, 21, 22, 26, 27, 29, 30))
    assert window_measure(per, a16) == pytest.approx(0.5)


def test_window_measure_kind_mismatch():
    with pytest.raises(ParameterError):
        window_measure(make_scheme("fibonacci"), ResidueSet(32, [0]))


def test_window_factors_split_by_scheme():
    iu, rs = parse_window("[0,1)"), ResidueSet(32, [0, 5])
    assert window_factors(make_scheme("fibonacci"), iu) == (iu, None)
    assert window_factors(make_scheme("periodic", 32), rs) == (None, rs)
    assert window_factors(make_scheme("combined", 32), ProductWindow(iu, rs)) == (iu, rs)


WRONG_KIND = {  # every public entry point that takes a (scheme, window) pair
    "window_measure": lambda s, w: window_measure(s, w),
    "window_ft": lambda s, w: window_ft(s, w, 0),
    "generate": lambda s, w: generate(s, w, (0, 10)),
    "support_differences": lambda s, w: support_differences(s, w, 2.0),
    "diffraction": lambda s, w: diffraction(s, w, 1.0),
}


@pytest.mark.parametrize("call", WRONG_KIND.values(), ids=WRONG_KIND.keys())
@pytest.mark.parametrize("scheme,window", [
    ("fibonacci", "{0,5}@32"),
    ("periodic:32", "[0,1)"),
    ("periodic:32", "{0,5}@16"),
    ("combined:32", "[0,1)"),
    ("combined:32", "[0,1)x{0,5}@16"),
])
def test_wrong_kind_window_is_one_error(call, scheme, window):
    w = parse_window(window)
    with pytest.raises(ParameterError) as exc:
        call(parse_scheme(scheme), w)
    assert str(exc.value) == f"window {type(w).__name__} incompatible with scheme {scheme}"


def test_only_window_factors_checks_window_kinds():
    """The ``incompatible with scheme`` message is built once, in ``window_factors``."""
    found = []
    for path in sorted(Path(modelsets.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        funcs = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
        found += [(path.name, [f.name for f in funcs if node in ast.walk(f)])
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and "incompatible with scheme" in node.value]
    assert found == [("schemes.py", ["window_factors"])], found


def test_lattice_layer_and_residue_decks_have_one_home():
    """The float model, the enumeration of Z[tau] and its exact cut are defined in
    ``schemes`` alone, and only ``schemes`` reads the guard band's constants;
    ``_lattice_coords`` lives in ``correlations`` alone, and ``spectra`` imports nothing
    from ``homometry``."""
    homes = {"FLOAT_REL": "schemes.py", "_float_slack": "schemes.py",
             "_physical": "schemes.py", "_quad_candidates": "schemes.py",
             "_bands": "schemes.py", "_quad_mask": "schemes.py",
             "_lattice_coords": "correlations.py"}
    found = {name: [] for name in homes}
    readers = set()
    for path in sorted(Path(modelsets.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        readers |= {path.name for node in ast.walk(tree)
                    if isinstance(node, (ast.Name, ast.alias, ast.Attribute))
                    and {getattr(node, key, None) for key in ("id", "name", "attr")}
                    & {"FLOAT_GUARD", "FLOAT_REL"}}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name in found:
                    found[name].append(path.name)
        if path.name == "spectra.py":
            imports = [node for node in ast.walk(tree)
                       if isinstance(node, (ast.Import, ast.ImportFrom))]
            imported = {alias.name for node in imports for alias in node.names}
            imported |= {getattr(node, "module", None) or "" for node in imports}
            assert not {name for name in imported if "homometry" in name}, imported
    assert found == {name: [home] for name, home in homes.items()}, found
    assert readers == {"schemes.py"}, readers


def test_each_fact_of_the_output_has_one_home():
    """The float format, the point-file header, sqrt 5, the quote width and the
    wrap-around gap are each stated once in the package, and nothing imports
    ``secrets``."""
    sources = {path.name: path.read_text()
               for path in sorted(Path(modelsets.__file__).parent.glob("*.py"))}

    def homes(pattern):
        return [(name, len(re.findall(pattern, text))) for name, text in sources.items()
                if re.search(pattern, text)]

    assert homes(re.escape(".15g")) == [("pointsets.py", 1)]
    assert homes(re.escape('"# modelsets pointset "')) == [("pointsets.py", 1)]
    assert homes(r"sqrt\(5\)") == []
    assert homes(r"\bSQRT5 = ") == [("schemes.py", 1)]
    # the wrap-around gap elems[0] + N - elems[-1]
    assert homes(r"\[0\] \+ [A-Z]\b") == [("schemes.py", 1)]
    assert homes(r"\bimport secrets\b|\bsecrets\.") == []
    widths = [name for name, text in sources.items() for node in ast.walk(ast.parse(text))
              if isinstance(node, ast.Constant) and node.value in (37, 40)]
    assert widths == ["schemes.py"] and QUOTE_WIDTH == 40
    assert list(inspect.signature(_excerpt).parameters) == ["text", "pos"]


KINDS = ("fibonacci", "periodic", "combined")
#: small moduli, so that scheme and window moduli often agree, and any below 2^62
MODULI = st.integers(2, 6) | st.integers(2, 2**62 - 1)


@st.composite
def schemes(draw):
    kind = draw(st.sampled_from(KINDS))
    return Scheme(kind, None if kind == "fibonacci" else draw(MODULI))


@given(schemes(), st.sampled_from(KINDS), st.just(1) | MODULI)
def test_window_factors_accepts_exactly_the_matching_windows(scheme, kind, n):
    iu, rs = parse_window("[0,1)"), ResidueSet(n, [0])
    w, factors = {"fibonacci": (iu, (iu, None)), "periodic": (rs, (None, rs)),
                  "combined": (ProductWindow(iu, rs), (iu, rs))}[kind]
    if kind == scheme.kind and (kind == "fibonacci" or n == scheme.modulus):
        assert window_factors(scheme, w) == factors
    else:
        with pytest.raises(ParameterError) as exc:
            window_factors(scheme, w)
        assert str(exc.value) == (f"window {type(w).__name__} incompatible with scheme "
                                  f"{scheme.label()}")
    assert parse_scheme(scheme.label()) == scheme


def resource_errors(tree) -> list:
    """Nodes that build a ResourceError: calls of it and bare ``raise ResourceError``."""
    def named(node):
        return getattr(node, "id", getattr(node, "attr", None)) == "ResourceError"
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and named(node.func)
            or isinstance(node, ast.Raise) and node.exc is not None and named(node.exc)]


def test_only_check_budget_builds_resource_errors():
    built = []
    for path in sorted(Path(modelsets.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = {id(node) for func in ast.walk(tree)
                   if isinstance(func, ast.FunctionDef) and func.name == "check_budget"
                   for node in resource_errors(func)} if path.name == "errors.py" else set()
        built += [(path.name, node.lineno, id(node) in allowed)
                  for node in resource_errors(tree)]
    assert [(name, ok) for name, _, ok in built] == [("errors.py", True)], built


def test_only_quadnum_and_pattern_table_hand_write_equality_hashing_or_setattr():
    # every other value class takes these members from dataclass or NamedTuple;
    # PatternTable compares its int64 counts with np.array_equal, and stays unhashable
    written = [(path.name, cls.name, node.name)
               for path in sorted(Path(modelsets.__file__).parent.glob("*.py"))
               for cls in ast.walk(ast.parse(path.read_text()))
               if isinstance(cls, ast.ClassDef)
               for node in cls.body
               if isinstance(node, ast.FunctionDef)
               and node.name in ("__setattr__", "__eq__", "__hash__")]
    assert sorted(written) == [("homometry.py", "PatternTable", "__eq__"),
                               ("schemes.py", "QuadNum", "__eq__"),
                               ("schemes.py", "QuadNum", "__hash__"),
                               ("schemes.py", "QuadNum", "__setattr__")], written


WINDOWS = ["[0,1)u[1.5,2.25)", "[)", "{0,7,8}@32", "[-1,1/tau)x{0,7}@32"]


@pytest.mark.parametrize("literal", WINDOWS)
def test_windows_pickle_and_refuse_assignment(literal):
    w = parse_window(literal)
    back = pickle.loads(pickle.dumps(w))
    assert back == w and hash(back) == hash(w) and back.literal() == w.literal()
    for name in ("intervals", "elems", "other"):
        with pytest.raises(AttributeError):
            setattr(w, name, None)
    assert w == parse_window(literal)


def test_window_translate_examples():
    w = parse_window("[0,1)")
    t = w.translate(QuadNum(Fraction(1, 2), 0))
    assert t == parse_window("[0.5,1.5)")

    rs = ResidueSet(32, (0, 7))
    assert rs.translate(30) == ResidueSet(32, (30, 5))

    pw = ProductWindow(parse_window("[0,1)"), ResidueSet(32, (0, 7)))
    moved = pw.translate((QuadNum(1, 0), 1))
    assert moved.intervals == parse_window("[1,2)")
    assert moved.residues == ResidueSet(32, (1, 8))


def test_window_intersect_examples():
    w1 = parse_window("[-1,1/tau)")
    w2 = parse_window("[-0.382,1.236)")
    got = window_intersect(w1, w2)
    assert got.intervals[0][0] == QuadNum(Fraction(-382, 1000), 0)
    assert got.intervals[0][1] == QuadNum(-1, 1)  # 1/tau = tau - 1

    assert window_intersect(ResidueSet(32, (0, 7, 8)), ResidueSet(32, (7, 9))) \
        == ResidueSet(32, (7,))
    assert window_intersect(parse_window("[0,1)"), parse_window("[2,3)")).is_empty()


def test_interval_union_canonicalization():
    w = IntervalUnion([(1, 2), (0, 1)])          # touching intervals merge
    assert w == parse_window("[0,2)")
    w = IntervalUnion([(0, QuadNum(0, 1)), (1, 2)])  # overlapping merge
    assert len(w.intervals) == 1
    with pytest.raises(ParameterError):
        IntervalUnion([(1, 1)])


@pytest.mark.parametrize("literal, merged", [
    ("[0,2)u[1,3)", "[0,3)"), ("[0,1)u[1,2)", "[0,2)"), ("[0,3)u[1,2)", "[0,3)"),
    ("[1,2)u[0,1)", "[0,2)")])
def test_interval_union_merges_overlapping_and_touching(literal, merged):
    assert parse_window(literal).intervals == parse_window(merged).intervals


def test_empty_union_has_no_hull_and_an_empty_literal():
    empty = IntervalUnion.empty()
    assert empty.hull() is None and empty.literal() == "[)"
    assert parse_window("[)") == empty


@pytest.mark.parametrize("op", ["intersect"])
def test_residue_sets_of_different_moduli_do_not_combine(op):
    with pytest.raises(ParameterError, match="^modulus mismatch$"):
        getattr(ResidueSet(32, [1]), op)(ResidueSet(16, [1]))


def test_interval_endpoints_stay_below_2_62_in_magnitude():
    assert IntervalUnion([(-(2**62) + 1, QuadNum(0, 2**61))]).length() > 2**62
    for ends in [(0, 2**62), (-(2**62), 0), (0, QuadNum(0, 2**62))]:
        with pytest.raises(ParameterError, match="must be below 2\\^62 in magnitude$"):
            IntervalUnion([ends])
    with pytest.raises(ParameterError, match=r"^empty or inverted interval \['1/3', '0'\)$"):
        IntervalUnion([(Fraction(1, 3), 0)])


@pytest.mark.parametrize("make, bad", [
    (lambda: QuadNum(float("nan"), 0), "nan"),
    (lambda: QuadNum("abc", 0), "'abc'"),
    (lambda: QuadNum(None, 1), "None"),
    (lambda: IntervalUnion([(0, float("inf"))]), "inf"),
], ids=["nan", "text", "None", "inf endpoint"])
def test_what_is_not_a_rational_is_a_parameter_error(make, bad):
    with pytest.raises(ParameterError) as exc:
        make()
    assert str(exc.value) == f"cannot interpret {bad} as a rational number"


def test_any_exact_rational_is_a_coefficient():
    assert QuadNum(np.int64(3), Decimal("0.25")) == QuadNum(3, Fraction(1, 4))
    assert QuadNum("1/3", 0) == Fraction(1, 3)
    assert IntervalUnion([(np.int32(-1), Decimal("1.5"))]) == parse_window("[-1,1.5)")
    # the triple holds Python ints, so arithmetic past int64 stays exact
    big = QuadNum(np.int64(2 ** 62), np.int64(-1))
    assert {type(big.p), type(big.q), type(big.d)} == {int}
    assert (big * 4).p == 2 ** 64 and QuadNum(np.int32(-5), 0) < 0


def test_lattice_point_is_its_coordinate_pair():
    p = QuadLatticePoint(2, -1)
    assert p == (2, -1) and hash(p) == hash((2, -1))
    assert p + QuadLatticePoint(1, 1) == (3, 0) and p - p == (0, 0) and -p == (-2, 1)
    points = [QuadLatticePoint(1, 0), QuadLatticePoint(0, 5), QuadLatticePoint(0, -1)]
    assert sorted(points) == [(0, -1), (0, 5), (1, 0)]


def _random_union(rng):
    cuts = sorted(rng.sample(range(-40, 40), rng.randint(2, 8)))
    ivs = [(Fraction(a, 4), Fraction(b, 4)) for a, b in zip(cuts[:-1], cuts[1:])]
    return IntervalUnion([iv for i, iv in enumerate(ivs) if i % 2 == 0])


def test_measure_translation_invariance_property():
    fib = make_scheme("fibonacci")
    rng = random.Random(11)
    for _ in range(30):
        w = _random_union(rng)
        shift = QuadNum(Fraction(rng.randint(-50, 50), 7), rng.randint(-3, 3))
        moved = w.translate(shift)
        assert abs(window_measure(fib, moved) - window_measure(fib, w)) < 1e-12
    per = make_scheme("periodic", 32)
    for _ in range(30):
        rs = ResidueSet(32, rng.sample(range(32), rng.randint(1, 20)))
        moved = rs.translate(rng.randint(0, 31))
        assert window_measure(per, moved) == window_measure(per, rs)  # exact


def test_inclusion_exclusion_property():
    fib = make_scheme("fibonacci")
    rng = random.Random(13)
    for _ in range(40):
        w1, w2 = _random_union(rng), _random_union(rng)
        lhs = window_measure(fib, window_intersect(w1, w2)) \
            + window_measure(fib, IntervalUnion(w1.intervals + w2.intervals))
        rhs = window_measure(fib, w1) + window_measure(fib, w2)
        assert abs(lhs - rhs) < 1e-12


# ---------------------------------------------------------------------------
# literal grammar
# ---------------------------------------------------------------------------

def test_parse_expr_tau_forms():
    assert parse_expr("1/tau") == QuadNum(-1, 1)
    assert parse_expr("-1") == QuadNum(-1, 0)
    assert parse_expr("2*tau-1") == QuadNum(-1, 2)
    assert parse_expr("(1+tau)/2") == QuadNum(Fraction(1, 2), Fraction(1, 2))
    assert parse_expr("0.25") == QuadNum(Fraction(1, 4), 0)


@pytest.mark.parametrize("text, value", [
    (" +1 ", QuadNum(1, 0)), ("2*-tau", QuadNum(0, -2)), ("1-2-3", QuadNum(-4, 0)),
    ("8/4/2", QuadNum(1, 0)), ("2 * (1 + tau) - -tau", QuadNum(2, 3))])
def test_parse_expr_chains_left_to_right(text, value):
    assert parse_expr(text) == value


@pytest.mark.parametrize("text, message", [
    ("1 2", "bad expression '1 2' at position 2: trailing input"),
    ("1/(tau-tau)", "bad expression '1/(tau-tau)' at position 11: division by zero"),
    ("(1", "bad expression '(1' at position 2: expected ')'"),
    ("1.2.3", "bad expression '1.2.3' at position 5: bad number '1.2.3'"),
    ("tau1", "bad expression 'tau1' at position 3: trailing input"),
    ("1+*2", "bad expression '1+*2' at position 2: expected a number, 'tau' or '('"),
])
def test_parse_expr_errors_name_the_position(text, message):
    with pytest.raises(ParameterError) as exc:
        parse_expr(text)
    assert str(exc.value) == message


def test_an_endpoint_nested_too_deeply_is_a_parameter_error():
    with pytest.raises(ParameterError) as exc:
        parse_window("[" + "(" * 5000 + "1" + ")" * 5000 + ",2)")
    assert str(exc.value) == "expression of 10001 characters is nested too deeply"


def test_interval_needs_exactly_two_endpoints():
    with pytest.raises(ParameterError) as exc:
        parse_window("[1,2,3)")
    assert str(exc.value) == "interval '[1,2,3)' needs exactly two endpoints"


def test_parse_window_kinds():
    assert isinstance(parse_window("[-1,1/tau)"), IntervalUnion)
    assert isinstance(parse_window("{0,7,8}@32"), ResidueSet)
    pw = parse_window("[-1,1/tau)x{0,7}@32")
    assert isinstance(pw, ProductWindow)
    assert pw.residues == ResidueSet(32, (0, 7))


def test_window_literal_roundtrip():
    for lit in ["[-1,1/tau)", "[0,1)u[1.5,2.25)", "{0,7,8}@32",
                "[-1,1/tau)x{0,7,8}@32", "[-1/2,1/2)"]:
        w = parse_window(lit)
        assert parse_window(format_window(w)) == w
        # canonical form is a fixed point of parse/format
        assert format_window(parse_window(format_window(w))) == format_window(w)


def test_parse_window_rejects_garbage():
    for bad in ["[1,0)", "(0,1)", "{}@32", "{1,2}", "[0,1)u", "[0,1)x[2,3)",
                "[a,b)", "[0,1)x{0}@32x{1}@32"]:
        with pytest.raises(ParameterError):
            parse_window(bad)


def test_parse_scheme_literals():
    assert parse_scheme("fibonacci").kind == "fibonacci"
    assert parse_scheme("periodic:32").modulus == 32
    with pytest.raises(ParameterError):
        parse_scheme("periodic:x")

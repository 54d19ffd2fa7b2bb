"""Text formats: system and groupoid files, scalars, and the generator
expressions used on the command line."""

from fractions import Fraction
from pathlib import Path

import pytest

import crossedideals
from crossedideals import (
    GF,
    QQ,
    ParseError,
    crossed_product,
    parse_generator,
    parse_groupoid,
    parse_system,
    serialize_groupoid,
    serialize_system,
)
from crossedideals.formats import file_kind, generator_text, parse_scalar
from crossedideals.fixtures import FIXTURES, brandt_system, flip_system

DATA = Path(crossedideals.__file__).parent / "data"
F2 = GF(2)
F3 = GF(3)


def system_shape(system):
    sg = system.semigroup
    return (
        tuple(sg.name(s) for s in range(sg.size)),
        sg.mult,
        sg.star,
        tuple(system.point_name(x) for x in range(system.space_size)),
        tuple(pb.pairs for pb in system.theta),
    )


def groupoid_shape(g):
    return (g.names, g.units, g.source, g.target, g.table)


# ---------------------------------------------------------------------------
# round trips

def test_system_files_round_trip():
    for path in sorted(DATA.glob("*.system")):
        text = path.read_text()
        system, field = parse_system(text)
        assert system.validate().ok
        canonical = serialize_system(system, field)
        again, field2 = parse_system(canonical)
        assert system_shape(again) == system_shape(system)
        assert type(field2) is type(field)
        assert serialize_system(again, field2) == canonical


def test_groupoid_files_round_trip():
    for path in sorted(DATA.glob("*.groupoid")):
        text = path.read_text()
        groupoid, field = parse_groupoid(text)
        assert groupoid.validate().ok
        canonical = serialize_groupoid(groupoid, field)
        again, field2 = parse_groupoid(canonical)
        assert groupoid_shape(again) == groupoid_shape(groupoid)
        assert serialize_groupoid(again, field2) == canonical


def test_fixture_systems_survive_serialization():
    for make in FIXTURES.values():
        system = make()
        text = serialize_system(system, F2)
        again, _ = parse_system(text)
        assert system_shape(again) == system_shape(system)


def test_comments_and_blank_lines_are_ignored():
    text = (DATA / "two_point_flip.system").read_text()
    noisy = "# a comment\n\n" + text.replace(
        "kind: system", "kind: system   # trailing note")
    system, _ = parse_system(noisy)
    assert system_shape(system) == system_shape(parse_system(text)[0])


# ---------------------------------------------------------------------------
# positioned errors

def test_missing_format_line_is_position_one():
    with pytest.raises(ParseError) as err:
        parse_system("kind: system\n")
    assert err.value.line == 1
    assert str(err.value).startswith("line 1:")


def test_unsupported_format_version():
    with pytest.raises(ParseError) as err:
        parse_system("format: 9\nkind: system\n")
    assert err.value.line == 1
    assert "unsupported format" in err.value.message


def test_wrong_kind_is_reported_on_its_line():
    text = (DATA / "order_two_group.groupoid").read_text()
    with pytest.raises(ParseError) as err:
        parse_system(text)
    assert err.value.line == 2
    assert "expected a system file" in err.value.message


def test_bad_field_description():
    with pytest.raises(ParseError) as err:
        parse_system("format: 1\nkind: system\nfield: F 4\n")
    assert err.value.line == 3


def test_duplicate_element_names_are_rejected():
    text = (DATA / "order_two_fixed_point.system").read_text()
    broken = text.replace("names: 1 g", "names: g g", 1)
    with pytest.raises(ParseError) as err:
        parse_system(broken)
    assert "duplicate element names" in err.value.message


def test_short_multiplication_table():
    text = (DATA / "order_two_fixed_point.system").read_text()
    broken = text.replace("    g 1\n", "")
    with pytest.raises(ParseError) as err:
        parse_system(broken)
    assert "expected 2 products" in err.value.message or \
        "multiplication table is short" in err.value.message


def test_unknown_element_in_table_names_the_token():
    text = (DATA / "order_two_fixed_point.system").read_text()
    broken = text.replace("    g 1", "    g q")
    with pytest.raises(ParseError) as err:
        parse_system(broken)
    assert "unknown element 'q'" in err.value.message


def test_theta_line_without_arrow():
    text = (DATA / "order_two_fixed_point.system").read_text()
    broken = text.replace("g: x -> x", "g: x x")
    with pytest.raises(ParseError) as err:
        parse_system(broken)
    assert "missing '->'" in err.value.message


def test_duplicate_theta_line():
    text = (DATA / "order_two_fixed_point.system").read_text()
    broken = text.replace("g: x -> x", "1: x -> x")
    with pytest.raises(ParseError) as err:
        parse_system(broken)
    assert "duplicate theta line" in err.value.message


def test_unbalanced_theta_lists():
    text = (DATA / "two_point_flip.system").read_text()
    broken = text.replace("g: a b -> b a", "g: a b -> b")
    with pytest.raises(ParseError) as err:
        parse_system(broken)
    assert "differ in length" in err.value.message


def test_non_injective_theta_is_rejected_in_place():
    text = (DATA / "two_point_flip.system").read_text()
    broken = text.replace("g: a b -> b a", "g: a b -> b b")
    with pytest.raises(ParseError):
        parse_system(broken)


def test_trailing_garbage_is_rejected():
    text = (DATA / "one_point_trivial.system").read_text()
    with pytest.raises(ParseError) as err:
        parse_system(text + "surplus: line\n")
    assert "unexpected trailing line" in err.value.message


def test_groupoid_without_units_is_rejected():
    text = (DATA / "order_two_group.groupoid").read_text()
    broken = text.replace("units: 1", "units:")
    with pytest.raises(ParseError) as err:
        parse_groupoid(broken)
    assert "units" in err.value.message


def test_short_composition_row():
    text = (DATA / "order_two_group.groupoid").read_text()
    broken = text.replace("    g 1", "    g")
    with pytest.raises(ParseError) as err:
        parse_groupoid(broken)
    assert "expected 2 entries" in err.value.message


# ---------------------------------------------------------------------------
# kind detection

def test_file_kind_reads_the_header():
    assert file_kind((DATA / "two_point_flip.system").read_text()) == "system"
    assert file_kind((DATA / "pair_groupoid.groupoid").read_text()) == "groupoid"


def test_unknown_kind_is_rejected():
    with pytest.raises(ParseError) as err:
        file_kind("format: 1\nkind: matrix\n")
    assert "unknown kind" in err.value.message


# ---------------------------------------------------------------------------
# scalars

def test_scalars_reduce_into_prime_fields():
    assert parse_scalar(F3, "4") == 1
    assert parse_scalar(F3, "-1") == 2
    assert parse_scalar(F3, "1/2") == 2  # the inverse of 2 mod 3
    assert parse_scalar(F2, "5") == 1


def test_scalars_stay_exact_over_the_rationals():
    assert parse_scalar(QQ, "2/4") == Fraction(1, 2)
    assert parse_scalar(QQ, "-7") == Fraction(-7)


def test_bad_scalars_are_rejected():
    with pytest.raises(ValueError):
        parse_scalar(F3, "x")
    with pytest.raises(ValueError):
        parse_scalar(F3, "1/3")
    with pytest.raises(ValueError):
        parse_scalar(QQ, "1/0")


# ---------------------------------------------------------------------------
# generator expressions

def test_single_term_with_and_without_coefficient():
    cp = crossed_product(flip_system(), F2)
    assert parse_generator(cp, "1·a:g") == cp.term(0, 1)
    assert parse_generator(cp, "a:g") == cp.term(0, 1)


def test_sums_accumulate_in_the_field():
    cp = crossed_product(flip_system(), F2)
    want = tuple(F2.add(u, v) for u, v in zip(cp.term(0, 0), cp.term(1, 1)))
    assert parse_generator(cp, "a:1 + b:g") == want
    assert parse_generator(cp, "a:1 + a:1") == (F2.zero,) * cp.dim


def test_bare_element_names_mean_indicator_sections():
    cp = crossed_product(flip_system(), F2)
    assert parse_generator(cp, "g") == cp.indicator_term(1)
    assert parse_generator(cp, "1") == cp.indicator_term(0)


def test_starred_labels_survive_the_dot_syntax():
    cp = crossed_product(brandt_system(), F2)
    want = cp.term(0, cp.system.semigroup.element_index("s*"))
    assert parse_generator(cp, "a:s*") == want
    assert parse_generator(cp, "1·a:s*") == want
    assert parse_generator(cp, "1*a:s*") == want
    assert parse_generator(cp, "s*") == cp.indicator_term(
        cp.system.semigroup.element_index("s*"))


def test_rational_and_modular_coefficients():
    cp3 = crossed_product(FIXTURES["FIX-Z2FIX"](), F3)
    assert parse_generator(cp3, "2·x:g + 2·x:g") == (0, 1)
    cpq = crossed_product(FIXTURES["FIX-Z2FIX"](), QQ)
    assert parse_generator(cpq, "1/2·x:1 + 3·x:g") == (Fraction(1, 2),
                                                       Fraction(3))


def test_malformed_generators_are_rejected():
    cp = crossed_product(flip_system(), F2)
    with pytest.raises(ValueError):
        parse_generator(cp, "")
    with pytest.raises(ValueError):
        parse_generator(cp, "a:1 + ")
    with pytest.raises(ValueError):
        parse_generator(cp, "q:1")
    with pytest.raises(ValueError):
        parse_generator(cp, "a:q")
    with pytest.raises(ValueError):
        parse_generator(cp, "nosuch")


def test_generator_text_round_trips():
    cp = crossed_product(flip_system(), F2)
    vec = parse_generator(cp, "a:1 + b:g")
    text = generator_text(cp, vec)
    assert text == "1·a:1 + 1·b:g"
    assert parse_generator(cp, text) == vec
    assert generator_text(cp, (F2.zero,) * cp.dim) == "0"


def test_generator_text_round_trips_over_the_rationals():
    cp = crossed_product(FIXTURES["FIX-Z2FIX"](), QQ)
    vec = (Fraction(1, 2), Fraction(-3))
    text = generator_text(cp, vec)
    assert parse_generator(cp, text) == vec


@pytest.mark.parametrize("name, old, new, line, message", [
    ("order_two_fixed_point.system", "star: 1 g", "star: 1 q", 8, "unknown element 'q'"),
    ("order_two_fixed_point.system", "    g 1", "    q r", 11, "unknown element 'q'"),
    ("order_two_fixed_point.system", "  g: x -> x", "  q: x -> x", 19, "unknown element 'q'"),
    ("order_two_fixed_point.system", "  g: x -> x", "  g: y -> z", 19, "unknown point 'y'"),
    ("order_two_fixed_point.system", "  g: x -> x", "  g: x -> z", 19, "unknown point 'z'"),
    ("pair_groupoid.groupoid", "units: u v", "units: u w", 8, "unknown element 'w'"),
    ("pair_groupoid.groupoid", "source: u v v u", "source: u v w u", 9, "unknown element 'w'"),
    ("pair_groupoid.groupoid", "target: u v u v", "target: u v u w", 10, "unknown element 'w'"),
    ("pair_groupoid.groupoid", "    . uv . u", "    . uv w x", 14, "unknown element 'w'"),
])
def test_an_unknown_name_is_reported_at_its_line(name, old, new, line, message):
    """Names are looked up in one dict per block, and the first unknown
    token of a line is the one reported, with that line's number."""
    text = (DATA / name).read_text()
    assert text.count(old) == 1
    parse = parse_system if name.endswith(".system") else parse_groupoid
    with pytest.raises(ParseError) as err:
        parse(text.replace(old, new))
    assert (err.value.line, err.value.message) == (line, message)


def test_a_dot_is_no_composite_even_when_an_element_is_named_dot():
    text = (DATA / "pair_groupoid.groupoid").read_text()
    renamed = text.replace("names: u v uv vu", "names: u v . vu")
    with pytest.raises(ParseError) as err:
        parse_groupoid(renamed)
    assert err.value.message == "unknown element 'uv'"
    groupoid, _ = parse_groupoid(renamed.replace(" uv", " ."))
    assert groupoid.table[0] == (0, None, None, None)

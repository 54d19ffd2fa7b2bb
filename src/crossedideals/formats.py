"""Versioned text formats for dynamical systems and groupoids, plus the
generator expressions used on the command line.

Files start with a "format: 1" line and declare their kind.  Parsing
reports errors with line numbers; serialization is canonical, so
parse -> serialize -> parse is the identity.
"""

from __future__ import annotations

from fractions import Fraction

from .dynsys import AmpleSystem, PartialBijection
from .exactlin import Field, PrimeField, RationalField, parse_field
from .groupoids import FiniteGroupoid
from .semigroups import InverseSemigroup

FORMAT_VERSION = "1"


class ParseError(Exception):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


def field_text(field: Field) -> str:
    if isinstance(field, PrimeField):
        return f"F {field.p}"
    if isinstance(field, RationalField):
        return "Q"
    raise ValueError(f"no file syntax for {field!r}")


def parse_scalar(field: Field, token: str):
    """A coefficient: an integer or a fraction a/b, read into the field."""
    try:
        q = Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad coefficient {token!r}: {exc}")
    if isinstance(field, RationalField):
        return q
    if not isinstance(field, PrimeField):
        raise ValueError(f"no scalar syntax for {field!r}")
    den = q.denominator % field.p
    if den == 0:
        raise ValueError(f"coefficient {token!r} has denominator divisible by {field.p}")
    return q.numerator % field.p * pow(den, -1, field.p) % field.p


def scalar_text(field: Field, value) -> str:
    return str(value)


# ---------------------------------------------------------------------------
# line scanner

class _Lines:
    def __init__(self, text: str):
        self.rows = []
        for n, raw in enumerate(text.splitlines(), start=1):
            body = raw.split("#", 1)[0].strip()
            if body:
                self.rows.append((n, body))
        self.pos = 0

    def done(self) -> bool:
        return self.pos >= len(self.rows)

    def peek(self):
        return self.rows[self.pos]

    def take(self):
        row = self.rows[self.pos]
        self.pos += 1
        return row

    def expect_key(self, key: str) -> tuple:
        """Consume a "key: value" line, returning (line, value)."""
        if self.done():
            raise ParseError(self.rows[-1][0] if self.rows else 0,
                             f"expected {key!r}, found end of file")
        n, body = self.take()
        head, sep, value = body.partition(":")
        if not sep or head.strip() != key:
            raise ParseError(n, f"expected {key!r}, found {body!r}")
        return n, value.strip()


def _split_names(value: str, count: int, line: int, what: str):
    names = _split_row(value, count, line, what)
    if len(set(names)) != count:
        raise ParseError(line, f"duplicate {what}")
    return names


def _split_row(value: str, count: int, line: int, what: str):
    tokens = value.split()
    if len(tokens) != count:
        raise ParseError(line, f"expected {count} {what}, found {len(tokens)}")
    return tuple(tokens)


def _name_index(names) -> dict:
    """name -> position, built once per block of distinct names."""
    return {name: i for i, name in enumerate(names)}


def _lookup(index: dict, token: str, line: int, what: str) -> int:
    position = index.get(token)
    if position is None:
        raise ParseError(line, f"unknown {what} {token!r}")
    return position


def _lookup_all(index: dict, tokens, line: int, what: str) -> tuple:
    """The position of each token, as _lookup, with its error at the first
    unknown token."""
    try:
        return tuple(map(index.__getitem__, tokens))
    except KeyError as err:
        raise ParseError(line, f"unknown {what} {err.args[0]!r}") from None


# ---------------------------------------------------------------------------
# systems

def parse_system(text: str):
    """Parse a system file into (AmpleSystem, Field)."""
    lines = _Lines(text)
    n, version = lines.expect_key("format")
    if version != FORMAT_VERSION:
        raise ParseError(n, f"unsupported format {version!r}")
    n, kind = lines.expect_key("kind")
    if kind != "system":
        raise ParseError(n, f"expected a system file, found kind {kind!r}")
    n, field_desc = lines.expect_key("field")
    try:
        field = parse_field(field_desc)
    except ValueError as exc:
        raise ParseError(n, str(exc))

    lines.expect_key("semigroup")
    n, size_text = lines.expect_key("size")
    if not size_text.isdigit() or int(size_text) < 1:
        raise ParseError(n, f"bad semigroup size {size_text!r}")
    size = int(size_text)
    n, names_text = lines.expect_key("names")
    names = _split_names(names_text, size, n, "element names")
    index = _name_index(names)
    n, star_text = lines.expect_key("star")
    star_names = _split_names(star_text, size, n, "involution entries")
    star = _lookup_all(index, star_names, n, "element")
    lines.expect_key("mult")
    mult = []
    for i in range(size):
        if lines.done():
            raise ParseError(lines.rows[-1][0], "multiplication table is short")
        n, body = lines.take()
        row = body.split()
        if len(row) != size:
            raise ParseError(n, f"expected {size} products, found {len(row)}")
        mult.append(_lookup_all(index, row, n, "element"))
    try:
        semigroup = InverseSemigroup(tuple(mult), star, names)
    except ValueError as exc:
        raise ParseError(n, str(exc))

    lines.expect_key("space")
    n, size_text = lines.expect_key("size")
    if not size_text.isdigit() or int(size_text) < 1:
        raise ParseError(n, f"bad space size {size_text!r}")
    space = int(size_text)
    n, names_text = lines.expect_key("names")
    points = _split_names(names_text, space, n, "point names")
    point_index = _name_index(points)

    lines.expect_key("theta")
    theta = [None] * size
    for _ in range(size):
        if lines.done():
            raise ParseError(lines.rows[-1][0], "theta block is short")
        n, body = lines.take()
        head, sep, rest = body.partition(":")
        if not sep:
            raise ParseError(n, f"expected '<element>: <domain> -> <image>', found {body!r}")
        s = _lookup(index, head.strip(), n, "element")
        if theta[s] is not None:
            raise ParseError(n, f"duplicate theta line for {head.strip()!r}")
        dom_text, arrow, img_text = rest.partition("->")
        if not arrow:
            raise ParseError(n, "missing '->' in theta line")
        dom = _lookup_all(point_index, dom_text.split(), n, "point")
        img = _lookup_all(point_index, img_text.split(), n, "point")
        if len(dom) != len(img):
            raise ParseError(n, "domain and image lists differ in length")
        try:
            theta[s] = PartialBijection(zip(dom, img))
        except ValueError as exc:
            raise ParseError(n, str(exc))
    if not lines.done():
        raise ParseError(lines.peek()[0], f"unexpected trailing line {lines.peek()[1]!r}")
    try:
        system = AmpleSystem(semigroup, space, theta, points)
    except ValueError as exc:
        raise ParseError(lines.rows[-1][0], str(exc))
    return system, field


def serialize_system(system: AmpleSystem, field: Field) -> str:
    sg = system.semigroup
    names = [sg.name(s) for s in range(sg.size)]
    points = [system.point_name(x) for x in range(system.space_size)]
    out = [
        f"format: {FORMAT_VERSION}",
        "kind: system",
        f"field: {field_text(field)}",
        "",
        "semigroup:",
        f"  size: {sg.size}",
        f"  names: {' '.join(names)}",
        f"  star: {' '.join(names[sg.inv(s)] for s in range(sg.size))}",
        "  mult:",
    ]
    for s in range(sg.size):
        out.append("    " + " ".join(names[sg.product(s, t)] for t in range(sg.size)))
    out += [
        "",
        "space:",
        f"  size: {system.space_size}",
        f"  names: {' '.join(points)}",
        "",
        "theta:",
    ]
    for s in range(sg.size):
        pairs = system.theta[s].pairs
        dom = " ".join(points[a] for a, _ in pairs)
        img = " ".join(points[b] for _, b in pairs)
        out.append(f"  {names[s]}: {dom} -> {img}".rstrip())
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# groupoids

def parse_groupoid(text: str):
    """Parse a groupoid file into (FiniteGroupoid, Field)."""
    lines = _Lines(text)
    n, version = lines.expect_key("format")
    if version != FORMAT_VERSION:
        raise ParseError(n, f"unsupported format {version!r}")
    n, kind = lines.expect_key("kind")
    if kind != "groupoid":
        raise ParseError(n, f"expected a groupoid file, found kind {kind!r}")
    n, field_desc = lines.expect_key("field")
    try:
        field = parse_field(field_desc)
    except ValueError as exc:
        raise ParseError(n, str(exc))

    lines.expect_key("groupoid")
    n, size_text = lines.expect_key("size")
    if not size_text.isdigit() or int(size_text) < 1:
        raise ParseError(n, f"bad groupoid size {size_text!r}")
    size = int(size_text)
    n, names_text = lines.expect_key("names")
    names = _split_names(names_text, size, n, "element names")
    index = _name_index(names)
    n, units_text = lines.expect_key("units")
    units = _lookup_all(index, units_text.split(), n, "element")
    if len(set(units)) != len(units) or not units:
        raise ParseError(n, "units must be a nonempty list without repeats")
    n, src_text = lines.expect_key("source")
    source = _lookup_all(index, _split_row(src_text, size, n, "source entries"), n, "element")
    n, tgt_text = lines.expect_key("target")
    target = _lookup_all(index, _split_row(tgt_text, size, n, "target entries"), n, "element")
    lines.expect_key("compose")
    entries = {**index, ".": None}    # "." is no composite, whatever the names
    table = []
    for _ in range(size):
        if lines.done():
            raise ParseError(lines.rows[-1][0], "composition table is short")
        n, body = lines.take()
        row = body.split()
        if len(row) != size:
            raise ParseError(n, f"expected {size} entries, found {len(row)}")
        table.append(_lookup_all(entries, row, n, "element"))
    if not lines.done():
        raise ParseError(lines.peek()[0], f"unexpected trailing line {lines.peek()[1]!r}")
    try:
        groupoid = FiniteGroupoid(size, units, source, target, table, names)
    except ValueError as exc:
        raise ParseError(lines.rows[-1][0], str(exc))
    return groupoid, field


def serialize_groupoid(groupoid: FiniteGroupoid, field: Field) -> str:
    names = [groupoid.name(g) for g in range(groupoid.size)]
    out = [
        f"format: {FORMAT_VERSION}",
        "kind: groupoid",
        f"field: {field_text(field)}",
        "",
        "groupoid:",
        f"  size: {groupoid.size}",
        f"  names: {' '.join(names)}",
        f"  units: {' '.join(names[u] for u in groupoid.units)}",
        f"  source: {' '.join(names[groupoid.source[g]] for g in range(groupoid.size))}",
        f"  target: {' '.join(names[groupoid.target[g]] for g in range(groupoid.size))}",
        "  compose:",
    ]
    for row in groupoid.table:
        out.append("    " + " ".join("." if c is None else names[c] for c in row))
    return "\n".join(out) + "\n"


def file_kind(text: str) -> str:
    """Peek at the kind declared by a file."""
    lines = _Lines(text)
    lines.expect_key("format")
    n, kind = lines.expect_key("kind")
    if kind not in ("system", "groupoid"):
        raise ParseError(n, f"unknown kind {kind!r}")
    return kind


# ---------------------------------------------------------------------------
# generator expressions

def parse_generator(cp, text: str) -> tuple:
    """A crossed product element written as '+'-joined terms: each term
    is an optional coefficient, a dot ('·' or '*'), and a label that is
    either "point:element" (one basis coset) or a bare element name (the
    indicator section of that element's range)."""
    f = cp.field
    total = None
    stripped = text.strip()
    if not stripped:
        raise ValueError("empty generator expression")
    for chunk in stripped.split("+"):
        term = chunk.strip()
        if not term:
            raise ValueError(f"empty term in generator {text!r}")
        coeff = f.one
        for dot in ("·", "*"):
            if dot in term:
                coeff_text, _, rest = term.partition(dot)
                try:
                    coeff = parse_scalar(f, coeff_text.strip())
                except ValueError:
                    continue  # the dot belongs to the label, e.g. "s*"
                term = rest.strip()
                break
        if ":" in term:
            point_text, _, elem_text = term.partition(":")
            y = cp.system.point_index(point_text.strip())
            s = cp.system.semigroup.element_index(elem_text.strip())
            vec = cp.term(y, s)
        else:
            s = cp.system.semigroup.element_index(term)
            vec = cp.indicator_term(s)
        scaled = tuple(f.mul(coeff, v) for v in vec)
        total = scaled if total is None else tuple(
            f.add(a, b) for a, b in zip(total, scaled))
    return total


def generator_text(cp, vec) -> str:
    """Canonical text for a crossed product element."""
    f = cp.field
    parts = []
    for i, c in enumerate(vec):
        if not f.is_zero(c):
            parts.append(f"{scalar_text(f, c)}·{cp.algebra.labels[i]}")
    return " + ".join(parts) if parts else "0"

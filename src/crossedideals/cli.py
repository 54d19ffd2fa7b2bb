"""Command-line front-end: ingest systems and groupoids from files, run
the constructions and verifications, and emit deterministic reports.

Every command prints a plain-text summary and optionally writes the same
report as JSON.  Exit codes: 0 on success / all verified, 1 on a
verification failure (first witness reported), 2 on parse or guard
errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .bundles import crossed_product
from .exactlin import (
    GF,
    GuardError,
    PrimeField,
    StructureError,
    enumerate_ideals,
    ideal_generate,
    parse_field,
)
from .fixtures import FIXTURES
from .formats import (
    ParseError,
    field_text,
    file_kind,
    generator_text,
    parse_generator,
    parse_groupoid,
    parse_system,
)
from .groupoids import germ_groupoid, steinberg_algebra, steinberg_as_crossed_product, steinberg_isomorphism
from .induction import decompose_ideal

CP_GUARD = 64
BISECTION_GUARD = 12
ORACLE_GUARD = 6


class CommandFailure(Exception):
    """A verification failed; carries the report describing the witness."""

    def __init__(self, message: str, report):
        super().__init__(message)
        self.report = report


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(0, f"cannot read {path}: {exc}")


def _germ_count(system) -> int:
    return sum(len(system.germs_at(x)) for x in range(system.space_size))


def _guarded_crossed_product(system, field, guard: int):
    count = _germ_count(system)
    if count > guard:
        raise GuardError(
            f"crossed product dimension {count} exceeds the guard {guard}")
    return crossed_product(system, field)


def _algebra_report(algebra) -> dict:
    products = []
    for i in range(algebra.dim):
        for j in range(algebra.dim):
            result = algebra.element_to_text(algebra.basis_product(i, j))
            products.append({
                "left": algebra.labels[i],
                "right": algebra.labels[j],
                "result": result,
            })
    return {
        "dimension": algebra.dim,
        "basis": list(algebra.labels),
        "products": products,
    }


def _algebra_text(report: dict) -> list:
    lines = [f"dimension: {report['dimension']}",
             f"basis: {' '.join(report['basis'])}",
             f"structure constants ({len(report['products'])} rows):"]
    for row in report["products"]:
        lines.append(f"  {row['left']} * {row['right']} = {row['result']}")
    return lines


# ---------------------------------------------------------------------------
# command bodies: each takes (input, field, guard, generators) and returns
# a JSON-ready dict and text lines

def _run_validate_system(system, field, guard, generators):
    report = system.validate()
    body = {
        "kind": "system",
        "ok": report.ok,
        "field": field_text(field),
        "semigroup_size": system.semigroup.size,
        "space_size": system.space_size,
    }
    if not report.ok:
        body["rule"] = report.rule
        body["witness"] = [str(w) for w in (report.witness or ())]
        raise CommandFailure(f"invalid system: {report.rule} {body['witness']}", body)
    text = [f"valid system: {system.semigroup.size} elements acting on "
            f"{system.space_size} points over {field_text(field)}"]
    return body, text


def _run_validate_groupoid(groupoid, field, guard, generators):
    report = groupoid.validate()
    body = {
        "kind": "groupoid",
        "ok": report.ok,
        "field": field_text(field),
        "size": groupoid.size,
        "units": len(groupoid.units),
    }
    if not report.ok:
        body["rule"] = report.rule
        body["witness"] = [str(w) for w in (report.witness or ())]
        raise CommandFailure(f"invalid groupoid: {report.rule} {body['witness']}", body)
    text = [f"valid groupoid: {groupoid.size} elements, "
            f"{len(groupoid.units)} units, over {field_text(field)}"]
    return body, text


def _run_build_system(system, field, guard, generators):
    cp = _guarded_crossed_product(system, field, guard)
    body = {"kind": "crossed-product", "field": field_text(field)}
    body.update(_algebra_report(cp.algebra))
    text = [f"crossed product over {field_text(field)}"] + _algebra_text(body)
    return body, text


def _run_build_groupoid(groupoid, field, guard, generators):
    algebra = steinberg_algebra(groupoid, field)
    body = {"kind": "groupoid-algebra", "field": field_text(field)}
    body.update(_algebra_report(algebra))
    text = [f"groupoid convolution algebra over {field_text(field)}"]
    text += _algebra_text(body)
    return body, text


def _run_germs(system, field, guard, generators):
    model = germ_groupoid(system)
    sys_ = model.system
    germs = []
    for i, g in enumerate(model.germs):
        germs.append({
            "name": sys_.germ_name(g),
            "source": sys_.point_name(g.point),
            "target": sys_.point_name(sys_.germ_target(g)),
            "unit": i in model.groupoid.units,
        })
    orbits = []
    for x in sys_.orbit_representatives():
        orbits.append([sys_.point_name(y) for y in sys_.orbit(x)])
    isotropy = {}
    for x in range(sys_.space_size):
        iso = sys_.isotropy_group(x)
        isotropy[sys_.point_name(x)] = {
            "order": iso.size,
            "members": [sys_.germ_name(g) for g in iso.members],
        }
    body = {
        "kind": "germ-groupoid",
        "germ_count": model.size,
        "germs": germs,
        "orbits": orbits,
        "isotropy": isotropy,
    }
    text = [f"germ groupoid: {model.size} germs, "
            f"{len(model.groupoid.units)} units, {len(orbits)} orbit(s)"]
    for g in germs:
        mark = " (unit)" if g["unit"] else ""
        text.append(f"  {g['name']}: {g['source']} -> {g['target']}{mark}")
    for points in orbits:
        text.append("  orbit: " + " ".join(points))
    for point in sorted(isotropy):
        info = isotropy[point]
        text.append(f"  isotropy at {point}: order {info['order']} "
                    f"({' '.join(info['members'])})")
    return body, text


def _run_decompose(system, field, guard, generators):
    cp = _guarded_crossed_product(system, field, guard)
    vectors = [parse_generator(cp, g) for g in generators]
    ideal = ideal_generate(cp.algebra, vectors)
    body = {
        "kind": "decomposition",
        "field": field_text(field),
        "dimension": cp.dim,
        "generators": [generator_text(cp, v) for v in vectors],
        "ideal_dimension": ideal.dim,
    }
    try:
        cert = decompose_ideal(cp, ideal)
    except StructureError as exc:
        body["ok"] = False
        body["rule"] = exc.rule
        body["witness"] = str(exc.witness)
        raise CommandFailure(f"decomposition failed: {exc}", body)
    body["ok"] = True
    body["certificate"] = cert.to_json(cp)
    text = [f"crossed product dimension {cp.dim} over {field_text(field)}",
            f"ideal dimension {ideal.dim} "
            f"(generated by {len(generators) or 'no'} generator(s))"]
    for entry in cert.points:
        x = entry.point
        text.append(
            f"  at {cp.system.point_name(x)}: restriction dim {entry.gamma_ideal.dim}"
            f" (admissible), induced dim {entry.induced.dim}")
    text.append("intersection equals the ideal: exact")
    return body, text


def _run_isocheck(system, field, guard, generators):
    cp = _guarded_crossed_product(system, field, guard)
    iso = steinberg_isomorphism(cp)
    body = {"kind": "section-groupoid-isomorphism",
            "field": field_text(field), "ok": True}
    body.update(iso.to_json())
    text = [f"crossed product == germ groupoid algebra: dimension {cp.dim}, "
            "multiplicative on all basis pairs, restriction triangles verified"]
    for label in cp.algebra.labels:
        text.append(f"  {label} -> {body['basis_map'][label]}")
    return body, text


def _run_bisect(groupoid, field, guard, generators):
    model = steinberg_as_crossed_product(groupoid, field, guard)
    body = {"kind": "bisection-model", "field": field_text(field), "ok": True}
    body.update(model.to_json())
    text = [
        f"groupoid of {groupoid.size} elements: {body['bisections']} bisections",
        f"crossed product of the intrinsic action has dimension "
        f"{body['crossed_product_dim']}; algebra isomorphism verified",
    ]
    for label in sorted(body["basis_map"]):
        text.append(f"  {label} -> {body['basis_map'][label]}")
    return body, text


def _run_oracle(system, field, guard, generators):
    if not isinstance(field, PrimeField):
        raise GuardError("the exhaustive oracle needs a prime field")
    cp = _guarded_crossed_product(system, field, CP_GUARD)
    ideals = enumerate_ideals(cp.algebra, dim_limit=guard)
    rows = []
    for ideal in ideals:
        cert = decompose_ideal(cp, ideal)
        rows.append({
            "dimension": ideal.dim,
            "basis": [generator_text(cp, v) for v in ideal.basis],
            "exact": cert.exact,
        })
    body = {
        "kind": "ideal-oracle",
        "field": field_text(field),
        "dimension": cp.dim,
        "ideal_count": len(ideals),
        "ideals": rows,
    }
    text = [f"crossed product dimension {cp.dim} over {field_text(field)}: "
            f"{len(ideals)} two-sided ideals, all decompositions exact"]
    for row in rows:
        basis = "; ".join(row["basis"]) if row["basis"] else "0"
        text.append(f"  dim {row['dimension']}: {basis}")
    return body, text


# ---------------------------------------------------------------------------
# command dispatch

# verb -> (runner on a system, runner on a groupoid, default guard); a
# missing runner means the verb does not take that kind of file.  In
# fixture mode a groupoid-only verb runs on each fixture's germ groupoid.
VERBS = {
    "validate": (_run_validate_system, _run_validate_groupoid, None),
    "build": (_run_build_system, _run_build_groupoid, CP_GUARD),
    "germs": (_run_germs, None, None),
    "decompose": (_run_decompose, None, CP_GUARD),
    "isocheck": (_run_isocheck, None, CP_GUARD),
    "oracle": (_run_oracle, None, ORACLE_GUARD),
    "bisect": (None, _run_bisect, BISECTION_GUARD),
}


def _dispatch(args) -> tuple:
    """Run the command on the named file or across the built-in fixtures."""
    run_system, run_groupoid, guard = VERBS[args.command]
    if args.guard_dim is not None:
        guard = args.guard_dim
    generators = getattr(args, "generators", [])
    if args.fixtures:
        field = parse_field(args.field) if args.field else GF(2)
        sections = {}
        text = []
        for name in sorted(FIXTURES):
            system = FIXTURES[name]()
            if run_system is None:
                body, lines = run_groupoid(germ_groupoid(system).groupoid, field,
                                           guard, generators)
            else:
                body, lines = run_system(system, field, guard, generators)
            sections[name] = body
            text.append(f"[{name}]")
            text.extend("  " + line for line in lines)
        return {"kind": "fixture-suite", "command": args.command,
                "fixtures": sections}, text
    source = _read(args.path)
    kind = file_kind(source)
    field_override = parse_field(args.field) if args.field else None
    if kind == "system":
        target, field = parse_system(source)
        run, wanted = run_system, "groupoid"
    else:
        target, field = parse_groupoid(source)
        run, wanted = run_groupoid, "system"
    if run is None:
        raise ParseError(0, f"command {args.command} expects a {wanted} file")
    return run(target, field_override or field, guard, generators)


def _emit(args, body, text_lines, code: int) -> int:
    """Write the JSON report, then print the text; returns code, or 2 with
    a message when the report cannot be written."""
    if args.json_out:
        payload = json.dumps(body, sort_keys=True, indent=2) + "\n"
        try:
            Path(args.json_out).write_text(payload, encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write {args.json_out}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 2
    for line in text_lines:
        print(line)
    return code


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused after."""
    parser = argparse.ArgumentParser(
        prog="crossedideals",
        description="Crossed products of inverse semigroup actions: "
                    "constructions, certificates, and exhaustive checks.")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "validate": "validate a system or groupoid file",
        "build": "print the algebra built from a file (structure constants)",
        "germs": "print the germ groupoid of a system",
        "decompose": "certify an ideal as an intersection of induced ideals",
        "isocheck": "verify the crossed product == germ groupoid algebra bridge",
        "bisect": "rebuild a groupoid algebra from its bisection action",
        "oracle": "decompose every two-sided ideal (prime fields, dim-guarded)",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("path", nargs="?", help="input file (system or groupoid)")
        if name == "decompose":
            p.add_argument("generators", nargs="*",
                           help="ideal generators like '1·a:g + 1·b:g'")
        p.add_argument("--field", help="override the file's field (e.g. 'F 3', 'Q')")
        p.add_argument("--guard-dim", type=int,
                       help="override the command's dimension guard (a positive integer)")
        p.add_argument("--json-out", help="also write the report as JSON")
        p.add_argument("--fixtures", action="store_true",
                       help="run on the built-in fixture suite instead of a file")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not args.fixtures and not args.path:
        print("error: a file path is required unless --fixtures is given",
              file=sys.stderr)
        return 2
    if args.guard_dim is not None and args.guard_dim < 1:
        print(f"error: --guard-dim must be a positive integer, got {args.guard_dim}",
              file=sys.stderr)
        return 2
    try:
        body, text = _dispatch(args)
    except CommandFailure as exc:
        return _emit(args, exc.report, [f"FAILED: {exc}"], 1)
    except StructureError as exc:
        return _emit(args, {"ok": False, "rule": exc.rule, "witness": str(exc.witness)},
                     [f"FAILED: {exc}"], 1)
    except (ParseError, GuardError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _emit(args, body, text, 0)


if __name__ == "__main__":
    sys.exit(main())

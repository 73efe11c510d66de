"""Command-line front end: body, global, weights, and verify subcommands.

Every command takes its settings (``_SETTINGS``) from flags over an optional
JSON config file, validates them, runs the exact engines, and emits a
deterministic JSON document (sorted keys, integers as decimal strings,
rationals as [numerator, denominator] string pairs).  The config, matrix and
torus projection files are all read by ``rootsys.read_json``, so a file that
cannot be read or decoded is invalid input.  Exit codes: 0 on success, 2 on
invalid input, 3 on computational instability, 4 on a failed verification
or cross-check.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from fractions import Fraction
from typing import Sequence

from ._kernel import rank
from ._poly import integer_rows
from .errors import (
    EngineError,
    SpanDeficiency,
    Unstable,
    ValidationError,
)
from .okounkov import OkounkovEngine
from .picard import (
    Basis,
    DivisorClass,
    PicardLattice,
    format_divisor,
    parse_divisor,
)
from .polyhedra import (
    _int_row,
    _pair,
    cone_payload,
    polytope_from_payload,
    polytope_payload,
)
from .rootsys import CartanDatum, Weight, WeylWord, read_json
from .sections import EQUIVARIANCE_TRIALS
from .valuation import adapted_basis, valuation
from .weights import multiplicity_asymptotics

# Every setting of a command and its value when unset.  A default of None
# takes a string; any other default fixes the setting's JSON type.
_SETTINGS = {"type": None, "matrix_file": None, "word": None, "bundle": None,
             "mu": None, "torus_proj_file": None, "out": None,
             "quick": False, "max_level": 4, "box": 2, "seed": 1}
_KINDS = {str: "a string", bool: "true or false", int: "an integer"}


def _parse_word(text: str) -> WeylWord:
    if not text.strip():
        raise ValidationError("word must be a nonempty comma list")
    parts = text.split(",")
    if not all(part.strip() for part in parts):
        raise ValidationError(f"bad word {text!r}: empty entry")
    try:
        return WeylWord(int(part) for part in parts)
    except ValueError as exc:
        raise ValidationError(f"bad word {text!r}: {exc}") from exc


def _parse_mu(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(part.strip()) for part in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad weight {text!r}: {exc}") from exc


def _setting(key: str, value):
    """A setting's value, or its default when unset; a value of another JSON
    type than the default's, a bool or a float for an integer included, is
    bad input."""
    default = _SETTINGS[key]
    if value is None:
        return default
    kind = str if default is None else default.__class__
    if value.__class__ is not kind:
        raise ValidationError(f"{key} must be {_KINDS[kind]}, got {value!r}")
    return value


def _build_config(args: argparse.Namespace,
                  need_word: bool) -> argparse.Namespace:
    """The settings of one command, each flag over the config file's value,
    with the datum, word, weight and torus projection parsed.  The integer
    settings are checked last, so the first bad setting is reported in one
    order: strings, quick, the parsed inputs, then the integers."""
    given = {}
    if args.config:
        given = read_json(args.config)
        if not isinstance(given, dict):
            raise ValidationError("config file must hold a JSON object")
        unknown = sorted(set(given) - set(_SETTINGS))
        if unknown:
            raise ValidationError(
                f"unknown config keys: {', '.join(unknown)}")
    config = argparse.Namespace()
    for key, default in _SETTINGS.items():
        value = getattr(args, key)
        if value is None:
            value = given.get(key)
        if default.__class__ is not int:
            value = _setting(key, value)
        setattr(config, key, value)
    if config.type is not None and config.matrix_file is not None:
        raise ValidationError("give either a type or a matrix file, not both")
    config.datum = None
    if config.type is not None:
        config.datum = CartanDatum.from_type(config.type)
    elif config.matrix_file is not None:
        config.datum = CartanDatum.from_matrix_file(config.matrix_file)
    elif need_word:
        raise ValidationError("a Cartan type or matrix file is required")
    if config.word is not None:
        config.word = _parse_word(config.word)
    elif need_word:
        raise ValidationError("a reduced word is required")
    if config.mu is not None:
        config.mu = _parse_mu(config.mu)
    config.torus_projection = None
    if config.torus_proj_file is not None:
        config.torus_projection = read_json(config.torus_proj_file)
        if not isinstance(config.torus_projection, list):
            raise ValidationError(
                "torus projection file must hold a JSON array of rows")
    for key, default in _SETTINGS.items():
        if default.__class__ is int:
            setattr(config, key, _setting(key, getattr(config, key)))
    return config


def _require_bundle(config: argparse.Namespace) -> DivisorClass:
    if config.bundle is None:
        raise ValidationError("a --bundle value such as can:1,1 is required")
    return parse_divisor(config.bundle, len(config.word))


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ValidationError(
            f"cannot write {out}: {exc.strerror or exc}") from None


def _volume_report(report: dict) -> dict:
    return {
        "levels": report["levels"],
        "hull_volume": _pair(report["hull_volume"]),
        "target_volume": _pair(report["target_volume"]),
        "gap": _pair(report["gap"]),
        "stabilized": report["stabilized"],
        "certified": report["certified"],
    }


def cmd_body(config: argparse.Namespace) -> dict:
    divisor = _require_bundle(config)
    lattice = PicardLattice(config.datum, config.word)
    engine = OkounkovEngine(lattice)
    body = engine.body(divisor, config.max_level)
    payload = {
        "word": list(config.word.indices),
        "divisor": format_divisor(divisor),
        "max_level": config.max_level,
        "body": polytope_payload(body.polytope),
    }
    if lattice.is_nef(divisor):
        payload["volume_check"] = _volume_report(
            engine.volume_check(divisor, config.max_level))
    else:
        payload["volume_check"] = {"skipped": "divisor is not nef"}
    return payload


def cmd_global(config: argparse.Namespace) -> dict:
    lattice = PicardLattice(config.datum, config.word)
    engine = OkounkovEngine(lattice)
    approx = engine.global_cone(config.max_level, config.box)
    return {
        "word": list(config.word.indices),
        "max_level": config.max_level,
        "box": config.box,
        "generators": [_int_row(g) for g in approx.generators],
        "cone": cone_payload(approx.cone),
        "saturated": approx.saturated,
    }


def cmd_weights(config: argparse.Namespace) -> dict:
    divisor = _require_bundle(config)
    if config.mu is None:
        raise ValidationError("a --mu value such as 0,0 is required")
    lattice = PicardLattice(config.datum, config.word)
    report = multiplicity_asymptotics(lattice, divisor, config.mu,
                                      config.max_level,
                                      config.torus_projection)
    return {
        "word": list(config.word.indices),
        "divisor": format_divisor(divisor),
        "mu": [_pair(v) for v in config.mu],
        "max_level": config.max_level,
        "levels": [
            {
                "level": row["level"],
                "dimension": row["dimension"],
                "ratio": _pair(row["ratio"]),
            }
            for row in report["levels"]
        ],
        "slice_vertices": [[_pair(c) for c in vertex]
                           for vertex in report["slice_vertices"]],
        "slice_volume": _pair(report["slice_volume"]),
        "body_dimension": report["body_dimension"],
        "weight_dimension": report["weight_dimension"],
        "codimension": report["codimension"],
    }


# ----- verify ----------------------------------------------------------------


def _combined_rank(bases: Sequence[Sequence]) -> int:
    polys = [section.poly for basis in bases for section in basis]
    monomials = sorted({mono for poly in polys
                        for mono in poly.terms})
    index = {mono: i for i, mono in enumerate(monomials)}
    return rank(integer_rows(polys, index))


def _check_counting(lattice: PicardLattice, engine: OkounkovEngine,
                    coord_max: int, level_max: int) -> str:
    n = len(lattice.word)
    checked = 0
    for coords in itertools.product(range(coord_max + 1), repeat=n):
        divisor = DivisorClass(coords, Basis.CANONICAL)
        for k in range(1, level_max + 1):
            count = engine.level_count(divisor, k)
            dim = lattice.section_dimension(
                DivisorClass(tuple(k * c for c in coords), Basis.CANONICAL))
            if count != dim:
                raise VerifyFailed(
                    f"class can:{coords} level {k}: {count} valuation "
                    f"points vs dimension {dim}")
            checked += 1
    return f"{checked} (class, level) pairs"


def _check_nef_glue(engine, coords) -> str:
    nef = engine.section_basis_nef(coords)
    glue = engine.section_basis_glue(can=coords)
    if len(nef) != len(glue):
        raise VerifyFailed(f"dims differ: {len(nef)} vs {len(glue)}")
    combined = _combined_rank([nef, glue])
    if combined != len(nef):
        raise VerifyFailed(
            f"span differs: joint rank {combined} vs dimension {len(nef)}")
    return f"dimension {len(nef)}, equal span"


def _check_equivariance(engine, coords, seed: int) -> str:
    basis = engine.section_basis_nef(coords)
    failures = engine.equivariance_failures(basis, coords, seed=seed)
    if failures:
        raise VerifyFailed(f"{failures} failed specializations")
    return f"{len(basis)} sections x {EQUIVARIANCE_TRIALS} specializations"


def _check_global(engine, levels, box, expected_rays) -> str:
    approx = engine.global_cone(levels, box)
    if not approx.saturated:
        raise VerifyFailed(f"not saturated at ({levels}, {box})")
    if expected_rays is not None \
            and tuple(sorted(approx.rays)) != expected_rays:
        raise VerifyFailed(f"rays {sorted(approx.rays)}")
    return f"{len(approx.rays)} extreme rays, saturated"


def _check_volume(engine, coords, levels) -> str:
    report = engine.volume_check(DivisorClass(coords, Basis.CANONICAL),
                                 levels)
    if not report["certified"]:
        raise VerifyFailed(f"gap {report['gap']}")
    return f"volume {report['hull_volume']} certified"


def _check_restriction(engine, coords, levels) -> str:
    report = engine.restriction_check(DivisorClass(coords, Basis.CANONICAL),
                                      levels)
    if not report["equal"]:
        raise VerifyFailed("image and intrinsic bodies differ")
    return "restricted body matches"


def _check_body_roundtrip(engine, coords, levels) -> str:
    body = engine.body(DivisorClass(coords, Basis.CANONICAL), levels)
    rebuilt = polytope_from_payload(polytope_payload(body.polytope))
    if rebuilt != body.polytope:
        raise VerifyFailed("payload round-trip changed the polytope")
    return f"{len(body.polytope.vertices)} vertices round-trip"


def _check_weights(lattice, divisor, levels) -> str:
    report = multiplicity_asymptotics(lattice, divisor, (0, 0), levels)
    dims = [row["dimension"] for row in report["levels"]]
    if dims != [k + 1 for k in range(1, levels + 1)]:
        raise VerifyFailed(f"dimension sequence {dims}")
    if report["slice_volume"] != 1:
        raise VerifyFailed(f"slice volume {report['slice_volume']}")
    return f"dimensions {dims}, slice volume 1"


def _check_adapted(engine, coords) -> str:
    basis = adapted_basis(engine.section_basis_nef(coords))
    values = [valuation(section) for section in basis]
    if len(set(values)) != len(values):
        raise VerifyFailed("valuations collide after adaptation")
    return f"{len(values)} distinct valuations"


class VerifyFailed(Exception):
    """One verify-suite invariant did not hold; details in the message."""


def _verify_battery(quick: bool, seed: int) -> list[dict]:
    a1 = CartanDatum.from_type("A1")
    a2 = CartanDatum.from_type("A2")
    lat1 = PicardLattice(a1, WeylWord([1]))
    ok1 = OkounkovEngine(lat1)
    lat2 = PicardLattice(a2, WeylWord([1, 2]))
    ok2 = OkounkovEngine(lat2)
    lat3 = PicardLattice(a2, WeylWord([1, 2, 1]))
    ok3 = OkounkovEngine(lat3)
    golden2 = ((0, 0, 1, 0), (0, 0, 1, 1), (0, 1, 0, 1), (1, 0, 1, 0))
    suites = [
        ("A1:(1)", "counting-identity",
         lambda: _check_counting(lat1, ok1, 2 if quick else 5,
                                 3 if quick else 6)),
        ("A1:(1)", "global-cone-rays",
         lambda: _check_global(ok1, 3, 3, ((0, 1), (1, 1)))),
        ("A2:(1,2)", "basis-change-probes",
         lambda: f"matrix {lat2.change.matrix}"),
        ("A2:(1,2)", "counting-identity",
         lambda: _check_counting(lat2, ok2, 1 if quick else 2,
                                 2 if quick else 6)),
        ("A2:(1,2)", "nef-glue-agreement",
         lambda: _check_nef_glue(lat2.engine, (1, 1))),
        ("A2:(1,2)", "equivariance",
         lambda: _check_equivariance(lat2.engine, (1, 1), seed)),
        ("A2:(1,2)", "volume-identity",
         lambda: _check_volume(ok2, (1, 1), 3)),
        ("A2:(1,2)", "global-cone-saturation",
         lambda: _check_global(ok2, 6, 3, golden2)),
        ("A2:(1,2)", "restriction-identity",
         lambda: _check_restriction(ok2, (0, 1), 4)),
        ("A2:(1,2)", "adapted-valuations",
         lambda: _check_adapted(lat2.engine, (1, 1))),
        ("A2:(1,2)", "polytope-round-trip",
         lambda: _check_body_roundtrip(ok2, (1, 1), 3)),
        ("A2:(1,2,1)", "basis-change-probes",
         lambda: f"matrix {lat3.change.matrix}"),
        ("A2:(1,2,1)", "weight-asymptotics",
         lambda: _check_weights(lat3, lat3.pullback_from_flag_variety(
             Weight((1,) * a2.rank)), 3 if quick else 6)),
    ]
    if not quick:
        b2 = CartanDatum.from_type("B2")
        latb = PicardLattice(b2, WeylWord([1, 2]))
        okb = OkounkovEngine(latb)
        suites.extend([
            ("B2:(1,2)", "counting-identity",
             lambda: _check_counting(latb, okb, 2, 6)),
            ("B2:(1,2)", "nef-glue-agreement",
             lambda: _check_nef_glue(latb.engine, (1, 1))),
            ("B2:(1,2)", "equivariance",
             lambda: _check_equivariance(latb.engine, (1, 1), seed)),
            ("B2:(1,2)", "global-cone-saturation",
             lambda: _check_global(okb, 6, 3, None)),
            ("A2:(1,2,1)", "counting-identity",
             lambda: _check_counting(lat3, ok3, 1, 3)),
        ])
    rows = []
    for case, invariant, check in suites:
        try:
            details = check()
            status = "pass"
        except VerifyFailed as exc:
            details, status = str(exc), "fail"
        except EngineError as exc:
            details, status = f"{type(exc).__name__}: {exc}", "fail"
        rows.append({"case": case, "invariant": invariant,
                     "status": status, "details": details})
    return rows


def cmd_verify(config: argparse.Namespace) -> dict:
    rows = _verify_battery(config.quick, config.seed)
    return {
        "quick": config.quick,
        "seed": config.seed,
        "report": rows,
        "passed": all(row["status"] == "pass" for row in rows),
    }


# ----- entry point -----------------------------------------------------------

# Each subcommand: its help line and the handler that builds its payload.
_COMMANDS = {
    "body": ("Okounkov body of one divisor class, with the volume "
             "cross-check", cmd_body),
    "global": ("global valuation cone over a box of classes", cmd_global),
    "weights": ("weight multiplicities against the sliced body",
                cmd_weights),
    "verify": ("run the invariant battery and report pass/fail", cmd_verify),
}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--type", help="Cartan type such as A3, B2, C3, D4 "
                        "or G2")
    parser.add_argument("--matrix-file", dest="matrix_file",
                        help="path to a Cartan matrix file")
    parser.add_argument("--word", help="reduced word as a comma list, "
                        "for example 1,2,1")
    parser.add_argument("--bundle",
                        help="divisor class, for example can:1,1 or eff:1,0")
    parser.add_argument("--max-level", dest="max_level", type=int,
                        help="largest level used in graded computations")
    parser.add_argument("--box", type=int,
                        help="coordinate box for the global cone")
    parser.add_argument("--mu", help="torus weight as a comma list of "
                        "rationals, for example 0,0 or 1/2,-1")
    parser.add_argument("--torus-proj-file", dest="torus_proj_file",
                        help="JSON file with an integer projection matrix "
                        "applied to all torus weights")
    parser.add_argument("--out", help="output JSON path (default: stdout)")
    parser.add_argument("--seed", type=int,
                        help="seed for randomized property checks")
    parser.add_argument("--quick", action="store_const", const=True,
                        default=None, help="run the reduced battery")
    parser.add_argument("--config",
                        help="JSON config file mirroring the flags; "
                        "explicit flags win")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are one-line ValidationErrors, so a
    malformed command line exits 2 like any other bad input."""

    def error(self, message: str):
        raise ValidationError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bottsam",
        description="Exact Okounkov-body computations for Bott-Samelson "
        "varieties.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, _) in _COMMANDS.items():
        _add_common(sub.add_parser(name, help=text))
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        config = _build_config(args, need_word=args.command != "verify")
        payload = _COMMANDS[args.command][1](config)
        _emit(payload, config.out)
        return 0 if payload.get("passed", True) else 4
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (Unstable, SpanDeficiency) as exc:
        print(f"unstable: {exc}", file=sys.stderr)
        return 3
    except EngineError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

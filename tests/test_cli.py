"""Command line interface: outputs, determinism, exit codes, config."""

from __future__ import annotations

import json
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bottsam
from bottsam import (SpanDeficiency, Unstable, VerificationFailure, cli,
                     okounkov, picard, polyhedra, rootsys, sections, weights)
from bottsam.cli import main

DATA = Path(__file__).parent / "data"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


# File contents the JSON reader cannot decode: bytes that are not UTF-8,
# arrays nested past the recursion limit, an integer past the digit limit.
UNREADABLE = [b"\xff\xfe", ("[" * 200_000 + "]" * 200_000).encode(),
              b"1" * 5001]
UNREADABLE_IDS = ["not-utf8", "nested", "long-integer"]


def unreadable_reason(raw: bytes) -> str:
    """The reader's reason for refusing raw, as this interpreter words it."""
    try:
        json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        return str(exc)
    raise AssertionError("content decodes")


def write_content(path: Path, content) -> None:
    path.write_bytes(content if isinstance(content, bytes)
                     else content.encode())


def test_body_command(capsys):
    code, out = run(capsys, ["body", "--type", "A1", "--word", "1",
                             "--bundle", "can:3"])
    assert code == 0
    data = json.loads(out)
    assert data["divisor"] == "can:3"
    assert sorted(data["body"]["vertices"]) == [[["0", "1"]], [["3", "1"]]]
    assert data["volume_check"]["certified"] is True
    assert data["volume_check"]["hull_volume"] == ["3", "1"]


def test_body_skips_volume_for_non_nef_classes(capsys):
    code, out = run(capsys, ["body", "--type", "A2", "--word", "1,2",
                             "--bundle", "can:-1,1"])
    assert code == 0
    data = json.loads(out)
    assert data["volume_check"] == {"skipped": "divisor is not nef"}
    assert data["body"]["vertices"] == [[["0", "1"], ["1", "1"]]]


def test_global_command(capsys):
    code, out = run(capsys, ["global", "--type", "A1", "--word", "1",
                             "--max-level", "2", "--box", "3"])
    assert code == 0
    data = json.loads(out)
    assert data["saturated"] is True
    assert data["cone"]["rays"] == [["0", "1"], ["1", "1"]]


def _rays(*rays):
    return [[str(v) for v in ray] for ray in rays]


A2_121_RAYS = _rays(
    (0, 0, 0, 0, 1, 1), (0, 0, 0, 1, 0, 0), (0, 0, 0, 1, 1, 0),
    (0, 0, 1, 0, 0, 1), (0, 0, 1, 0, 1, 1), (0, 1, 0, 0, 1, 0),
    (1, 0, 0, 1, 0, 0))
B2_121_RAYS = _rays(
    (0, 0, 0, 1, 0, 0), (0, 0, 0, 1, 1, 0), (0, 0, 1, 0, 0, 1),
    (0, 0, 1, 2, 2, 2), (0, 1, 0, 0, 1, 0), (1, 0, 0, 1, 0, 0),
    (1, 0, 1, 2, 2, 2), (1, 0, 2, 2, 2, 2))


@pytest.mark.parametrize("cartan, saturated, rays, tables, lifts", [
    ("A2", True, A2_121_RAYS, 334, 2_410),
    ("B2", False, B2_121_RAYS, 432, 3_243),
], ids=["A2", "B2"])
def test_length_three_global_cone(tmp_path, capsys, monkeypatch, cartan,
                                  saturated, rays, tables, lifts):
    """Global cones of a word with a repeated letter at level 2 and box 1:
    A2 (1,2,1) is saturated with seven rays, B2 (1,2,1) is not and has
    eight, both with no lineality, and a rerun writes the same bytes.  Off
    the nef cone their classes take the glue route, one table per chart
    and glue call: the A2 step builds 334 of them and the B2 step 432.
    Each glue call solves one box, the proven one, so the A2 step makes
    2,410 lifts and the B2 step 3,243.  When each call doubled its box
    until the dimension settled, sharing the tables and the remainders
    they had divided across its boxes, the steps made 5,334 and 7,401
    lifts (6,864 and 9,432 with no remainders kept, 668 and 864 tables
    when each box built its own)."""
    built = {"tables": 0, "lifts": 0}
    build = sections.SectionEngine._chart_powers
    lift = sections._ChartPowers.lift

    def counted(self, *args):
        built["tables"] += 1
        return build(self, *args)

    def lifted(self, *args):
        built["lifts"] += 1
        return lift(self, *args)

    monkeypatch.setattr(sections.SectionEngine, "_chart_powers", counted)
    monkeypatch.setattr(sections._ChartPowers, "lift", lifted)
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["global", "--type", cartan, "--word", "1,2,1",
            "--max-level", "2", "--box", "1"]
    assert main(argv + ["--out", str(first)]) == 0
    assert built == {"tables": tables, "lifts": lifts}
    assert main(argv + ["--out", str(second)]) == 0
    capsys.readouterr()
    data = json.loads(first.read_text())
    assert data["saturated"] is saturated
    assert data["cone"]["rays"] == rays
    assert data["cone"]["lineality"] == []
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("cartan", ["A2", "B2"])
def test_length_three_global_cone_matches_the_golden_rays(capsys, cartan):
    """The (3,2) steps of A2 and B2 (1,2,1) are saturated, with the seven
    rays of tests/data/golden_rays_{a2,b2}_121.json and no lineality.
    Those rays were found by two earlier routes as well: glue spaces in a
    proven box, and the chart-free oracles.divisible_part.  While glue
    calls doubled their boxes, both steps exited 3 at the degree-box cap
    after about 12 s."""
    golden = json.loads((DATA / f"golden_rays_{cartan.lower()}_121.json")
                        .read_text())
    code, out = run(capsys, [
        "global", "--type", golden["type"], "--word", golden["word"],
        "--max-level", str(golden["max_level"]), "--box", str(golden["box"])])
    assert code == 0
    data = json.loads(out)
    assert data["saturated"] is True
    assert data["cone"]["rays"] == golden["rays"]
    assert data["cone"]["lineality"] == []


def test_weights_command(capsys):
    code, out = run(capsys, ["weights", "--type", "A2", "--word", "1,2,1",
                             "--bundle", "can:0,1,1", "--mu", "0,0",
                             "--max-level", "4"])
    assert code == 0
    data = json.loads(out)
    dims = [row["dimension"] for row in data["levels"]]
    assert dims == [2, 3, 4, 5]
    assert data["slice_volume"] == ["1", "1"]


def test_verify_full_battery(capsys):
    code, out = run(capsys, ["verify"])
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert data["quick"] is False
    assert all(row["status"] == "pass" for row in data["report"])


def test_verify_quick(capsys):
    code, out = run(capsys, ["verify", "--quick"])
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert data["quick"] is True
    assert all(row["status"] == "pass" for row in data["report"])
    assert len(data["report"]) >= 10


def test_an_uncertified_volume_fails_verify_quick_with_exit_4(capsys,
                                                              monkeypatch):
    """A volume check that does not certify is a failed row, and the
    battery exits 4 with the report on stdout."""
    def uncertified(self, divisor, levels):
        return {"certified": False, "gap": Fraction(1, 2),
                "hull_volume": Fraction(1)}

    monkeypatch.setattr(okounkov.OkounkovEngine, "volume_check", uncertified)
    code, out = run(capsys, ["verify", "--quick"])
    assert code == 4
    data = json.loads(out)
    assert data["passed"] is False
    assert [row for row in data["report"] if row["status"] != "pass"] == [
        {"case": "A2:(1,2)", "invariant": "volume-identity",
         "status": "fail", "details": "gap 1/2"}]


def _patched_result(monkeypatch, owner, name, change):
    """Replace owner.name by a call that passes its result through change."""
    call = getattr(owner, name)

    def patched(*args, **kwargs):
        return change(call(*args, **kwargs))

    monkeypatch.setattr(owner, name, patched)


def _with(**fields):
    def change(report):
        report.update(fields)
        return report
    return change


def _unsaturated(approx):
    approx.saturated = False
    return approx


def _glue_short_of_one(monkeypatch):
    glue = sections.SectionEngine.section_basis_glue

    def short(self, can=None, eff=None):
        basis = glue(self, can, eff)
        return basis[:-1] if can == (1, 1) else basis

    monkeypatch.setattr(sections.SectionEngine, "section_basis_glue", short)


def _rays_short_of_one(monkeypatch):
    rays = okounkov.GlobalConeApprox.rays.fget
    monkeypatch.setattr(okounkov.GlobalConeApprox, "rays",
                        property(lambda self: rays(self)[:-1]))


def _payload_short_of_one_vertex(polytope):
    return polyhedra.RationalPolytope.from_points(polytope.vertices[:-1],
                                                  ambient=polytope.ambient)


def _dimensions_off_by_one(report):
    for row in report["levels"]:
        row["dimension"] += 1
    return report


def _failed_probe_run(monkeypatch):
    def refused(engine):
        raise VerificationFailure("probe check failed")

    monkeypatch.setattr(picard, "compute_basis_change", refused)


CHANGE_ROWS = ("A1:(1) global-cone-rays", "A2:(1,2) basis-change-probes",
               "A2:(1,2) global-cone-saturation",
               "A2:(1,2,1) basis-change-probes")
VERIFY_FAULTS = {
    "counting": (
        lambda mp: _patched_result(mp, picard.PicardLattice,
                                   "section_dimension", lambda d: d + 1),
        {"A1:(1) counting-identity":
         "class can:(0,) level 1: 1 valuation points vs dimension 2",
         "A2:(1,2) counting-identity":
         "class can:(0, 0) level 1: 1 valuation points vs dimension 2"}),
    "glue-dimension": (
        _glue_short_of_one,
        {"A2:(1,2) nef-glue-agreement": "dims differ: 5 vs 4"}),
    "glue-span": (
        lambda mp: _patched_result(mp, cli, "rank", lambda r: r + 1),
        {"A2:(1,2) nef-glue-agreement":
         "span differs: joint rank 6 vs dimension 5"}),
    "equivariance": (
        lambda mp: _patched_result(mp, sections.SectionEngine,
                                   "equivariance_failures", lambda f: 3),
        {"A2:(1,2) equivariance": "3 failed specializations"}),
    "saturation": (
        lambda mp: _patched_result(mp, okounkov.OkounkovEngine,
                                   "global_cone", _unsaturated),
        {"A1:(1) global-cone-rays": "not saturated at (3, 3)",
         "A2:(1,2) global-cone-saturation": "not saturated at (6, 3)"}),
    "rays": (
        _rays_short_of_one,
        {"A1:(1) global-cone-rays": "rays [(0, 1)]",
         "A2:(1,2) global-cone-saturation":
         "rays [(0, 0, 1, 0), (0, 0, 1, 1), (0, 1, 0, 1)]"}),
    "restriction": (
        lambda mp: _patched_result(mp, okounkov.OkounkovEngine,
                                   "restriction_check", _with(equal=False)),
        {"A2:(1,2) restriction-identity":
         "image and intrinsic bodies differ"}),
    "round-trip": (
        lambda mp: _patched_result(mp, cli, "polytope_from_payload",
                                   _payload_short_of_one_vertex),
        {"A2:(1,2) polytope-round-trip":
         "payload round-trip changed the polytope"}),
    "weight-dimensions": (
        lambda mp: _patched_result(mp, cli, "multiplicity_asymptotics",
                                   _dimensions_off_by_one),
        {"A2:(1,2,1) weight-asymptotics": "dimension sequence [3, 4, 5]"}),
    "slice-volume": (
        lambda mp: _patched_result(mp, cli, "multiplicity_asymptotics",
                                   _with(slice_volume=Fraction(2))),
        {"A2:(1,2,1) weight-asymptotics": "slice volume 2"}),
    "adapted": (
        lambda mp: mp.setattr(cli, "valuation", lambda section: (0,)),
        {"A2:(1,2) adapted-valuations":
         "valuations collide after adaptation"}),
    "engine-error": (
        _failed_probe_run,
        dict.fromkeys(CHANGE_ROWS,
                      "VerificationFailure: probe check failed")),
}


@pytest.mark.parametrize("fault", VERIFY_FAULTS)
def test_every_verify_row_can_fail(capsys, monkeypatch, fault):
    """Each invariant of verify --quick fails its row when the engine call
    under it gives a wrong answer, and an EngineError fails every row that
    raises it: the battery exits 4 with "passed" false, and only those rows
    fail, with their details."""
    patch, expected = VERIFY_FAULTS[fault]
    patch(monkeypatch)
    code, out = run(capsys, ["verify", "--quick"])
    assert code == 4
    data = json.loads(out)
    assert data["passed"] is False
    assert {f"{row['case']} {row['invariant']}": row["details"]
            for row in data["report"] if row["status"] != "pass"} \
        == expected


def test_verify_quick_counts_nef_characters_in_one_place(capsys,
                                                         monkeypatch):
    """Every nef dimension of verify --quick is SectionEngine.nef_dimension,
    which builds one tail character per tail class: 28 characters.  The
    weights check counts its weight spaces off the labeled level sets, so
    it builds none (3 more when it read them off characters).  Counted
    separately by the picard and okounkov layers, the same pairs took
    70."""
    calls = []
    build = rootsys.bs_character

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("a character built outside the section engine")

    assert not hasattr(weights, "bs_character")
    monkeypatch.setattr(sections, "bs_character", counted)
    for module in (picard, okounkov, rootsys, bottsam):
        monkeypatch.setattr(module, "bs_character", refused)
    code, out = run(capsys, ["verify", "--quick"])
    assert code == 0
    assert json.loads(out)["passed"] is True
    assert len(calls) == 28


@pytest.mark.parametrize("argv, hulls", [
    (["--type", "A2", "--word", "1,2,1", "--bundle", "can:1,1,1",
      "--max-level", "4"], 5),
    (["--type", "A2", "--word", "1,2", "--bundle", "can:2,1",
      "--max-level", "7"], 4),
], ids=["A2-121", "A2-12"])
def test_nef_body_jobs_hull_their_body_once(capsys, monkeypatch, argv,
                                            hulls):
    """A nef body job hulls its body once: the volume check reuses the
    run's scaled hull, and reads stabilization off that hull's vertices,
    so it builds neither the body again (7 and 6 hulls when it did) nor
    the body of one level less.  The rest are slot and class hulls."""
    calls = 0
    build = polyhedra.RationalPolytope.from_points.__func__

    def counted(cls, points, ambient=None):
        nonlocal calls
        calls += 1
        return build(cls, points, ambient)

    monkeypatch.setattr(polyhedra.RationalPolytope, "from_points",
                        classmethod(counted))
    code, out = run(capsys, ["body", *argv])
    assert code == 0
    assert json.loads(out)["volume_check"]["certified"] is True
    assert calls == hulls


def test_output_files_are_byte_identical(tmp_path, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    argv = ["global", "--type", "A2", "--word", "1,2",
            "--max-level", "4", "--box", "2"]
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_config_file_supplies_defaults(tmp_path, capsys):
    config = tmp_path / "job.json"
    config.write_text(json.dumps(
        {"type": "A1", "word": "1", "bundle": "can:2"}))
    code, out = run(capsys, ["body", "--config", str(config)])
    assert code == 0
    assert json.loads(out)["divisor"] == "can:2"


def test_flags_override_the_config_file(tmp_path, capsys):
    config = tmp_path / "job.json"
    config.write_text(json.dumps(
        {"type": "A1", "word": "1", "bundle": "can:2"}))
    code, out = run(capsys, ["body", "--config", str(config),
                             "--bundle", "can:3"])
    assert code == 0
    data = json.loads(out)
    assert data["divisor"] == "can:3"
    assert sorted(data["body"]["vertices"])[-1] == [["3", "1"]]


@pytest.mark.parametrize("key, value", [
    ("max_level", "x"), ("box", [1]), ("seed", {"a": 1})])
def test_non_integer_config_values_exit_2_with_one_line(tmp_path, capsys,
                                                        key, value):
    config = tmp_path / "job.json"
    config.write_text(json.dumps(
        {"type": "A1", "word": "1", "bundle": "can:2", key: value}))
    code = main(["body", "--config", str(config)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.splitlines() == [
        f"error: {key} must be an integer, got {value!r}"]


@pytest.mark.parametrize("key, value, message", [
    ("quick", "false", "quick must be true or false, got 'false'"),
    ("quick", 0, "quick must be true or false, got 0"),
    ("max_level", 2.7, "max_level must be an integer, got 2.7"),
    ("max_level", True, "max_level must be an integer, got True"),
    ("box", False, "box must be an integer, got False"),
    ("seed", 1.0, "seed must be an integer, got 1.0"),
    ("type", 5, "type must be a string, got 5"),
    ("word", [1], "word must be a string, got [1]"),
    ("bundle", {"can": 2}, "bundle must be a string, got {'can': 2}"),
    ("out", False, "out must be a string, got False"),
])
def test_mistyped_config_values_exit_2_with_one_line(tmp_path, capsys, key,
                                                      value, message):
    """A config value of the wrong JSON type is bad input: a string is not
    a bool, and neither a bool nor a float is an integer."""
    config = tmp_path / "job.json"
    config.write_text(json.dumps(
        {"type": "A1", "word": "1", "bundle": "can:2", key: value}))
    code = main(["body", "--config", str(config)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("value", [True, False, None])
def test_config_quick_takes_json_bools(tmp_path, value):
    config = tmp_path / "job.json"
    config.write_text(json.dumps({"quick": value}))
    args = cli._build_parser().parse_args(["verify", "--config", str(config)])
    assert cli._build_config(args, need_word=False).quick is bool(value)


def test_malformed_command_lines_exit_2_with_one_line(capsys):
    code = main(["body", "--type", "A1", "--word", "1", "--bundle", "can:1",
                 "--max-level", "x"])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: argument --max-level: invalid int value: 'x'"]


def test_unknown_config_keys_are_rejected(tmp_path, capsys):
    config = tmp_path / "job.json"
    config.write_text(json.dumps({"type": "A1", "wrd": "1"}))
    code, _ = run(capsys, ["body", "--config", str(config),
                           "--bundle", "can:1", "--word", "1"])
    assert code == 2


def test_validation_errors_exit_2(capsys):
    cases = [
        ["body", "--type", "A1", "--word", "1", "--bundle", "foo:3"],
        ["body", "--type", "Z9", "--word", "1", "--bundle", "can:3"],
        ["body", "--type", "A\u00b2", "--word", "1", "--bundle", "can:3"],
        ["body", "--type", "A1" + "0" * 5000, "--word", "1",
         "--bundle", "can:3"],
        ["body", "--type", "A2", "--word", "1,1", "--bundle", "can:1,1"],
        ["body", "--type", "A2", "--word", "1,,2", "--bundle", "can:1,1"],
        ["body", "--type", "A2", "--word", "1,2,", "--bundle", "can:1,1"],
        ["weights", "--type", "A1", "--word", "1", "--bundle", "can:3"],
        ["body", "--type", "A1", "--matrix-file", "x.json",
         "--word", "1", "--bundle", "can:1"],
    ]
    for argv in cases:
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2, argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv


def test_an_empty_word_exits_2_with_one_line(capsys):
    code = main(["body", "--type", "A2", "--word", "", "--bundle",
                 "can:1,1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: word must be a nonempty comma list"]


@pytest.mark.parametrize("content, message", [
    (None, "cannot read {path}: "),
    ("{bad", "{path} is not valid JSON: "),
    ("[1, 2]", "config file must hold a JSON object"),
] + [(raw, "{path} is not valid JSON: ") for raw in UNREADABLE],
    ids=["missing", "not-json", "array"] + UNREADABLE_IDS)
def test_bad_config_files_exit_2_with_one_line(tmp_path, capsys, content,
                                               message):
    """The message starts as given; the reader's own reason follows."""
    path = tmp_path / "job.json"
    if content is not None:
        write_content(path, content)
    code = main(["body", "--config", str(path), "--type", "A2", "--word",
                 "1,2", "--bundle", "can:1,1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: " + message.format(path=path))


@pytest.mark.parametrize("word", ["1,,2", "1,2,"])
def test_empty_word_entries_exit_2_with_one_line(capsys, word):
    code = main(["body", "--type", "A2", "--word", word,
                 "--bundle", "can:1,1"])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: bad word {word!r}: empty entry"]


@pytest.mark.parametrize("content, message", [
    (None, "cannot read"),
    ("not json", "is not valid JSON"),
    ('{"foo": 1}', "with integer entries"),
    ('{"matrix": [[2, -1.5], [-1, 2]]}', "with integer entries"),
    ('{"matrix": [[2, -2], [-2, 2]]}',
     "root system is not finite; the Cartan matrix is not of finite type"),
] + [(raw, "{path} is not valid JSON: ") for raw in UNREADABLE],
    ids=["missing", "not-json", "no-matrix-key", "non-integer", "affine"]
    + UNREADABLE_IDS)
def test_bad_matrix_files_exit_2(tmp_path, capsys, content, message):
    path = tmp_path / "cartan.json"
    if content is not None:
        write_content(path, content)
    code = main(["body", "--matrix-file", str(path), "--word", "1,2",
                 "--bundle", "can:1,1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message.format(path=path) in err


@pytest.mark.parametrize("name", ["C2", "G2"])
def test_body_on_derived_types_is_certified(capsys, name):
    """Fundamental representations come from the Cartan matrix, so types
    with no hand-made representation run, and their volume identities
    hold."""
    code, out = run(capsys, ["body", "--type", name, "--word", "1,2",
                             "--bundle", "can:1,1", "--max-level", "3"])
    assert code == 0
    assert json.loads(out)["volume_check"]["certified"] is True


@pytest.mark.parametrize("command, extra", [
    ("body", []), ("weights", ["--mu", "0,0"])])
def test_non_effective_class_exits_2_with_one_line(capsys, command, extra):
    """body and weights walk levels through the same checked run, so both
    refuse a class that is not effective with the same line."""
    code = main([command, "--type", "A2", "--word", "1,2",
                 "--bundle", "eff:-1,1", *extra])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: divisor class is not effective; its valuation semigroup "
        "is empty"]


def test_instability_exits_3(capsys, monkeypatch):
    def explode(self, levels, box):
        raise Unstable("synthetic blowup")

    monkeypatch.setattr("bottsam.okounkov.OkounkovEngine.global_cone",
                        explode)
    code = main(["global", "--type", "A1", "--word", "1"])
    capsys.readouterr()
    assert code == 3


def test_glue_box_cap_exits_3_with_one_line(capsys, monkeypatch):
    """The degree-box cap is reachable: a glue dimension that keeps growing
    ends on exit code 3 with one stderr line and no traceback."""
    monkeypatch.setattr("bottsam.sections._BOX_CAP", 4)
    monkeypatch.setattr("bottsam.sections.SectionEngine._initial_box",
                        lambda self, can, eff: (1,) * self.n)
    code = main(["body", "--type", "A2", "--word", "1,2",
                 "--bundle", "eff:1,2", "--max-level", "2"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "unstable: glue dimensions kept growing past the degree-box cap (4)"]


def test_span_deficiency_exits_3_with_one_line(capsys, monkeypatch):
    """Slot products that fail to span are unstable: the probe run's nef
    column check stops there, on exit code 3 with one stderr line."""
    message = "slot products fell short"

    def deficient(self, multidegree):
        raise SpanDeficiency(message)

    monkeypatch.setattr(sections.SectionEngine, "section_basis_nef",
                        deficient)
    code = main(["body", "--type", "A2", "--word", "1,2",
                 "--bundle", "eff:1,2", "--max-level", "1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.splitlines() == [f"unstable: {message}"]


def test_unwritable_output_exits_2_with_one_line(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code = main(["body", "--type", "A1", "--word", "1", "--bundle", "can:1",
                 "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: cannot write {target}: No such file or directory"]
    assert not target.exists()


def test_candidate_guard_exits_3_with_one_line(capsys, monkeypatch):
    """The glue candidate guard is reachable from the command line."""
    monkeypatch.setattr("bottsam.sections._CANDIDATE_GUARD", 10)
    code = main(["body", "--type", "A2", "--word", "1,2,1",
                 "--bundle", "eff:0,1,0", "--max-level", "2"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "unstable: glue candidate box exceeds the supported size"]


def test_lattice_point_guard_exits_3_with_one_line(capsys, monkeypatch):
    """The lattice point guard of the volume check is reachable from the
    command line, and a valid input too large to enumerate is unstable,
    as at the glue-candidate and level-set guards."""
    monkeypatch.setattr("bottsam.polyhedra._LATTICE_POINT_GUARD", 2)
    code = main(["body", "--type", "A2", "--word", "1,2",
                 "--bundle", "can:1,1", "--max-level", "2"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "unstable: lattice point enumeration exceeds the supported size"]


def test_huge_level_set_exits_3_with_one_line(capsys):
    """A level set too large to enumerate is refused before enumeration."""
    code = main(["body", "--type", "A1", "--word", "1",
                 "--bundle", "can:99999", "--max-level", "1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "unstable: level set enumeration exceeds the supported size"]


HUGE = "99999999999999999999"


@pytest.mark.parametrize("argv, message", [
    (["body", "--type", "A2", "--word", "1,2", "--bundle", "can:1,1",
      "--max-level", HUGE], "level count exceeds the supported size"),
    (["weights", "--type", "A2", "--word", "1,2,1", "--bundle", "can:0,1,1",
      "--mu", "0,0", "--max-level", HUGE],
     "level count exceeds the supported size"),
    (["global", "--type", "A2", "--word", "1,2", "--max-level", HUGE,
      "--box", "1"], "global cone class box exceeds the supported size"),
    (["global", "--type", "A2", "--word", "1,2", "--max-level", "2",
      "--box", HUGE], "global cone class box exceeds the supported size"),
], ids=["body", "weights", "global-levels", "global-box"])
def test_unbounded_level_counts_exit_3_at_once(capsys, argv, message):
    """Every level of an effective class holds a point, so a level count
    (or a global class box) beyond the level-set guard is refused before
    any level is computed."""
    start = time.process_time()
    code = main(argv)
    elapsed = time.process_time() - start
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.splitlines() == [f"unstable: {message}"]
    assert elapsed < 1.0


@pytest.mark.parametrize("command, bundle, extra", [
    ("body", "can:1,1", []), ("weights", "can:1,1", ["--mu", "0,0"]),
    ("body", "can:-1,3", [])], ids=["body", "weights", "body-monomial"])
def test_run_past_the_level_set_guard_exits_3_at_once(capsys, command,
                                                       bundle, extra):
    """1000 levels of a class each fit the level-set guard, but together
    they hold far more points: the run is refused before level 1, from the
    summed Demazure dimensions (nef can:1,1) or order-polytope boxes
    (can:-1,3, on the monomial route), instead of running for hours."""
    start = time.process_time()
    code = main([command, "--type", "A2", "--word", "1,2",
                 "--bundle", bundle, "--max-level", "1000", *extra])
    elapsed = time.process_time() - start
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "unstable: level sets of the run exceed the supported size"]
    assert elapsed < 2.0


def test_high_rank_type_a_words_run_quickly(capsys):
    """Charts act on sparse orbit vectors: with dense products of the
    slot matrices, up to 252 x 252 in the exterior powers of C^10, this
    job took 296 s of CPU."""
    start = time.process_time()
    code = main(["body", "--type", "A9", "--word", "1,2,3,4,5",
                 "--bundle", "can:1,1,1,1,1", "--max-level", "1"])
    elapsed = time.process_time() - start
    capsys.readouterr()
    assert code == 0
    assert elapsed < 5.0


def test_high_rank_type_a_models_build_quickly(capsys):
    """The commutator check of the A10 model runs on the stored action
    entries; on dense 462 x 462 matrices it did not finish in 300 s."""
    start = time.process_time()
    code = main(["body", "--type", "A10", "--word", "1",
                 "--bundle", "can:1", "--max-level", "1"])
    elapsed = time.process_time() - start
    capsys.readouterr()
    assert code == 0
    assert elapsed < 2.0


def test_type_a_models_build_only_the_word_letters(capsys):
    """Only the letters of the word get a representation: building every
    exterior power of C^15 made this job take 3.2 s of CPU on A14, and it
    doubled per rank."""
    start = time.process_time()
    code = main(["body", "--type", "A20", "--word", "1",
                 "--bundle", "can:1", "--max-level", "1"])
    elapsed = time.process_time() - start
    capsys.readouterr()
    assert code == 0
    assert elapsed < 2.0


@pytest.mark.parametrize("content, message", [
    ('[["x", 0]]', "torus projection entry 'x' is not an integer"),
    ("[1, 2]", "torus projection rows must be lists of integers"),
    ("[[1.5, 0]]", "torus projection entry 1.5 is not an integer"),
    ("[[true, 0]]", "torus projection entry True is not an integer"),
    ("[]", "torus projection needs at least one row"),
    ('{"a": 1}', "torus projection file must hold a JSON array of rows"),
] + [(raw, "{path} is not valid JSON: " + unreadable_reason(raw))
     for raw in UNREADABLE],
    ids=["string", "flat", "fraction", "boolean", "no-rows", "object"]
    + UNREADABLE_IDS)
def test_bad_projection_files_exit_2_with_one_line(tmp_path, capsys,
                                                   content, message):
    path = tmp_path / "proj.json"
    argv = ["weights", "--type", "A2", "--word", "1,2", "--bundle",
            "can:2,1", "--mu", "1", "--torus-proj-file", str(path),
            "--max-level", "2"]
    write_content(path, content)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: " + message.replace("{path}", str(path))]
    path.write_text("[[1, 0]]")
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["weight_dimension"] == 1


def test_weight_without_an_integral_level_exits_2_with_one_line(capsys):
    """The weight is printed as the comma list of the --mu flag."""
    code = main(["weights", "--type", "A2", "--word", "1,2", "--bundle",
                 "can:2,1", "--mu", "1/2,1/3", "--max-level", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: no level up to 3 makes 1/2,1/3 integral"]


NINE = "1,2,3,4,5,6,7,8,9"


@pytest.mark.parametrize("argv, message", [
    (["body", "--type", "A9", "--word", NINE, "--bundle",
      "can:1,1,1,1,1,1,1,1,1", "--max-level", "3"],
     "polytope ambient dimension must be 1..8"),
    (["body", "--type", "A9", "--word", NINE, "--bundle",
      "eff:1,1,1,1,1,1,1,1,1", "--max-level", "1"],
     "polytope ambient dimension must be 1..8"),
    (["weights", "--type", "A9", "--word", NINE, "--bundle",
      "can:1,1,1,1,1,1,1,1,1", "--mu", "0,0,0,0,0,0,0,0,0"],
     "polytope ambient dimension must be 1..8"),
    (["weights", "--type", "A9", "--word", "1", "--bundle", "can:1",
      "--mu", "0,0,0,0,0,0,0,0,0"],
     "polytope ambient dimension must be 1..8"),
    (["global", "--type", "A5", "--word", "1,2,3,4,5", "--max-level", "1",
      "--box", "1"], "cone ambient dimension must be 1..9"),
], ids=["body", "body-effective", "weights", "weights-rank", "global"])
def test_hulls_past_the_ambient_caps_exit_2_at_once(capsys, argv, message):
    """A body on more than 8 coordinates, a weight polytope on more than
    8 or a cone on more than 9 can never be hulled, so it is refused
    before any level set, run guard or basis change.  The body at level 3
    ran into the run guard (exit 3), the effective body and the cone into
    the probe run of the basis change."""
    start = time.process_time()
    code = main(argv)
    elapsed = time.process_time() - start
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]
    assert elapsed < 1.0


@pytest.mark.parametrize("raw, message", [
    (((1, 0, 0), (0, 1, Fraction(1, 2)), (0, 0, 1)),
     "order matrices give a non-integral basis change: "
     "((1, 0, 0), (0, 1, Fraction(1, 2)), (0, 0, 1))"),
    (((2, 0, 0), (0, 1, 0), (0, 0, 1)),
     "basis change has diagonal entry 2 != 1 at column 1"),
], ids=["non-integral", "diagonal"])
def test_bad_basis_changes_exit_4_with_one_line(capsys, monkeypatch, raw,
                                                message):
    """An effective class needs the basis change, which refuses a matrix
    read off the order matrices that is not integral or has a diagonal
    entry other than 1."""
    monkeypatch.setattr(sections.SectionEngine,
                        "effective_to_canonical_matrix", lambda self: raw)
    code = main(["body", "--type", "A2", "--word", "1,2,1", "--bundle",
                 "eff:0,1,0"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err.splitlines() == [f"verification failure: {message}"]


def test_engine_failures_exit_4(capsys, monkeypatch):
    from bottsam import VerificationFailure

    def explode(self, levels, box):
        raise VerificationFailure("synthetic mismatch")

    monkeypatch.setattr("bottsam.okounkov.OkounkovEngine.global_cone",
                        explode)
    code = main(["global", "--type", "A1", "--word", "1"])
    capsys.readouterr()
    assert code == 4


WORDS = [("A1", "1", ["can:1", "can:2", "eff:1", "can:-1"]),
         ("A2", "1,2", ["can:1,1", "can:0,1", "can:-1,1", "can:1,-1",
                        "eff:1,0", "eff:0,1", "eff:-1,1"])]
MALFORMED = ["", "x", "0", "-1", "1.5", "3", "1,1", "Z9", "foo:1", "can:x",
             "can", "1/0", "--unknown"]


@st.composite
def command_lines(draw):
    """A well-formed command line on A1 (1) or A2 (1,2), levels <= 2 (or
    a huge level count) and box <= 1, then maybe one flag before the level
    dropped with its value and maybe one token replaced by a malformed
    one."""
    command = draw(st.sampled_from(["body", "global", "weights"]))
    cartan, word, bundles = draw(st.sampled_from(WORDS))
    argv = [command, "--type", cartan, "--word", word]
    if command != "global":
        argv += ["--bundle", draw(st.sampled_from(bundles))]
    if command == "weights":
        argv += ["--mu", draw(st.sampled_from(
            ["0", "1", "0,0", "1,1", "1/2,0", "-1,2"]))]
    argv += ["--max-level", draw(st.sampled_from(["1", "2", HUGE]))]
    if command == "global":
        argv += ["--box", draw(st.sampled_from(["0", "1"]))]
    if draw(st.booleans()):
        flag = draw(st.sampled_from(range(1, argv.index("--max-level"), 2)))
        del argv[flag:flag + 2]
    if draw(st.booleans()):
        spot = draw(st.integers(0, len(argv) - 1))
        argv[spot] = draw(st.sampled_from(MALFORMED))
    return argv


def test_argv_fuzz_exits_on_the_contract(capsys, monkeypatch):
    """Any command line drawn from small alphabets of valid and malformed
    tokens ends on a documented exit code with at most one stderr line.

    The basis change of a word is verified once and reused across examples,
    so each example costs only its own command.
    """
    changes = {}
    verify = picard.compute_basis_change

    def verified_once(engine):
        key = (engine.datum, engine.word)
        if key not in changes:
            changes[key] = verify(engine)
        return changes[key]

    monkeypatch.setattr(picard, "compute_basis_change", verified_once)
    seen = set()

    @settings(max_examples=150)
    @given(command_lines())
    def check(argv):
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4), argv
        assert err.count("\n") <= 1 and err.endswith("\n") == bool(err), argv
        seen.add(code)

    check()
    assert {0, 2, 3} <= seen


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 1)
    | st.floats(-3, 3, allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=2)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=3)


@st.composite
def config_objects(draw, out):
    """A valid config object on A1 (1) or A2 (1,2) with levels <= 2 and box
    <= 1, then up to two keys, known or unknown, set to JSON values of any
    type.  A string out becomes the given path and a null level or box is
    dropped to a small int, so no example writes elsewhere or runs past
    level 2 or box 1."""
    cartan, word, bundles = draw(st.sampled_from(WORDS))
    config = {"type": cartan, "word": word,
              "bundle": draw(st.sampled_from(bundles)),
              "mu": draw(st.sampled_from(["0", "0,0", "1,1", "1/2,0"])),
              "max_level": draw(st.integers(1, 2)),
              "box": draw(st.integers(0, 1))}
    if draw(st.booleans()):
        config["out"] = out
    keys = st.sampled_from(list(cli._SETTINGS)) | st.text(min_size=1,
                                                          max_size=3)
    for key in draw(st.lists(keys, max_size=2, unique=True)):
        value = draw(JSON_VALUES)
        if key == "out" and isinstance(value, str):
            value = out
        if key in ("max_level", "box") and value is None:
            value = 0
        config[key] = value
    return config


def test_config_fuzz_exits_on_the_contract(tmp_path, capsys, monkeypatch):
    """Any config object drawn from known and unknown keys with values of
    every JSON type ends on a documented exit code with at most one stderr
    line; the basis change of a word is verified once and reused."""
    changes = {}
    verify = picard.compute_basis_change

    def verified_once(engine):
        key = (engine.datum, engine.word)
        if key not in changes:
            changes[key] = verify(engine)
        return changes[key]

    monkeypatch.setattr(picard, "compute_basis_change", verified_once)
    path = tmp_path / "job.json"
    seen = set()

    @settings(max_examples=100)
    @given(st.sampled_from(["body", "global", "weights"]),
           config_objects(str(tmp_path / "out.json")))
    def check(command, config):
        path.write_text(json.dumps(config))
        code = main([command, "--config", str(path)])
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4), config
        assert err.count("\n") <= 1 and err.endswith("\n") == bool(err), \
            config
        seen.add(code)

    check()
    assert {0, 2} <= seen
    path.write_text(json.dumps({"quick": "false"}))
    assert main(["verify", "--config", str(path)]) == 2

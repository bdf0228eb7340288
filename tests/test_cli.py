"""Command-line interface: flows, determinism, exit codes."""

import hashlib
import json
import os
import re
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis.strategies import integers, lists, sampled_from, text, tuples

from cuspforge import characteristic, cli, lattice, pipeline
from cuspforge.cli import main
from cuspforge.cubical import CubicalComplex
from cuspforge.errors import BudgetError, CertificateError, ValidationError
from cuspforge.filling import dehn_fill, enumerate_filling_choices, resolve_choice
from cuspforge.lattice import FaceLattice, cube_lattice, polygon_lattice
from cuspforge.moment_angle import Colouring, colour_manifold, real_moment_angle
from cuspforge.polytopes import gosset, ideal_dual
from cuspforge.pipeline import PipelineConfig, StageError, run_pipeline
from cuspforge.simplicial import boundary_of_simplex, octahedron_boundary

from dense_oracles import simplex_lattice

# sha256 of every n=3 preset artifact: refactors must keep them byte-identical
N3_ARTIFACT_SHA256 = {
    "census.json": "99b1b81f3dbe51438458a396432f7493fffaa9e9ec499a93429277d8019b77c2",
    "g3.json": "a8e71f2fbbcb1ad2793b4592eaebd72fef072e661649cbdb4adf080ff8f6fcb0",
    "k2.json": "12a99d1a88cb06fc0862e57455fbad00bde21667e60f5b2d95a63187bd6c08ba",
    "m3bar.json": "15b5275a4bd6ca1c6845fa2e5bdbcafe1b0da749482006b75ba5c9e4d5f7b28f",
    "m3bar.rzk1": "73804cfab82cf6d7bc82b877412577b83d7802a0d44d292ca7278bc01a8bb5ab",
    "p3.json": "b778c9609ff051dcaff4ecbc8a5b2de0c253e4bbc2e50b7540c045ed1135abf2",
    "p3bar.json": "cbc82a4c97effb89cb21d11c7f4695e747645aecd264991b65b1ad86796df951",
    "report.json": "aadc7a1a038364c4014769bcef9fdcf3359d3d5b20ce79ebd177359b35f41311",
}

# sha256 of the n=8 census preset artifacts (G^8, P^8 and the census)
N8_CENSUS_ARTIFACT_SHA256 = {
    "census.json": "e17264e6c9b70e36376561db22c27ca718834d1189491993fabe8ae3b41d5c7e",
    "g8.json": "a1cdd340dc4ea7fdb7fe146114289b2968787301bdfad0b144e34b83457308f8",
    "p8.json": "bc1c59b32b538ed869dbd3a283f98fe62f460ab723609139802f65b1b749e424",
}

# sha256 of `spin-report` on P^3 with the n=3 preset's filling
SPIN_REPORT_SHA256 = "d41c73e31700f8663872858416aa9786d4e6b30c4efc3af59a9d10e407f108a1"


def run(argv):
    return main(argv)


def test_gosset_fill_subdivide_flow(tmp_path):
    g3 = tmp_path / "g3.json"
    p3 = tmp_path / "p3.json"
    p3bar = tmp_path / "p3bar.json"
    k2 = tmp_path / "k2.json"
    assert run(["gosset", "--n", "3", "--out", str(g3)]) == 0
    assert run(["gosset", "--n", "3", "--dual", "--out", str(p3)]) == 0
    assert run(["fill", "--in", str(p3), "--choices", "v0:0,v1:1,v2:0",
                "--out", str(p3bar)]) == 0
    assert run(["subdivide", "--in", str(g3), "--diagonals", "auto",
                "--out", str(k2)]) == 0
    doc = json.loads(k2.read_text())
    assert doc["type"] == "simplicial"
    assert len(doc["facets"]) == 8


def test_rzk_colour_homology_flow(tmp_path):
    g3 = tmp_path / "g3.json"
    p3 = tmp_path / "p3.json"
    p3bar = tmp_path / "p3bar.json"
    k2 = tmp_path / "k2.json"
    z = tmp_path / "z.json"
    m = tmp_path / "m3bar.json"
    run(["gosset", "--n", "3", "--out", str(g3)])
    run(["gosset", "--n", "3", "--dual", "--out", str(p3)])
    run(["fill", "--in", str(p3), "--choices", "auto", "--out", str(p3bar)])
    run(["subdivide", "--in", str(g3), "--out", str(k2)])
    assert run(["rzk", "--in", str(k2), "--out", str(z)]) == 0
    assert run(["colour", "--in", str(p3bar), "--out", str(m)]) == 0
    out = tmp_path / "h.json"
    assert run(["homology", "--in", str(z), "--coeff", "z2", "--out", str(out)]) == 0
    betti = json.loads(out.read_text())["betti"]
    assert betti[0] == 1 and betti[3] == 1 and betti[1] == betti[2]
    assert run(["homology", "--in", str(m), "--coeff", "z", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["betti"] == betti


def test_rzk_binary_roundtrip(tmp_path):
    g3 = tmp_path / "g3.json"
    k2 = tmp_path / "k2.json"
    run(["gosset", "--n", "3", "--out", str(g3)])
    run(["subdivide", "--in", str(g3), "--out", str(k2)])
    rz = tmp_path / "z.rzk1"
    assert run(["rzk", "--in", str(k2), "--binary", "--out", str(rz)]) == 0
    out = tmp_path / "h.json"
    assert run(["homology", "--in", str(rz), "--coeff", "z2", "--out", str(out)]) == 0


def test_census_and_spin_report(tmp_path, capsys):
    p3 = tmp_path / "p3.json"
    run(["gosset", "--n", "3", "--dual", "--out", str(p3)])
    assert run(["census", "--in", str(p3)]) == 0
    census = json.loads(capsys.readouterr().out)
    assert census["total"] == "12"

    outdir = tmp_path / "run"
    assert run(["pipeline", "--n", "3", "--outdir", str(outdir)]) == 0
    capsys.readouterr()
    report_path = tmp_path / "report.json"
    assert run(["spin-report", "--manifold", str(p3),
                "--filling", str(outdir / "m3bar.json"),
                "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["dirac"] == "Discrete"
    assert len(report["cusps"]) == 12
    assert all(c["label"] == "Bounding" for c in report["cusps"])
    assert report["structure_count"] == "8"


def test_spin_report_builds_one_chain_complex(tmp_path, monkeypatch):
    p3 = tmp_path / "p3.json"
    run(["gosset", "--n", "3", "--dual", "--out", str(p3)])
    run_pipeline(PipelineConfig(n=3, outdir=str(tmp_path / "run")))
    builds = []
    for module in (cli, characteristic):
        monkeypatch.setattr(module, "chain_complex_of",
                            lambda X, coeff="Z2", _build=module.chain_complex_of: builds.append(coeff) or _build(X, coeff))
    report_path = tmp_path / "report.json"
    assert run(["spin-report", "--manifold", str(p3),
                "--filling", str(tmp_path / "run" / "m3bar.json"),
                "--out", str(report_path)]) == 0
    assert builds == ["Z2"]  # orientability reads the same Z/2 chain data
    assert hashlib.sha256(report_path.read_bytes()).hexdigest() == SPIN_REPORT_SHA256


def test_spin_report_refuses_more_cusps_than_the_budget(tmp_path, capsys):
    # P^8 has 2160 * 2^226 cusps: refused before any cusp id is built
    p8 = tmp_path / "p8.json"
    run(["gosset", "--n", "8", "--dual", "--out", str(p8)])
    square = tmp_path / "t2.json"
    square.write_text(colour_manifold(polygon_lattice(4), Colouring.distinct(4)).to_json())
    capsys.readouterr()
    assert run(["spin-report", "--manifold", str(p8), "--filling", str(square)]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert json.loads(err.splitlines()[0])["code"] == 3


def _filling(P, choice) -> CubicalComplex:
    return colour_manifold(dehn_fill(P, choice).lattice, Colouring.distinct(P.num_facets))


def test_spin_report_refuses_a_filling_of_another_manifold(tmp_path, capsys):
    """P^3 with the n=4 preset's filling, and with an n=3 filling moved
    into a larger cube, exits 4 with nothing written; each filling of P^3
    is certified through the choice read off its 2-cells."""
    p3 = tmp_path / "p3.json"
    run(["gosset", "--n", "3", "--dual", "--out", str(p3)])
    P3, P4 = ideal_dual(gosset(3)), ideal_dual(gosset(4))
    m4bar = tmp_path / "m4bar.rzk1"
    m4bar.write_bytes(_filling(P4, resolve_choice(P4, "auto")).to_rzk1())
    Z3 = _filling(P3, resolve_choice(P3, "auto"))
    wider = tmp_path / "wider.json"
    cells = [c for d in range(Z3.dim + 1) for c in Z3.cells_of_dim(d)]
    wider.write_text(CubicalComplex(Z3.ambient + 1, cells).to_json())
    for filling, message in ((m4bar, r"has 2 filled axes, not one$"),
                             (wider, r"^the filling is not the colour manifold")):
        capsys.readouterr()
        out = tmp_path / "report.json"
        assert run(["spin-report", "--manifold", str(p3), "--filling", str(filling), "--out", str(out)]) == 4
        line = json.loads(capsys.readouterr().err.splitlines()[0])
        assert line["code"] == CertificateError.exit_code == 4
        assert re.search(message, line["error"]) and not out.exists()
    for choice in enumerate_filling_choices(P3):
        filling = tmp_path / "m3bar.json"
        filling.write_text(_filling(P3, choice).to_json())
        assert run(["spin-report", "--manifold", str(p3), "--filling", str(filling)]) == 0
        assert json.loads(capsys.readouterr().out)["dirac"] == "Discrete"


def test_pipeline_determinism(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run(["pipeline", "--n", "3", "--outdir", str(out1)]) == 0
    assert run(["pipeline", "--n", "3", "--outdir", str(out2)]) == 0
    for name in sorted(os.listdir(out1)):
        b1 = (out1 / name).read_bytes()
        b2 = (out2 / name).read_bytes()
        assert b1 == b2, f"artifact {name} differs between runs"


def test_pipeline_n3_artifacts_match_recorded_digests(tmp_path):
    result = run_pipeline(PipelineConfig(n=3, outdir=str(tmp_path)))
    digests = {}
    for name, path in result.artifacts.items():
        with open(path, "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    assert digests == N3_ARTIFACT_SHA256


def test_pipeline_without_outdir_serializes_nothing(tmp_path, monkeypatch):
    from cuspforge.characteristic import SpinReport
    from cuspforge.cubical import CubicalComplex
    from cuspforge.simplicial import SimplicialComplex

    written = run_pipeline(PipelineConfig(n=3, outdir=str(tmp_path)))
    assert sorted(written.artifacts) == sorted(N3_ARTIFACT_SHA256)

    def refuse(*args):
        raise AssertionError("serialized without an outdir")

    for owner, attr in ((FaceLattice, "to_json"), (CubicalComplex, "to_json"), (CubicalComplex, "to_rzk1"),
                        (SimplicialComplex, "to_json"), (SpinReport, "to_json"), (pipeline, "census_json"),
                        (lattice, "rows_text"), (pipeline, "rows_text")):
        monkeypatch.setattr(owner, attr, refuse)
    result = run_pipeline(PipelineConfig(n=3))
    assert result.artifacts == {}
    assert result.facts == written.facts
    assert result.report == written.report


@pytest.mark.parametrize("error", [ValidationError, BudgetError])
def test_chain_complex_build_is_a_named_stage(monkeypatch, error):
    def failing_build(X, coeff="Z2"):
        raise error("build refused")

    monkeypatch.setattr(pipeline, "chain_complex_of", failing_build)
    with pytest.raises(StageError) as info:
        run_pipeline(PipelineConfig(n=3))
    assert info.value.stage == "chain_complex"
    assert info.value.exit_code == error.exit_code
    assert isinstance(info.value.__cause__, error)


def test_out_of_memory_is_a_budget_overrun_of_its_named_stage(monkeypatch, capsys):
    def exhausted(P):
        raise MemoryError()

    monkeypatch.setattr(pipeline, "cusp_census", exhausted)
    with pytest.raises(StageError) as info:
        run_pipeline(PipelineConfig(n=3))
    assert info.value.stage == "census"
    assert info.value.exit_code == BudgetError.exit_code == 3
    capsys.readouterr()
    assert run(["pipeline", "--n", "3"]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [json.loads(line) for line in err.splitlines()] == [
        {"code": 3, "error": "stage census: out of memory"}, {"stage": "census"}]


def test_pipeline_n8_census_artifacts_match_recorded_digests(tmp_path):
    result = run_pipeline(PipelineConfig(n=8, census_only=True, outdir=str(tmp_path)))
    digests = {name: hashlib.sha256(Path(path).read_bytes()).hexdigest()
               for name, path in result.artifacts.items()}
    assert digests == N8_CENSUS_ARTIFACT_SHA256


def test_auto_fill_and_subdivide_match_the_pipeline(tmp_path):
    outdir = tmp_path / "run"
    assert run(["pipeline", "--n", "3", "--outdir", str(outdir)]) == 0
    p3bar = tmp_path / "p3bar.json"
    k2 = tmp_path / "k2.json"
    assert run(["fill", "--in", str(outdir / "p3.json"), "--choices", "auto",
                "--out", str(p3bar)]) == 0
    assert run(["subdivide", "--in", str(outdir / "g3.json"), "--out", str(k2)]) == 0
    assert p3bar.read_text() == (outdir / "p3bar.json").read_text()
    assert k2.read_text() == (outdir / "k2.json").read_text()


def test_every_artifact_roundtrips(tmp_path):
    from cuspforge.cubical import CubicalComplex
    from cuspforge.lattice import FaceLattice
    from cuspforge.simplicial import SimplicialComplex

    outdir = tmp_path / "run"
    assert run(["pipeline", "--n", "3", "--outdir", str(outdir)]) == 0
    parsers = {
        "g3.json": FaceLattice.from_json,
        "p3.json": FaceLattice.from_json,
        "p3bar.json": FaceLattice.from_json,
        "k2.json": SimplicialComplex.from_json,
        "m3bar.json": CubicalComplex.from_json,
        "census.json": json.loads,
        "report.json": json.loads,
    }
    for name, parse in parsers.items():
        text = (outdir / name).read_text()
        obj = parse(text)
        assert obj is not None
        if hasattr(obj, "to_json"):
            assert parse(obj.to_json()) == obj
    blob = (outdir / "m3bar.rzk1").read_bytes()
    assert CubicalComplex.from_rzk1(blob) == CubicalComplex.from_json(
        (outdir / "m3bar.json").read_text()
    )


def test_exit_code_validation_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"type":"simplicial","vertices":2,"facets":[[0,5]]}')
    assert run(["rzk", "--in", str(bad)]) == 2


def _or_last_mask(blob, bit):
    mask, signs = struct.unpack_from("<IQ", blob, len(blob) - 12)
    return blob[:-12] + struct.pack("<IQ", mask | bit, signs)


RZK1_CUBE = real_moment_angle(boundary_of_simplex(2)).to_rzk1()  # ambient 3, 26 cells

BAD_RZK1 = {
    "short header": b"RZK1\0\0\0\0",
    "truncated table": RZK1_CUBE[:-5],
    "trailing bytes": RZK1_CUBE + b"\0",
    "mask bit at ambient": _or_last_mask(RZK1_CUBE, 1 << 3),
    "ambient above 32": b"RZK1" + struct.pack("<II", 33, 26) + RZK1_CUBE[12:],
    # the length check must refuse this header before any per-cell work
    "huge ambient, missing cells": b"RZK1" + struct.pack("<II", 0xFFFFFFFF, 1),
}

BAD_DOCUMENTS = [
    ("homology", '{"type":"cubical"}'),
    ("homology", '{"type":"simplicial"}'),
    ("homology", '{"type":"cubical","ambient":1,"cells":[[[], "x"]]}'),
    ("homology", '{"type":"simplicial","vertices":2,"facets":[["a"]]}'),
    ("homology", '{"type":"simplicial","vertices":2,"facets":[[0, 1.5]]}'),
    ("homology", '{"type":"cubical","ambient":"1","cells":[[[], 0]]}'),
    ("homology", '{"type":"cubical","ambient":1,"cells":[[[], 0, 1]]}'),
    # a sign of 2^70 at ambient 3: past int64, refused as a sign fault
    ("homology", '{"type":"cubical","ambient":3,"cells":[[[], 1180591620717411303424]]}'),
    ("homology", "[]"),
    ("homology", '{"type":'),
    pytest.param("homology", "[" * 100000, id="homology-deeply nested"),
    ("homology", '{"type":"face_lattice"}'),
    ("census", '{"type":"face_lattice"}'),
    ("census", '{"type":"face_lattice","rank":2,"facets":3,"faces":["x"]}'),
    ("census", '{"type":"face_lattice","rank":2,"facets":3,"faces":[{"rank":0}]}'),
    # a rank-1 lattice: no P^n has it
    ("census", '{"type":"face_lattice","rank":1,"facets":2,"faces":[{"rank":0,"facet_set":[0]},'
               '{"rank":0,"facet_set":[1]}]}'),
]

# a square's faces, then one fault each; fill and subdivide must refuse them
SQUARE_FACES = ('{"rank":0,"facet_set":[0,1]},{"rank":0,"facet_set":[1,2]},{"rank":0,"facet_set":[2,3]},'
                '{"rank":0,"facet_set":[0,3]},{"rank":1,"facet_set":[0]},{"rank":1,"facet_set":[1]},'
                '{"rank":1,"facet_set":[2]},{"rank":1,"facet_set":[3]}')
BAD_LATTICE_FACES = [
    '{"rank":0,"facet_set":[0,1]}',
    '{"rank":1,"facet_set":[0,1]}',
    '{"rank":0,"facet_set":[]}',
    '{"rank":0,"facet_set":[0,1180591620717411303424]}',
    '{"rank":1180591620717411303424,"facet_set":[0,2]}',
    '{"rank":0,"facet_set":[0,2],"mark":"bogus"}',
    '{"rank":0,"facet_set":[0,2],"mark":[1]}',
    '{"rank":0,"facet_set":5}',
]
BAD_DOCUMENTS += [
    (command, f'{{"type":"face_lattice","rank":2,"facets":4,"faces":[{SQUARE_FACES},{extra}]}}')
    for command in ("fill", "subdivide") for extra in BAD_LATTICE_FACES
]
BAD_DOCUMENTS += [
    (command, f'{{"type":"face_lattice","rank":{rank},"facets":{facets},"faces":[{SQUARE_FACES}]}}')
    for command in ("fill", "subdivide")
    for rank, facets in ((2, 1180591620717411303424), (1180591620717411303424, 4), (2, 3))
]


def _assert_validation_exit(argv, capsys):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert json.loads(err.splitlines()[0])["code"] == 2


@pytest.mark.parametrize("name", sorted(BAD_RZK1))
def test_homology_rejects_malformed_rzk1(tmp_path, capsys, name):
    bad = tmp_path / "bad.rzk1"
    bad.write_bytes(BAD_RZK1[name])
    _assert_validation_exit(["homology", "--in", str(bad)], capsys)


@pytest.mark.parametrize("command,text", BAD_DOCUMENTS)
def test_readers_reject_malformed_json(tmp_path, capsys, command, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    _assert_validation_exit([command, "--in", str(bad)], capsys)


@pytest.fixture(scope="module")
def p3_files(tmp_path_factory):
    """g3.json, p3.json and the filled p3bar.json of the P^3 lattice."""
    d = tmp_path_factory.mktemp("p3")
    assert run(["gosset", "--n", "3", "--out", str(d / "g3.json")]) == 0
    assert run(["gosset", "--n", "3", "--dual", "--out", str(d / "p3.json")]) == 0
    assert run(["fill", "--in", str(d / "p3.json"), "--out", str(d / "p3bar.json")]) == 0
    return d


SPEC_OPTIONS = [("fill", "p3.json", "--choices"), ("subdivide", "g3.json", "--diagonals"),
                ("colour", "p3bar.json", "--colours")]

BAD_SPECS = [
    ("fill", "p3.json", "--choices=v9:0"),
    ("fill", "p3.json", "--choices=vx:0"),
    ("fill", "p3.json", "--choices=v-1:0"),
    ("fill", "p3.json", "--choices=v0:0,v1:1,v-1:0"),
    ("subdivide", "g3.json", "--diagonals=a:b"),
    ("subdivide", "g3.json", "--diagonals=1:0,2:0,3:0,9:0"),
    ("colour", "p3bar.json", "--colours=[["),
    ("colour", "p3bar.json", "--colours=[]"),
    ("colour", "p3bar.json", '--colours=[["a"]]'),
    ("colour", "p3bar.json", "--colours=[[0], [-1]]"),
    ("homology", "missing.json", None),
    ("census", ".", None),
    ("fill", "missing.json", None),
    ("spin-report", None, None),
]


@pytest.mark.parametrize("command,infile,option", BAD_SPECS)
def test_cli_specs_and_unreadable_inputs_exit_2(p3_files, capsys, command, infile, option):
    if command == "spin-report":
        argv = [command, "--manifold", str(p3_files / "p3.json"),
                "--filling", str(p3_files / "missing.rzk1")]
    else:
        argv = [command, "--in", str(p3_files / infile), "--out", str(p3_files / "out.json")]
    _assert_validation_exit(argv + ([option] if option else []), capsys)


@pytest.mark.parametrize("command", ["pipeline", "gosset", "rzk"])
def test_unwritable_output_paths_exit_2_with_one_json_error_line(p3_files, tmp_path, capsys, command):
    """An output path under a regular file is refused as a validation
    failure naming the path, not a traceback: the pipeline's --outdir, a
    text --out and rzk's binary --out."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    target = blocker / "out"
    if command == "pipeline":
        argv = ["pipeline", "--n", "3", "--outdir", str(target)]
    elif command == "gosset":
        argv = ["gosset", "--n", "3", "--out", str(target)]
    else:
        k2 = tmp_path / "k2.json"
        assert run(["subdivide", "--in", str(p3_files / "g3.json"), "--out", str(k2)]) == 0
        argv = ["rzk", "--in", str(k2), "--binary", "--out", str(target)]
    capsys.readouterr()
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    [line] = [json.loads(text) for text in err.splitlines()]
    assert line["code"] == 2 and line["error"].startswith(f"cannot write {target}")


def test_colour_rank_beyond_the_budget_exits_3(p3_files):
    # refused from the bit index alone, before any 2^k-sized integer is built
    argv = ["colour", "--in", str(p3_files / "p3bar.json"), "--colours=[[0], [999999999999]]"]
    assert run(argv) == 3


@pytest.mark.parametrize("command,infile,option", SPEC_OPTIONS)
@settings(derandomize=True, max_examples=50, deadline=None, database=None)
@given(spec=text())
def test_cli_specs_fuzz(p3_files, command, infile, option, spec):
    argv = [command, "--in", str(p3_files / infile), f"{option}={spec}",
            "--out", str(p3_files / "fuzz.json")]
    assert run(argv) in (0, 2, 3)


VALID_CUBE = {"cube.json": real_moment_angle(boundary_of_simplex(2)).to_json().encode(),
              "cube.rzk1": RZK1_CUBE}

# (kind, position, byte): positions wrap around the document's length
BYTE_EDITS = lists(tuples(sampled_from(("flip", "insert", "delete")), integers(min_value=0),
                          integers(1, 255)), max_size=8)


def _edit(blob, edits):
    data = bytearray(blob)
    for kind, pos, byte in edits:
        if kind == "insert":
            data.insert(pos % (len(data) + 1), byte)
        elif data and kind == "flip":
            data[pos % len(data)] ^= byte
        elif data:
            del data[pos % len(data)]
    return bytes(data)


@pytest.mark.parametrize("name", sorted(VALID_CUBE))
@settings(derandomize=True, max_examples=50, deadline=None, database=None)
@given(edits=BYTE_EDITS)
def test_cubical_readers_fuzz(tmp_path_factory, name, edits):
    path = tmp_path_factory.mktemp("fuzz") / name
    path.write_bytes(_edit(VALID_CUBE[name], edits))
    assert run(["homology", "--in", str(path)]) in (0, 2)


@pytest.mark.parametrize("command", ["census", "fill"])
@settings(derandomize=True, max_examples=50, deadline=None, database=None)
@given(edits=BYTE_EDITS)
def test_face_lattice_readers_fuzz(p3_files, command, edits):
    path = p3_files / "edited.json"
    path.write_bytes(_edit((p3_files / "p3.json").read_bytes(), edits))
    assert run([command, "--in", str(path), "--out", str(p3_files / "edited-out.json")]) in (0, 2)


@pytest.mark.parametrize("n", [3, 4])
def test_face_lattice_readers_refuse_every_face_deletion(tmp_path, capsys, n):
    # a lattice missing a vertex, or any other face, is not P^n
    p = tmp_path / "p.json"
    assert run(["gosset", "--n", str(n), "--dual", "--out", str(p)]) == 0
    doc = json.loads(p.read_text())
    bad = tmp_path / "bad.json"
    parsed = 0
    for i in range(len(doc["faces"])):
        text = json.dumps({**doc, "faces": doc["faces"][:i] + doc["faces"][i + 1:]})
        try:
            FaceLattice.from_json(text)
        except ValidationError:
            continue
        parsed += 1
        bad.write_text(text)
        for command in ("census", "fill"):
            _assert_validation_exit([command, "--in", str(bad), "--out", str(tmp_path / "out.json")], capsys)
    assert parsed == len(doc["faces"]) - doc["facets"]  # all but the facet singletons parse


def test_face_lattice_readers_refuse_an_unknown_mark_above_rank_0(p3_files, capsys):
    doc = json.loads((p3_files / "p3.json").read_text())
    face = next(f for f in doc["faces"] if f["rank"] == 1)
    face["mark"] = "bogus"
    bad = p3_files / "bogus-mark.json"
    bad.write_text(json.dumps(doc))
    for command in ("census", "fill"):
        assert run([command, "--in", str(bad), "--out", str(p3_files / "out.json")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert json.loads(err) == {"code": 2, "error": "unknown vertex mark 'bogus'"}


def test_colour_refuses_a_face_boundary_that_is_not_a_pseudomanifold(tmp_path, capsys):
    # the 3-cube without its edge {0, 2}: facet 0's boundary holds vertex {0, 2, 4} once
    lattice = FaceLattice(3, 6, [(k, s) for k, s in cube_lattice(3).faces if s != {0, 2}])
    path = tmp_path / "cube.json"
    path.write_text(lattice.to_json())
    assert run(["colour", "--in", str(path), "--colours", "[[0],[0],[1],[1],[2],[2]]"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert json.loads(err) == {"code": 2, "error": "boundary of a face is not a pseudomanifold"}


def test_exit_code_budget_error(tmp_path):
    g5 = tmp_path / "g5.json"
    k4 = tmp_path / "k4.json"
    run(["gosset", "--n", "5", "--out", str(g5)])
    run(["subdivide", "--in", str(g5), "--out", str(k4)])
    assert run(["rzk", "--in", str(k4), "--budget", "1000"]) == 3


@pytest.mark.parametrize("kind", ["not utf-8", "directory"])
def test_unreadable_gosset_data_file_exits_2(tmp_path, monkeypatch, capsys, kind):
    path = tmp_path / "gosset3.json"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b'{"type": "face_lattice", "\xff\xfe"}')
    monkeypatch.setenv("CUSPFORGE_DATA", str(tmp_path))
    capsys.readouterr()
    _assert_validation_exit(["gosset", "--n", "3"], capsys)
    assert run(["pipeline", "--n", "3"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    line = json.loads(err.splitlines()[0])
    assert line["code"] == 2 and line["error"].startswith(f"stage gosset: cannot read {path}")


def test_integral_homology_over_the_budget_exits_3(tmp_path, monkeypatch, capsys):
    # the 3-torus has 512 cells, under the budget; its integral eliminations
    # hold more, so Z refuses while Z/2 still answers
    t3 = tmp_path / "t3.json"
    t3.write_text(real_moment_angle(octahedron_boundary()).to_json())
    monkeypatch.setenv("CUSPFORGE_BUDGET", "600")
    capsys.readouterr()
    assert run(["homology", "--in", str(t3), "--coeff", "z"]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    line = json.loads(err.splitlines()[0])
    assert line["code"] == 3 and line["error"].startswith("integral elimination holds ")
    assert line["error"].endswith(", budget is 600; use Z/2 coefficients at this scale")
    assert run(["homology", "--in", str(t3), "--coeff", "z2"]) == 0
    assert json.loads(capsys.readouterr().out)["betti"] == [1, 3, 3, 1]


def test_exit_code_certificate_error(tmp_path, capsys):
    # a Klein-bottle filling cannot back a spin report
    p3 = tmp_path / "p3.json"
    run(["gosset", "--n", "3", "--dual", "--out", str(p3)])
    square = tmp_path / "square.json"
    square.write_text(json.dumps({
        "type": "cubical", "ambient": 2,
        "cells": [[[0, 1], 0], [[0], 0], [[0], 2], [[1], 0], [[1], 1],
                  [[], 0], [[], 1], [[], 2], [[], 3]],
    }))
    code = run(["spin-report", "--manifold", str(p3), "--filling", str(square)])
    assert code == 2  # the solid square is not even closed


def test_verify_suites_pass(capsys):
    assert run(["verify", "links"]) == 0
    assert run(["verify", "duality"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out


def test_gosset_env_budget_smoke(tmp_path, monkeypatch):
    monkeypatch.setenv("CUSPFORGE_BUDGET", "50")
    g3 = tmp_path / "g3.json"
    k2 = tmp_path / "k2.json"
    run(["gosset", "--n", "3", "--out", str(g3)])
    run(["subdivide", "--in", str(g3), "--out", str(k2)])
    assert run(["rzk", "--in", str(k2)]) == 3


@pytest.mark.parametrize("n", [3, 4, 5, 8])
@pytest.mark.parametrize("env,option", [("abc", []), ("-1", []), (None, ["--budget", "0"])])
def test_pipeline_refuses_an_invalid_budget_before_any_stage(tmp_path, monkeypatch, capsys, n, env, option):
    if env is None:
        monkeypatch.delenv("CUSPFORGE_BUDGET", raising=False)
    else:
        monkeypatch.setenv("CUSPFORGE_BUDGET", env)
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(["pipeline", "--n", str(n), "--outdir", str(out)] + option) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and json.loads(err[0])["code"] == 2  # no stage line: nothing ran
    assert "budget" in json.loads(err[0])["error"].lower() and not out.exists()


def test_pipeline_refuses_a_data_lattice_that_is_not_gosset(tmp_path, monkeypatch, capsys):
    # the tetrahedron has rank 3 but not G^3's vertex and facet counts
    (tmp_path / "gosset3.json").write_text(simplex_lattice(3).to_json())
    monkeypatch.setenv("CUSPFORGE_DATA", str(tmp_path))
    capsys.readouterr()
    _assert_validation_exit(["pipeline", "--n", "3", "--outdir", str(tmp_path / "out")], capsys)
    assert not (tmp_path / "out" / "p3.json").exists()


@pytest.mark.parametrize("message", ["", "Unable to allocate 8.00 EiB for an array"])
def test_memory_exhaustion_exits_3_with_a_json_error_line(monkeypatch, capsys, message):
    def exhausted(args):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "_cmd_census", exhausted)
    capsys.readouterr()
    assert run(["census", "--in", "unused.json"]) == BudgetError.exit_code == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [json.loads(line) for line in err.splitlines()] == [
        {"code": 3, "error": message or "out of memory"}]

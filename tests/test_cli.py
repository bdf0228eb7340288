"""Command-line interface: flows, determinism, exit codes."""

import hashlib
import json
import os
import struct

import pytest

from cuspforge.cli import main
from cuspforge.moment_angle import real_moment_angle
from cuspforge.pipeline import PipelineConfig, run_pipeline
from cuspforge.simplicial import boundary_of_simplex

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
    ("homology", "[]"),
    ("homology", '{"type":'),
    ("homology", '{"type":"face_lattice"}'),
    ("census", '{"type":"face_lattice"}'),
    ("census", '{"type":"face_lattice","rank":2,"facets":3,"faces":["x"]}'),
    ("census", '{"type":"face_lattice","rank":2,"facets":3,"faces":[{"rank":0}]}'),
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


def test_exit_code_budget_error(tmp_path):
    g5 = tmp_path / "g5.json"
    k4 = tmp_path / "k4.json"
    run(["gosset", "--n", "5", "--out", str(g5)])
    run(["subdivide", "--in", str(g5), "--out", str(k4)])
    assert run(["rzk", "--in", str(k4), "--budget", "1000"]) == 3


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

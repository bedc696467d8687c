import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hopfseg import cli
from hopfseg.cli import main
from hopfseg.desingularize import split_zero, zero_to_split
from hopfseg.errors import SchemaError
from hopfseg.experiments import admissible_fw, figure5_function, tuned_multizero
from hopfseg.mobius import MobiusMap, pushforward_hopf
from hopfseg.rational import monomial, rational
from hopfseg.serialize import csv_rows, emit_function, parse_function, render_svg


def test_parse_cubic_spec():
    f = parse_function('{"leading":[0.25,0],"roots":[{"z":[0,0],"mult":3}]}')
    assert f.leading == 0.25
    assert f.interior_roots == ((0j, 3),)


def test_parse_missing_leading():
    with pytest.raises(SchemaError) as err:
        parse_function('{"roots":[]}')
    assert err.value.pointer == "/leading"


def test_parse_duplicate_roots_merged():
    f = parse_function(
        '{"leading":[1,0],"roots":[{"z":[0.1,0],"mult":1},{"z":[0.1,1e-14],"mult":2}]}'
    )
    assert f.interior_roots == ((0.1 + 0j, 3),)


def test_parse_bad_mult_pointer():
    with pytest.raises(SchemaError) as err:
        parse_function('{"leading":[1,0],"roots":[{"z":[0,0],"mult":0}]}')
    assert err.value.pointer == "/roots/0/mult"


@pytest.mark.parametrize("text, pointer, message", [
    ('{"leading":[1,0,0]}', "/leading", "pair of numbers"),
    ('{"leading":[1e999,0]}', "/leading", "finite"),
    ('{"leading":[1,0],"roots":{}}', "/roots", "list"),
    ('{"leading":[1,0],"roots":[{"mult":1}]}', "/roots/0", "'z'"),
    ('{"leading":', "/", "invalid JSON"),
    ('[0.25, 0]', "/", "object"),
    ('{"leading":[0,0]}', "/leading", "nonzero"),
    ('{"leading":[1,0],"roots":[{"z":[0.99,0]}]}', "/roots", "0.95"),
], ids=["pair", "finite", "roots-list", "root-z", "json", "top-level", "zero-leading",
        "root-outside"])
def test_parse_rejects_malformed_specs(text, pointer, message):
    with pytest.raises(SchemaError) as err:
        parse_function(text)
    assert err.value.pointer == pointer and message in str(err.value)


def test_roundtrip_bit_identical():
    f = rational(0.25 + 1e-17j if False else 0.25, roots=[(0.1 + 0.2j, 2), (-0.3, 1)],
                 unit_num=[(1.5 - 0.7j, 1)], unit_den=[(-2.0, 2)])
    text = emit_function(f)
    g = parse_function(text)
    assert emit_function(g) == text
    assert g.leading == f.leading
    assert g.interior_roots == f.interior_roots
    assert g.unit_num == f.unit_num and g.unit_den == f.unit_den


@pytest.mark.parametrize("fmt, ref, grids", [
    ("%.17g,%d", "{:.17g},{:.17g},{:.17g},{}", 2),
    ("%.17g,%.17g,%.17g", "{:.17g},{:.17g},{:.17g},{:.17g},{:.17g}", 3),
])
def test_csv_rows_bytes(fmt, ref, grids, rng):
    # the rows of format-string formatting, {:.17g} for floats and {} for ints
    vals = np.array([-0.0, 5e-324, 1e-300, 0.1, 1 / 3, 2.0 ** 53 + 1, -2.5, 1e300])
    G = len(vals)
    inside = rng.random((G, G)) < 0.7
    u = [rng.choice(vals, size=(G, G)) for _ in range(3)]
    species = rng.choice(np.array([0, 7, -3, 2 ** 53 + 1]), size=(G, G))
    data = u[:grids] if grids == 3 else [u[0], species]
    want = ["x,y,h"]
    for iy, ix in zip(*np.nonzero(inside)):
        want.append(ref.format(float(vals[ix]), float(vals[iy]), *(g[iy, ix].item() for g in data)))
    assert "\n".join(csv_rows("x,y,h", fmt, inside, vals, data)) == "\n".join(want)


def test_svg_deterministic():
    from hopfseg.nodal import trace
    from hopfseg.states import reconstruct

    st = reconstruct(rational(0.25), 0.0, resolution=96)
    g = trace(st)
    assert render_svg(graph=g) == render_svg(graph=g)
    svg = render_svg(graph=g)
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert svg.count("<circle") >= 3  # disk plus two boundary zeros


def test_svg_cubic_five_rays(tmp_path):
    from hopfseg.nodal import trace
    from hopfseg.states import reconstruct

    st = reconstruct(monomial(0.25, 3), 0.0, resolution=128)
    svg = render_svg(graph=trace(st))
    assert svg.count("<path") == 5
    assert svg.count('fill="black"/>') == 1  # one filled critical dot
    assert svg.count('fill="white"') == 5    # five open boundary circles


def _write_spec(tmp_path, f):
    p = tmp_path / "f.json"
    p.write_text(emit_function(f))
    return p


def test_cli_check_admissible(tmp_path, capsys):
    p = _write_spec(tmp_path, monomial(0.25, 3))
    code = main(["check", "-i", str(p), "-o", str(tmp_path / "out")])
    assert code == 0
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    assert rep["admissible"] is True
    assert rep["command"] == "check"
    assert "defaults" in rep


def test_cli_check_nonadmissible(tmp_path, capsys):
    w = 0.1 * np.exp(0.2j)
    p = _write_spec(tmp_path, rational(0.25, roots=[(0, 1), (w, 2)]))
    code = main(["check", "-i", str(p), "-o", str(tmp_path / "out"), "--base", "0,0"])
    assert code == 1


def test_cli_check_default_base_reports_residuals(tmp_path, capsys):
    # without --base the first odd zero is the base, and the check reports
    # the residual at the other one instead of an error
    p = _write_spec(tmp_path, rational(0.25, roots=[(-0.2 + 0.4j, 1), (0.3, 1)]))
    code = main(["check", "-i", str(p), "-o", str(tmp_path / "out")])
    assert code == 1
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    assert rep["admissible"] is False
    assert rep["base"] == [0.3, 0.0]
    res = {tuple(z): v for z, v in rep["residuals"]}
    assert res[(0.3, 0.0)] == 0.0
    assert res[(-0.2, 0.4)] > rep["tolerance"]


def test_cli_index(tmp_path, capsys):
    p = _write_spec(tmp_path, monomial(0.25, 3))
    out = tmp_path / "out"
    code = main(["index", "-i", str(p), "-o", str(out), "--resolution", "128"])
    assert code == 0
    rep = json.loads((out / "report.json").read_text())
    assert (rep["M"], rep["N"], rep["T"]) == (5, 5, 1)
    assert rep["index_sum"] == 3
    assert rep["formula_check"] and rep["euler_check"]
    assert rep["clean_trace"]


@pytest.mark.parametrize("G", ["97", "129"])
@pytest.mark.parametrize("name", ["z3", "fw2"])
def test_cli_index_odd_resolution_cell_row_on_cut(tmp_path, capsys, name, G):
    # the library call fills the grid (the reconstruct command's energy needs
    # G >= 128); index counts the species as faces
    from hopfseg.states import find_base_point, reconstruct

    f = monomial(0.25, 3) if name == "z3" else admissible_fw(2)[0]
    st = reconstruct(f, find_base_point(f), resolution=int(G))
    assert st.n_species == 5
    assert st.routed == 1
    p = _write_spec(tmp_path, f)
    graph = tmp_path / "graph"
    code = main(["index", "-i", str(p), "-o", str(graph), "--resolution", G])
    rep = json.loads((graph / "report.json").read_text())
    assert (rep["M"], rep["N"], rep["T"], rep["n_species"]) == (5, 5, 1, 5)
    assert rep["clean_trace"] and "grid_fill" not in rep
    assert code == 0


def test_cli_index_moebius_image_of_figure5(tmp_path, capsys):
    # at G = 128 the grid of this image reads 5 species against the 6 faces
    # of its clean trace, which made index fail while N came from the grid
    m = MobiusMap(alpha=0.18007644349524524 + 0.6515866563352986j, theta=3.956966454651954)
    p = _write_spec(tmp_path, pushforward_hopf(figure5_function()[0], m))
    out = tmp_path / "out"
    code = main(["index", "-i", str(p), "-o", str(out), "--resolution", "128"])
    rep = json.loads((out / "report.json").read_text())
    assert (rep["M"], rep["N"], rep["T"], rep["clean_trace"]) == (7, 6, 2, True)
    assert code == 0


@pytest.mark.xfail(strict=True, reason="states._label_species drops a face of about "
                   "5 cells by its size filter: the grid reads 5 species")
def test_cli_reconstruct_moebius_image_of_figure5_counts_every_face(tmp_path, capsys):
    # the image of test_cli_index_moebius_image_of_figure5, whose clean trace has 6 faces
    m = MobiusMap(alpha=0.18007644349524524 + 0.6515866563352986j, theta=3.956966454651954)
    p = _write_spec(tmp_path, pushforward_hopf(figure5_function()[0], m))
    out = tmp_path / "out"
    main(["reconstruct", "-i", str(p), "-o", str(out), "--resolution", "128"])
    assert json.loads((out / "report.json").read_text())["n_species"] == 6


def test_cli_index_unclean_trace_fails(tmp_path, capsys, monkeypatch):
    # the real graph, marked unclean: the formula and Euler checks still
    # hold, and the unclean trace alone makes the command fail
    real = cli.trace_graph
    monkeypatch.setattr(cli, "trace_graph", lambda st: replace(real(st), clean=False))
    p = _write_spec(tmp_path, monomial(0.25, 3))
    out = tmp_path / "out"
    code = main(["index", "-i", str(p), "-o", str(out), "--resolution", "128"])
    rep = json.loads((out / "report.json").read_text())
    assert rep["clean_trace"] is False
    assert rep["formula_check"] and rep["euler_check"]
    assert code == 1
    # simulate takes its species from the trace's faces, so it fails too,
    # before the solve
    sim = tmp_path / "sim"
    code = main(["simulate", "-i", str(p), "-o", str(sim), "--resolution", "128",
                 "--samples", "256", "--mu", "100"])
    rep = json.loads((sim / "report.json").read_text())
    assert rep["clean_trace"] is False and "sweeps" not in rep
    assert not (sim / "fields.csv").exists()
    assert code == 1


def test_cli_reconstruct_artifacts(tmp_path, capsys):
    p = _write_spec(tmp_path, rational(0.25))
    out = tmp_path / "out"
    code = main(["reconstruct", "-i", str(p), "-o", str(out), "--resolution", "128"])
    assert code == 0
    assert (out / "grid.csv").exists()
    rep = json.loads((out / "report.json").read_text())
    assert rep["n_species"] == 2
    assert rep["dirichlet_energy"] == pytest.approx(np.pi / 2, rel=0.03)
    # f = 1/4 has no zeros or cuts: one routed seed, no cell left for a chord
    assert rep["grid_fill"] == {"routed": 1, "chords": 0}


@pytest.mark.parametrize("command", ["reconstruct", "trace", "index", "render", "simulate"])
def test_cli_grid_commands_report_fill(tmp_path, capsys, command):
    p = _write_spec(tmp_path, monomial(0.25, 3))
    out = tmp_path / "out"
    code = main([command, "-i", str(p), "-o", str(out), "--resolution", "128",
                 "--samples", "256", "--mu", "100"])
    assert code == 0
    rep = json.loads((out / "report.json").read_text())
    # only reconstruct fills a grid
    if command == "reconstruct":
        fill = rep["grid_fill"]
        assert fill["routed"] == 1 and fill["chords"] > 0
    else:
        assert "grid_fill" not in rep and rep["n_species"] == rep["N"] == 5
    # the graph commands report the tracer's counters: every step re-centres
    # at its accepted point, few more often, and most moves are jets
    if command == "reconstruct":
        assert "diagnostics" not in rep
    else:
        moves = rep["diagnostics"]["trace"]
        assert set(moves) == {"steps", "jet_moves", "integral_moves", "retries", "integrals"}
        centres = moves["jet_moves"] + moves["integral_moves"]
        assert 0 < moves["steps"] <= centres < 2 * moves["steps"]
        assert moves["integral_moves"] < moves["jet_moves"]


def test_cli_desingularize(tmp_path, capsys):
    p = _write_spec(tmp_path, monomial(0.25, 3))
    out = tmp_path / "out"
    code = main([
        "desingularize", "-i", str(p), "-o", str(out),
        "--eps", "0.01", "--branch", "0", "--resolution", "128",
    ])
    assert code == 0
    f_new = parse_function((out / "f_new.json").read_text())
    assert sum(m for _, m in f_new.interior_roots) == 3
    assert (out / "f_new.svg").exists()
    rep = json.loads((out / "report.json").read_text())
    assert rep["epsilon"] == 0.01
    # the split converges on its first Newton pass, and its counters keep
    # the report byte-deterministic
    assert rep["diagnostics"]["split"] == {
        "attempts": 1, "newton_passes": 1, "R": 1, "det_fallback": False,
        "backtracks": {"BranchLost": 0, "ClosenessFailed": 0, "RootTooCloseToBoundary": 0}}
    again = tmp_path / "again"
    main(["desingularize", "-i", str(p), "-o", str(again), "--eps", "0.01", "--branch", "0",
          "--resolution", "128"])
    assert (again / "report.json").read_bytes() == (out / "report.json").read_bytes()


def test_cli_desingularize_splits_the_zero_a_reduction_splits(tmp_path, capsys):
    # two double zeros, one with a simple zero 0.02 away: the command splits
    # the isolated one, as reduce_to_simple would
    f = split_zero(tuned_multizero(0.2 - 0.1j, -0.45 + 0.3j, 3, 2), 0.2 - 0.1j,
                   eps_target=1e9, eps0=0.02).f_new
    out = tmp_path / "out"
    code = main(["desingularize", "-i", str(_write_spec(tmp_path, f)), "-o", str(out),
                 "--resolution", "96"])
    assert code == 0
    rep = json.loads((out / "report.json").read_text())
    assert complex(*rep["z0"]) == pytest.approx(zero_to_split(f), abs=1e-15)
    assert complex(*rep["z0"]) == pytest.approx(-0.45 + 0.3j, abs=1e-15)


def test_cli_deterministic_bytes(tmp_path, capsys):
    p = _write_spec(tmp_path, monomial(0.25, 3))
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    main(["trace", "-i", str(p), "-o", str(out1), "--resolution", "128"])
    main(["trace", "-i", str(p), "-o", str(out2), "--resolution", "128"])
    assert (out1 / "graph.json").read_bytes() == (out2 / "graph.json").read_bytes()
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_cli_reconstruct_below_the_energy_resolution_fills_no_grid(tmp_path, capsys, monkeypatch):
    # reconstruct reports the grid energy, which needs G >= 128: the command
    # fails before it builds a state, and writes no grid.csv
    def never(*args, **kw):
        raise AssertionError("no state below the energy resolution")

    monkeypatch.setattr(cli, "reconstruct", never)
    monkeypatch.setattr(cli, "analytic_state", never)
    out = tmp_path / "out"
    code = main(["reconstruct", "-i", str(_write_spec(tmp_path, monomial(0.25, 3))), "-o",
                 str(out), "--resolution", "97"])
    assert code == 1
    rep = json.loads((out / "report.json").read_text())
    assert rep == {"error": "ValueError", "message": "energy requires resolution >= 128"}
    assert not (out / "grid.csv").exists()


def test_cli_schema_error_exit(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"roots": []}')
    code = main(["check", "-i", str(p), "-o", str(tmp_path / "out")])
    assert code == 1
    msg = json.loads(capsys.readouterr().out)
    assert msg["error"] == "SchemaError"


# 0.25 z^2 (z - 0.3)(z + 0.3) is admissible, but not in general position about 0
_SYMMETRIC = rational(0.25, roots=[(0.0, 2), (0.3, 1), (-0.3, 1)])


@pytest.mark.parametrize("f, argv, message", [
    (monomial(0.25, 3), ["desingularize", "--branch", "9"], "branch must lie in [0, 5)"),
    (_SYMMETRIC, ["desingularize"], "not in general position"),
    (monomial(0.25, 3), ["simulate", "--mu", "1e7", "--resolution", "64"], "mu must lie"),
    (monomial(0.25, 3), ["reconstruct", "--resolution", "96"], "resolution >= 128"),
    (monomial(0.25, 3), ["check", "--base", "2,0"], "closed disk"),
    (monomial(0.25, 3), ["check", "--base", "abc"], "could not convert"),
    (monomial(0.25, 3), ["check", "--base", "nan,0"], "closed disk"),
    (monomial(0.25, 3), ["index", "--resolution", "0"], "resolution must be at least 1"),
    (monomial(0.25, 3), ["index", "--resolution", "-4"], "resolution must be at least 1"),
    (monomial(0.25, 3), ["desingularize", "--eps", "0"], "eps0 must be finite and positive"),
    (monomial(0.25, 3), ["desingularize", "--eps", "-0.01"], "eps0 must be finite and positive"),
    (monomial(0.25, 3), ["desingularize", "--eps", "nan"], "eps0 must be finite and positive"),
], ids=["branch", "general-position", "mu", "energy-resolution", "base-outside", "base-text",
        "base-nan", "resolution-zero", "resolution-negative", "eps-zero", "eps-negative",
        "eps-nan"])
def test_cli_input_errors_end_in_the_error_report(tmp_path, capsys, f, argv, message):
    out = tmp_path / "out"
    code = main([argv[0], "-i", str(_write_spec(tmp_path, f)), "-o", str(out), *argv[1:]])
    assert code == 1
    text = capsys.readouterr().out
    report = json.loads(text)
    assert report["error"] == "ValueError" and message in report["message"]
    assert (out / "report.json").read_text() == text


def test_cli_desingularize_merged_zero_reports_error(tmp_path, capsys):
    p = _write_spec(tmp_path, monomial(0.25, 3))
    code = main(["desingularize", "-i", str(p), "-o", str(tmp_path / "out"), "--eps", "1e-13"])
    assert code == 1
    text = capsys.readouterr().out
    msg = json.loads(text)
    assert msg["error"] == "SplitOrderMismatch"
    # the error report carries the split's counters up to the failure: the
    # first attempt's one Newton pass put the new zero on the old one
    assert msg["diagnostics"]["split"] == {
        "attempts": 1, "newton_passes": 1, "R": 1, "det_fallback": False,
        "backtracks": {"BranchLost": 0, "ClosenessFailed": 0, "RootTooCloseToBoundary": 0}}
    assert (tmp_path / "out" / "report.json").read_text() == text


def test_cli_index_figure5_negative_base(tmp_path, capsys):
    f, base = figure5_function()
    assert base == -0.4 - 0.3j
    p = _write_spec(tmp_path, f)
    out = tmp_path / "out"
    code = main(["index", "-i", str(p), "-o", str(out), "--resolution", "128",
                 "--base=-0.4,-0.3"])
    assert code == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["base"] == [-0.4, -0.3]
    assert (rep["M"], rep["N"], rep["T"]) == (7, 6, 2)


def test_cli_index_figure5_default_base(tmp_path, capsys):
    # the non-critical double zero of figure 5 does not bar its odd zero as base
    p = _write_spec(tmp_path, figure5_function()[0])
    out = tmp_path / "out"
    code = main(["index", "-i", str(p), "-o", str(out), "--resolution", "128"])
    assert code == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["base"] == [-0.4, -0.3]
    assert (rep["M"], rep["N"], rep["T"]) == (7, 6, 2)


def test_runtime_imports_stay_scipy_free():
    # the runtime needs only numpy; scipy is a test and benchmark dependency
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, hopfseg.cli, hopfseg.experiments; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"

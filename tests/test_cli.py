"""CLI wiring: reports, determinism, exit codes, selftests."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import deformkit
from deformkit import Jet, JetPoly, SampleCloud, SparsePoly, UniPoly
from deformkit import cli as cli_mod
from deformkit import varieties as varieties_mod
from deformkit.cli import main


@pytest.fixture()
def files(tmp_path):
    paths = {}

    def dump(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        paths[name] = str(p)
        return str(p)

    dump("f1.json", UniPoly([-1, 0, 1]).to_json_dict())
    dump("g1.json", UniPoly([-0.98, 0.01, 1.01]).to_json_dict())
    gjet = JetPoly(
        1, {(2,): Jet.constant(1), (0,): -(Jet.constant(1) + Jet.eps())}
    )
    dump("gjet.json", gjet.to_json_dict())
    f2 = SparsePoly(2, {(1, 1): 1.0, (0, 0): -1.0})
    g2 = SparsePoly(2, {(1, 1): 1.04, (0, 0): -0.96})
    dump("f2.json", f2.to_json_dict())
    dump("g2.json", g2.to_json_dict())
    diag = SparsePoly(2, {(1, 0): 1.0, (0, 1): -1.0})
    dump("diag.json", diag.to_json_dict())
    cloud = SampleCloud(
        np.array([[z, z] for z in np.linspace(-1, 1, 9)], dtype=np.complex128)
    )
    w = tmp_path / "W.csv"
    w.write_text(cloud.to_csv())
    paths["W.csv"] = str(w)
    z = tmp_path / "Z.csv"
    z.write_text(cloud.to_csv())
    paths["Z.csv"] = str(z)
    paths["dir"] = str(tmp_path)
    return paths


def run_json(args, out_path):
    rc = main(args + ["--out", out_path, "--no-timestamp"])
    assert rc == 0
    with open(out_path) as fh:
        return json.load(fh)


def test_roots_report(files, tmp_path):
    out = str(tmp_path / "roots.json")
    rep = run_json(["roots", "--poly", files["f1.json"]], out)
    assert rep["command"] == "roots"
    assert rep["version"]
    vals = sorted(r["value"]["re"] for r in rep["result"]["roots"])
    assert vals == pytest.approx([-1.0, 1.0], abs=1e-10)


def test_align_report(files, tmp_path):
    out = str(tmp_path / "align.json")
    rep = run_json(
        ["align", "--f", files["f1.json"], "--g", files["g1.json"], "--eps", "0.1"],
        out,
    )
    assert rep["result"]["aligned"] is True
    assert 0 < rep["result"]["bottleneck"] < 0.1


def two_solve_align(f, g, tol, eps):
    """Reference: the earlier ``align`` result, one ``find_roots`` per side."""
    match = deformkit.bottleneck_match(deformkit.find_roots(f, tol), deformkit.find_roots(g, tol))
    out = {"perm": list(match.perm), "bottleneck": match.bottleneck}
    if eps is not None:
        out["eps"] = eps
        out["aligned"] = match.bottleneck < eps
    return out


def test_align_report_equals_the_two_solve_report(files, tmp_path):
    rng = np.random.default_rng(4)
    pairs = [(UniPoly([-1, 0, 1]), UniPoly([-0.98, 0.01, 1.01]))]
    for deg in (1, 5, 12):
        f = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        pairs.append((UniPoly(f), UniPoly(f + 1e-3 * rng.normal(size=deg + 1))))
    for k, (f, g) in enumerate(pairs):
        fp, gp = tmp_path / f"f{k}.json", tmp_path / f"g{k}.json"
        fp.write_text(json.dumps(f.to_json_dict()))
        gp.write_text(json.dumps(g.to_json_dict()))
        for extra in ([], ["--eps", "0.01", "--tol", "1e-10"]):
            argv = ["align", "--f", str(fp), "--g", str(gp), "--seed", "7",
                    "--no-timestamp", *extra]
            a, b = tmp_path / "a.json", tmp_path / "b.json"
            assert main(argv + ["--out", str(a)]) == 0
            args = cli_mod.build_parser().parse_args(argv + ["--out", str(b)])
            cli_mod._emit(args, two_solve_align(f, g, args.tol, args.eps))
            assert a.read_bytes() == b.read_bytes()


def test_align_size_mismatch_is_exit_one_before_any_solve(files, tmp_path, monkeypatch, capsys):
    cubic = tmp_path / "cubic.json"
    cubic.write_text(json.dumps(UniPoly([1, 0, 0, 1]).to_json_dict()))

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the size check")

    monkeypatch.setattr(cli_mod, "solve_batch", no_solve)
    out = tmp_path / "r.json"
    rc = main(["align", "--f", files["f1.json"], "--g", str(cubic), "--out", str(out)])
    assert rc == 1 and not out.exists()
    assert capsys.readouterr().err == "deformkit: error: size mismatch: 2 vs 3\n"


def test_align_unconverged_g_is_exit_two(files, tmp_path, capsys):
    g = UniPoly([1e200, 0, 1])  # Horner overflows: no certified roots
    gp = tmp_path / "huge.json"
    gp.write_text(json.dumps(g.to_json_dict()))
    with np.errstate(all="ignore"), pytest.raises(deformkit.RootConvergenceError) as exc:
        deformkit.find_roots(g)
    out = tmp_path / "r.json"
    rc = main(["align", "--f", files["f1.json"], "--g", str(gp), "--out", str(out)])
    assert rc == 2 and not out.exists()
    assert capsys.readouterr().err == f"deformkit: error: {exc.value}\n"


def test_lemma_report(files, tmp_path):
    out = str(tmp_path / "lemma.json")
    rep = run_json(
        [
            "lemma",
            "--f", files["f2.json"],
            "--g", files["g2.json"],
            "--eps", "0.1",
            "--T", "1",
            "--grid", "9",
        ],
        out,
    )
    assert rep["result"]["passed"] is True
    assert rep["result"]["delta_limit"] == pytest.approx(0.05)


def test_lemma_delta_budget_echo(files, tmp_path):
    # d=2, support 3 at eps 0.3 gives the documented budget 0.1
    f = SparsePoly(2, {(1, 1): 1.0, (1, 0): 0.5, (0, 0): -1.0})
    g = SparsePoly(2, {(1, 1): 1.02, (1, 0): 0.5, (0, 0): -1.0})
    fp, gp = tmp_path / "f3.json", tmp_path / "g3.json"
    fp.write_text(json.dumps(f.to_json_dict()))
    gp.write_text(json.dumps(g.to_json_dict()))
    out = str(tmp_path / "l3.json")
    rep = run_json(
        ["lemma", "--f", str(fp), "--g", str(gp), "--eps", "0.3", "--T", "1",
         "--grid", "9"],
        out,
    )
    assert rep["result"]["delta_limit"] == pytest.approx(0.1)


def test_contain_report_and_cloud_export(files, tmp_path):
    out = str(tmp_path / "contain.json")
    csv_out = str(tmp_path / "cloud.csv")
    rc = main(
        [
            "contain",
            "--f", files["diag.json"],
            "--g", files["diag.json"],
            "--grid", "9",
            "--cloud-csv", csv_out,
            "--out", out,
            "--no-timestamp",
        ]
    )
    assert rc == 0
    rep = json.load(open(out))
    assert rep["result"]["violations"] == 0
    exported = SampleCloud.from_csv(open(csv_out).read())
    assert len(exported) == rep["result"]["samples"]


def test_contain_cloud_csv_samples_once(files, tmp_path, monkeypatch):
    f2 = SparsePoly.from_json_dict(json.load(open(files["f2.json"])))
    expected = varieties_mod.sample_hypersurface(f2, 1.0, 1, 9, 1e-8).to_csv()
    calls = []
    original = varieties_mod.sample_hypersurface

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    # Both binding sites: the library's own and the one the CLI imported.
    monkeypatch.setattr(varieties_mod, "sample_hypersurface", counting)
    monkeypatch.setattr(cli_mod, "sample_hypersurface", counting)
    csv_out = tmp_path / "cloud.csv"
    rc = main(
        [
            "contain",
            "--f", files["f2.json"],
            "--g", files["g2.json"],
            "--grid", "9",
            "--cloud-csv", str(csv_out),
            "--out", str(tmp_path / "contain.json"),
            "--no-timestamp",
        ]
    )
    assert rc == 0
    assert len(calls) == 1
    assert csv_out.read_text() == expected


def test_report_records_the_kernel_backend(files, tmp_path):
    assert deformkit.BACKEND == "python"
    rep = run_json(["roots", "--poly", files["f1.json"]], str(tmp_path / "r.json"))
    assert rep["backend"] == deformkit.BACKEND


def test_modulus_report(files, tmp_path):
    out = str(tmp_path / "modulus.json")
    rep = run_json(
        ["modulus", "--f", files["f1.json"], "--eps", "0.01", "--trials", "4"],
        out,
    )
    assert 1e-5 < rep["result"]["delta"] < 0.01


def test_jet_lift_report(files, tmp_path):
    out = str(tmp_path / "lift.json")
    rep = run_json(
        ["jet-lift", "--f", files["f1.json"], "--g", files["gjet.json"]], out
    )
    assert len(rep["result"]["pairs"]) == 2
    assert rep["result"]["skipped"] == []


def test_lift_divides_by_the_derivative_of_the_standard_part(files, tmp_path):
    # st(g) = t^2 - 1 + 5e-13 t is within ST_MATCH_TOL of f = t^2 - 1, so
    # both commands accept the pair.  Dividing the Newton step by f'(zeta)
    # instead of st(g)'(zeta) leaves an order-1 residual of about 5e-13 times
    # the lift coefficient, far above its rounding bound (exit 2 before).
    g = JetPoly(
        1,
        {
            (2,): Jet.constant(1),
            (1,): Jet.constant(5e-13),
            (0,): -(Jet.constant(1) + Jet.eps()),
        },
    )
    gp = tmp_path / "gshift.json"
    gp.write_text(json.dumps(g.to_json_dict()))
    rep = run_json(["jet-lift", "--f", files["f1.json"], "--g", str(gp)], str(tmp_path / "l.json"))
    assert len(rep["result"]["pairs"]) == 2
    rep = run_json(
        ["variety", "--f", files["f1.json"], "--g", str(gp), "--grid", "5"],
        str(tmp_path / "v.json"),
    )["result"]
    assert rep["backward_checked"] == rep["witnesses"] == 2
    assert rep["backward_failures"] == 0 and rep["passed"] is True


def test_variety_checks_every_root_that_jet_lift_pairs(tmp_path):
    # f = 1e-13 t^2 + t - 1 has a leading coefficient below the sampling
    # rule's DEGENERATE_LEAD_TOL, but both roots are simple: jet-lift pairs
    # both, and variety --g at those roots lifts and certifies both.
    f = UniPoly([-1, 1, 1e-13])
    e = Jet.eps()
    g = JetPoly(1, {(2,): Jet.constant(1e-13), (1,): 1 + 0.3j * e, (0,): -1 + 0.2 * e})
    fp, gp, pts = tmp_path / "f.json", tmp_path / "g.json", tmp_path / "roots.csv"
    fp.write_text(json.dumps(f.to_json_dict()))
    gp.write_text(json.dumps(g.to_json_dict()))
    pairs = run_json(["jet-lift", "--f", str(fp), "--g", str(gp)], str(tmp_path / "l.json"))
    roots = [[complex(p["root"]["re"], p["root"]["im"])] for p in pairs["result"]["pairs"]]
    assert len(roots) == 2
    pts.write_text(SampleCloud(np.array(roots)).to_csv())
    rep = run_json(
        ["variety", "--f", str(fp), "--g", str(gp), "--points", str(pts)],
        str(tmp_path / "v.json"),
    )["result"]
    assert rep["backward_checked"] == rep["witnesses"] == 2
    assert rep["backward_failures"] == 0 and rep["passed"] is True


def test_variety_residual_sweep(files, tmp_path):
    out = str(tmp_path / "variety.json")
    rep = run_json(
        [
            "variety",
            "--f", files["diag.json"],
            "--points", files["W.csv"],
            "--eps", "1e-6",
        ],
        out,
    )
    assert rep["result"]["members"] == rep["result"]["points"]


def test_variety_autosampled_points(files, tmp_path):
    out = str(tmp_path / "vauto.json")
    rep = run_json(
        ["variety", "--f", files["diag.json"], "--grid", "7", "--eps", "1e-6"],
        out,
    )
    assert rep["result"]["points"] > 0
    assert rep["result"]["members"] == rep["result"]["points"]


def test_variety_jet_mode(files, tmp_path):
    gjet = JetPoly(
        2,
        {
            (1, 0): Jet.constant(1),
            (0, 1): Jet.constant(-1),
            (0, 0): Jet.eps() * Jet.eps(),
        },
    )
    gp = tmp_path / "gjet2.json"
    gp.write_text(json.dumps(gjet.to_json_dict()))
    out = str(tmp_path / "vjet.json")
    rep = run_json(
        [
            "variety",
            "--f", files["diag.json"],
            "--g", str(gp),
            "--points", files["W.csv"],
        ],
        out,
    )
    assert rep["result"]["passed"] is True


def test_variety_jet_mode_is_deterministic_and_seed_free(files, tmp_path):
    gjet = JetPoly(
        2,
        {(1, 0): Jet.constant(1), (0, 1): Jet.constant(-1), (0, 0): Jet.eps(power=2)},
    )
    gp = tmp_path / "gjet2.json"
    gp.write_text(json.dumps(gjet.to_json_dict()))
    args = ["variety", "--f", files["diag.json"], "--g", str(gp), "--grid", "5",
            "--no-timestamp"]
    paths = [str(tmp_path / f"v{i}.json") for i in range(3)]
    assert main(args + ["--seed", "1", "--out", paths[0]]) == 0
    assert main(args + ["--seed", "1", "--out", paths[1]]) == 0
    assert main(args + ["--seed", "2", "--out", paths[2]]) == 0
    a, b, c = (open(p, "rb").read() for p in paths)
    assert a == b
    ra, rc = json.loads(a)["result"], json.loads(c)["result"]
    assert ra == rc and ra["passed"] is True
    assert ra["backward_checked"] == ra["witnesses"] > 0
    assert "univariate_crosscheck" not in ra


def test_hausdorff_report(files, tmp_path):
    out = str(tmp_path / "h.json")
    rep = run_json(
        ["hausdorff", "--W", files["W.csv"], "--Z", files["Z.csv"], "--eps", "0.5"],
        out,
    )
    assert rep["result"]["hausdorff"] == 0.0
    assert rep["result"]["is_eps_deformation"] is True


def test_variety_matches_contain_max_residual(files, tmp_path):
    # One evaluator: the residual sweep over the exported cloud reports the
    # containment check's max residual for the same cloud, bit for bit.
    # Evaluating point by point can change the last bits, and does change
    # the maximum on this pair with NumPy 2.4 on x86-64.
    f = SparsePoly(2, {(2, 1): 1.0 - 0.5j, (1, 0): 0.3j, (0, 2): 0.6, (0, 0): -0.7})
    g = deformkit.random_deformation(f, 0.02, seed=1)
    fp, gp = tmp_path / "f.json", tmp_path / "g.json"
    fp.write_text(json.dumps(f.to_json_dict()))
    gp.write_text(json.dumps(g.to_json_dict()))
    cloud_csv = str(tmp_path / "F.csv")
    contain = run_json(
        [
            "contain",
            "--f", str(fp),
            "--g", str(gp),
            "--T", "1.5",
            "--eps", "0.5",
            "--grid", "13",
            "--cloud-csv", cloud_csv,
        ],
        str(tmp_path / "contain.json"),
    )
    variety = run_json(
        ["variety", "--f", str(gp), "--points", cloud_csv, "--eps", "0.5"],
        str(tmp_path / "variety.json"),
    )
    assert contain["result"]["samples"] > 0
    assert variety["result"]["points"] == contain["result"]["samples"]
    assert variety["result"]["max_residual"] == contain["result"]["max_residual"]


def test_variety_empty_cloud(files, tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("re_1,im_1,re_2,im_2\n")
    rep = run_json(
        ["variety", "--f", files["diag.json"], "--points", str(empty), "--eps", "0.1"],
        str(tmp_path / "v.json"),
    )
    assert rep["result"]["points"] == 0
    assert rep["result"]["members"] == 0
    assert rep["result"]["max_residual"] == 0.0


def test_non_finite_cloud_is_exit_one(files, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("re_1,im_1,re_2,im_2\n0.0,0.0,0.0,0.0\nnan,0.0,0.0,0.0\n")
    out = tmp_path / "h.json"
    rc = main(["hausdorff", "--W", str(bad), "--Z", files["Z.csv"], "--out", str(out)])
    assert rc == 1
    assert not out.exists()
    rc = main(["hausdorff", "--W", files["W.csv"], "--Z", str(bad)])
    assert rc == 1
    rc = main(["variety", "--f", files["diag.json"], "--points", str(bad)])
    assert rc == 1
    assert "non-finite" in capsys.readouterr().err


def test_non_finite_report_is_exit_two(tmp_path, capsys):
    # The sup-norm distance between clouds at +-1e308 overflows to inf; the
    # report would not be strict JSON and must not be written.
    W, Z = tmp_path / "W.csv", tmp_path / "Z.csv"
    W.write_text("re_1,im_1\n1e308,0.0\n")
    Z.write_text("re_1,im_1\n-1e308,0.0\n")
    out = tmp_path / "h.json"
    with np.errstate(all="ignore"):
        rc = main(["hausdorff", "--W", str(W), "--Z", str(Z), "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert sorted(tmp_path.iterdir()) == [W, Z]
    with np.errstate(all="ignore"):
        rc = main(["hausdorff", "--W", str(W), "--Z", str(Z)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not JSON compliant" in captured.err


def test_infinite_root_residual_is_exit_two(tmp_path, capsys):
    # Horner overflows on t^2 + 1e200, so the residual bound is infinite and
    # the solver refuses the roots before any report exists.
    poly = tmp_path / "huge.json"
    poly.write_text(json.dumps(UniPoly([1e200, 0, 1]).to_json_dict()))
    out = tmp_path / "roots.json"
    with np.errstate(all="ignore"):
        rc = main(["roots", "--poly", str(poly), "--out", str(out), "--no-timestamp"])
    assert rc == 2
    assert list(tmp_path.iterdir()) == [poly]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "residual bound that is not finite" in captured.err


def test_overflowing_root_row_writes_one_json_error_line(tmp_path, capsys):
    # Horner overflows on t^10 + 1e40; the refusal is the only stderr line.
    poly = tmp_path / "huge.json"
    poly.write_text(json.dumps(UniPoly([1e40] + [0] * 9 + [1]).to_json_dict()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["roots", "--poly", str(poly), "--json-errors"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    message = json.loads(err)["error"]["message"]
    assert message == "root iteration has a residual bound that is not finite"


def test_non_finite_lift_is_exit_two(tmp_path, capsys):
    # g = 1e-5 t + e (1 + 1e300 t^2): the order-3 lift coefficient overflows.
    e = Jet.eps(4)
    g = JetPoly(1, {(1,): Jet.constant(1e-5, 4), (0,): e, (2,): 1e300 * e}, 4)
    fp, gp, out = tmp_path / "f.json", tmp_path / "g.json", tmp_path / "lift.json"
    fp.write_text(json.dumps(UniPoly([0, 1e-5]).to_json_dict()))
    gp.write_text(json.dumps(g.to_json_dict()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["jet-lift", "--f", str(fp), "--g", str(gp), "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "lift residual" in err and "not finite" in err


def test_counterexample_report_cli(files, tmp_path):
    out = str(tmp_path / "cx.json")
    rep = run_json(
        [
            "counterexample",
            "--delta-prime", "0.1",
            "--eps", "0.5",
            "--T", "12",
            "--grid", "25",
            "--measure-grid", "121",
        ],
        out,
    )
    assert rep["result"]["status"] == "certified"
    assert rep["result"]["witness_threshold"] == pytest.approx(10.0)


def test_counterexample_without_disk_points_is_exit_one(tmp_path, capsys):
    out = tmp_path / "cx.json"
    rc = main(["counterexample", "--measure-grid", "2", "--out", str(out)])
    assert rc == 1
    assert not out.exists()
    assert "measure_grid" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["lemma", "contain", "variety", "counterexample"])
def test_grid_without_disk_points_is_exit_one(command, files, tmp_path, capsys):
    # Below 3 points per real axis no grid value lies in the disk: lemma
    # divided by zero (exit 2), contain passed over 0 samples and
    # counterexample found no witness (exit 0).
    inputs = {
        "lemma": ["--f", files["f2.json"], "--g", files["g2.json"]],
        "contain": ["--f", files["diag.json"], "--g", files["diag.json"]],
        "variety": ["--f", files["diag.json"]],
        "counterexample": [],
    }[command]
    out = tmp_path / "r.json"
    for grid in ("0", "1", "2"):
        rc = main([command, *inputs, "--grid", grid, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1 and not out.exists()
        assert err.startswith("deformkit: error: ") and err.count("\n") == 1
    assert main([command, *inputs, "--grid", "3", "--out", str(out)]) == 0
    assert out.exists()


@pytest.mark.parametrize("command", ["contain", "variety"])
def test_negative_tol_is_exit_one(command, files, tmp_path, capsys):
    # contain --tol -1 on t1 - t2 sampled nothing and passed: 0 violations
    # over 0 samples.
    inputs = ["--f", files["diag.json"]]
    if command == "contain":
        inputs += ["--g", files["diag.json"]]
    out = tmp_path / "r.json"
    assert main([command, *inputs, "--tol", "-1", "--out", str(out)]) == 1
    assert not out.exists()
    assert "tol must be positive" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, option",
    [
        (["lemma", "--T", "nan"], "--T"),
        (["lemma", "--eps", "nan"], "--eps"),
        (["contain", "--T", "inf"], "--T"),
        (["contain", "--tol", "nan"], "--tol"),
        (["variety", "--eps=-inf"], "--eps"),
        (["hausdorff", "--eps", "nan"], "--eps"),
        (["roots", "--tol", "inf"], "--tol"),
        (["roots", "--cluster-radius", "nan"], "--cluster-radius"),
        (["align", "--eps", "nan"], "--eps"),
        (["modulus", "--eps", "inf"], "--eps"),
        (["counterexample", "--eps", "inf"], "--eps"),
        (["counterexample", "--T", "nan"], "--T"),
        (["counterexample", "--delta-prime=-inf"], "--delta-prime"),
    ],
)
def test_non_finite_option_is_exit_one(argv, option, tmp_path, capsys):
    out = tmp_path / "r.json"
    rc = main(argv + ["--out", str(out)])
    assert rc == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert f"{option} must be finite" in err


def test_variety_axis_out_of_range_is_exit_one_like_contain(files, tmp_path, capsys):
    # variety --axis 0 sampled along the default axis and echoed "axis": 0.
    out = tmp_path / "r.json"
    errs = []
    for argv in (
        ["contain", "--f", files["diag.json"], "--g", files["diag.json"]],
        ["variety", "--f", files["diag.json"]],
    ):
        assert main(argv + ["--axis", "0", "--out", str(out)]) == 1
        assert not out.exists()
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1] == "deformkit: error: axis must be in 1..2, got 0\n"


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--axis", "7", "axis must be in 1..2, got 7"),
        ("--grid", "2", "resolution must be >= 3 to reach the disk, got 2"),
        ("--tol", "-1", "tol must be positive, got -1.0"),
        ("--T", "-3", "T must be positive, got -3.0"),
        ("--order", "99", "order must be in 1..32, got 99"),
    ],
)
def test_variety_checks_echoed_options_with_a_given_cloud(
    option, value, message, files, tmp_path, capsys
):
    # With --points these options were echoed into the report's config, exit 0.
    # Each now gets the message of the sampling path, or of jet-lift's lift.
    out = tmp_path / "r.json"
    runs = [
        ["variety", "--f", files["diag.json"], "--points", files["W.csv"]],
        ["variety", "--f", files["diag.json"]],
    ]
    if option == "--order":
        runs.append(["jet-lift", "--f", files["f1.json"], "--g", files["gjet.json"]])
    for argv in runs:
        assert main(argv + [option, value, "--out", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err == f"deformkit: error: {message}\n"


@pytest.mark.parametrize("eps", ["0", "-1"])
@pytest.mark.parametrize("command", ["align", "variety", "hausdorff"])
def test_non_positive_eps_is_exit_one(command, eps, files, tmp_path, capsys):
    # These reported "aligned": false, "members": 0 and
    # "is_eps_deformation": false with exit 0.
    inputs = {
        "align": ["--f", files["f1.json"], "--g", files["g1.json"]],
        "variety": ["--f", files["diag.json"], "--points", files["W.csv"]],
        "hausdorff": ["--W", files["W.csv"], "--Z", files["Z.csv"]],
    }[command]
    out = tmp_path / "r.json"
    assert main([command, *inputs, f"--eps={eps}", "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err == f"deformkit: error: eps must be positive, got {float(eps)}\n"


@pytest.mark.parametrize("value", ["abc", "1.5"])
def test_non_integer_seed_env_is_exit_one(value, files, monkeypatch, capsys):
    monkeypatch.setenv("DEFORMKIT_SEED", value)
    argv = ["roots", "--poly", files["f1.json"]]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"deformkit: error: DEFORMKIT_SEED must be an integer, got {value!r}\n"
    assert main(argv + ["--json-errors"]) == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"]["code"] == 1 and "DEFORMKIT_SEED" in payload["error"]["message"]
    assert main(argv + ["--seed", "3"]) == 0  # an explicit seed never reads it


def test_reports_are_byte_identical(files, tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    args = ["align", "--f", files["f1.json"], "--g", files["g1.json"],
            "--seed", "7", "--no-timestamp"]
    assert main(args + ["--out", a]) == 0
    assert main(args + ["--out", b]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_parser_is_built_once_per_process(files, tmp_path):
    cli_mod.build_parser.cache_clear()
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    args = ["jet-lift", "--f", files["f1.json"], "--g", files["gjet.json"],
            "--no-timestamp"]
    assert main(args + ["--out", a]) == 0
    assert main(args + ["--out", b]) == 0
    assert cli_mod.build_parser.cache_info().misses == 1
    assert open(a, "rb").read() == open(b, "rb").read()


def test_missing_input_is_exit_one(files, capsys):
    rc = main(["roots", "--poly", files["dir"] + "/nope.json"])
    assert rc == 1
    rc = main(["roots"])
    assert rc == 1


def test_json_errors_flag(files, capsys):
    rc = main(["roots", "--poly", files["dir"] + "/nope.json", "--json-errors"])
    assert rc == 1
    err = capsys.readouterr().err
    payload = json.loads(err)
    assert payload["error"]["code"] == 1


def test_numeric_failure_is_exit_two(files, tmp_path, monkeypatch):
    from deformkit import roots as roots_mod

    monkeypatch.setattr(roots_mod, "MAX_SWEEPS", 1)
    rc = main(["roots", "--poly", files["f1.json"]])
    assert rc == 2


def test_selftests_all_pass(capsys):
    for cmd in (
        "roots", "align", "modulus", "jet-lift", "lemma",
        "contain", "variety", "hausdorff", "counterexample",
    ):
        assert main([cmd, "--selftest"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out


def test_seed_env_override(files, tmp_path, monkeypatch):
    out = str(tmp_path / "seeded.json")
    monkeypatch.setenv("DEFORMKIT_SEED", "4242")
    rep = run_json(["roots", "--poly", files["f1.json"]], out)
    assert rep["config"]["seed"] == 4242
    rep = run_json(["roots", "--poly", files["f1.json"], "--seed", "5"], out)
    assert rep["config"]["seed"] == 5  # explicit flag beats the environment


def test_console_script_entry_point(files, tmp_path):
    out = str(tmp_path / "sub.json")
    # The child imports the same deformkit as this process, installed or not.
    src = os.path.dirname(os.path.dirname(os.path.abspath(deformkit.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable, "-m", "deformkit.cli",
            "roots", "--poly", files["f1.json"],
            "--out", out, "--no-timestamp",
        ],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert json.load(open(out))["command"] == "roots"


# A float option and an int option of every subcommand (jet-lift has no float).
MALFORMED_OPTIONS = {
    "roots": ("--tol", "--seed"),
    "align": ("--eps", "--seed"),
    "modulus": ("--eps", "--trials"),
    "jet-lift": (None, "--order"),
    "lemma": ("--eps", "--grid"),
    "contain": ("--T", "--axis"),
    "variety": ("--tol", "--grid"),
    "hausdorff": ("--eps", "--seed"),
    "counterexample": ("--delta-prime", "--measure-grid"),
}


def test_malformed_options_cover_every_subcommand():
    assert set(MALFORMED_OPTIONS) == set(cli_mod._SELFTESTS)


@pytest.mark.parametrize("command", sorted(MALFORMED_OPTIONS))
def test_malformed_command_line_is_exit_one(command, capsys):
    float_opt, int_opt = MALFORMED_OPTIONS[command]
    cases = [[command, int_opt, "1.5"], [command, "--bogus", "1"], ["frobnicate", command]]
    if float_opt:
        cases.append([command, float_opt, "abc"])
    for argv in cases:
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("deformkit: error: ")
        assert main(argv + ["--json-errors"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        error = json.loads(captured.err)["error"]
        assert error["type"] == "ValueError" and error["code"] == 1


def test_help_and_version_still_exit_zero(capsys):
    for argv in (["--version"], ["--help"], ["roots", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
    assert capsys.readouterr().err == ""


def test_abbreviated_flags_are_refused(files, capsys):
    # Only the full spelling counts: a prefix such as --json is an unknown
    # argument, so the error line is plain whatever else is wrong.
    nope = files["dir"] + "/nope.json"
    for argv, why in (
        (["roots", "--poly", nope, "--json"], "unrecognized arguments: --json"),
        (["roots", "--tol", "abc", "--json"], "invalid float value: 'abc'"),
        (["roots", "--pol", files["f1.json"]], "unrecognized arguments: --pol"),
    ):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("deformkit: error: ") and why in captured.err
    for argv in (["roots", "--poly", nope, "--json-errors"],
                 ["roots", "--tol", "abc", "--json-errors"]):
        assert main(argv) == 1
        assert json.loads(capsys.readouterr().err)["error"]["code"] == 1


def test_collided_root_iterates_are_exit_two(files, monkeypatch, capsys):
    from deformkit import roots as roots_mod

    original = roots_mod._initial_points_batch

    def collided(coeffs):
        z0 = original(coeffs).copy()
        z0[:, 1] = z0[:, 0]
        return z0

    monkeypatch.setattr(roots_mod, "_initial_points_batch", collided)
    assert main(["roots", "--poly", files["f1.json"], "--json-errors"]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "RootConvergenceError"


@pytest.mark.parametrize(
    "mangle, field",
    [
        (lambda d: d["terms"][1].update(exps=[2.7]), "exponents"),
        (lambda d: d["terms"][1].update(exps=["2"]), "exponents"),
        (lambda d: d.update(nvars=1.9), "nvars"),
        (lambda d: d.update(nvars="1"), "nvars"),
        (lambda d: d["terms"][0].update(re="2.5"), "re"),
        (lambda d: d["terms"][0].update(im=True), "im"),
        (lambda d: d["terms"][0].update(im=None), "im"),
    ],
)
def test_polynomial_json_needs_integers_and_numbers(mangle, field, tmp_path, capsys):
    # Before, [2.7] was read as the exponent 2 and t^2 - 1 solved with exit 0.
    data = UniPoly([-1, 0, 1]).to_json_dict()
    mangle(data)
    poly = tmp_path / "p.json"
    poly.write_text(json.dumps(data))
    assert main(["roots", "--poly", str(poly)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"deformkit: error: {field} must be")


@pytest.mark.parametrize(
    "mangle, field",
    [
        (lambda d: d.update(order=8.0), "order"),
        (lambda d: d.update(nvars=1.0), "nvars"),
        (lambda d: d["terms"][0].update(exps=[2.0]), "exponents"),
        (lambda d: d["terms"][0]["jet"].update(min_exp=0.5), "min_exp"),
        (lambda d: d["terms"][0]["jet"].update(order="8"), "order"),
        (lambda d: d["terms"][0]["jet"]["coeffs"][0].update(re="1"), "re"),
        (lambda d: d["terms"][0]["jet"]["coeffs"][0].update(im=False), "im"),
    ],
)
def test_jet_json_needs_integers_and_numbers(mangle, field, files, tmp_path, capsys):
    data = json.load(open(files["gjet.json"]))
    mangle(data)
    with pytest.raises(ValueError, match=f"^{field} must be"):
        JetPoly.from_json_dict(data)
    g = tmp_path / "g.json"
    g.write_text(json.dumps(data))
    assert main(["jet-lift", "--f", files["f1.json"], "--g", str(g)]) == 1
    assert capsys.readouterr().err.startswith(f"deformkit: error: {field} must be")


def test_jet_lift_refuses_a_duplicate_exponent_tuple(files, tmp_path, capsys):
    data = json.load(open(files["gjet.json"]))
    data["terms"].append({"exps": [2], "jet": Jet.constant(5).to_json_dict()})
    g = tmp_path / "g.json"
    g.write_text(json.dumps(data))
    assert main(["jet-lift", "--f", files["f1.json"], "--g", str(g)]) == 1
    assert capsys.readouterr().err.startswith("deformkit: error: duplicate exponent tuple")


# -- cloud input fuzz --------------------------------------------------------------


@st.composite
def cloud_texts(draw):
    """A valid cloud CSV, a mangled one, or arbitrary text."""
    n = draw(st.integers(1, 3))
    values = st.floats(allow_nan=False, allow_infinity=False)
    rows = draw(st.lists(st.lists(values, min_size=2 * n, max_size=2 * n), max_size=6))
    flat = np.array(rows, dtype=np.float64).reshape(-1, 2 * n)
    text = SampleCloud(flat.view(np.complex128)).to_csv()
    pieces = [",", "#", '"', " ", "\n", "\r\n", "x", "e", "-", ".", "nan", "inf", "1e999", "re_1"]
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:at] + draw(st.sampled_from(pieces)) + text[at:]
        else:
            text = text[:at] + text[at + 1 :]
    return draw(st.one_of(st.just(text), st.text(max_size=40)))


def run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would be a stray stderr line
            rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def assert_clean_exit(rc, out, err, json_errors):
    """Exit 0 with a strict-JSON report, or one error line on stderr."""
    assert rc in (0, 1, 2)
    if rc == 0:
        assert err == ""
        json.loads(out, parse_constant=lambda c: pytest.fail(f"{c} in report"))
        return
    assert out == "" and err.count("\n") == 1 and err.endswith("\n")
    if json_errors:
        error = json.loads(err)["error"]
        assert error["code"] == rc
    else:
        assert err.startswith("deformkit: error: ")
    # Exit 2 only for a distance or residual that overflows the report.
    assert rc == 1 or "not JSON compliant" in err


@settings(max_examples=150, deadline=None)
@given(w=cloud_texts(), z=cloud_texts(), json_errors=st.booleans())
# The distance overflows: exit 2, and no NumPy warning beside the error line.
@example(w="re_1,im_1\n0.0,1.7e308\n", z="re_1,im_1\n0.0,-1e308\n", json_errors=True)
def test_cloud_inputs_never_crash(w, z, json_errors, tmp_path_factory):
    folder = tmp_path_factory.mktemp("fuzz")
    W, Z, poly = folder / "W.csv", folder / "Z.csv", folder / "f.json"
    W.write_bytes(w.encode("utf-8", "surrogatepass"))  # lone surrogates: invalid UTF-8
    Z.write_bytes(z.encode("utf-8", "surrogatepass"))
    poly.write_text(json.dumps(SparsePoly(2, {(1, 0): 1.0, (0, 1): -1.0}).to_json_dict()))
    flag = ["--json-errors"] if json_errors else []
    for argv in (
        ["hausdorff", "--W", str(W), "--Z", str(Z), "--eps", "0.1"],
        ["variety", "--f", str(poly), "--points", str(W), "--eps", "0.1"],
    ):
        assert_clean_exit(*run_captured(argv + flag), json_errors)

import dataclasses
import hashlib
import itertools
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import spinclone.noise
from spinclone import cli
from spinclone.cli import main


def run(tmp_path, *argv):
    # Global flags precede the subcommand.
    return main(["--out-dir", str(tmp_path)] + [str(a) for a in argv])


def read_rows(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def test_fig2_outputs(tmp_path, capsys):
    assert run(tmp_path, "fig2") == 0
    header, rows = read_rows(tmp_path / "fig2_theta.csv")
    assert header[0] == "theta"
    assert len(rows) == 181
    mid = rows[90]
    assert abs(float(mid["F_xy_numeric"]) - 0.853553391) < 1e-6
    assert abs(float(mid["F_heis_numeric"]) - 5.0 / 6.0) < 1e-6
    assert mid["F_pcc"] == mid["F_xy_analytic"]
    _, inset = read_rows(tmp_path / "fig2_inset.csv")
    assert len(inset) == 6
    four = next(r for r in inset if r["M"] == "4")
    assert abs(float(four["F_xy_analytic"]) - 0.75) < 1e-9
    assert abs(float(four["F_heis_analytic"]) - 0.7) < 1e-9
    assert four["F_pcc"] == ""   # no stored reference, never extrapolated
    assert (tmp_path / "fig2.manifest").exists()

    # Each check line quotes its measured value and its bound.
    lines = check_lines(capsys)
    assert lines[:2] == [
        f"[ok] theta=pi/2 XY fidelity {float(mid['F_xy_numeric']):.9f}, "
        f"target 0.853553391±1e-6",
        f"[ok] theta=pi/2 Heisenberg fidelity "
        f"{float(mid['F_heis_numeric']):.9f}, target 0.833333333±1e-6"]
    for line, pattern, bound in [
            (lines[2], r"theta=0 fidelities are 1: max deviation (\S+), "
                       r"bound 1e-9", 1e-9),
            (lines[3], r"analytic-numeric agreement: max (\S+), bound 1e-8",
             1e-8)]:
        match = re.fullmatch(r"\[ok\] " + pattern, line)
        assert match and float(match.group(1)) < bound
    assert len(lines) == 4


def test_fig2_deterministic(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    assert run(tmp_path / "a", "fig2") == 0
    assert run(tmp_path / "b", "fig2") == 0
    for name in ("fig2_theta.csv", "fig2_inset.csv"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())


def check_lines(capsys):
    return [ln for ln in capsys.readouterr().out.splitlines()
            if ln.startswith(("[ok]", "[FAIL]"))]


def test_tree_command(tmp_path, capsys):
    assert run(tmp_path, "tree") == 0
    header, rows = read_rows(tmp_path / "tree.csv")
    assert [r["k"] + r["j"] for r in rows] == ["20", "21", "22", "31", "32"]
    deep = next(r for r in rows if r["k"] == "2" and r["j"] == "2")
    assert abs(float(deep["F"]) - 0.676) <= 0.005
    assert abs(float(deep["F_star_formula"]) - 0.676776695) <= 1e-8
    manifest = (tmp_path / "tree.manifest").read_text()
    assert "command=tree" in manifest
    assert "sha256=" in manifest
    lines = manifest.splitlines()
    for case, dims in [("2_0", "4/3"), ("2_1", "8/6"), ("2_2", "16/12"),
                       ("3_1", "14/8"), ("3_2", "41/23")]:
        assert f"sector_dim.tree_{case}={dims}" in lines
    assert_certified_gaps(lines, [f"tree_{k}_{j}" for k, j in cli.TREE_CASES])

    # Each check line quotes the measured fidelity and the target band.
    by_case = {(r["k"], r["j"]): float(r["F"]) for r in rows}
    assert check_lines(capsys) == [
        f"[ok] tree({k},{j}) F={by_case[(k, j)]:.6f} target {target}±0.005"
        for k, j, target in (("2", "2", "0.676"), ("3", "2", "0.596"))]


def test_disorder_command(tmp_path, capsys):
    assert run(tmp_path, "disorder") == 0
    _, rows = read_rows(tmp_path / "disorder.csv")
    assert [r["M"] for r in rows] == ["2", "3", "4"]
    assert all(r["samples"] == "500" for r in rows)
    star2 = rows[0]
    assert float(star2["relative_drop"]) < 0.002
    assert (tmp_path / "networks" / "star_2.txt").exists()

    drops = [float(r["relative_drop"]) for r in rows]
    assert check_lines(capsys) == [
        f"[ok] star(2) relative drop {drops[0]:.3g}, bound 0.002",
        f"[ok] every relative drop non-negative: min {min(drops):.3g}"]
    lines = (tmp_path / "disorder.manifest").read_text().splitlines()
    assert "command=disorder" in lines
    assert {"sector_dim.star_2=4", "sector_dim.star_3=5",
            "sector_dim.star_4=6"} <= set(lines)


def test_disorder_command_byte_deterministic(tmp_path):
    assert run(tmp_path / "a", "--seed", 5, "disorder") == 0
    assert run(tmp_path / "b", "--seed", 5, "disorder") == 0
    assert ((tmp_path / "b" / "disorder.csv").read_bytes()
            == (tmp_path / "a" / "disorder.csv").read_bytes())


def test_fig3_command_byte_deterministic(tmp_path):
    # Run b compiles the circuits afresh; --threads is accepted and changes
    # no byte.
    args = ("--gamma-grid", "1e-3,1e-2")
    assert run(tmp_path / "a", *args, "fig3") == 0
    spinclone.noise._compiled_circuit.cache_clear()
    assert run(tmp_path / "b", *args, "--threads", 2, "fig3") == 0
    assert ((tmp_path / "b" / "fig3.csv").read_bytes()
            == (tmp_path / "a" / "fig3.csv").read_bytes())


@pytest.mark.parametrize("threads", [0, -1])
def test_threads_below_one_rejected(tmp_path, threads):
    with pytest.raises(ValueError, match="--threads"):
        run(tmp_path / "out", "--threads", threads, "disorder")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["disorder", "fig3"])
@pytest.mark.parametrize("seed", [-1, -3])
def test_negative_seed_rejected(tmp_path, command, seed):
    with pytest.raises(ValueError, match="--seed"):
        run(tmp_path / "out", "--seed", seed, command)
    assert not (tmp_path / "out").exists()


def test_fig3_command(tmp_path, capsys):
    assert run(tmp_path, "--gamma-grid", "1e-3,1e-2", "fig3") == 0
    _, rows = read_rows(tmp_path / "fig3.csv")
    # gamma = 0 is always prepended: 3 gammas x 2 protocols x 2 sizes
    assert len(rows) == 12
    by_key = {(r["protocol"], r["M"], r["gamma_over_J"]): float(r["F"])
              for r in rows}
    assert abs(by_key[("circuit", "2", "0")] - 0.853553391) < 1e-8
    assert abs(by_key[("circuit", "3", "0")] - 0.788675135) < 1e-8
    for m in ("2", "3"):
        assert (by_key[("network", m, "0.001")]
                > by_key[("circuit", m, "0.001")])

    # Each check line quotes its measured value (3 significant digits) and
    # its bound; margin and rise are recomputed here from the CSV.
    lines = check_lines(capsys)
    assert len(lines) == 5
    patterns = [
        r"circuit gamma=0 at ideal value: max deviation (\S+), bound 1e-9",
        r"network above circuit at gamma=0\.001: min margin (\S+), bound 0",
        r"curves monotone nonincreasing: max rise (\S+), bound 1e-12",
        r"trajectory/master cross-check \(2000 trajectories\): "
        r"trace distance (\S+), bound 0\.01",
        r"network row at gamma=0\.01 against the master equation: "
        r"gap (\S+), bound 1e-12"]
    values = []
    for line, pattern in zip(lines, patterns, strict=True):
        match = re.fullmatch(r"\[ok\] " + pattern, line)
        assert match, line
        values.append(float(match.group(1)))
    deviation, margin, rise, distance, gap = values
    assert 0.0 <= deviation < 1e-9 and margin > 0.0 and rise <= 1e-12
    assert 0.0 <= distance <= 0.01 and 0.0 <= gap <= 1e-12
    assert margin == pytest.approx(
        min(by_key[("network", m, "0.001")] - by_key[("circuit", m, "0.001")]
            for m in ("2", "3")), rel=5e-3)
    curves = [[by_key[(p, m, g)] for g in ("0", "0.001", "0.01")]
              for p in ("network", "circuit") for m in ("2", "3")]
    assert rise == pytest.approx(
        max(c[i + 1] - c[i] for c in curves for i in range(2)), rel=5e-3)
    # The printed cross-check depends on the trajectory count: recorded.
    manifest = (tmp_path / "fig3.manifest").read_text().splitlines()
    assert {"gamma_grid=1e-3,1e-2", "n_traj=2000"} <= set(manifest)


def test_trajectory_count_follows_the_largest_gamma():
    # A base count of 1000 trajectories up to Gamma = 0.1, then as the
    # square of the weight dephased over the cross-check's evolution; twice
    # the base while the steps are at most 0.1 / 4, the base at 1e-2.
    count = cli._trajectory_count
    assert [count(g) for g in (0.0, 1e-4, 0.05, 0.09999999, 0.1)] \
        == [2000] * 5
    gammas = [0.1000001, 0.2, 0.5, 1.0, 2.0, 4.0]
    counts = [count(g) for g in gammas]
    assert counts[0] > 2000 and counts == sorted(counts)
    weight = [1.0 - math.exp(-g * cli.t_c_xy(2)) for g in [0.1] + gammas]
    for n, w in zip(counts, weight[1:]):
        assert n == 2 * math.ceil(1000.0 * (w / weight[0]) ** 2)
    assert counts[2:] == [22672, 40064, 49224, 50390]
    assert [count(g) for g in (10.0, 100.0, 1e7)] == [25202] * 3


def _cross_check_steps(gamma):
    return math.ceil(cli.t_c_xy(2) / cli._trajectory_step(gamma))


def test_cross_check_steps_follow_the_largest_gamma():
    assert [_cross_check_steps(g) for g in (0.0, 0.1, 1.0, 2.0, 4.0, 10.0,
                                            1e7)] == [23, 23, 23, 45, 89,
                                                      223, 223]


@pytest.mark.parametrize("gamma", [1e-4, 0.1, 0.5, 1.0, 2.0, 4.0, 10.0,
                                   100.0, 1e3, 1e7])
def test_cross_check_costs_no_more_than_first_order_split(gamma):
    # The first-order split took 223 steps of 1e-2 for the base count of
    # trajectories: max(1000, 1000 (w / w(0.1))^2).
    w, w_ref = (1.0 - math.exp(-g * cli.t_c_xy(2)) for g in (gamma, 0.1))
    base = max(1000, math.ceil(1000.0 * (w / w_ref) ** 2))
    assert cli._trajectory_count(gamma) * _cross_check_steps(gamma) \
        <= 223 * base


def test_fig3_cross_check_passes_at_large_gamma(tmp_path, capsys):
    # At 1000 trajectories this grid failed the cross-check at 96 of seeds
    # 0-99 on correct results; the derived count holds its sampling error.
    assert run(tmp_path, "--gamma-grid", "0.5,1,2,4", "fig3") == 0
    lines = check_lines(capsys)
    assert len(lines) == 5 and all(ln.startswith("[ok]") for ln in lines)
    assert lines[3].startswith(
        "[ok] trajectory/master cross-check (50390 trajectories): ")
    manifest = (tmp_path / "fig3.manifest").read_text().splitlines()
    assert "n_traj=50390" in manifest


@pytest.mark.parametrize("gamma", ["1e6", "1e7", "1e12"])
def test_fig3_runs_to_its_checks_at_stiff_dephasing(tmp_path, capsys, gamma):
    # The pair propagator keeps the trace exactly, so the circuit's density
    # matrix passes its own checks however stiff the dephasing.  There both
    # curves equal 1/2 within rounding, and the margin compares rounding.
    assert run(tmp_path, "--gamma-grid", gamma, "fig3") in (0, 1)
    lines = check_lines(capsys)
    assert len(lines) == 5
    assert all(ln.startswith("[ok]") for ln in lines[:3] + lines[4:])
    _, rows = read_rows(tmp_path / "fig3.csv")
    assert all(abs(float(r["F"]) - 0.5) < 1e-12 for r in rows
               if r["gamma_over_J"] != "0")


@pytest.mark.parametrize("t_points", [0, 1])
def test_too_few_time_points_rejected(tmp_path, capsys, t_points):
    # optimize certifies its maxima over the whole range, so no grid density
    # is left to choose: --t-points fails to parse, whatever its value.
    with pytest.raises(SystemExit):
        run(tmp_path / "out", f"--t-points={t_points}", "tree")
    assert "unrecognized arguments: --t-points" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv,error,name", [
    (["--gamma-grid", "1e-4:1e-1:0"], ValueError, "--gamma-grid"),
    (["--gamma-grid", "0"], ValueError, "--gamma-grid"),
    (["--gamma-grid", "1e-4:1e-1"], ValueError, "--gamma-grid"),
    (["--gamma-grid", "0:1:3"], ValueError,
     "--gamma-grid '0:1:3': a log-spaced grid needs start > 0 and stop > 0"),
    (["--gamma-grid", "1e-3:1e-1:-2"], ValueError, "--gamma-grid"),
    (["--gamma-grid", "a,b"], ValueError, "--gamma-grid"),
    (["--gamma-grid=-1e-3,1e-2"], ValueError, "--gamma-grid"),
    (["--gamma-grid", "nan,1e-2"], ValueError, "--gamma-grid"),
    (["--gamma-grid", "1e-3:inf:3"], ValueError, "--gamma-grid"),
    (["--t-points=1"], SystemExit, "unrecognized arguments: --t-points"),
], ids=["empty_grid", "zero_grid", "two_field_grid",
        "zero_log_bound", "negative_count", "non_numeric_list",
        "negative_list", "nan_list", "infinite_log_bound", "one_time_point"])
def test_fig3_rejects_bad_input_before_writing(tmp_path, capsys, argv, error,
                                               name):
    # A bad value raises a ValueError naming its flag; a flag the parser
    # does not know exits with the usage error on stderr.
    with pytest.raises(error) as raised:
        run(tmp_path / "out", *argv, "fig3")
    message = (str(raised.value) if error is ValueError
               else capsys.readouterr().err)
    assert re.search(name, message)
    # Not even the output directory is created.
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("grid", ["0.1,0.01", "1e-1:1e-3:3"])
def test_fig3_descending_grid_passes(tmp_path, capsys, grid):
    # Monotonicity is checked along Gamma, whatever order the grid is in.
    assert run(tmp_path, "--gamma-grid", grid, "fig3") == 0
    line = next(ln for ln in capsys.readouterr().out.splitlines()
                if "curves monotone nonincreasing" in ln)
    assert line.startswith("[ok]")


def test_fig3_cross_check_passes_at_seed_4(tmp_path, capsys):
    assert run(tmp_path, "--seed", 4, "--gamma-grid", "1e-3,1e-1",
               "fig3") == 0
    line = next(ln for ln in capsys.readouterr().out.splitlines()
                if "trajectory/master cross-check" in ln)
    assert line.startswith("[ok]") and "bound 0.01" in line


def test_fig3_cross_check_passes_at_seed_292(tmp_path, capsys):
    # The first-order split's 1000 trajectories read 0.0102 here, the one
    # failure among seeds 0-299 on the default grid.
    assert run(tmp_path, "--seed", 292, "fig3") == 0
    line = next(ln for ln in capsys.readouterr().out.splitlines()
                if "trajectory/master cross-check" in ln)
    assert line.startswith("[ok]") and "bound 0.01" in line


@pytest.mark.parametrize("seed,distance", [(0, "0.00321"), (4, "0.00465")])
def test_fig3_cross_check_random_stream_is_pinned(tmp_path, capsys, seed,
                                                  distance):
    # Printed values of the trajectory loop at its 23 steps on the default
    # grid; a change to the step, the kick placement, the kick stream or its
    # arithmetic moves them.
    assert run(tmp_path, "--seed", seed, "fig3") == 0
    line = next(ln for ln in capsys.readouterr().out.splitlines()
                if "trajectory/master cross-check" in ln)
    assert line == (f"[ok] trajectory/master cross-check (2000 trajectories):"
                    f" trace distance {distance}, bound 0.01")


def assert_certified_gaps(lines, cases):
    """One ``certified_gap.<case>=`` manifest line per case, each at most
    optimize's TIE_TOLERANCE, 1e-10."""
    gaps = {ln.split("=")[0].removeprefix("certified_gap."): float(
        ln.split("=")[1]) for ln in lines if ln.startswith("certified_gap.")}
    assert sorted(gaps) == sorted(cases)
    assert all(0.0 <= gap <= 1e-10 for gap in gaps.values())


def test_table1_command_small_grid(tmp_path, capsys):
    # Every row with deviation and flag columns, and each row's certified
    # gap in the manifest, which names no grid density.
    assert run(tmp_path, "table1") == 0
    header, rows = read_rows(tmp_path / "table1.csv")
    assert len(rows) == 7
    assert "deviation" in header and "flag" in header
    assert "F_at_ref_point" in header
    pairs = {(r["N"], r["M"]) for r in rows}
    assert ("2", "3") in pairs and ("4", "5") in pairs

    # Each check line quotes its measured deviation and bound.
    checks = [ln for ln in capsys.readouterr().out.splitlines()
              if ln.startswith(("[ok]", "[FAIL]"))]
    assert len(checks) == 3
    by_pair = {(r["N"], r["M"]): r for r in rows}
    for k, (n, m) in enumerate([("2", "3"), ("3", "4")], start=1):
        deviation = float(by_pair[(n, m)]["deviation"])
        assert checks[k] == (f"[ok] {n}->{m} within 0.03 of published value: "
                             f"deviation {deviation:.3g}, bound 0.03")

    lines = (tmp_path / "table1.manifest").read_text().splitlines()
    assert "command=table1" in lines
    assert not any(ln.startswith("t_points=") for ln in lines)
    assert_certified_gaps(lines, [f"bipartite_{n}_{m}" for n, m in [
        (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (3, 4), (4, 5)]])
    dims = {f"sector_dim.bipartite_2_{m}={full}/6"
            for m, full in [(3, 16), (4, 22), (5, 29), (6, 37), (7, 46)]}
    dims |= {"sector_dim.bipartite_3_4=64/10", "sector_dim.bipartite_4_5=256/15"}
    assert dims <= set(lines)


def test_table1_fails_when_a_checked_row_misses(tmp_path, capsys,
                                                monkeypatch):
    # A flagged row is still a miss: the check fails and the command exits 1.
    missed = tuple(
        dataclasses.replace(ref, fidelity=ref.fidelity + 0.1)
        if (ref.n_inputs, ref.n_outputs) == (2, 3) else ref
        for ref in cli.NTOM_REFERENCE)
    monkeypatch.setattr(cli, "NTOM_REFERENCE", missed)
    assert run(tmp_path, "table1") == 1
    _, rows = read_rows(tmp_path / "table1.csv")
    assert rows[0]["flag"] == "TOPOLOGY_MISMATCH"
    deviation = float(rows[0]["deviation"])
    lines = check_lines(capsys)
    assert lines[1] == (f"[FAIL] 2->3 within 0.03 of published value: "
                        f"deviation {deviation:.3g}, bound 0.03")
    assert lines[0].startswith("[ok]") and lines[2].startswith("[ok]")


def test_duration_ignores_the_wall_clock(tmp_path, monkeypatch):
    # A system clock set back during a run must not yield a negative
    # duration.
    clock = itertools.count(1e9, -60.0)
    monkeypatch.setattr(time, "time", lambda: next(clock))
    assert run(tmp_path, "fig2") == 0
    last = (tmp_path / "fig2.manifest").read_text().splitlines()[-1]
    assert float(last.removeprefix("duration_s=")) >= 0.0


def test_gamma_grid_parsing():
    from spinclone.cli import _parse_gamma_grid
    values = _parse_gamma_grid("1e-4:1e-1:10")
    assert len(values) == 10
    assert abs(values[0] - 1e-4) < 1e-12
    assert abs(values[3] - 1e-3) < 1e-12
    assert _parse_gamma_grid("0.5,0.25") == [0.5, 0.25]


@pytest.mark.parametrize("argv", [
    ["fig2"],
    ["tree"],
    ["disorder"],
    ["--gamma-grid", "1e-3,1e-2", "fig3"],
], ids=["fig2", "tree", "disorder", "fig3"])
def test_manifest_hashes_every_output(tmp_path, argv):
    assert run(tmp_path, *argv) == 0
    command = argv[-1]
    lines = (tmp_path / f"{command}.manifest").read_text().splitlines()
    assert lines[0] == f"command={command}"
    assert lines[-1].startswith("duration_s=")
    hashes = [re.fullmatch(r"output=(\S+) sha256=([0-9a-f]{64})", ln).groups()
              for ln in lines if ln.startswith("output=")]
    written = {path.name: path for path in tmp_path.rglob("*")
               if path.is_file() and path.suffix != ".manifest"}
    assert sorted(name for name, _ in hashes) == sorted(written)
    for name, digest in hashes:
        assert hashlib.sha256(written[name].read_bytes()).hexdigest() == digest
    assert any(name.endswith(".csv") for name in written)
    assert all(written[name].parent.name == "networks"
               for name in written if name.endswith(".txt"))


def test_entry_point_runs_as_module(tmp_path):
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "spinclone.cli", "--out-dir", str(tmp_path),
         "fig2"], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert len([ln for ln in done.stdout.splitlines()
                if ln.startswith("[ok]")]) == 4


NO_SCIPY_SCRIPT = """
import sys
import spinclone.cli as cli
assert "scipy" not in sys.modules, "import"
# fig3 runs last: its trajectory cross-check is the one draw from
# numpy.random (the disorder draws replay its stream without it).
for command in sorted(cli.COMMANDS, key=lambda command: command == "fig3"):
    for threads in ("1", "2"):
        cli.main(["--out-dir", sys.argv[1] + "/" + command,
                  "--threads", threads, command])
        assert "scipy" not in sys.modules, command
        assert command == "fig3" or "numpy.random" not in sys.modules, command
# Every command runs serially, --threads 2 included: no pool, nor the
# logging it imports.
assert "concurrent.futures" not in sys.modules
assert "logging" not in sys.modules
"""


def test_commands_never_import_scipy(tmp_path):
    # Importing scipy.linalg costs every process about 0.2 s and 24 MB of
    # resident memory; only the tests' oracles use it.  numpy.random's lazy
    # import costs about 0.014 s; only fig3 needs it.
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, str(tmp_path)], env=env,
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert {path.parent.name for path in tmp_path.glob("*/*.manifest")} \
        == {"fig2", "table1", "fig3", "tree", "disorder"}


def _without_duration(path):
    return [ln for ln in path.read_text().splitlines()
            if not ln.startswith("duration_s=")]


def test_commands_run_in_one_invocation(tmp_path, capsys):
    # One invocation runs its commands in order: every file and check line
    # is that of the command's own run, manifests apart from duration_s.
    grid = ("--gamma-grid", "1e-3,1e-2")
    assert run(tmp_path / "all", *grid, *cli.COMMANDS) == 0
    together = check_lines(capsys)
    alone = []
    for command in cli.COMMANDS:
        assert run(tmp_path / command, *grid, command) == 0
        alone += check_lines(capsys)
        for path in (tmp_path / command).rglob("*"):
            if path.is_file():
                other = tmp_path / "all" / path.relative_to(tmp_path / command)
                if path.suffix == ".manifest":
                    assert _without_duration(other) == _without_duration(path)
                else:
                    assert other.read_bytes() == path.read_bytes(), path.name
    assert together == alone
    assert sorted(p.name for p in (tmp_path / "all").glob("*.manifest")) \
        == sorted(f"{command}.manifest" for command in cli.COMMANDS)


def test_one_failed_check_fails_the_invocation(tmp_path, capsys,
                                               monkeypatch):
    # table1's failed check sets the exit code, and the commands after it
    # still run.
    missed = tuple(
        dataclasses.replace(ref, fidelity=ref.fidelity + 0.1)
        if (ref.n_inputs, ref.n_outputs) == (2, 3) else ref
        for ref in cli.NTOM_REFERENCE)
    monkeypatch.setattr(cli, "NTOM_REFERENCE", missed)
    assert run(tmp_path, "fig2", "table1", "disorder") == 1
    lines = check_lines(capsys)
    assert [ln.startswith("[ok]") for ln in lines] == [True] * 5 + [
        False] + [True] * 3
    assert (tmp_path / "disorder.manifest").exists()
    assert run(tmp_path, "disorder", "fig2") == 0


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from compare_outputs import (column_differences,  # noqa: E402
                             first_line_difference, main, runs)


def test_column_differences_report_the_largest_gap(tmp_path):
    old, new, other = (tmp_path / name for name in ("a.csv", "b.csv",
                                                    "c.csv"))
    old.write_text("M,F,Jt_c,note\n2,0.5,1.25,x\n3,0.75,2.5,y\n")
    new.write_text("M,F,Jt_c,note\n2,0.5,1.2500001,x\n3,0.75,2.49,z\n")
    other.write_text("M,F\n2,0.5\n")
    assert column_differences(old, new) == "Jt_c 0.01, note (text)"
    assert column_differences(old, old) == ""
    assert column_differences(old, other) == "header or shape differs"


def test_first_line_difference_quotes_both_sides(tmp_path):
    old, new, longer = (tmp_path / name for name in ("a.manifest",
                                                     "b.manifest",
                                                     "stdout.txt"))
    old.write_text("command=fig3\nduration_s=0.5\n[ok] gap 5.55e-16\n")
    new.write_text("command=fig3\nduration_s=0.7\n[ok] gap 2.22e-16\n")
    longer.write_text("command=fig3\n[ok] gap 5.55e-16\n[ok] more\n")
    assert first_line_difference(old, new) == (
        "line 2: '[ok] gap 5.55e-16' -> '[ok] gap 2.22e-16'")
    assert first_line_difference(old, old) == ""
    assert first_line_difference(old, longer) == "line 3: None -> '[ok] more'"


def test_runs_cover_the_large_gamma_grid():
    # fig3 at Gamma_max = 4 takes a cross-check count that neither the
    # default grid nor the benchmark's grids reach.
    names = [name for name, _ in runs(0)]
    assert names == ["fig2", "table1", "fig3", "tree", "disorder",
                     "fig3_bench", "fig3_large"]
    assert dict(runs(3))["fig3_large"] == ["--gamma-grid", "0.5,1,2,4",
                                           "fig3"]


@pytest.mark.parametrize("spec", ["9-0", "3-2"])
def test_an_empty_seed_range_is_an_argument_error(spec, capsys):
    # It would compare no file and pass; argparse stops it before any run.
    with pytest.raises(SystemExit) as stopped:
        main(["HEAD", "--seeds", spec])
    assert stopped.value.code == 2
    assert f"no seeds in '{spec}'" in capsys.readouterr().err

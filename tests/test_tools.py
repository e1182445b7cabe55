import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from compare_outputs import column_differences  # noqa: E402


def test_column_differences_report_the_largest_gap(tmp_path):
    old, new, other = (tmp_path / name for name in ("a.csv", "b.csv",
                                                    "c.csv"))
    old.write_text("M,F,Jt_c,note\n2,0.5,1.25,x\n3,0.75,2.5,y\n")
    new.write_text("M,F,Jt_c,note\n2,0.5,1.2500001,x\n3,0.75,2.49,z\n")
    other.write_text("M,F\n2,0.5\n")
    assert column_differences(old, new) == "Jt_c 0.01, note (text)"
    assert column_differences(old, old) == ""
    assert column_differences(old, other) == "header or shape differs"

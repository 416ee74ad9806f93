import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "momt"


def test_library_stays_under_line_budget():
    # one idea, one helper: the library as a whole stays within 2,560 lines
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.glob("*.py"))
    assert lines <= 2560, f"src/momt has {lines} lines"

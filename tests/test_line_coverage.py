"""The line tracer's allowlist stays small and names lines that exist; the
tracer itself runs as `python tests/line_coverage.py`."""

from line_coverage import ALLOWED, PACKAGE, executable_lines


def test_each_allowed_line_is_an_executable_line_with_a_reason():
    assert len(ALLOWED) <= 15
    for (name, text), reason in ALLOWED.items():
        path = PACKAGE / name
        source = path.read_text().splitlines()
        assert any(source[n - 1].strip() == text for n in executable_lines(path)), (name, text)
        assert reason.strip(), (name, text)

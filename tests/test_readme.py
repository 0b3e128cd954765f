"""The README's CLI and Library examples run as written."""

import contextlib
import io
import pathlib
import shlex

from aactk import cli

README = (pathlib.Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def _block(heading: str, fence: str) -> str:
    """The first fenced block of `fence` kind after the line `heading`."""
    start = README.index(fence, README.index("\n" + heading + "\n")) + len(fence)
    return README[start : README.index("```", start)]


def test_cli_examples(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    lines = [line.split("#")[0].strip() for line in _block("## CLI", "```\n").splitlines()]
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("aactk ")]
    assert len(commands) == 16
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        # scan gaac to 2000 meets the counterexample D = 1817, a finding
        assert code == (1 if argv[:2] == ["scan", "gaac"] else 0), argv


def test_library_example():
    namespace: dict = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(_block("## Library", "```python\n"), namespace)
    assert namespace["report"].lhs == namespace["report"].rhs == 5
    assert (namespace["unit"].t, namespace["unit"].u, namespace["unit"].norm_sign) == (3, 1, -1)
    assert namespace["verdict"].holds is False
    assert namespace["count"] == 3
    assert "1817" in out.getvalue()

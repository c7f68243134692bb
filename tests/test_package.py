import importlib.util
from pathlib import Path

import germapprox as ga


def test_public_names_resolve_once():
    assert len(ga.__all__) == len(set(ga.__all__))
    missing = [n for n in ga.__all__ if not hasattr(ga, n)]
    assert missing == []
    namespace = {}
    exec("from germapprox import *", namespace)
    assert set(ga.__all__) <= set(namespace)


def test_code_line_count(tmp_path):
    # tools/code_lines.py, the count ROADMAP item 10 tracks: blank lines,
    # comments and docstrings count nothing, and a token spanning lines
    # counts on each
    path = Path(__file__).parents[1] / "tools" / "code_lines.py"
    spec = importlib.util.spec_from_file_location("code_lines", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    source = tmp_path / "m.py"
    source.write_text(
        '"""Module docstring\n\nover three lines."""\n'
        "import os  # a comment\n"
        "\n"
        "# a comment line\n"
        "def f(x):\n"
        '    """Docstring."""\n'
        "    return (x +\n"
        "            1)\n"
        'TEXT = """a string\n'
        'value"""\n')
    assert tool.code_lines(source) == 6

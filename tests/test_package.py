import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import germapprox as ga
from conftest import CURVE_PAIRS


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


def test_benchmark_curve_pairs_match_the_tests(monkeypatch):
    # perfbench/workloads.py keeps its own copy of the compare_curves pairs,
    # loaded here so that the two lists cannot drift apart; its dataclasses
    # look their module up in sys.modules while it loads
    path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    assert workloads.CURVE_PAIRS == CURVE_PAIRS


# Three CLI calls with every scipy import refused: prints their exit codes
# and whether scipy got loaded
_WITHOUT_SCIPY = """
import sys
from importlib import resources


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")


sys.meta_path.insert(0, NoScipy())
from germapprox.cli import main

corpus = resources.files("germapprox") / "corpus"
codes = [main([cmd, str(corpus / name), *rest]) for cmd, name, *rest in (
    ("compare", "curves.json", "exp_curve", "trunc4", "--s", "4.5"),
    ("approx", "curves.json", "cusp_product", "--s", "2"),
    ("tangent", "surfaces.json", "graph_exp"))]
print(codes, "scipy" in sys.modules)
"""


def test_runtime_needs_no_scipy(tmp_path):
    # scipy is a test dependency only: the library and the CLI run with
    # every scipy import refused
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY], cwd=tmp_path,
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "[0, 0, 0] False"

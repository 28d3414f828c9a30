"""The README's worked example: its documents, its printed numbers and its snippet."""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

import lapcoarse
from lapcoarse.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced_block_after(marker: str, lang: str = "") -> str:
    """The first fenced block that follows ``marker`` in the README."""
    rest = README[README.index(marker):]
    match = re.search(rf"```{lang}\n(.*?)```", rest, re.S)
    return match.group(1)


@pytest.fixture
def readme_files(tmp_path):
    """The heredoc documents of the example, written under their own names."""
    docs = dict(re.findall(r"cat > (\S+) <<'EOF'\n(.*?)\nEOF\n", README, re.S))
    assert set(docs) == {"triangle.json", "cluster.json"}
    for name, body in docs.items():
        (tmp_path / name).write_text(body + "\n")
    return str(tmp_path / "triangle.json"), str(tmp_path / "cluster.json")


def test_readme_sweep_csv_matches_the_cli(readme_files, capsys):
    graph, cluster = readme_files
    argv = ["verify", graph, "--cluster-edges", cluster, "--mode", "undirected"]
    assert main(argv + ["--format", "csv"]) == 0
    got = capsys.readouterr().out.splitlines()
    want = fenced_block_after("the sweep reports").splitlines()
    assert len(got) == len(want)
    for got_line, want_line in zip(got, want):
        got_cells, want_cells = got_line.split(","), want_line.split(",")
        assert len(got_cells) == len(want_cells), (got_line, want_line)
        for g, w in zip(got_cells, want_cells):
            try:
                value = float(w)
            except ValueError:
                assert g == w
            else:
                assert float(g) == pytest.approx(value, rel=1e-12, abs=0.0), (got_line, want_line)


def test_readme_coarsening_sentence_matches_the_cli(readme_files, capsys):
    graph, cluster = readme_files
    assert main(["coarsen", graph, "--cluster-edges", cluster, "--mode", "undirected"]) == 0
    reduced = json.loads(capsys.readouterr().out)["reduced"]
    sentence = re.search(
        r"into a node `(\S+)` of mass (\S+)\s+joined to `(\S+)` by weight (\S+),", README
    )
    node, mass, other, weight = sentence.groups()
    masses = {entry["id"]: entry["mass"] for entry in reduced["nodes"]}
    assert masses[node] == float(mass)
    weights = {(e["src"], e["dst"]): e["weight"] for e in reduced["edges"]}
    assert weights == {(node, other): float(weight), (other, node): float(weight)}


def test_readme_library_snippet_prints_its_comments():
    code = fenced_block_after("## Library use", "python")
    want = [line.split("#", 1)[1].strip() for line in code.splitlines() if "print(" in line]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == want


def test_module_map_lists_exactly_the_package_modules():
    table = README.split("## Module map", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `lapcoarse\.(\w+)` \|", table, re.M)
    package = Path(lapcoarse.__file__).parent
    modules = {path.stem for path in package.glob("*.py")} - {"__init__"}
    assert sorted(listed) == sorted(modules)

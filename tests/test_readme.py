"""Smoke test: every CLI example in the README runs on the tracked files.

The examples are read from the README's ``## CLI`` shell block. Each runs
through ``cli.main`` from the repository root and must exit 0; every
output line the README documents under it (``# -> ...`` and the indented
``#    ...`` lines that follow) must appear in its output. An ``--output``
file goes to a temporary directory instead of the working tree.
"""

import json
import shlex
from pathlib import Path

import pytest

from rbcscan.cli import main
from rbcscan.formats import parse_annotations

ROOT = Path(__file__).resolve().parents[1]

#: First output line of the examples whose output the README does not show.
UNDOCUMENTED_HEADERS = {"eval": "metric,iou_threshold,value"}


def _cli_examples():
    """(argv, documented output lines) for each command in the CLI block."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.replace("\\\n", " ").splitlines():
        line = line.strip()
        if line.startswith("rbcscan "):
            examples.append((shlex.split(line)[1:], []))
        elif line.startswith(("# -> ", "#    ")) and line[5:].strip() != "...":
            examples[-1][1].append(line[5:].strip())
    return examples


EXAMPLES = _cli_examples()


def test_readme_shows_every_subcommand():
    assert sorted(argv[0] for argv, _ in EXAMPLES) == [
        "analytic", "augment", "eval", "geometry", "simulate",
    ]
    documented = {argv[0]: lines for argv, lines in EXAMPLES}
    assert "curve,0.7,65,21.4" in documented["analytic"]


@pytest.mark.parametrize("argv, documented", EXAMPLES, ids=[argv[0] for argv, _ in EXAMPLES])
def test_readme_example_runs(argv, documented, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    argv = list(argv)
    output = None
    if "--output" in argv:
        output = tmp_path / Path(argv[argv.index("--output") + 1]).name
        argv[argv.index("--output") + 1] = str(output)
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    text = output.read_text(encoding="utf-8") if output else captured.out
    lines = text.splitlines()
    if argv[0] in UNDOCUMENTED_HEADERS:
        assert lines[0] == UNDOCUMENTED_HEADERS[argv[0]]
    if documented:
        assert lines[0] == documented[0]
    for line in documented:
        assert line in lines
    if argv[0] == "augment":
        source = json.loads((ROOT / argv[argv.index("--annotations") + 1]).read_text("utf-8"))
        doubled = parse_annotations(text)
        assert len(doubled.images) == 2 * len(source["images"])
        assert len(doubled.objects) == 2 * len(source["objects"])

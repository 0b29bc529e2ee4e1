"""The README's training config and Python example run as written."""

import json
import re
from pathlib import Path

from fmsolve import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(lang, after):
    text = README.read_text()
    start = text.index(after)
    return re.search(rf"```{lang}\n(.*?)```", text[start:], re.S).group(1)


def test_full_training_config_loads(tmp_path):
    doc = json.loads(_block("json", "A full training config"))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    tc, grid = cli.load_run_config(path)
    assert (tc.seed, tc.epochs, tc.mlp.hidden) == (doc["seed"], 300, 256)
    assert [s.to_dict() for s in grid] == doc["solver_grid"]


def test_python_example_runs(capsys):
    exec(_block("python", "## Library layout"), {})
    assert capsys.readouterr().out.strip()

"""Every CLI output byte for byte against `tests/data/cli_golden.json`.

Each record of the golden file is one command: its argv, exit code and
stdout.  Movie files are named relative to the repository root; the other
movies are inline JSON.  When an output is meant to change, regenerate the
file with `PYTHONPATH=src python tests/make_cli_golden.py` and review the
diff.
"""

import json
from pathlib import Path

import pytest

from khoval.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "cli_golden.json"
RECORDS = json.loads(GOLDEN.read_text())


@pytest.mark.parametrize(
    "record", RECORDS, ids=[f"{i:03d}-{r['argv'][0]}" for i, r in enumerate(RECORDS)]
)
def test_cli_output_is_golden(record, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code = main(list(record["argv"]))
    assert (code, capsys.readouterr().out) == (record["code"], record["stdout"])

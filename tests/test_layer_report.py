"""Every section of `layer_report.py` runs, so a refactor that breaks one fails here."""

import sys

import layer_report
import oracles

SMALL = dict(IMPORT_RUNS=1, CLI_SIZES=(3,), SWEEP_SIZE=3, LIBRARY_SIZE=3, TABLES_SIZE=5,
             DIAGRAM_SIZES=(3,), RESOLVE_SIZES=(3,), REPLAY_GENUS=1, REPLAY_DETOUR=4,
             SWEEP_DETOURS=(4,), MOVIE_CLI_DETOURS=(4,), R3_KINKS=((1, 2),))


def test_every_section_reports_at_small_sizes(monkeypatch, capsys):
    for name, value in SMALL.items():
        monkeypatch.setattr(layer_report, name, value)
    layer_report.main()
    out = capsys.readouterr().out
    assert out.count("```") == 10 and out.count("(exit 0)") == out.count("(exit ") == 4, out
    assert layer_report.bench_workloads().oracles.__file__.endswith("perfbench/oracles.py")
    assert sys.modules["oracles"] is oracles and "workloads" not in sys.modules

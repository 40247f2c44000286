"""The CLI's stdout, exit code and CSV text match recorded golden output.

``tests/golden/cli.json`` holds one record per call: every shipped scenario
under every subcommand, plus inline-flag calls. A few calls changed on
purpose after the recording; ``CHANGED`` lists them with what they give now.

To record the output of the current code instead, run

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from certbound.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "cli.json"
SUBCOMMANDS = ("predict", "survival", "bootstrap", "assess", "sweep")
CSV = "<csv>"
UNWRITABLE = "<csv>/x.csv"  # under a file that does not exist

INLINE = [
    ["predict", "--p-nf", "0.9", "--r", "0", "--n", "1000000"],
    ["predict", "--p-nf", "0.9", "--r", "1000", "--n", "10000"],
    ["predict", "--p-nf", "0.9", "--r", "0"],
    ["predict", "--p-nf=-0.0", "--r", "10", "--n", "5"],
    ["predict", "--p-nf", "1.5", "--r", "0", "--n", "10"],
    ["predict", "--p-nf", "0.9", "--r", "-3", "--n", "5"],
    ["predict", "--scenario", "scenarios/point_prediction.yaml", "--p-nf", "0.5"],
    ["survival", "--p-nf", "1.0", "--p-fail", "0.5", "--n", "1000000000"],
    ["survival", "--p-nf", "0.9", "--p-fail", "0.01", "--n", "100"],
    ["survival", "--p-nf", "0.5", "--p-fail", "0.05", "--n", "50",
     "--mc-trials", "2000", "--seed", "9"],
    ["survival", "--p-nf", "0.9", "--p-fail", "0.01", "--n", "-1"],
    ["survival", "--scenario", "scenarios/survival_check.yaml", "--n", "5"],
    ["survival", "--p-nf", "0.9", "--p-fail", "0.01", "--n", "5", "--mc-trials", "-5"],
    ["survival", "--p-nf", "0.9", "--p-fail", "0.01", "--n", "5",
     "--mc-trials", "10", "--seed", "-1"],
    ["bootstrap", "--scenario", "scenarios/fleet_bootstrap.yaml", "--csv", UNWRITABLE],
    ["sweep", "--p-nf", "0.9", "--r", "0,1000", "--n", "10000"],
    ["sweep", "--scenario", "scenarios/sweep_grid.yaml", "--r", "5", "--csv", CSV],
    ["sweep", "--scenario", "scenarios/sweep_grid.yaml", "--csv", UNWRITABLE],
    ["sweep", "--r", "1e3"],
    ["frobnicate"],
]


def cases() -> list[list[str]]:
    shipped = [
        [sub, "--scenario", f"scenarios/{path.name}"]
        + (["--csv", CSV] if sub in ("bootstrap", "sweep") else [])
        for path in sorted((ROOT / "scenarios").glob("*.yaml"))
        for sub in SUBCOMMANDS
    ]
    return shipped + INLINE


# Calls whose output changed on purpose since the recording.
_REJECTED = {"exit": 4, "stdout": "", "csv": None}
_USAGE = {"exit": 5}
_UNWRITABLE = {"exit": 2, "stdout": "", "csv": None}
MC_STDOUT = (
    "survival probability under the two-component model\n"
    "  p_nf             : 0.5\n"
    "  p_f_given_faulty : 0.05\n"
    "  n = 50: 0.538472487638\n"
    "    monte carlo (2000 trials, seed 9): 0.5415 +/- 0.0111\n"
)
CHANGED = {
    # --scenario combined with inline value flags is rejected.
    "predict --scenario scenarios/point_prediction.yaml --p-nf 0.5": _REJECTED,
    "survival --scenario scenarios/survival_check.yaml --n 5": _REJECTED,
    "sweep --scenario scenarios/sweep_grid.yaml --r 5 --csv <csv>": _REJECTED,
    # Inline values are validated before anything is printed.
    "predict --p-nf 0.9 --r -3 --n 5": _REJECTED,
    "survival --p-nf 0.9 --p-fail 0.01 --n -1": _REJECTED,
    "survival --p-nf 0.9 --p-fail 0.01 --n 5 --mc-trials -5": _REJECTED,
    "survival --p-nf 0.9 --p-fail 0.01 --n 5 --mc-trials 10 --seed -1": _REJECTED,
    # An unwritable --csv path is an I/O error, reported before the report.
    "bootstrap --scenario scenarios/fleet_bootstrap.yaml --csv <csv>/x.csv": _UNWRITABLE,
    "sweep --scenario scenarios/sweep_grid.yaml --csv <csv>/x.csv": _UNWRITABLE,
    # The Monte Carlo sampler draws geometric first failures: a new random stream.
    "survival --p-nf 0.5 --p-fail 0.05 --n 50 --mc-trials 2000 --seed 9": {"stdout": MC_STDOUT},
    # Usage errors have their own exit code.
    "sweep --r 1e3": _USAGE,
    "frobnicate": _USAGE,
}


def run(argv: list[str], csv_path: Path) -> dict:
    args = [
        str(csv_path) if a == CSV
        else str(csv_path / "x.csv") if a == UNWRITABLE
        else str(ROOT / a) if a.startswith("scenarios/") else a
        for a in argv
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
    csv_text = csv_path.read_bytes().decode("utf-8") if csv_path.exists() else None
    return {"exit": code, "stdout": out.getvalue().replace(str(csv_path), CSV), "csv": csv_text}


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(" ".join(argv) for argv in cases())
    assert set(CHANGED) <= set(_golden())


@pytest.mark.parametrize("argv", cases(), ids=" ".join)
def test_cli_output_matches_golden(argv, tmp_path):
    key = " ".join(argv)
    expected = {**_golden()[key], **CHANGED.get(key, {})}
    assert run(argv, tmp_path / "out.csv") == expected


def record() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        records = {}
        for i, argv in enumerate(cases()):
            records[" ".join(argv)] = run(argv, Path(tmp) / f"{i}.csv")
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()

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

# p_nf and counts at the edges of the accepted domain, so that the CSV holds the
# kernel's full-precision output on each branch: floor, endpoint and interior root.
CORNER_P_NF = "0,1e-300,1e-15,0.5,0.999999999999999,1"
CORNER_COUNTS = ",".join(str(c) for c in (0, 1, 10**6, 10**12, 10**300))

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
    ["sweep", "--p-nf", CORNER_P_NF, "--r", CORNER_COUNTS, "--n", CORNER_COUNTS, "--csv", CSV],
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


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def _csv_with(key: str, moved: dict[str, str]) -> dict:
    """The recorded CSV of ``key`` with each field in ``moved`` replaced."""
    rows = _golden()[key]["csv"].split("\r\n")
    return {"csv": "\r\n".join(",".join(moved.get(f, f) for f in row.split(",")) for row in rows)}


# Calls whose output changed on purpose since the recording.
BOOTSTRAP_CSV = "bootstrap --scenario scenarios/fleet_bootstrap.yaml --csv <csv>"
SWEEP_CSV = "sweep --scenario scenarios/sweep_grid.yaml --csv <csv>"
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
    # The stationarity root is found by Newton's method, not bisection: each of
    # these worst_case_q values moves by at most 2.8e-16 relative, within 3e-16
    # of the 60-digit values.  Window 22's lower_bound, which Newton's root had
    # moved by 1 ulp, is back at its recorded value: the bound is now the root's
    # first term (1 + n/r)(1 - q)**n, 5.4e-17 from the 60-digit minimum.
    BOOTSTRAP_CSV: _csv_with(BOOTSTRAP_CSV, {
        "3.8766252885512255e-05": "3.876625288551226e-05",
        "1.024322968347531e-06": "1.0243229683475312e-06",
        "4.500788279459577e-07": "4.5007882794595776e-07",
        "2.521786587708624e-07": "2.521786587708625e-07",
        "1.9904296941424105e-07": "1.9904296941424108e-07",
        "1.611039366723569e-07": "1.6110393667235693e-07",
        "1.330700174781761e-07": "1.3307001747817611e-07",
        "1.1176874066997594e-07": "1.1176874066997595e-07",
        "9.520375464378844e-08": "9.520375464378847e-08",
        "8.2067663791569e-08": "8.206766379156902e-08",
        "6.280917288493334e-08": "6.280917288493335e-08",
        "5.562930765091068e-08": "5.5629307650910684e-08",
        "4.9614078841925056e-08": "4.961407884192506e-08",
        "3.64416867181532e-08": "3.644168671815321e-08",
        "3.3201976500431864e-08": "3.320197650043187e-08",
        "3.037591806369043e-08": "3.037591806369044e-08",
        "2.376740506549738e-08": "2.3767405065497382e-08",
        "2.049199964603291e-08": "2.0491999646032914e-08",
        "1.784987823784238e-08": "1.7849878237842383e-08",
        "1.671647372713709e-08": "1.6716473727137092e-08",
        "1.173334720039028e-08": "1.1733347200390282e-08",
        "1.1123794456029795e-08": "1.1123794456029797e-08",
        # The bound is the root's first term (1 + n/r)(1 - q)**n: these
        # lower_bounds move by at most 3.4e-16 relative.  Each is followed by
        # its distance to the 60-digit minimum.
        "0.9904522395196235": "0.9904522395196231",  # -2.9e-16
        "0.9987614959529437": "0.9987614959529436",  # -6.5e-17
        "0.999799877973426": "0.9997998779734258",  # -5.7e-17
        # The root starts at a closed-form estimate of itself (see
        # inference._row), so its last steps can end an ulp or
        # two away: these worst_case_q values moved by at most 1.9e-16
        # relative.  Each is followed by its relative distance to the 60-digit
        # root.  Windows 2 and 32 are back at their recorded values, +8.6e-17
        # and +4.1e-17 from it.
        "7.147510616533363e-08": "7.147510616533366e-08",  # +2.4e-16
        "4.452450732108095e-08": "4.4524507321080956e-08",  # +3.4e-17
        "2.5707809384937845e-08": "2.570780938493785e-08",  # +9.3e-17
        "2.2038707708882653e-08": "2.203870770888266e-08",  # +2.9e-17
        "1.3112970966366861e-08": "1.3112970966366863e-08",  # +5.2e-17
        "1.0039009696785462e-08": "1.0039009696785465e-08",  # +5.1e-17
    }),
    SWEEP_CSV: _csv_with(SWEEP_CSV, {
        "0.00047138042372539443": "0.0004713804237253945",
        "0.0004623555043552599": "0.00046235550435525994",
        "0.00024047998571383481": "0.00024047998571383484",
        # The bound is the root's first term (1 + n/r)(1 - q)**n: each
        # lower_bound moves by at most 6.7e-16 relative, and the
        # excess_over_floor after it by the same amount.  Each bound is
        # followed by its distance to the 60-digit minimum.  From the root's
        # closed-form start, the rows (0.9, 10**4, 10**4) and (0.99, 10**4,
        # 10**4) are back at their recorded values: worst_case_q -1.8e-16 and
        # -2.6e-16 relative from the 60-digit root, lower_bound +1.8e-18 and
        # -4.5e-17 from the 60-digit minimum.
        "0.9050228679119038": "0.9050228679119037",  # -1.1e-16
        "0.005022867911903761": "0.00502286791190365",
        "0.9905412982654657": "0.990541298265465",  # -6.4e-16
        "0.0005412982654656728": "0.0005412982654650067",
        "0.9928320295042484": "0.9928320295042481",  # -3.1e-16
        "0.0028320295042484345": "0.0028320295042481014",
    }),
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

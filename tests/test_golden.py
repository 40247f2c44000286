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


def _rows_with(key: str, moved: dict[tuple[str, int, int], dict[str, str]]) -> dict:
    """The recorded sweep CSV and table of ``key`` with the fields of each (p_nf, r, n)
    row in ``moved`` replaced, and the table's excess column printed from them."""
    lines, table = _golden()[key]["csv"].split("\r\n"), _golden()[key]["stdout"].split("\n")
    header = lines[0].split(",")
    for i in range(1, len(lines) - 1):  # the CSV ends in a line break; table row i is line i
        fields = dict(zip(header, lines[i].split(",")))
        fields.update(moved.get((fields["p_nf"], int(fields["r"]), int(fields["n"])), {}))
        lines[i] = ",".join(fields.values())
        table[i] = table[i][:-12] + f"{float(fields['excess_over_floor']):>12.6g}"
    return {"csv": "\r\n".join(lines), "stdout": "\n".join(table)}


def _csv_with(key: str, moved: dict[str, str]) -> dict:
    """The recorded CSV of ``key`` with each field in ``moved`` replaced."""
    rows = _golden()[key]["csv"].split("\r\n")
    return {"csv": "\r\n".join(",".join(moved.get(f, f) for f in row.split(",")) for row in rows)}


# Calls whose output changed on purpose since the recording.
BOOTSTRAP_CSV = "bootstrap --scenario scenarios/fleet_bootstrap.yaml --csv <csv>"
SWEEP_CSV = "sweep --scenario scenarios/sweep_grid.yaml --csv <csv>"
CORNER_SWEEP = f"sweep --p-nf {CORNER_P_NF} --r {CORNER_COUNTS} --n {CORNER_COUNTS} --csv <csv>"
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
    # Worst-case q values read off the closed form's root (see inference._rows):
    # n*x = log t - log1p(n/r), q = -expm1(x).  Each moved value is followed by
    # its relative distance to the 60-digit root; every other value, the
    # lower_bounds included, is back at its recorded value.
    BOOTSTRAP_CSV: _csv_with(BOOTSTRAP_CSV, {
        "3.8766252885512255e-05": "3.876625288551226e-05",  # +8.4e-17
        "2.521786587708624e-07": "2.521786587708625e-07",  # +3.9e-16
        "1.611039366723569e-07": "1.6110393667235693e-07",  # +2.0e-16
        "1.1176874066997594e-07": "1.1176874066997595e-07",  # +7.6e-17
        "9.520375464378844e-08": "9.520375464378845e-08",  # +5.8e-17
        "8.2067663791569e-08": "8.206766379156902e-08",  # +7.3e-17
        "7.147510616533363e-08": "7.147510616533364e-08",  # -3.7e-17
        "6.280917288493334e-08": "6.280917288493335e-08",  # +3.3e-17
        "5.562930765091068e-08": "5.5629307650910684e-08",  # +8.6e-17
        "3.3201976500431864e-08": "3.320197650043187e-08",  # +8.6e-17
        "3.037591806369043e-08": "3.037591806369044e-08",  # +1.5e-16
        "2.7895962641966368e-08": "2.7895962641966365e-08",  # -1.5e-16
        "2.5707809384937845e-08": "2.5707809384937848e-08",  # +1.5e-17
        "2.376740506549738e-08": "2.3767405065497382e-08",  # -8.6e-17
        "2.2038707708882653e-08": "2.203870770888266e-08",  # +2.9e-17
        "2.049199964603291e-08": "2.0491999646032914e-08",  # +2.4e-16
        "1.784987823784238e-08": "1.7849878237842383e-08",  # +6.3e-17
        "1.671647372713709e-08": "1.6716473727137092e-08",  # +6.4e-17
        "1.173334720039028e-08": "1.1733347200390282e-08",  # +1.1e-16
        "1.1123794456029795e-08": "1.1123794456029797e-08",  # +8.1e-17
        "1.0039009696785462e-08": "1.0039009696785463e-08",  # -1.5e-16
    }),
    SWEEP_CSV: _csv_with(SWEEP_CSV, {
        "0.00047138042372539443": "0.0004713804237253945",  # +1.1e-16
    }),
    # The closed form's bounds at the corners of the domain.  Each row's moved
    # fields are followed by the lower_bound's distance to the 60-digit minimum
    # and the worst_case_q's relative distance to the 60-digit root.  The
    # excess column of the table prints the moved excess_over_floor; no other
    # printed field moves.  Four rows at p_nf = 1 - 1e-15 no longer return a
    # false 1.0.
    CORNER_SWEEP: _rows_with(CORNER_SWEEP, {
        ("1e-300", 1, 1): {"lower_bound": "1.9999999999999137e-150",  # -8.6e-164
                           "excess_over_floor": "1.9999999999999137e-150"},
        ("1e-300", 1, 10**12): {"lower_bound": "1.0000000007195477e-300",  # +1.4e-313
                                "worst_case_q": "7.184065487553697e-10",  # -2.3e-16
                                "excess_over_floor": "7.19547718539335e-310"},
        ("1e-300", 10**6, 10**12): {"lower_bound": "1.0007058393208228e-300",  # +4.0e-314
                                    "worst_case_q": "7.045903336176203e-10",  # -6.3e-17
                                    "excess_over_floor": "7.05839320822777e-304"},
        ("1e-300", 10**12, 1): {"worst_case_q": "6.842486687869782e-10"},  # -1.1e-16
        ("1e-300", 10**12, 10**6): {"worst_case_q": "6.842483266437345e-10"},  # -1.0e-16
        ("1e-300", 10**12, 10**12): {"lower_bound": "1.9999999999999137e-150",  # -8.6e-164
                                     "worst_case_q": "3.4538776388946056e-10",  # +1.8e-16
                                     "excess_over_floor": "1.9999999999999137e-150"},
        ("1e-300", 10**12, 10**300): {"lower_bound": "1.0000000000000237e-300",  # +2.4e-314
                                      "worst_case_q": "1.3539200346804986e-297",  # -1.9e-16
                                      "excess_over_floor": "2.3706671727e-314"},
        ("1e-300", 10**300, 1): {"worst_case_q": "6.8424866902141855e-298"},  # +4.2e-17
        ("1e-300", 10**300, 10**6): {"worst_case_q": "6.842486690214185e-298"},  # -3.1e-17
        ("1e-300", 10**300, 10**12): {"worst_case_q": "6.8424866902141855e-298"},  # +4.2e-17
        ("1e-300", 10**300, 10**300): {"lower_bound": "1.9999999999999137e-150",  # -8.6e-164
                                       "worst_case_q": "3.4538776394910688e-298",  # +7.9e-17
                                       "excess_over_floor": "1.9999999999999137e-150"},
        ("1e-15", 1, 1): {"lower_bound": "6.324555120336784e-08",  # +1.9e-22
                          "excess_over_floor": "6.324555020336784e-08"},
        ("1e-15", 1, 10**6): {"lower_bound": "1.0000493554560354e-15",  # -3.8e-30
                              "worst_case_q": "4.835306955128401e-05",  # +4.4e-17
                              "excess_over_floor": "4.935545603535046e-20"},
        ("1e-15", 1, 10**300): {"lower_bound": "1.0000000000000013e-15",  # +1.2e-30
                                "excess_over_floor": "1.1832913578315177e-30"},
        ("1e-15", 10**6, 1): {"worst_case_q": "3.113265028658176e-05"},  # -2.0e-16
        ("1e-15", 10**6, 10**6): {"lower_bound": "6.324555120336784e-08",  # +1.9e-22
                                  "worst_case_q": "1.7269239114051588e-05",  # -2.1e-16
                                  "excess_over_floor": "6.324555020336784e-08"},
        ("1e-15", 10**6, 10**300): {"lower_bound": "1.0000000000000013e-15",  # +1.2e-30
                                    "worst_case_q": "7.114987937351601e-298",  # -2.3e-17
                                    "excess_over_floor": "1.1832913578315177e-30"},
        ("1e-15", 10**12, 1): {"worst_case_q": "3.113315048370104e-11"},  # -4.6e-17
        ("1e-15", 10**12, 10**6): {"worst_case_q": "3.1133134917112645e-11"},  # -3.2e-16
        ("1e-15", 10**12, 10**12): {"lower_bound": "6.324555120336784e-08",  # +1.9e-22
                                    "worst_case_q": "1.7269388228929e-11",  # -1.6e-16
                                    "excess_over_floor": "6.324555020336784e-08"},
        ("1e-15", 10**12, 10**300): {"lower_bound": "1.0000000000000013e-15",  # +1.2e-30
                                     "excess_over_floor": "1.1832913578315177e-30"},
        ("1e-15", 10**300, 1): {"worst_case_q": "3.113315048420124e-299"},  # -1.5e-16
        ("1e-15", 10**300, 10**6): {"worst_case_q": "3.113315048420125e-299"},  # +1.8e-16
        ("1e-15", 10**300, 10**12): {"worst_case_q": "3.113315048420124e-299"},  # -1.5e-16
        ("1e-15", 10**300, 10**300): {"lower_bound": "6.324555120336784e-08",  # +1.9e-22
                                      "worst_case_q": "1.7269388229078112e-299",  # -3.9e-16
                                      "excess_over_floor": "6.324555020336784e-08"},
        ("0.5", 1, 10**6): {"lower_bound": "0.500003877162621",  # +2.0e-17
                            "excess_over_floor": "3.877162620957719e-06"},
        ("0.5", 1, 10**12): {"lower_bound": "0.500000000007331",  # -4.2e-17
                             "excess_over_floor": "7.331024676204834e-12"},
        ("0.5", 1, 10**300): {"worst_case_q": "6.914686750787735e-298"},  # -2.2e-16
        ("0.5", 10**6, 1): {"worst_case_q": "1.2784630862945858e-06"},  # +8.6e-17
        ("0.5", 10**6, 10**6): {"lower_bound": "0.8284271247461901",  # +2.4e-18
                                "worst_case_q": "8.813731986099571e-07",  # -1.0e-16
                                "excess_over_floor": "0.32842712474619007"},
        ("0.5", 10**6, 10**12): {"lower_bound": "0.500003877162621",  # +2.0e-17
                                 "excess_over_floor": "3.877162620957719e-06"},
        ("0.5", 10**6, 10**300): {"lower_bound": "0.5",  # -1.7e-292
                                  "excess_over_floor": "0.0"},
        ("0.5", 10**12, 10**6): {"worst_case_q": "1.2784639035283965e-12"},  # -4.1e-19
        ("0.5", 10**12, 10**300): {"worst_case_q": "6.63837653962845e-298"},  # -1.5e-16
        ("0.5", 10**300, 1): {"worst_case_q": "1.2784645427610738e-300"},  # +3.8e-18
        ("0.5", 10**300, 10**6): {"worst_case_q": "1.2784645427610738e-300"},  # +3.8e-18
        ("0.5", 10**300, 10**12): {"worst_case_q": "1.2784645427610738e-300"},  # +3.8e-18
        **{("0.999999999999999", r, n): {"lower_bound": "0.999999999999999",  # -8.0e-19
                                         "excess_over_floor": "0.0"}
           for r, n in [(1, 10**12), (1, 10**300), (10**6, 10**300), (10**12, 10**300)]},
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

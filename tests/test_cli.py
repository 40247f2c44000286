import csv
import re
from pathlib import Path

import pytest

from certbound.assessment import aggregate_fault_freeness
from certbound.cli import BOOTSTRAP_CSV_HEADER, SWEEP_CSV_HEADER, format_probability, main
from certbound.fleet import check_feasibility, run_bootstrap
from certbound.inference import sweep, worst_case_survival
from certbound.reliability import MixtureModel, survival_probability
from certbound.scenario import parse_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def first_value(line: str) -> float:
    return float(line.split(":")[-1].strip().split()[0])


def grep(out: str, needle: str) -> str:
    matches = [line for line in out.splitlines() if needle in line]
    assert matches, f"no line containing {needle!r} in:\n{out}"
    return matches[0]


class TestFormatProbability:
    def test_plain_value(self):
        assert format_probability(0.9) == "0.9"

    def test_twelve_significant_digits(self):
        assert format_probability(0.9268931337099571) == "0.92689313371"

    def test_near_one_shows_distance(self):
        text = format_probability(1.0 - 3.2e-9)
        assert text.startswith("0.999999996")
        assert "(1 - 3.2e-09)" in text

    def test_near_zero_shows_distance(self):
        assert "(0 + 5e-09)" in format_probability(5e-9)

    def test_exact_boundaries_stay_plain(self):
        assert format_probability(1.0) == "1"
        assert format_probability(0.0) == "0"


class TestPredict:
    def test_floor_case_inline(self, capsys):
        code, out = run(capsys, "predict", "--p-nf", "0.9", "--r", "0", "--n", "1000000")
        assert code == 0
        assert first_value(grep(out, "lower bound")) == pytest.approx(0.9, abs=1e-12)

    def test_matches_library(self, capsys):
        code, out = run(capsys, "predict", "--p-nf", "0.9", "--r", "1000", "--n", "10000")
        assert code == 0
        expected = worst_case_survival(0.9, 1000, 10000)
        assert first_value(grep(out, "lower bound")) == pytest.approx(
            float(expected.lower_bound), abs=1e-12
        )
        assert first_value(grep(out, "worst-case q")) == pytest.approx(
            float(expected.worst_case_q), rel=1e-9
        )

    def test_scenario_with_prior(self, capsys):
        code, out = run(capsys, "predict", "--scenario", str(SCENARIOS / "point_prediction.yaml"))
        assert code == 0
        assert "supplied-prior predictive" in out

    def test_missing_inputs_fail_validation(self, capsys):
        code, _ = run(capsys, "predict", "--p-nf", "0.9", "--r", "0")
        assert code == 4

    def test_negative_zero_prints_as_zero(self, capsys):
        code, out = run(capsys, "predict", "--p-nf=-0.0", "--r", "10", "--n", "5")
        assert code == 0
        assert grep(out, "lower bound").split(":")[-1].strip() == "0"
        assert "-0" not in out

    def test_out_of_range_inline_value(self, capsys):
        code, _ = run(capsys, "predict", "--p-nf", "1.5", "--r", "0", "--n", "10")
        assert code == 4

    def test_degenerate_prior_prints_nothing(self, capsys, tmp_path):
        path = tmp_path / "degenerate.yaml"
        path.write_text(
            "model: {p_nf: 0}\n"
            "evidence: {r: 5}\n"
            "query: {n_grid: [3, 4]}\n"
            "prior: {p_nf: 0, atoms: [{q: 1.0, weight: 1.0}]}\n",
            encoding="utf-8",
        )
        code = main(["predict", "--scenario", str(path)])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert "prior assigns probability 0" in captured.err

    def test_prior_with_another_p_nf_prints_nothing(self, capsys, tmp_path):
        # The bound covers priors with mass model.p_nf on fault-freeness; this
        # one's predictive (0.830) lies below it (0.974).
        path = tmp_path / "mismatch.yaml"
        path.write_text(
            "model: {p_nf: 0.9}\n"
            "evidence: {r: 1000}\n"
            "query: {n: 1000}\n"
            "prior: {p_nf: 0.5, atoms: [{q: 0.001, weight: 0.5}]}\n",
            encoding="utf-8",
        )
        code = main(["predict", "--scenario", str(path)])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert "prior.p_nf" in captured.err and "model.p_nf" in captured.err


class TestInputResolution:
    @pytest.mark.parametrize(
        "argv, flags",
        [
            (("predict", "--scenario", "point_prediction.yaml", "--p-nf", "0.5"), "--p-nf"),
            (("survival", "--scenario", "survival_check.yaml", "--p-fail", "0.5", "--n", "5"),
             "--p-fail, --n"),
            (("sweep", "--scenario", "sweep_grid.yaml", "--r", "5"), "--r"),
        ],
    )
    def test_scenario_with_inline_values_rejected(self, capsys, argv, flags):
        argv = [str(SCENARIOS / a) if a.endswith(".yaml") else a for a in argv]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert flags in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ("predict", "--p-nf", "0.9", "--r", "-3", "--n", "5"),
            ("survival", "--p-nf", "0.9", "--p-fail", "0.01", "--n", "-1"),
            ("sweep", "--p-nf", "0.9,1.5", "--r", "0", "--n", "10"),
            ("survival", "--p-nf", "0.9", "--p-fail", "0.01", "--n", "5", "--mc-trials", "-5"),
            ("survival", "--p-nf", "0.9", "--p-fail", "0.01", "--n", "5", "--mc-trials", "10",
             "--seed", "-1"),
            ("survival", "--p-nf", "0.9", "--p-fail", "0.01", "--n", str(2**63 - 1),
             "--mc-trials", "10"),
            # Counts past float range: r + n could no longer convert to a float.
            ("predict", "--p-nf", "0.9", "--r", str(10**320), "--n", "1"),
            ("sweep", "--p-nf", "0.9", "--r", "5", "--n", f"1,{2**1022}"),
            ("survival", "--p-nf", "0.9", "--p-fail", "0.01", "--n", str(10**320)),
        ],
    )
    def test_invalid_inline_value_prints_nothing(self, capsys, argv):
        code, out = run(capsys, *argv)
        assert code == 4
        assert out == ""


class TestSurvival:
    def test_certainty_case(self, capsys):
        code, out = run(capsys, "survival", "--p-nf", "1.0", "--p-fail", "0.5", "--n", "1000000000")
        assert code == 0
        assert first_value(grep(out, "n = 1000000000")) == 1.0

    def test_matches_library(self, capsys):
        code, out = run(capsys, "survival", "--p-nf", "0.9", "--p-fail", "0.01", "--n", "100")
        assert code == 0
        expected = survival_probability(MixtureModel(0.9, 0.01), 100)
        assert first_value(grep(out, "n = 100")) == pytest.approx(float(expected), abs=1e-12)

    def test_scenario_grid(self, capsys):
        code, out = run(capsys, "survival", "--scenario", str(SCENARIOS / "survival_check.yaml"))
        assert code == 0
        model = MixtureModel(0.9, 0.01)
        for n in (0, 100, 10000, 1000000):
            expected = survival_probability(model, n)
            assert first_value(grep(out, f"n = {n}:")) == pytest.approx(float(expected), abs=1e-12)

    def test_monte_carlo_is_seed_deterministic(self, capsys):
        args = ("survival", "--p-nf", "0.5", "--p-fail", "0.05", "--n", "50",
                "--mc-trials", "2000", "--seed", "9")
        _, out1 = run(capsys, *args)
        _, out2 = run(capsys, *args)
        assert out1 == out2
        assert "monte carlo" in out1


class TestBootstrap:
    def test_shipped_scenario_passes(self, capsys, tmp_path):
        csv_path = tmp_path / "trace.csv"
        code, out = run(
            capsys, "bootstrap",
            "--scenario", str(SCENARIOS / "fleet_bootstrap.yaml"),
            "--csv", str(csv_path),
        )
        assert code == 0
        assert "all windows meet the threshold" in out

        fleet = parse_scenario(SCENARIOS / "fleet_bootstrap.yaml").bootstrap
        trace = run_bootstrap(fleet)
        with csv_path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == BOOTSTRAP_CSV_HEADER
        assert len(rows) == 1 + len(trace.windows)
        for row, window in zip(rows[1:], trace.windows):
            assert int(row[0]) == window.window_index
            assert int(row[1]) == window.fleet_size
            assert int(row[2]) == window.window_demands
            assert int(row[3]) == window.accumulated_evidence
            assert float(row[4]) == float(window.prediction.lower_bound)
            assert float(row[5]) == float(window.prediction.worst_case_q)
            assert row[6] == ("true" if window.meets_threshold else "false")

    def test_threshold_miss_exits_one(self, capsys, tmp_path):
        text = (
            "bootstrap:\n"
            "  growth: {kind: constant, initial_fleet: 10}\n"
            "  demands_per_aircraft_per_window: 1000\n"
            "  window_count: 3\n"
            "  p_nf: 0.9\n"
            "  initial_evidence: 10\n"
            "  confidence_threshold: 0.99\n"
        )
        path = tmp_path / "failing.yaml"
        path.write_text(text, encoding="utf-8")
        code, out = run(capsys, "bootstrap", "--scenario", str(path))
        assert code == 1
        assert "misses the threshold" in out

    def test_evidence_past_count_cap_prints_nothing(self, capsys, tmp_path):
        text = (
            "bootstrap:\n"
            "  growth: {kind: linear, initial_fleet: 1, added_per_window: 1}\n"
            f"  demands_per_aircraft_per_window: {2**1020}\n"
            "  window_count: 4\n"
            "  p_nf: 0.9\n"
            "  initial_evidence: 0\n"
            "  confidence_threshold: 0.99\n"
        )
        path = tmp_path / "overflowing.yaml"
        path.write_text(text, encoding="utf-8")
        code = main(["bootstrap", "--scenario", str(path)])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert "initial_evidence + all window demands must be < 2**1022" in captured.err

    def test_window_count_past_cap_prints_nothing(self, capsys, tmp_path):
        text = (
            "bootstrap:\n"
            "  growth: {kind: constant, initial_fleet: 1}\n"
            "  demands_per_aircraft_per_window: 1\n"
            "  window_count: 100001\n"
            "  p_nf: 0.9\n"
            "  initial_evidence: 0\n"
            "  confidence_threshold: 0.9\n"
        )
        path = tmp_path / "long.yaml"
        path.write_text(text, encoding="utf-8")
        code = main(["bootstrap", "--scenario", str(path)])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert "window_count must be <= 100000, got 100001" in captured.err

    def test_remaining_lifetime_is_not_solved(self, capsys, tmp_path, monkeypatch):
        received = []

        def spy(scenario):
            received.append(scenario)
            return run_bootstrap(scenario)

        monkeypatch.setattr("certbound.cli.run_bootstrap", spy)
        text = (SCENARIOS / "fleet_bootstrap.yaml").read_text(encoding="utf-8")
        path, csv_path = tmp_path / "fleet.yaml", tmp_path / "trace.csv"
        outputs = []
        for extra in ["", "  include_remaining_lifetime: true\n"]:
            path.write_text(text + extra, encoding="utf-8")
            code, out = run(capsys, "bootstrap", "--scenario", str(path), "--csv", str(csv_path))
            outputs.append((code, out, csv_path.read_bytes()))
        assert parse_scenario(path).bootstrap.include_remaining_lifetime
        assert [scenario.include_remaining_lifetime for scenario in received] == [False, False]
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 0


class TestAssess:
    def test_matches_library(self, capsys):
        code, out = run(capsys, "assess", "--scenario", str(SCENARIOS / "assessment_do178c.yaml"))
        assert code == 0
        spec = parse_scenario(SCENARIOS / "assessment_do178c.yaml").assessment
        expected = aggregate_fault_freeness(spec.groups, spec.mode)
        assert first_value(grep(out, "whole-standard p_nf")) == pytest.approx(
            float(expected), abs=1e-12
        )


class TestSweep:
    def test_csv_matches_library(self, capsys, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        code, _ = run(
            capsys, "sweep",
            "--scenario", str(SCENARIOS / "sweep_grid.yaml"),
            "--csv", str(csv_path),
        )
        assert code == 0
        grids = parse_scenario(SCENARIOS / "sweep_grid.yaml").sweep
        expected = sweep(list(grids.p_nf), list(grids.r), list(grids.n))
        with csv_path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == SWEEP_CSV_HEADER
        assert len(rows) == 1 + len(expected)
        for row, cell in zip(rows[1:], expected):
            assert float(row[0]) == cell.p_nf
            assert int(row[1]) == cell.r
            assert int(row[2]) == cell.n
            assert float(row[3]) == cell.lower_bound
            assert float(row[4]) == cell.worst_case_q
            assert float(row[5]) == cell.excess_over_floor

    def test_inline_grids(self, capsys):
        code, out = run(capsys, "sweep", "--p-nf", "0.9", "--r", "0,1000", "--n", "10000")
        assert code == 0
        assert len([l for l in out.splitlines() if l.strip().startswith("0.9")]) == 2


class TestExitCodes:
    @pytest.mark.parametrize("argv", [("sweep", "--r", "1e3"), ("frobnicate",), ()])
    def test_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 5
        assert capsys.readouterr().out == ""

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["predict", "--help"])
        assert exc.value.code == 0
        assert "--scenario" in capsys.readouterr().out

    def test_missing_scenario_file(self, capsys, tmp_path):
        code, _ = run(capsys, "predict", "--scenario", str(tmp_path / "missing.yaml"))
        assert code == 2

    @pytest.mark.parametrize(
        "command, scenario", [("bootstrap", "fleet_bootstrap.yaml"), ("sweep", "sweep_grid.yaml")]
    )
    def test_unwritable_csv(self, capsys, tmp_path, command, scenario):
        target = tmp_path / "missing" / "out.csv"
        code = main([command, "--scenario", str(SCENARIOS / scenario), "--csv", str(target)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize(
        "data",
        [
            b"model: [unclosed\n",
            b"model: {p_nf: 0.9, p_nf: 0.5}\nevidence: {r: 5}\nquery: {n: 3}\n",
            b"model: {p_nf: 0.9}\nevidence: {r: 5}\nquery: {n: 3}\nmodel: {p_nf: 0.5}\n",
            b"# caf\xe9\nmodel: {p_nf: 0.9}\nevidence: {r: 5}\nquery: {n: 3}\n",
            b"model: " + b"[" * 1000 + b"]" * 1000 + b"\n",
            b"model: " + b"{a: " * 1000 + b"1" + b"}" * 1000 + b"\n",
            b"model: {p_nf: " + b"1" * 5000 + b"}\nevidence: {r: 5}\nquery: {n: 3}\n",
            b"model: {p_nf: 2001-13-01}\nevidence: {r: 5}\nquery: {n: 3}\n",
        ],
        ids=["unclosed", "duplicate-key", "duplicate-section", "latin-1", "deep-list",
             "deep-mapping", "5000-digit-integer", "bad-date"],
    )
    def test_syntax_error(self, capsys, tmp_path, data):
        path = tmp_path / "broken.yaml"
        path.write_bytes(data)
        code = main(["predict", "--scenario", str(path)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith(f"error: invalid YAML in {path}: ")

    # An integer past float range in a number key; float() raises OverflowError on it.
    @pytest.mark.parametrize(
        "command, text, key",
        [
            ("predict", "model: {p_nf: HUGE}\nevidence: {r: 5}\nquery: {n: 3}\n", "model.p_nf"),
            ("predict", "model: {p_nf: 0.5}\nevidence: {r: 5}\nquery: {n: 3}\n"
             "prior: {p_nf: 0.5, atoms: [{q: HUGE, weight: 0.5}]}\n", "prior.atoms[0].q"),
            ("predict", "model: {p_nf: 0.5}\nevidence: {r: 5}\nquery: {n: 3}\n"
             "prior: {p_nf: 0.5, atoms: [{q: 0.5, weight: HUGE}]}\n", "prior.atoms[0].weight"),
            ("bootstrap", "bootstrap:\n"
             "  growth: {kind: logistic, initial_fleet: 1, growth_rate: HUGE,"
             " carrying_capacity: 5}\n"
             "  demands_per_aircraft_per_window: 10\n  window_count: 2\n  p_nf: 0.9\n"
             "  initial_evidence: 0\n  confidence_threshold: 0.5\n",
             "bootstrap.growth.growth_rate"),
        ],
        ids=["p_nf", "atom-q", "atom-weight", "growth-rate"],
    )
    def test_huge_integer_is_a_validation_error(self, capsys, tmp_path, command, text, key):
        path = tmp_path / "huge.yaml"
        path.write_text(text.replace("HUGE", str(10**309)), encoding="utf-8")
        code = main([command, "--scenario", str(path)])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err.startswith(f"error: {key}: ")

    # Counts near the 2**1022 cap in rejected inputs print by bit length, not in full.
    @pytest.mark.parametrize(
        "argv, text",
        [
            (["predict"], "model: {p_nf: 0}\nevidence: {r: HUGE}\nquery: {n: 1}\n"
             "prior: {p_nf: 0, atoms: [{q: 1.0, weight: 1.0}]}\n"),
            (["predict"], "model: {p_nf: 0.5}\nevidence: {r: -HUGE}\nquery: {n: 1}\n"),
            (["bootstrap"], "bootstrap:\n"
             "  growth: {kind: logistic, initial_fleet: HUGE, growth_rate: 0.1,"
             " carrying_capacity: 1}\n"
             "  demands_per_aircraft_per_window: 1\n  window_count: 1\n  p_nf: 0.9\n"
             "  initial_evidence: 0\n  confidence_threshold: 0.5\n"),
            (["survival", "--mc-trials", "1"],
             "model: {p_nf: 0.5, p_f_given_faulty: 0.5}\nquery: {n: HUGE}\n"),
            (["survival", "--mc-trials=-HUGE"],
             "model: {p_nf: 0.5, p_f_given_faulty: 0.5}\nquery: {n: 1}\n"),
        ],
        ids=["degenerate-prior", "negative-count", "capacity-below-fleet", "monte-carlo-n",
             "negative-trials"],
    )
    def test_huge_count_messages_stay_short(self, capsys, tmp_path, argv, text):
        huge = str(2**1022 - 1)
        path = tmp_path / "huge.yaml"
        path.write_text(text.replace("HUGE", huge), encoding="utf-8")
        flags = [arg.replace("HUGE", huge) for arg in argv[1:]]
        code = main([argv[0], "--scenario", str(path), *flags])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert "1022-bit integer" in captured.err
        assert max(len(line) for line in captured.err.splitlines()) <= 200

    # Long values and long key lists print shortened, so a message stays one short line.
    @pytest.mark.parametrize(
        "command, text, key",
        [
            ("predict", "model: [" + "1, " * 100_000 + "1]\n", "model"),
            ("predict", "model: {p_nf: '" + "x" * 100_000 + "'}\n", "model.p_nf"),
            ("predict", "model: {" + ", ".join(f"k{i}: 0" for i in range(10_000)) + "}\n",
             "model"),
            ("predict", "model: {" + ", ".join(f"{'k' * 1000}{i}: 0" for i in range(10)) + "}\n",
             "model"),
            # The allowed-key list, 143 characters for bootstrap, gets a line of its own.
            ("bootstrap", "bootstrap: {" + ", ".join(f"{'k' * 1000}{i}: 0" for i in range(10))
             + "}\n", "bootstrap"),
            # Aliases nest lists of 10 five deep: 10**5 leaves in the last from a small file.
            ("predict", "model: [&a0 [" + "1, " * 9 + "1], "
             + ", ".join(f"&a{i} [" + ", ".join([f"*a{i - 1}"] * 10) + "]" for i in range(1, 5))
             + "]\n", "model"),
            ("assess", "assessment:\n  mode: '" + "x" * 100_000 + "'\n"
             "  groups: [{group_id: a, objective_count: 1, p_no_fault: 0.9}]\n",
             "assessment.mode"),
        ],
        ids=["long-list", "long-string", "many-unknown-keys", "long-unknown-keys",
             "long-unknown-bootstrap-keys", "nested-aliases", "long-choice"],
    )
    def test_long_input_messages_stay_short(self, capsys, tmp_path, command, text, key):
        path = tmp_path / "long.yaml"
        path.write_text(text, encoding="utf-8")
        code = main([command, "--scenario", str(path)])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err.startswith(f"error: {key}: ")
        assert max(len(line) for line in captured.err.splitlines()) <= 200

    @pytest.mark.parametrize(
        "text, message",
        [
            ("model:\n  p_nf: 1.5\n", "error: model.p_nf: "),
            ("model: {1: a, x: b}\n", "error: model: unknown keys [1, 'x']"),
            ("1: a\nx: b\n", "error: <root>: unknown sections [1, 'x']"),
        ],
        ids=["out-of-range", "mixed-type-keys", "mixed-type-sections"],
    )
    def test_validation_error(self, capsys, tmp_path, text, message):
        path = tmp_path / "invalid.yaml"
        path.write_text(text, encoding="utf-8")
        code = main(["predict", "--scenario", str(path)])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err.startswith(message)

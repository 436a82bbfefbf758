"""Command-line surface: schemas, golden values, exit codes, determinism."""

import csv
import io
import json
import shutil
import subprocess
import sys

import pytest

from pairdeploy import cli, montecarlo
from pairdeploy.cli import main, parse_gamma_list, parse_k_values

SWEEP_HEADER = "kind,gamma,K,n,trials,successes,p_hat,ci_low,ci_high"
PHASED_HEADER = "n,K,schedule,trials,successes,p_hat,ci_low,ci_high"
CENSUS_HEADER = "size,count,is_max_histogram"
THEORY_HEADER = "quantity,arg1,arg2,arg3,arg4,value"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_rows(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


class TestArgumentGrammar:
    def test_k_single(self):
        assert parse_k_values("7", 100) == (7,)

    def test_k_range_inclusive(self):
        assert parse_k_values("1..20", 100) == tuple(range(1, 21))

    def test_k_list(self):
        assert parse_k_values("1,5,9", 100) == (1, 5, 9)

    def test_k_empty_range_rejected(self):
        with pytest.raises(ValueError):
            parse_k_values("5..1", 100)

    def test_gamma_list(self):
        assert parse_gamma_list("0.2,0.4") == (0.2, 0.4)

    def test_k_range_ends_checked_against_n(self):
        assert parse_k_values("1..99", 100) == tuple(range(1, 100))
        for text in ("0..5", "1..100", "1..1000"):
            with pytest.raises(ValueError, match="1 <= k <= n-1"):
                parse_k_values(text, 100)


class TestSweep:
    def test_header_and_row_count(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--n", "60", "--k", "1..20",
            "--gamma", "0.2,0.4,0.6,0.8", "--trials", "5",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 1 + 2 * 4 * 20  # kinds * gammas * k values

    def test_deterministic_across_runs(self, capsys):
        argv = ("sweep", "--n", "50", "--k", "2,3", "--gamma", "0.5,1.0", "--trials", "20")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_seed_changes_output(self, capsys):
        base = ("sweep", "--n", "50", "--k", "2", "--gamma", "0.5", "--trials", "30")
        _, a, _ = run_cli(capsys, *base)
        _, b, _ = run_cli(capsys, *base, "--seed", "99")
        assert a != b

    def test_workers_flag_is_invisible_in_output(self, capsys):
        base = ("sweep", "--n", "50", "--k", "2,3", "--gamma", "0.5", "--trials", "20")
        _, serial, _ = run_cli(capsys, *base)
        _, parallel, _ = run_cli(capsys, *base, "--workers", "2")
        assert serial == parallel

    def test_full_deployment_two_selections_connects(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--n", "1000", "--k", "2", "--gamma", "1.0",
            "--trials", "200",
        )
        assert code == 0
        rows = parse_rows(out)
        connected = [r for r in rows if r["kind"] == "connected"][0]
        assert float(connected["p_hat"]) >= 0.99

    def test_json_mirrors_csv(self, capsys):
        base = ("sweep", "--n", "40", "--k", "2", "--gamma", "0.5,1.0", "--trials", "10")
        _, text, _ = run_cli(capsys, *base)
        _, jtext, _ = run_cli(capsys, *base, "--format", "json")
        doc = json.loads(jtext)
        assert doc["command"] == "sweep"
        assert doc["seed"] == 1729
        csv_rows = parse_rows(text)
        json_rows = [{key: str(val) for key, val in row.items()} for row in doc["rows"]]
        assert json_rows == csv_rows

    def test_decreasing_gamma_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--n", "50", "--k", "2", "--gamma", "0.8,0.4", "--trials", "5"
        )
        assert code == 2
        assert "increasing" in err

    def test_k_range_checked_before_it_is_built(self, capsys, monkeypatch):
        def no_range(*args):
            raise AssertionError("k range built before its ends were checked")

        monkeypatch.setattr(cli, "range", no_range, raising=False)
        code, _, err = run_cli(
            capsys, "sweep", "--n", "100", "--k", "1..1000", "--gamma", "0.5", "--trials", "5"
        )
        assert code == 2
        assert "1 <= k <= n-1" in err

    def test_bad_k_range_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--n", "50", "--k", "9..3", "--gamma", "0.5", "--trials", "5"
        )
        assert code == 2
        assert err.startswith("pairdeploy:")


class TestPhased:
    def test_joint_row_then_phases(self, capsys):
        code, out, _ = run_cli(
            capsys, "phased", "--n", "200", "--k", "6",
            "--schedule", "0.25,0.5,1.0", "--trials", "40",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == PHASED_HEADER
        rows = parse_rows(out)
        assert len(rows) == 4  # joint + three phases
        assert rows[0]["schedule"] == "0.25,0.5,1"
        joint = float(rows[0]["p_hat"])
        for row in rows[1:]:
            assert joint <= float(row["p_hat"])

    def test_non_increasing_schedule_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "phased", "--n", "100", "--k", "3",
            "--schedule", "0.5,0.25", "--trials", "10",
        )
        assert code == 2
        assert "strictly increasing" in err

    @pytest.mark.parametrize(
        "n,k,trials,message",
        [
            ("2000", "5000", "10", "need 1 <= k <= n-1, got k=5000 with n=2000"),
            ("1", "1", "10", "need at least 2 nodes, got n=1"),
            ("100", "3", "-3", "need trials >= 1, got -3"),
        ],
        ids=["k_above_n", "one_node", "negative_trials"],
    )
    def test_sizes_checked_before_sampling(self, capsys, monkeypatch, n, k, trials, message):
        def no_sampling(*args):
            raise AssertionError("tables drawn before (n, k) and trials were checked")

        monkeypatch.setattr(montecarlo.sampling, "sample_pairing_block", no_sampling)
        code, _, err = run_cli(
            capsys, "phased", "--n", n, "--k", k, "--schedule", "0.5,1.0", "--trials", trials
        )
        assert code == 2
        assert err == f"pairdeploy: {message}\n"

    def test_deterministic(self, capsys):
        argv = ("phased", "--n", "100", "--k", "4", "--schedule", "0.5,1.0", "--trials", "25")
        _, a, _ = run_cli(capsys, *argv)
        _, b, _ = run_cli(capsys, *argv)
        assert a == b


class TestCensus:
    def test_histogram_conservation_and_summary(self, capsys):
        code, out, _ = run_cli(
            capsys, "census", "--n", "50", "--k", "3", "--trials", "40"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == CENSUS_HEADER
        assert lines[-1].startswith("# mean_size=")
        rows = parse_rows(out)
        ring_mass = sum(int(r["count"]) for r in rows if r["is_max_histogram"] == "0")
        max_mass = sum(int(r["count"]) for r in rows if r["is_max_histogram"] == "1")
        assert ring_mass == 40 * 50
        assert max_mass == 40

    def test_mean_size_within_one_percent(self, capsys):
        _, out, _ = run_cli(
            capsys, "census", "--n", "500", "--k", "21", "--trials", "50"
        )
        summary = out.splitlines()[-1]
        mean = float(summary.split("mean_size=")[1].split()[0])
        assert abs(mean - 42.0) <= 0.42

    def test_small_network_census_statistics(self, capsys):
        _, out, _ = run_cli(
            capsys, "census", "--n", "200", "--k", "4", "--trials", "1000"
        )
        summary = out.splitlines()[-1]
        frac = float(summary.split("frac_over_3k=")[1].split()[0])
        largest = int(summary.split("largest=")[1].split()[0])
        assert 0.01 <= frac <= 0.03
        assert largest <= 30

    def test_json_document(self, capsys):
        _, jtext, _ = run_cli(
            capsys, "census", "--n", "40", "--k", "2", "--trials", "30",
            "--format", "json",
        )
        doc = json.loads(jtext)
        assert doc["n"] == 40 and doc["k"] == 2 and doc["trials"] == 30
        assert sum(c for _, c in doc["histogram"]) == 40 * 30
        assert sum(c for _, c in doc["max_histogram"]) == 30
        assert doc["largest"] == max(s for s, _ in doc["histogram"])


class TestTheory:
    def test_golden_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "theory", "--r-gamma", "0.5,0.9", "--lambda-star",
            "--c-of-lambda", "5",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == THEORY_HEADER
        assert lines[1] == "r_gamma,0.5,,,,0.419059784"
        assert lines[2] == "r_gamma,0.9,,,,0.281022978"
        assert lines[3] == "lambda_star,,,,,2.58869945"
        assert lines[4] == "c_of_lambda,5,,,,3.4804711"

    def test_probability_calculators(self, capsys):
        code, out, _ = run_cli(
            capsys, "theory",
            "--isolation", "4,1,0.5",
            "--expected-isolated", "6,1,0.5",
            "--isolation-event", "6,1,0.5,1",
            "--union-bound", "1000,21,0.5",
            "--connectivity-bound", "100",
            "--maxring-bound", "1000,21,5",
            "--h-exponent", "3,2.9",
        )
        assert code == 0
        values = {r["quantity"]: r["value"] for r in parse_rows(out)}
        assert values["isolation_prob"] == "0.444444444"
        assert values["expected_isolated"] == "1.152"
        assert values["isolation_event"] == "0.384"
        assert values["union_bound"] == "4.89046258e-09"
        assert values["connectivity_lower_bound"] == "0.99865"
        assert values["h_exponent"] == "0.0904063672"
        assert float(values["maxring_bound"]) > 0

    def test_no_quantities_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "theory")
        assert code == 2
        assert "no quantities" in err

    def test_domain_error_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "theory", "--r-gamma", "1.5")
        assert code == 2
        assert "gamma" in err

    def test_unexpected_error_is_one_line_exit_1(self, capsys):
        # 1e400 nodes: converting n*n to a float raises OverflowError
        code, out, err = run_cli(capsys, "theory", "--connectivity-bound", "1" + "0" * 400)
        assert code == 1
        assert out == ""
        assert err.startswith("pairdeploy: ")
        assert len(err.splitlines()) == 1


class TestOutputFile:
    def test_out_matches_stdout(self, capsys, tmp_path):
        argv = ("census", "--n", "30", "--k", "2", "--trials", "10")
        _, stdout_text, _ = run_cli(capsys, *argv)
        target = tmp_path / "census.csv"
        code, _, _ = run_cli(capsys, *argv, "--out", str(target))
        assert code == 0
        assert target.read_text() == stdout_text

    def test_out_replaces_existing_file(self, capsys, tmp_path):
        target = tmp_path / "out.csv"
        target.write_text("old contents\n")
        code, _, _ = run_cli(capsys, "theory", "--lambda-star", "--out", str(target))
        assert code == 0
        assert "lambda_star" in target.read_text()
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_failed_run_leaves_existing_file_untouched(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        target.write_text("previous results\n")
        code, _, err = run_cli(
            capsys, "sweep", "--n", "50", "--k", "2", "--gamma", "0.8,0.4",
            "--trials", "5", "--out", str(target),
        )
        assert code == 2
        assert "increasing" in err
        assert target.read_text() == "previous results\n"
        assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]

    def test_unwritable_path_exit_1(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "theory", "--lambda-star",
            "--out", str(tmp_path / "missing" / "x.csv"),
        )
        assert code == 1
        assert "output failed" in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "pairdeploy", "theory", "--lambda-star"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "2.58869945" in proc.stdout


@pytest.mark.skipif(shutil.which("pairdeploy") is None, reason="script not on PATH")
def test_console_script():
    proc = subprocess.run(
        ["pairdeploy", "theory", "--r-gamma", "0.5"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "0.419059784" in proc.stdout

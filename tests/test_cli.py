"""Command-line surface: schemas, golden values, exit codes, determinism."""

import csv
import ctypes
import importlib
import io
import json
import os
import platform
import re
import shlex
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

from pairdeploy import cli, montecarlo, theory
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

    def test_workers_flag_is_invisible_in_output(self, capsys, pools):
        base = ("sweep", "--n", "50", "--k", "2,3", "--gamma", "0.5", "--trials", "20")
        _, serial, _ = run_cli(capsys, *base, "--workers", "1")
        _, parallel, _ = run_cli(capsys, *base, "--workers", "2")
        assert serial == parallel
        assert len(pools) == 1

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

    def test_repeated_k_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--n", "20", "--k", "3,3", "--gamma", "0.5", "--trials", "5"
        )
        assert (code, out) == (2, "")
        assert "must not repeat" in err

    def test_repeated_gamma_names_fractions(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--n", "20", "--k", "3", "--gamma", "0.5,0.5", "--trials", "5"
        )
        assert code == 2
        assert "deployment fractions must be strictly increasing" in err

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

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("--k", "1..", "--gamma", "0.5"), "--k: invalid literal for int() with base 10: ''"),
            (("--k", "2", "--gamma", "0.2,x"), "--gamma: could not convert string to float: 'x'"),
        ],
        ids=["k", "gamma"],
    )
    def test_list_parse_error_names_its_flag(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "sweep", "--n", "50", *argv, "--trials", "5")
        assert (code, out) == (2, "")
        assert err == f"pairdeploy: {message}\n"

    @pytest.mark.parametrize(
        "k,message",
        [
            ("0..5", "--k: need 1 <= k <= n-1, got k=0 with n=10"),
            ("0,5", "--k: need 1 <= k <= n-1, got k=0 with n=10"),
            ("5,10", "--k: need 1 <= k <= n-1, got k=10 with n=10"),
            ("3,3", "--k: values must not repeat, got '3,3'"),
            ("1,2,3,2", "--k: values must not repeat, got '1,2,3,2'"),
        ],
    )
    def test_k_value_error_names_its_flag(self, capsys, k, message):
        """A listed K is checked like a range end, and a repeat is named
        as the flag's error."""
        code, out, err = run_cli(
            capsys, "sweep", "--n", "10", "--k", k, "--gamma", "0.5", "--trials", "5"
        )
        assert (code, out, err) == (2, "", f"pairdeploy: {message}\n")


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

    def test_labels_keep_digits_that_six_would_drop(self, capsys):
        _, out, _ = run_cli(
            capsys, "phased", "--n", "20", "--k", "3", "--schedule", "0.1234566,1.0", "--trials", "2"
        )
        assert [r["schedule"] for r in parse_rows(out)] == ["0.1234566,1", "0.1234566", "1"]
        _, out, _ = run_cli(
            capsys, "sweep", "--n", "20", "--k", "3", "--gamma", "0.1234566", "--trials", "2"
        )
        assert {r["gamma"] for r in parse_rows(out)} == {"0.1234566"}

    def test_fractions_of_one_view_size_give_equal_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "phased", "--n", "10", "--k", "3", "--schedule", "0.31,0.35", "--trials", "20"
        )
        assert code == 0
        joint, lo, hi = (r["successes"] for r in parse_rows(out))
        assert joint == lo == hi

    def test_schedule_parse_error_names_its_flag(self, capsys):
        code, out, err = run_cli(
            capsys, "phased", "--n", "100", "--k", "3", "--schedule", "0.2,,1", "--trials", "10"
        )
        assert (code, out) == (2, "")
        assert err == "pairdeploy: --schedule: could not convert string to float: ''\n"

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

    def test_json_summary_follows_the_histogram(self, capsys):
        """The JSON summary holds exact doubles: the mean ring size is 2k,
        since each selection puts its key in two rings, and the largest
        ring of all is the largest of some trial.  (At this seed, summing
        size * count / rings term by term gives 6.000000000000001.)"""
        _, jtext, _ = run_cli(
            capsys, "census", "--n", "50", "--k", "3", "--trials", "40", "--format", "json"
        )
        doc = json.loads(jtext)
        assert doc["mean_size"] == 2 * 3
        assert doc["largest"] == doc["histogram"][-1][0] == doc["max_histogram"][-1][0]
        over = sum(c for s, c in doc["histogram"] if s > 3 * 3)
        assert 0 < over and doc["frac_over_3k"] == over / (40 * 50)

    def test_rings_at_exactly_3k_do_not_count_as_over(self, capsys):
        # n=3, k=1: the largest possible ring is 1 + 2 = 3 = 3k
        _, jtext, _ = run_cli(
            capsys, "census", "--n", "3", "--k", "1", "--trials", "200", "--seed", "1",
            "--format", "json",
        )
        doc = json.loads(jtext)
        assert doc["largest"] == 3
        assert doc["frac_over_3k"] == 0.0


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

    @pytest.mark.parametrize(
        "argv",
        [
            ["--maxring-bound", "1000,21,nan"],
            ["--h-exponent", "inf,2"],
            ["--c-of-lambda", "inf"],
            ["--c-of-lambda=-inf"],
            ["--isolation", "1000,5,inf"],
            ["--union-bound", "1000,5,nan"],
            ["--r-gamma", "0.5,nan"],
        ],
        ids=" ".join,
    )
    def test_non_finite_real_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "theory", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("pairdeploy: ") and "finite" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "flag,spec,message",
        [
            ("--isolation", "1000,5", "--isolation expects 3 comma-separated values, got '1000,5'"),
            (
                "--isolation-event", "1000,5,0.5",
                "--isolation-event expects 4 comma-separated values, got '1000,5,0.5'",
            ),
            ("--h-exponent", "3,2.9,1", "--h-exponent expects 2 comma-separated values, got '3,2.9,1'"),
        ],
        ids=["three", "four", "two"],
    )
    def test_wrong_arity_is_usage_error(self, capsys, flag, spec, message):
        code, out, err = run_cli(capsys, "theory", flag, spec)
        assert code == 2
        assert out == ""
        assert err == f"pairdeploy: {message}\n"

    @pytest.mark.parametrize(
        "flag,spec,message",
        [
            ("--isolation", "1000,5.5,0.5", "--isolation: invalid literal for int() with base 10: '5.5'"),
            ("--union-bound", "1000,5,nan", "--union-bound: expected a finite number, got 'nan'"),
            # an empty list value is malformed, not an absent flag
            ("--r-gamma", "", "--r-gamma: could not convert string to float: ''"),
            ("--c-of-lambda", "", "--c-of-lambda: could not convert string to float: ''"),
            (
                "--connectivity-bound", "",
                "--connectivity-bound: invalid literal for int() with base 10: ''",
            ),
        ],
        ids=["int", "real", "empty-r-gamma", "empty-c-of-lambda", "empty-connectivity-bound"],
    )
    def test_parse_error_names_its_flag(self, capsys, flag, spec, message):
        code, out, err = run_cli(capsys, "theory", "--r-gamma", "0.5", flag, spec)
        assert code == 2
        assert out == ""
        assert err == f"pairdeploy: {message}\n"

    def test_maxring_bound_needs_a_scheme_that_exists(self, capsys):
        code, out, err = run_cli(capsys, "theory", "--maxring-bound", "10,100,5")
        assert code == 2
        assert out == ""
        assert err == "pairdeploy: need 1 <= k <= n-1, got k=100 with n=10\n"

    @pytest.mark.parametrize("bad", [["--maxring-bound", "1,2"], ["--maxring-bound", "1000,x,5"]])
    def test_queries_parsed_before_any_is_evaluated(self, capsys, monkeypatch, bad):
        calls = []
        monkeypatch.setattr(theory, "connectivity_union_bound", lambda *a: calls.append(a))
        code, out, _ = run_cli(capsys, "theory", "--union-bound", "1000000,30,0.5", *bad)
        assert code == 2
        assert out == ""
        assert calls == []

    @pytest.mark.parametrize("flag", list(cli._THEORY_QUERIES))
    def test_each_query_names_a_public_theory_function(self, flag):
        fn = cli._THEORY_QUERIES[flag][1]
        assert fn.__name__ in theory.__all__
        assert getattr(theory, fn.__name__) is fn

    def test_queries_call_the_function_bound_on_theory(self, capsys, monkeypatch):
        """A wrapper installed on `theory` after import, as the benchmark's
        tracer installs one, is the function a query calls."""
        calls = []
        monkeypatch.setattr(theory, "isolation_threshold", lambda g: calls.append(g) or 0.25)
        code, out, _ = run_cli(capsys, "theory", "--r-gamma", "0.5")
        assert code == 0
        assert calls == [0.5]
        assert out.splitlines()[1] == "r_gamma,0.5,,,,0.25"

    def test_vacuous_union_bound_past_double_range_prints_inf(self, capsys):
        code, out, err = run_cli(capsys, "theory", "--union-bound", "100000,2,0.5")
        assert code == 0
        assert err == ""
        assert out.splitlines()[1] == "union_bound,100000,2,0.5,,inf"

    def test_union_bound_reaches_full_deployment(self, capsys):
        code, out, err = run_cli(capsys, "theory", "--union-bound", "1000,2,1.0")
        assert code == 0
        assert err == ""
        assert out.splitlines()[1] == "union_bound,1000,2,1,,3.34328235e-12"

    @pytest.mark.parametrize(
        "spec,message",
        [("10,4,0.5", "need 2(k+1) < n, got k=4, n=10"), ("20,2,0.1", "need gamma*n > 2, got gamma=0.1, n=20")],
    )
    def test_union_bound_outside_its_domain_is_usage_error(self, capsys, spec, message):
        code, out, err = run_cli(capsys, "theory", "--union-bound", spec)
        assert code == 2
        assert out == ""
        assert err == f"pairdeploy: {message}\n"

    def test_fraction_printed_in_full_when_six_digits_lose_it(self, capsys):
        # phase sizes 123456 and 123457: two queries, so two distinct rows
        code, out, _ = run_cli(
            capsys, "theory",
            "--isolation", "1000000,40,0.1234566", "--isolation", "1000000,40,0.1234574",
            "--r-gamma", "0.5,0.25",
        )
        assert code == 0
        rows = parse_rows(out)
        # rows come in the flag table's order, --r-gamma first
        assert [r["arg1"] for r in rows[:2]] == ["0.5", "0.25"]
        assert [r["arg3"] for r in rows[2:]] == ["0.1234566", "0.1234574"]
        assert [r["value"] for r in rows[2:]] == ["3.68332859e-05", "3.68301318e-05"]

    def test_list_flag_keeps_its_last_use(self, capsys):
        code, out, _ = run_cli(capsys, "theory", "--r-gamma", "0.2", "--r-gamma", "0.5,0.9")
        assert code == 0
        assert [(r["quantity"], r["arg1"]) for r in parse_rows(out)] == [
            ("r_gamma", "0.5"), ("r_gamma", "0.9"),
        ]

    def test_tuple_flag_repeats_in_order(self, capsys):
        code, out, _ = run_cli(
            capsys, "theory", "--isolation", "1000,5,0.5", "--isolation", "100,3,0.2"
        )
        assert code == 0
        assert [(r["quantity"], r["arg1"], r["arg2"], r["arg3"]) for r in parse_rows(out)] == [
            ("isolation_prob", "1000", "5", "0.5"), ("isolation_prob", "100", "3", "0.2"),
        ]

    def test_unexpected_error_is_one_line_exit_1(self, capsys):
        # 1e400 nodes: converting n*n to a float raises OverflowError
        code, out, err = run_cli(capsys, "theory", "--connectivity-bound", "1" + "0" * 400)
        assert code == 1
        assert out == ""
        assert err.startswith("pairdeploy: ")
        assert len(err.splitlines()) == 1


# one small run of each command that takes --seed; sweep also with --workers
SEEDED_RUNS = {
    "sweep": ["sweep", "--n", "30", "--k", "2,3", "--gamma", "0.5,1.0", "--trials", "4"],
    "sweep_workers": [
        "sweep", "--n", "30", "--k", "2,3", "--gamma", "0.5,1.0", "--trials", "4", "--workers", "2"
    ],
    "phased": ["phased", "--n", "30", "--k", "3", "--schedule", "0.5,1.0", "--trials", "4"],
    "census": ["census", "--n", "30", "--k", "3", "--trials", "4"],
}


class TestSeedRange:
    """A seed is a uint64: one outside [0, 2**64) would be wrapped into it
    by the sampler's mixing and run as another seed, so it is refused."""

    @pytest.mark.parametrize("seed", [-1, 2**64])
    @pytest.mark.parametrize("command", SEEDED_RUNS)
    def test_outside_uint64_is_usage_error(self, capsys, monkeypatch, command, seed):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the seed was checked")

        monkeypatch.setattr(montecarlo.sampling, "sample_pairing_block", no_work)
        monkeypatch.setattr(montecarlo.sampling, "draw_pairing_block", no_work)
        monkeypatch.setattr(os, "fork", no_work)
        code, out, err = run_cli(capsys, *SEEDED_RUNS[command], "--seed", str(seed))
        assert (code, out) == (2, "")
        assert err == f"pairdeploy: seed must be in [0, 2**64), got {seed}\n"

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("command", SEEDED_RUNS)
    def test_range_ends_run(self, capsys, command, seed):
        argv = [*SEEDED_RUNS[command], "--seed", str(seed), "--format", "json"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads(out)["seed"] == seed


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
        target = str(tmp_path / "missing" / "x.csv")
        code, _, err = run_cli(capsys, "theory", "--lambda-star", "--out", target)
        assert code == 1
        assert "output failed" in err
        # the message names the path given, not the temporary file beside it
        assert repr(target) in err
        assert ".tmp" not in err

    def test_directory_as_out_is_named_and_left_alone(self, capsys, tmp_path):
        target = tmp_path / "results"
        target.mkdir()
        code, _, err = run_cli(capsys, "theory", "--lambda-star", "--out", str(target))
        assert code == 1
        assert repr(str(target)) in err
        assert ".tmp" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["results"]


# -- the worker processes -----------------------------------------------------

# one run of each Monte Carlo command, split into shares once the block budget
# is shrunk (the golden digests pin their serial output)
POOL_RUNS = {
    "sweep": "sweep --n 60 --k 1..6 --gamma 0.3,0.6,1.0 --trials 40 --seed 5",
    "phased": "phased --n 120 --k 4 --schedule 0.25,0.5,1.0 --trials 50 --seed 11",
    "census": "census --n 80 --k 3 --trials 60 --seed 2",
}


def assert_no_child_left():
    """This process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def pools(monkeypatch):
    """Runs above a 1000-entry block budget, which still holds two of
    their tables, on two usable CPUs: the list of the pids of every child
    forked."""
    forked = []
    fork = os.fork

    def recorded():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(montecarlo, "_BLOCK_BUDGET", 1000)
    monkeypatch.setattr(montecarlo, "_pool_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", recorded)
    return forked


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", POOL_RUNS)
def test_pool_output_is_byte_identical(capsys, pools, command, fmt):
    """--workers 1, --workers 2 and the default print the same bytes; the
    last two fork one child each, which is reaped by the end of the run."""
    argv = [*POOL_RUNS[command].split(), "--format", fmt]
    outs, forks = [], []
    for extra in (["--workers", "1"], ["--workers", "2"], []):
        code, out, _ = run_cli(capsys, *argv, *extra)
        assert code == 0
        assert_no_child_left()
        outs.append(out)
        forks.append(len(pools))
    assert outs[0] == outs[1] == outs[2]
    assert forks == [0, 1, 2]


def test_run_within_one_block_forks_nothing(capsys, pools, monkeypatch):
    """At the real block budget the pool runs fit one serial block, and
    run in this process whatever --workers says."""
    monkeypatch.setattr(montecarlo, "_BLOCK_BUDGET", 4_000_000)
    for argv in POOL_RUNS.values():
        assert run_cli(capsys, *argv.split(), "--workers", "2")[0] == 0
    assert pools == []


SLEEP_S = 30


def failing_draw(monkeypatch, actions):
    """Make the census's draw act by the first trial of its block: actions
    is a list of (first trials up to, action), where the action is None for
    a real draw, "raise", "sleep" (for SLEEP_S, far longer than the runs,
    then end the process) or "exit" (at once, with status 3)."""
    draw = montecarlo.sampling.draw_pairing_block

    def acting(seed, first, *args):
        action = next(act for upto, act in actions if first < upto)
        if action == "raise":
            raise RuntimeError("broken draw")
        if action == "sleep":
            time.sleep(SLEEP_S)
            os._exit(4)
        if action == "exit":
            os._exit(3)
        return draw(seed, first, *args)

    monkeypatch.setattr(montecarlo.sampling, "draw_pairing_block", acting)


def test_failing_worker_cancels_the_rest_and_leaves_no_process(capsys, pools, monkeypatch):
    """A share that raises in a child fails the run with its message on one
    stderr line and exit 1: the calling process raises the child's error,
    kills the children still running, and reaps every one.  The census of
    60 trials at width 3 has shares of trials 0-19, 20-39 and 40-59."""
    monkeypatch.setattr(montecarlo, "_pool_cpus", lambda: 3)
    failing_draw(monkeypatch, [(20, None), (40, "raise"), (60, "sleep")])
    start = time.monotonic()
    code, out, err = run_cli(capsys, *POOL_RUNS["census"].split(), "--workers", "3")
    assert time.monotonic() - start < SLEEP_S / 2  # the sleeping child was killed
    assert (code, out, err) == (1, "", "pairdeploy: broken draw\n")
    assert len(pools) == 2
    assert_no_child_left()


@pytest.mark.parametrize(
    "actions,message",
    [
        ([(30, "raise"), (60, "sleep")], "broken draw"),
        ([(30, None), (60, "exit")], "a worker process ended without its counts (exit code 3)"),
    ],
    ids=["raise_in_parent", "child_exits"],
)
def test_failed_share_leaves_no_process(capsys, pools, monkeypatch, tmp_path, actions, message):
    """A share that raises in the calling process kills and reaps the
    child; a child that ends without sending its counts fails the run with
    a one-line message and exit 1.  Either way an existing --out file is
    left as it was, and no child is left.  At width 2 the census's shares
    are trials 0-29 and 30-59."""
    target = tmp_path / "census.csv"
    target.write_text("previous results\n")
    failing_draw(monkeypatch, actions)
    argv = [*POOL_RUNS["census"].split(), "--workers", "2", "--out", str(target)]
    start = time.monotonic()
    code, out, err = run_cli(capsys, *argv)
    assert time.monotonic() - start < SLEEP_S / 2  # a sleeping child was killed
    assert (code, out, err) == (1, "", f"pairdeploy: {message}\n")
    assert len(pools) == 1
    assert_no_child_left()
    assert target.read_text() == "previous results\n"
    assert [p.name for p in tmp_path.iterdir()] == ["census.csv"]


def test_pooled_runs_load_no_process_pool():
    """Runs that fork load neither multiprocessing nor concurrent.futures,
    whose imports cost more than the fork itself, and their children end
    without flushing the stdio they inherit: text buffered before the runs
    is printed once."""
    code = (
        "import contextlib, io, os, sys\n"
        "print('buffered', end=' ')\n"
        "from pairdeploy import cli, montecarlo\n"
        "montecarlo._BLOCK_BUDGET = 1000\n"
        "montecarlo._pool_cpus = lambda: 2\n"
        "forked = []\n"
        "fork = os.fork\n"
        "os.fork = lambda: forked.append(1) or fork()\n"
        "for argv in %r:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv.split() + ['--workers', '2']) == 0\n"
        "print(len(forked), [m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])\n"
    ) % (list(POOL_RUNS.values()),)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=checkout_env(), capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "buffered 3 []\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--seed", "-1"], "seed must be in [0, 2**64), got -1"),
        (["--trials", "0"], "need trials >= 1, got 0"),
        (["--workers", "0"], "workers must be >= 1, got 0"),
    ],
    ids=["seed", "trials", "workers"],
)
@pytest.mark.parametrize("command", POOL_RUNS)
def test_run_refused_before_any_process_starts(capsys, monkeypatch, command, argv, message):
    """Runs big enough to fork are checked before one does."""

    def no_fork():
        raise AssertionError("a process was forked before the run was checked")

    monkeypatch.setattr(montecarlo, "_BLOCK_BUDGET", 1000)
    monkeypatch.setattr(montecarlo, "_pool_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", no_fork)
    code, out, err = run_cli(capsys, *POOL_RUNS[command].split(), *argv)
    assert (code, out, err) == (2, "", f"pairdeploy: {message}\n")


def checkout_env():
    """The environment of `python -m pairdeploy` from a checkout: pytest's
    pythonpath setting does not reach a subprocess, so the repository's src
    leads its path."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "pairdeploy", "theory", "--lambda-star"],
        capture_output=True, text=True, timeout=60, env=checkout_env(),
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


def test_console_script_target_is_the_cli_main(capsys):
    """The [project.scripts] entry, checked without installing the package."""
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    assert section is not None
    target = re.search(r'^pairdeploy\s*=\s*"([\w.]+):(\w+)"\s*$', section.group(1), re.M)
    assert target is not None
    module, attr = target.groups()
    entry = getattr(importlib.import_module(module), attr)
    assert entry is cli.main
    assert entry(["theory", "--r-gamma", "0.5"]) == 0
    assert "0.419059784" in capsys.readouterr().out


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_examples():
    """(command, printed lines) for every `$ pairdeploy ...` line of the
    README's sh blocks that has output shown below it."""
    text = README.read_text() if README.exists() else ""  # missing: the test below fails
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, *printed = chunk.rstrip("\n").split("\n")
            if printed:
                examples.append((command, printed))
    return examples


README_EXAMPLES = readme_examples()


def test_readme_documents_every_theory_flag():
    text = README.read_text() if README.exists() else ""
    # a whole flag: --isolation inside --isolation-event does not count
    undocumented = [f for f in cli._THEORY_QUERIES if not re.search(re.escape(f) + r"(?![\w-])", text)]
    assert undocumented == []


def test_readme_examples_are_found():
    assert [command.split()[1] for command, _ in README_EXAMPLES] == ["sweep", "phased", "census", "theory"]


@pytest.mark.parametrize("command,printed", README_EXAMPLES, ids=[c for c, _ in README_EXAMPLES])
def test_readme_example_prints_what_it_shows(capsys, command, printed):
    argv, _, pipe = command.partition(" | ")
    program, *args = shlex.split(argv)
    assert program == "pairdeploy"
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    lines = out.splitlines()
    if pipe:
        assert pipe == "tail -1"
        lines = lines[-1:]
    assert lines == printed


# -- the allocator setting of the Monte Carlo commands ---------------------------

def libc_without_mallopt(name):
    return types.SimpleNamespace()


def libc_not_loadable(error):
    def load(name):
        raise error("no C library")
    return load


@pytest.mark.parametrize(
    "libc",
    [libc_without_mallopt, libc_not_loadable(OSError), libc_not_loadable(TypeError)],
    ids=["no_mallopt", "oserror", "typeerror"],
)
def test_allocator_setting_is_skipped_without_mallopt(monkeypatch, capsys, libc):
    """Where the C library has no mallopt (macOS, musl) or cannot be loaded
    (Windows raises TypeError for CDLL(None)), the Monte Carlo commands run
    as before and print the same bytes."""
    monkeypatch.setattr(ctypes, "CDLL", libc)
    command, printed = README_EXAMPLES[0]
    code, out, _ = run_cli(capsys, *shlex.split(command)[1:])
    assert code == 0 and out.splitlines() == printed


def test_monte_carlo_commands_set_the_allocator_thresholds(monkeypatch, capsys):
    """A stand-in mallopt sees glibc's M_MMAP_THRESHOLD (-3) set to 32 MiB and
    M_TRIM_THRESHOLD (-1) to 64 MiB, in that order, from a sweep and no call
    from the theory command; the real allocator is not touched."""
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
    assert run_cli(capsys, "theory", "--r-gamma", "0.5")[0] == 0
    assert calls == []
    command, printed = README_EXAMPLES[0]
    code, out, _ = run_cli(capsys, *shlex.split(command)[1:])
    assert code == 0 and out.splitlines() == printed
    assert calls == [(-3, 32 << 20), (-1, 64 << 20)]
    assert mallopt.argtypes == (ctypes.c_int, ctypes.c_int) and mallopt.restype is ctypes.c_int


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="the thresholds are glibc's",
)
def test_sweep_reuses_the_memory_it_frees():
    """A sweep in a fresh process faults in barely more pages than a theory
    command.  Under glibc's default thresholds the kernel's multi-megabyte
    arrays were mapped afresh and zero-filled for every column: this sweep
    took 30,000-34,000 minor faults against about 4,500 for the theory
    command, and with the CLI's thresholds it takes about 6,900."""
    import resource

    env = checkout_env()

    def minor_faults(*args):
        before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
        subprocess.run([sys.executable, "-m", "pairdeploy", *args], env=env, capture_output=True, timeout=120, check=True)
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before

    theory_faults = minor_faults("theory", "--r-gamma", "0.5")
    sweep_faults = minor_faults("sweep", "--n", "1000", "--k", "1..6", "--gamma", "0.2,0.4,0.6,0.8", "--trials", "200")
    assert sweep_faults - theory_faults < 8_000, (sweep_faults, theory_faults)

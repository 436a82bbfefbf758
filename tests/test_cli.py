"""Command-line surface: schemas, golden values, exit codes, determinism."""

import csv
import ctypes
import hashlib
import importlib
import io
import json
import os
import platform
import re
import shlex
import shutil
import signal
import subprocess
import sys
import time
import tracemalloc
import types
from pathlib import Path

import pytest

from pairdeploy import cli, montecarlo, runner, theory
from pairdeploy.cli import main, parse_gamma_list, parse_k_values
from pairing_fixtures import assert_no_child_left

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
        assert parse_k_values("1..20", 100) == range(1, 21)

    def test_k_list(self):
        assert parse_k_values("1,5,9", 100) == (1, 5, 9)

    def test_k_empty_range_rejected(self):
        with pytest.raises(ValueError):
            parse_k_values("5..1", 100)

    def test_gamma_list(self):
        assert parse_gamma_list("0.2,0.4") == (0.2, 0.4)

    def test_k_range_ends_checked_against_n(self):
        assert parse_k_values("1..99", 100) == range(1, 100)
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
            (("--n", "1", "--k", "3", "--gamma", "0.5"), "need at least 2 nodes, got n=1"),
        ],
        ids=["k", "gamma", "n"],
    )
    def test_list_parse_error_names_its_flag(self, capsys, argv, message):
        """A malformed list's error names its flag; a network of one node
        is no K's error, and its message names no flag, as in phased and
        census."""
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

    def test_scale_past_the_root_bound_is_usage_error(self, capsys):
        """A finite scale past the one where upper_tail_root keeps its 1e-7
        promise exits 2, where it printed a root of residual -5.5e276."""
        code, out, err = run_cli(capsys, "theory", "--c-of-lambda", "1e308")
        assert code == 2
        assert out == ""
        assert err == "pairdeploy: scale must be in (2.588699, 1e12], got 1e+308\n"

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

    @pytest.mark.parametrize("argv", [
        ("census", "--n", "30", "--k", "2", "--trials", "10"),
        ("theory", "--lambda-star"),
    ])
    def test_empty_out_is_usage_error(self, capsys, monkeypatch, tmp_path, argv):
        """An empty --out names no file: the run stops before it draws, with
        one line on stderr, nothing on stdout and no file made."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(montecarlo, "run_keyring_census", lambda *a: pytest.fail("drew"))
        code, out, err = run_cli(capsys, *argv, "--out", "")
        assert (code, out) == (2, "")
        assert err.startswith("pairdeploy: --out") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


# -- the worker processes -----------------------------------------------------

# one run of each Monte Carlo command, split into shares once the block budget
# is shrunk (the golden digests pin their serial output)
POOL_RUNS = {
    "sweep": "sweep --n 60 --k 1..6 --gamma 0.3,0.6,1.0 --trials 40 --seed 5",
    "phased": "phased --n 120 --k 4 --schedule 0.25,0.5,1.0 --trials 50 --seed 11",
    "census": "census --n 80 --k 3 --trials 60 --seed 2",
}


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
    monkeypatch.setattr(runner, "_pool_cpus", lambda: 2)
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


@pytest.fixture
def failing_draw(monkeypatch, pools, tmp_path_factory):
    """A function that makes the census's draw act by the process it runs
    in: given actions, actions[0] in the calling process and actions[i] in
    the i-th child forked (a child sees the pids of the i - 1 forked before
    it in pools).  An action is None for a real draw, "raise", "sleep" (for
    SLEEP_S, far longer than the runs, then end the process) or "exit" (at
    once, with status 3).

    A child reports each draw in a file before it acts, and each draw in
    the calling process first waits, at most SLEEP_S / 4, until every child
    has reported one: so each child takes a call from the queue before the
    calling process can take them all, and one that acts takes no other."""
    draw = montecarlo.sampling.draw_pairing_block
    caller = os.getpid()
    reports = tmp_path_factory.mktemp("draws") / "reports"
    reports.write_bytes(b"")

    def install(actions):
        def acting(seed, trials, *args):
            if os.getpid() == caller:
                deadline = time.monotonic() + SLEEP_S / 4
                while reports.stat().st_size < len(pools) and time.monotonic() < deadline:
                    time.sleep(0.01)
                action = actions[0]
            else:
                with reports.open("ab") as fp:
                    fp.write(b"x")
                action = actions[len(pools) + 1]
            if action == "raise":
                raise RuntimeError("broken draw")
            if action == "sleep":
                time.sleep(SLEEP_S)
                os._exit(4)
            if action == "exit":
                os._exit(3)
            return draw(seed, trials, *args)

        monkeypatch.setattr(montecarlo.sampling, "draw_pairing_block", acting)

    return install


def test_failing_worker_cancels_the_rest_and_leaves_no_process(capsys, pools, monkeypatch, failing_draw):
    """A call that raises in a child fails the run with its message on one
    stderr line and exit 1: the calling process raises the child's error,
    kills the children still running, and reaps every one.  The census of
    60 trials at width 3 is three calls: the calling process draws, the
    first child forked raises, and the second sleeps."""
    monkeypatch.setattr(runner, "_pool_cpus", lambda: 3)
    failing_draw([None, "raise", "sleep"])
    start = time.monotonic()
    code, out, err = run_cli(capsys, *POOL_RUNS["census"].split(), "--workers", "3")
    assert time.monotonic() - start < SLEEP_S / 2  # the sleeping child was killed
    assert (code, out, err) == (1, "", "pairdeploy: broken draw\n")
    assert len(pools) == 2
    assert_no_child_left()


@pytest.mark.parametrize(
    "actions,message",
    [
        (["raise", "sleep"], "broken draw"),
        ([None, "exit"], "a worker process ended without its results (exit code 3)"),
    ],
    ids=["raise_in_parent", "child_exits"],
)
def test_failed_share_leaves_no_process(capsys, pools, failing_draw, tmp_path, actions, message):
    """A call that raises in the calling process kills and reaps the child;
    a child that ends without sending its results fails the run with a
    one-line message and exit 1.  Either way an existing --out file is left
    as it was, and no child is left.  At width 2 the census is two calls,
    one per process."""
    target = tmp_path / "census.csv"
    target.write_text("previous results\n")
    failing_draw(actions)
    argv = [*POOL_RUNS["census"].split(), "--workers", "2", "--out", str(target)]
    start = time.monotonic()
    code, out, err = run_cli(capsys, *argv)
    assert time.monotonic() - start < SLEEP_S / 2  # a sleeping child was killed
    assert (code, out, err) == (1, "", f"pairdeploy: {message}\n")
    assert len(pools) == 1
    assert_no_child_left()
    assert target.read_text() == "previous results\n"
    assert [p.name for p in tmp_path.iterdir()] == ["census.csv"]


def running(pid):
    """Whether process pid exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fp:
            return fp.read().rpartition(")")[2].split()[0] not in "ZX"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(
    not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"),
    reason="needs Linux's list of a thread's children (runs fork only on Linux)",
)
@pytest.mark.parametrize("sig", [signal.SIGKILL, signal.SIGTERM], ids=["kill", "term"])
def test_children_die_with_a_killed_caller(sig):
    """A caller ended by SIGKILL, or by SIGTERM, whose default action Python
    keeps, reaps no child, so each child must end with it.  Here a census
    that would run for hours forks one child; once the caller is killed,
    the child is gone or a zombie within 2 s.  Without the death signal
    the child was re-parented and kept computing."""
    code = (
        "from pairdeploy import cli, runner\n"
        "runner._pool_cpus = lambda: 2\n"
        "cli.main(['census', '--n', '100', '--k', '3', '--trials', '3000000000', '--workers', '2'])\n"
    )
    caller = subprocess.Popen(
        [sys.executable, "-c", code], env=checkout_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    )
    children = []
    try:
        deadline = time.monotonic() + 60
        while not children:
            assert caller.poll() is None and time.monotonic() < deadline, "the census forked no child"
            time.sleep(0.02)
            with open(f"/proc/{caller.pid}/task/{caller.pid}/children") as fp:
                children = [int(pid) for pid in fp.read().split()]
        caller.send_signal(sig)
        assert caller.wait(timeout=10) == -sig
        deadline = time.monotonic() + 2
        while any(running(pid) for pid in children):
            assert time.monotonic() < deadline, "a child outlived its caller"
            time.sleep(0.02)
    finally:
        caller.kill()
        caller.wait()
        for pid in children:
            if running(pid):
                os.kill(pid, signal.SIGKILL)


def test_pooled_runs_load_no_process_pool():
    """Runs that fork load neither multiprocessing nor concurrent.futures,
    whose imports cost more than the fork itself, and their children end
    without flushing the stdio they inherit: text buffered before the runs
    is printed once."""
    code = (
        "import contextlib, io, os, sys\n"
        "print('buffered', end=' ')\n"
        "from pairdeploy import cli, montecarlo, runner\n"
        "montecarlo._BLOCK_BUDGET = 1000\n"
        "runner._pool_cpus = lambda: 2\n"
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
        (["--trials", str(2**64 + 1)], f"need trials <= 2**64, got {2**64 + 1}"),
    ],
    ids=["seed", "trials", "workers", "trials_past_ids"],
)
@pytest.mark.parametrize("command", POOL_RUNS)
def test_run_refused_before_any_process_starts(capsys, monkeypatch, command, argv, message):
    """Runs big enough to fork are checked before one does.  Trial ids are
    64-bit stream words, so a run of more than 2**64 trials is refused."""

    def no_fork():
        raise AssertionError("a process was forked before the run was checked")

    monkeypatch.setattr(montecarlo, "_BLOCK_BUDGET", 1000)
    monkeypatch.setattr(runner, "_pool_cpus", lambda: 2)
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


def no_draw(*args):
    raise AssertionError("a table was drawn before its size was checked")


class TestTableMemory:
    """One table, with the graph kernel's int64 label per row, must fit in
    physical memory before anything is drawn; at n=2000 (int16 ids), K=300
    a table of all rows takes 2000 * (300*2 + 8) = 1,216,000 bytes."""

    @pytest.fixture(autouse=True)
    def small_memory(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_physical_memory", lambda: 1_000_000)
        monkeypatch.setattr(montecarlo.sampling, "sample_pairing_block", no_draw)
        monkeypatch.setattr(montecarlo.sampling, "draw_pairing_block", no_draw)

    @pytest.mark.parametrize(
        "argv",
        [
            "sweep --n 2000 --k 3,300 --gamma 0.5,1.0",
            "phased --n 2000 --k 300 --schedule 1.0",
            "census --n 2000 --k 300",
        ],
        ids=["sweep", "phased", "census"],
    )
    def test_table_past_memory_is_a_usage_error(self, capsys, argv):
        message = "one table at n=2000, K=300 takes 1216000 bytes, more than the 1000000 bytes of physical memory"
        assert run_cli(capsys, *argv.split()) == (2, "", f"pairdeploy: {message}\n")

    def test_only_the_deployed_rows_count(self):
        """A run whose largest view is 800 nodes draws 800-row tables, which
        fit: 800 * 608 bytes."""
        montecarlo.ExperimentPlan(2000, (300,), (0.4,))
        with pytest.raises(ValueError, match="takes 1216000 bytes"):
            montecarlo.ExperimentPlan(2000, (300,), (0.4, 1.0))

    def test_readme_scale_example_is_refused(self, capsys, monkeypatch):
        """n = 1e8 (int32 ids) and K = 1e6: 364 TiB a table, refused against
        this machine's own memory size, as against the small one."""
        size = 10**8 * (10**6 * 4 + 8)
        for memory in (montecarlo._physical_memory, lambda: 1_000_000):
            monkeypatch.setattr(montecarlo, "_physical_memory", memory)
            code, out, err = run_cli(capsys, *"sweep --n 100000000 --k 1000000 --gamma 1.0".split())
            assert (code, out) == (2, "")
            assert f"one table at n=100000000, K=1000000 takes {size} bytes" in err

    @pytest.mark.parametrize("n, k", [(2_000_000, 1_000_000), (6_000_000, 3_000_000)])
    def test_long_k_range_is_refused_before_it_is_listed(self, capsys, n, k):
        """A K range is refused by its widest table before its values are
        listed: a tuple of this range's values alone would take 8 bytes a
        value, and its ints 28 more."""
        size = n // 2 * (k * 4 + 8)  # int32 ids
        tracemalloc.start()
        try:
            result = run_cli(capsys, *f"sweep --n {n} --k 1..{k} --gamma 0.5".split())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        message = f"one table at n={n}, K={k} takes {size} bytes, more than the 1000000 bytes of physical memory"
        assert result == (2, "", f"pairdeploy: {message}\n")
        assert peak < 5_000_000


def test_physical_memory_is_known_on_linux():
    if sys.platform == "linux":
        assert montecarlo._physical_memory() > 0


# every help text and argparse usage error, sha256 of "exit code\nstdout\0stderr"
# at COLUMNS=80 under Python 3.11, as printed by the parser that built every
# subcommand's arguments for every command
HELP_AND_USAGE_DIGESTS = {
    "": "fcfa11856da0cb10f898c03b8f7845341dc28f6f18c72be05fec202a2d39ad1a",
    "-h": "771ad30e9de7db943d7a2069a5708f40c55462ab6ea504d102f6ed7a08bc0fd2",
    "--help": "771ad30e9de7db943d7a2069a5708f40c55462ab6ea504d102f6ed7a08bc0fd2",
    "--he": "771ad30e9de7db943d7a2069a5708f40c55462ab6ea504d102f6ed7a08bc0fd2",
    "bogus": "5fb7b4c9a7e6bcf52ab673f4ce53b02f454efca7ec8bc2da6cb6d5f1645c9cea",
    "-h sweep": "771ad30e9de7db943d7a2069a5708f40c55462ab6ea504d102f6ed7a08bc0fd2",
    "--bogus sweep": "f3af8889e95005b7b655e6de1ec91c6bbb3801d41f9035b0a4e19dc447e7dce6",
    "sweep -h": "93aa89ab36ac732c3a094110774504ffe67efe22c5aa4e255bf3c124adb45996",
    "phased --help": "f7c282d54b363a47945e8f92e55c46c59a2df282009bc1e952d7e65f32862369",
    "census -h": "255ab8382374dd7d4d92d30251a21400e13e80ea0084a6003fd715546c7cb29e",
    "theory --help": "2f0a2af923248e4cdb3e5998df94af6a765a00ab8ace963cee49975aa0d87a66",
    "sweep": "f3af8889e95005b7b655e6de1ec91c6bbb3801d41f9035b0a4e19dc447e7dce6",
    "phased --n 10": "fe16bd7e2eb558c3621fc34a1c1ed265c3c70af4511ad4dd4371330fef1dcd96",
    "census --n x --k 2": "5b056a55a94d1df11b5b548c20a3209b9d641cd027535cc842b13c462d7a1d5e",
    "theory --isolation": "50fd30a75f54ae8191dd8465fe863afe1333d4d3d05a7e9d91b94f66a4e311e7",
    "sweep --n 10 --k 2 --gamma 1 --format xml": "e63505ff8cdfaba92313e99c41cc911301436d5ed7596e9aec885127e49067fd",
    "sweep --n 10 --k 2 --gamma 1 --bogus": "44d851287507abe36745d4a386821ec6e71f19a6176fe09220ec00b314d50ab0",
    "census --n 10 --k 2 --workers": "09c5409e062d373bc265a3438157a596580d642d35e466dd53b90474ed413c21",
    "sweep --n": "6a235583cce6ba5dbdd3be4549500d1713029b0615869c38cd2b68411d6cf800",
    "-x": "fcfa11856da0cb10f898c03b8f7845341dc28f6f18c72be05fec202a2d39ad1a",
    "theory --r-gamma": "fcc62ab185d8e15285a7a21d267648716bd23e5195803189064b84803a403165",
}


@pytest.mark.parametrize("case", sorted(HELP_AND_USAGE_DIGESTS))
def test_help_and_usage_errors_match_the_full_parser(monkeypatch, capsys, case):
    """A help request exits 0 and prints its usage on stdout alone; a usage
    error exits 2 and prints on stderr alone the usage and one error line
    of the program or its subcommand, on any Python.  On 3.11 the bytes
    are pinned as well, as the full parser printed them."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as done:
        main(case.split())
    code = done.value.code
    out, err = capsys.readouterr()
    if code == 0:
        assert err == "" and out.startswith("usage: pairdeploy")
    else:
        assert code == 2 and out == "" and err.startswith("usage: pairdeploy")
        assert re.fullmatch(r"pairdeploy( \w+)?: error: .+", err.splitlines()[-1])
    if sys.version_info[:2] == (3, 11):
        blob = f"{code}\n{out}\0{err}".encode()
        assert hashlib.sha256(blob).hexdigest() == HELP_AND_USAGE_DIGESTS[case]

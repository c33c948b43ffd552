import cmath
import hashlib
import json
import math
import re
import time

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from zqhash import cli, search
from zqhash.cli import REPORT_SCHEMA, dumps_report, main, parse_residues
from zqhash.hashing import MAX_MODULUS
from zqhash.verification import CheckResult


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    document = json.loads(out)
    jsonschema.validate(document, REPORT_SCHEMA)
    return document, err


class TestSerialization:
    def test_floats_round_trip(self):
        document = {
            "schema_version": "1",
            "command": "bias",
            "inputs": {"values": [1.0, 0.1, 6.123233995736766e-17, -0.25]},
            "outputs": {"nested": {"v": 0.7071067811865476}},
            "timing_seconds": 0.0314159,
        }
        parsed = json.loads(dumps_report(document))
        assert parsed == document
        assert isinstance(parsed["inputs"]["values"][0], float)

    def test_seventeen_digit_floats(self):
        text = dumps_report(
            {
                "schema_version": "1",
                "command": "bias",
                "inputs": {},
                "outputs": {"epsilon": 0.7071067811865476},
                "timing_seconds": 0.0,
            }
        )
        assert "0.70710678118654757" in text

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            dumps_report(
                {
                    "schema_version": "1",
                    "command": "bias",
                    "inputs": {},
                    "outputs": {"bad": math.inf},
                    "timing_seconds": 0.0,
                }
            )


def scalar_rule(value):
    # Reference for the array formatter, one value at a time: 17
    # significant digits, ".0" when neither "e" nor "." shows.
    text = format(value, ".17g")
    if "e" not in text and "." not in text:
        text += ".0"
    return text


finite_floats = st.floats(allow_nan=False, allow_infinity=False)

FORMAT_CASES = [
    0.0, -0.0, 1.0, -1.0, 2.0**60, 1e16, -1e16, 1e17, 5e-324,
    6.123233995736766e-17, 0.7071067811865476, 2.0**53 + 2, 4503599627370495.5,
]


class TestFloatFormatter:
    @given(finite_floats)
    @settings(max_examples=500, deadline=None)
    def test_matches_scalar_rule(self, value):
        assert cli._format_floats(np.array([value])) == [scalar_rule(value)]

    @given(st.lists(finite_floats | st.sampled_from(FORMAT_CASES), max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_array_matches_scalar_rule_entrywise(self, values):
        texts = cli._format_floats(np.array(values, dtype=np.float64))
        assert texts == [scalar_rule(v) for v in values]
        assert [float(t) for t in texts] == values

    @pytest.mark.parametrize("value", FORMAT_CASES)
    def test_explicit_cases(self, value):
        (text,) = cli._format_floats(np.array([value]))
        assert text == scalar_rule(value)
        assert math.copysign(1.0, float(text)) == math.copysign(1.0, value)

    def test_negative_zero_keeps_its_sign_and_point(self):
        assert cli._format_floats(np.array([-0.0, 0.0, 1e16])) == [
            "-0.0", "0.0", "10000000000000000.0",
        ]

    def test_table_layout(self):
        table = cli._Table(np.array([0.5, 1.0, -0.0]))
        text = dumps_report({"outputs": {"table": table}})
        assert '"table": [[1, 0.5], [2, 1.0], [3, -0.0]]' in text

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_table(self, bad):
        table = cli._Table(np.array([0.5, bad, 0.25]))
        with pytest.raises(ValueError, match="non-finite"):
            dumps_report({"outputs": {"table": table}})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_amplitudes(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            dumps_report({"outputs": {"amplitudes": np.array([bad, 1.0])}})


# dumps_report joins top-level keys with ",\n" at an indent of two spaces.
TIMING_FIELD = re.compile(r',\n  "timing_seconds": [^\n]*')

# SHA-256 of each document with its timing_seconds field removed, recorded
# from the per-value serializer that the vectorized one replaced. The verify
# digest comes from the one-pass checks; the four-check code before them
# wrote the same document apart from the resistance_equivalence detail. The
# two search digests with --target-epsilon and --sum-qubit were recorded
# from the per-candidate scan that the block scan replaced.
GOLDEN_DIGESTS = [
    (
        "resist --q 4099 --s 3,5,7,11 --form shallow",
        "7f200aba07afba54a2bea820f9cd12368678f735f7f2637216c95fbda00b857f",
    ),
    (
        "bias --q 1009 --b 0,1,2,3,5,8,13,21",
        "5310a347e2f4ca5224f72dd80942cf8b05eb437c7ef24868aa94374180bc6974",
    ),
    (  # q - 1 above the bias sweep's block of x, so the sweep crosses seams
        "bias --q 20011 --b 0,1,3,7,12,20,33,54,88,143,232,376,609,986,1596,2583",
        "756c4c45d768d23add3b17469d064148d45156ef98a3c288766e5ed2228ce464",
    ),
    (
        "search --q 101 --n 4 --trials 200 --seed 7",
        "c2f63dc72cc89dcdf5788fe8cfad2e7b4c6ae2bad07a1d8b7b38fa6e1207d41e",
    ),
    (  # stops at the target inside the first block
        "search --q 101 --n 4 --trials 2000 --seed 7 --target-epsilon 0.6",
        "d3bfee20f08d4a39a1ff3d0c420bdb0015f74d49c91b3dc9f7656c1d722459ce",
    ),
    (  # sum factor on; history holds two epsilons one ulp apart
        "search --q 64 --n 3 --trials 500 --seed 11 --sum-qubit on",
        "c57e3da8cee4263d3cb02e34be8415c15a3b4d4defe96c83e4ea5971a98f1465",
    ),
    (
        "hash --q 101 --form standard --s 3,5,7 --x 10",
        "cf85b26fcfb981699406970b8ee21f26820e6ecd708f55dff151a31c62b3af76",
    ),
    (
        "hash --q 101 --form shallow --s 3,5,7 --x 10",
        "0993c88be4c543b15c87117d2eae1fcd3e9d81a54780f075e91a4606c08648fa",
    ),
    (
        "hash --q 101 --form single-qubit --s 3,5,7 --x 10 --sum-qubit on",
        "c2212a074477324895352f0e76f48062b13620ce54a71cd84ccf0dd6c47a6d93",
    ),
    (  # amplitudes 0.0 and -0.0
        "hash --q 5 --form single-qubit --s 3,5 --x 1",
        "a548bbf2904b753100a3b2b3b3ab584d8f980e86116847ab7f216d1b0fc382d7",
    ),
    (  # every check's max_deviation and detail
        "verify --q-max 12 --n-max 4 --trials 2",
        "b16d9e0e98258a5d0d6fec3a1ea948a610b46e8d6189175a35dc1119173737f5",
    ),
]


class TestDocuments:
    @pytest.mark.parametrize("argv, digest", GOLDEN_DIGESTS)
    def test_golden_digest(self, capsys, argv, digest):
        code, out, err = run_cli(capsys, argv.split())
        assert code == 0, err
        body = TIMING_FIELD.sub("", out, count=1)
        assert body != out
        assert hashlib.sha256(body.encode()).hexdigest() == digest

    def test_timing_is_the_last_field(self, capsys):
        _, out, _ = run_cli(capsys, ["resist", "--q", "7", "--s", "3"])
        assert re.search(r',\n  "timing_seconds": [^\n]*\n\}\n\Z', out)
        assert list(json.loads(out))[-1] == "timing_seconds"

    def test_timing_covers_rendering(self, capsys, monkeypatch):
        render = cli.dumps_report

        def slow_render(document):
            time.sleep(0.05)
            return render(document)

        monkeypatch.setattr(cli, "dumps_report", slow_render)
        document, _ = run_json(capsys, ["resist", "--q", "7", "--s", "3"])
        assert document["timing_seconds"] >= 0.05


class TestParseResidues:
    def test_inline(self):
        assert parse_residues("1,2, 3") == [1, 2, 3]

    def test_from_file(self, tmp_path):
        path = tmp_path / "set.txt"
        path.write_text("4, 5\n6\n")
        assert parse_residues(str(path)) == [4, 5, 6]

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_residues("1,two,3")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            parse_residues("   ")


class TestHashCommand:
    def test_single_qubit_example(self, capsys):
        document, _ = run_json(
            capsys,
            ["hash", "--form", "single-qubit", "--q", "4", "--s", "1", "--x", "1"],
        )
        outputs = document["outputs"]
        assert outputs["num_qubits"] == 1
        assert_allclose(
            outputs["amplitudes"],
            [math.cos(math.pi / 4), math.sin(math.pi / 4)],
            atol=1e-15,
        )

    def test_x_zero_dumps_basis_state(self, capsys):
        document, _ = run_json(
            capsys,
            ["hash", "--form", "single-qubit", "--q", "4", "--s", "1,2", "--x", "0"],
        )
        assert document["outputs"]["amplitudes"] == [1.0, 0.0, 0.0, 0.0]

    def test_standard_form_echoes_derived_set(self, capsys):
        document, _ = run_json(
            capsys,
            ["hash", "--form", "standard", "--q", "8", "--s", "1,2", "--x", "0"],
        )
        assert document["outputs"]["biased_set"] == [0, 2, 1, 3]
        assert document["outputs"]["num_qubits"] == 3

    def test_sum_qubit_widens_register(self, capsys):
        document, _ = run_json(
            capsys,
            [
                "hash", "--form", "single-qubit", "--q", "8", "--s", "1,2",
                "--x", "1", "--sum-qubit", "on",
            ],
        )
        assert document["outputs"]["num_qubits"] == 3
        assert document["inputs"]["sum_qubit"] is True

    def test_x_out_of_range_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["hash", "--form", "single-qubit", "--q", "4", "--s", "1", "--x", "4"],
        )
        assert code == 2
        assert "x must be in [0, q)" in err

    def test_non_power_of_two_set_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["hash", "--form", "standard", "--q", "8", "--b", "0,1,2", "--x", "1"],
        )
        assert code == 2
        assert "power of two" in err

    def test_b_with_shallow_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["hash", "--form", "shallow", "--q", "8", "--b", "0,1", "--x", "1"],
        )
        assert code == 2

    def test_missing_set_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, ["hash", "--form", "shallow", "--q", "8", "--x", "1"]
        )
        assert code == 2
        assert "--s" in err

    def test_reduction_warns(self, capsys):
        _, err = run_json(
            capsys,
            ["hash", "--form", "single-qubit", "--q", "8", "--s", "9,2", "--x", "1"],
        )
        assert "reduced" in err

    def test_quiet_suppresses_warning(self, capsys):
        _, err = run_json(
            capsys,
            [
                "hash", "--form", "single-qubit", "--q", "8", "--s", "9,2",
                "--x", "1", "--quiet",
            ],
        )
        assert err == ""

    def test_out_writes_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys,
            [
                "hash", "--form", "single-qubit", "--q", "4", "--s", "1",
                "--x", "1", "--out", str(path), "--quiet",
            ],
        )
        assert code == 0
        assert out == ""
        document = json.loads(path.read_text())
        jsonschema.validate(document, REPORT_SCHEMA)


class TestBiasCommand:
    def test_sweep(self, capsys):
        document, _ = run_json(capsys, ["bias", "--q", "8", "--b", "0,1,2,3"])
        outputs = document["outputs"]
        assert outputs["mode"] == "sweep"
        assert outputs["worst_x"] == 1
        table = dict((row[0], row[1]) for row in outputs["table"])
        assert abs(table[4]) < 1e-12
        assert len(table) == 7

    def test_single_x(self, capsys):
        document, _ = run_json(capsys, ["bias", "--q", "8", "--b", "0,1,2,3", "--x", "4"])
        assert document["outputs"]["mode"] == "single-x"
        assert abs(document["outputs"]["bias"]) < 1e-12

    def test_x_zero_warns_and_notes(self, capsys):
        document, err = run_json(capsys, ["bias", "--q", "8", "--b", "0,1", "--x", "0"])
        assert document["outputs"]["bias"] == 1.0
        assert "note" in document["outputs"]
        assert "x=0" in err

    def test_singleton_set_is_maximally_biased(self, capsys):
        document, _ = run_json(capsys, ["bias", "--q", "7", "--b", "0"])
        assert document["outputs"]["epsilon"] == 1.0

    def test_oversized_sweep_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, ["bias", "--q", str((1 << 20) + 1), "--b", "0,1"]
        )
        assert code == 2
        assert "capped" in err


class TestResistCommand:
    def test_single_param(self, capsys):
        document, _ = run_json(
            capsys, ["resist", "--q", "4", "--s", "1", "--form", "single-qubit"]
        )
        outputs = document["outputs"]
        assert outputs["epsilon"] == math.cos(math.pi / 4)
        assert outputs["worst_x"] == 1

    def test_shallow_equals_single_with_sum(self, capsys):
        shallow, _ = run_json(
            capsys, ["resist", "--q", "8", "--s", "1,2", "--form", "shallow"]
        )
        summed, _ = run_json(
            capsys,
            [
                "resist", "--q", "8", "--s", "1,2", "--form", "single-qubit",
                "--sum-qubit", "on",
            ],
        )
        for key in ("epsilon", "worst_x", "table"):
            assert shallow["outputs"][key] == summed["outputs"][key]

    def test_all_zero_set_reports_unit_epsilon(self, capsys):
        document, _ = run_json(capsys, ["resist", "--q", "6", "--s", "0,0"])
        assert document["outputs"]["epsilon"] == 1.0
        assert document["outputs"]["worst_x"] == 1

    def test_oversized_modulus_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, ["resist", "--q", str((1 << 20) + 1), "--s", "1"]
        )
        assert code == 2
        assert "capped" in err


class TestSearchCommand:
    def test_deterministic_documents(self, capsys):
        argv = ["search", "--q", "17", "--n", "2", "--trials", "10", "--seed", "3"]
        first, _ = run_json(capsys, argv)
        second, _ = run_json(capsys, argv)
        first.pop("timing_seconds")
        second.pop("timing_seconds")
        assert first == second

    def test_small_space_optimum(self, capsys):
        document, _ = run_json(
            capsys,
            ["search", "--q", "4", "--n", "1", "--trials", "20", "--seed", "0"],
        )
        assert abs(document["outputs"]["epsilon"] - math.cos(math.pi / 4)) < 1e-15

    def test_bad_target_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            [
                "search", "--q", "4", "--n", "1", "--trials", "5",
                "--target-epsilon", "0",
            ],
        )
        assert code == 2

    def test_budget_breach_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["search", "--q", "1000000", "--n", "20", "--trials", "1000000"],
        )
        assert code == 2
        assert "budget" in err

    def test_oversized_modulus_exits_2_before_drawing(self, capsys, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew candidates for a rejected modulus")

        monkeypatch.setattr(search, "_draw_block", no_draw)
        code, out, err = run_cli(
            capsys, ["search", "--q", str((1 << 20) + 1), "--n", "1", "--trials", "1"]
        )
        assert code == 2
        assert out == ""
        assert err == (
            "error: modulus must be in [2, 1048576] (exhaustive sweeps are "
            "capped there), got 1048577\n"
        )

    def test_result_survives_independent_certification(self, capsys):
        searched, _ = run_json(
            capsys,
            [
                "search", "--q", "101", "--n", "4", "--trials", "10000",
                "--seed", "7", "--target-epsilon", "0.5",
            ],
        )
        best = ",".join(str(v) for v in searched["outputs"]["best_set"])
        certified, _ = run_json(
            capsys, ["resist", "--q", "101", "--s", best, "--form", "single-qubit"]
        )
        assert certified["outputs"]["epsilon"] == searched["outputs"]["epsilon"]
        assert certified["outputs"]["worst_x"] == searched["outputs"]["worst_x"]


class TestVerifyCommand:
    def test_small_sweep_passes(self, capsys):
        document, _ = run_json(
            capsys, ["verify", "--q-max", "8", "--n-max", "3", "--trials", "2"]
        )
        outputs = document["outputs"]
        assert outputs["all_passed"] is True
        assert [check["name"] for check in outputs["checks"]] == [
            "ucr_decomposition",
            "single_qubit_inner_product",
            "shallow_inner_product",
            "resistance_equivalence",
        ]

    def test_failed_check_exits_1(self, capsys, monkeypatch):
        def fake_checks(**kwargs):
            return [CheckResult("ucr_decomposition", False, 1.0, "forced")]

        monkeypatch.setattr("zqhash.cli.run_all_checks", fake_checks)
        code, out, _ = run_cli(capsys, ["verify", "--q-max", "4"])
        assert code == 1
        document = json.loads(out)
        assert document["outputs"]["all_passed"] is False


class TestTopLevel:
    def test_no_arguments_exits_2(self, capsys):
        assert run_cli(capsys, [])[0] == 2

    def test_unknown_command_exits_2(self, capsys):
        assert run_cli(capsys, ["frobnicate"])[0] == 2

    def test_version_exits_0(self, capsys):
        assert run_cli(capsys, ["--version"])[0] == 0


class TestVerifyInputs:
    @pytest.mark.parametrize(
        "flags",
        [
            ["--q-max", "1"],
            ["--trials", "0"],
            ["--n-max", "0"],
            ["--n-max", "21"],
            ["--seed", "-1"],
            ["--q-max", str(2**20 + 1)],
        ],
    )
    def test_inputs_that_check_nothing_exit_2(self, capsys, monkeypatch, flags):
        def started(*args, **kwargs):
            raise AssertionError("a check ran")

        monkeypatch.setattr("zqhash.verification.check_ucr_decomposition", started)
        code, out, err = run_cli(capsys, ["verify", *flags])
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


class TestLargeModulusExactness:
    def test_single_x_bias_reduces_products_exactly(self, capsys):
        # b*x = 2**79 wraps int64; the true bias is about 3.2e-10, not 1.
        q, b, x = 1099511627791, 1099511627776, 549755813888
        document, _ = run_json(
            capsys, ["bias", "--q", str(q), "--b", f"0,{b}", "--x", str(x)]
        )
        expected = abs(1 + cmath.exp(2j * math.pi * ((b * x) % q) / q)) / 2
        assert_allclose(document["outputs"]["bias"], expected, rtol=1e-6)
        assert document["outputs"]["bias"] < 1e-9


class TestModulusCap:
    HUGE = str(10**400 + 1)

    @pytest.mark.parametrize(
        "argv",
        [
            ["hash", "--form", "single-qubit", "--s", "3", "--x", "5", "--q", HUGE],
            ["hash", "--form", "shallow", "--s", "3", "--x", "5", "--q", HUGE],
            ["hash", "--form", "standard", "--s", "3", "--x", "5", "--q", HUGE],
            ["bias", "--b", "1,2", "--x", "5", "--q", HUGE],
            ["bias", "--b", "1,2", "--x", "5", "--q", str(MAX_MODULUS + 1)],
            ["hash", "--form", "shallow", "--s", "3", "--x", "5", "--q", str(MAX_MODULUS + 1)],
        ],
    )
    def test_above_cap_exits_2_with_one_line(self, capsys, argv):
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: modulus must be in [2, 2**1000]")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("form", ["standard", "shallow", "single-qubit"])
    def test_cap_itself_is_accepted(self, capsys, form):
        document, _ = run_json(
            capsys,
            ["hash", "--q", str(MAX_MODULUS), "--form", form, "--s", "3,7", "--x", "5"],
        )
        assert document["outputs"]["num_qubits"] == (3 if form != "single-qubit" else 2)

    def test_cap_itself_single_x_bias(self, capsys):
        document, _ = run_json(
            capsys, ["bias", "--q", str(MAX_MODULUS), "--b", "1,2", "--x", "5"]
        )
        assert 0.0 <= document["outputs"]["bias"] <= 1.0

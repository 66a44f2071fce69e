"""CLI surface: table formats, exact strings, exit codes, determinism."""

import json
import math
import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from iselab import cli


def run_cli(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def readme_examples():
    """The iselab lines of the sh block under "## Command line" in README.md."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("iselab ")]


def parse_csv(text):
    meta, rows = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        elif line:
            rows.append(line.split(","))
    return meta, rows[0], rows[1:]


def eval_exact(text):
    """Evaluate '0', 'p/q', 'r*sqrt(v)', or 'r*(v)^(1/4)' exactly enough."""
    m = re.fullmatch(r"(-?[0-9/]+)\*sqrt\(([0-9/]+)\)", text)
    if m:
        return float(Fraction(m.group(1))) * math.sqrt(Fraction(m.group(2)))
    m = re.fullmatch(r"(-?[0-9/]+)\*\(([0-9/]+)\)\^\(1/4\)", text)
    if m:
        return float(Fraction(m.group(1))) * float(Fraction(m.group(2))) ** 0.25
    return float(Fraction(text))


class TestMomentsExact:
    def test_binary_quadratic_table(self, capsys):
        rc, out, _ = run_cli(
            capsys, ["moments-exact", "--family", "binary", "--lambda", "2", "--n", "2,3"]
        )
        assert rc == 0
        meta, header, rows = parse_csv(out)
        assert meta["command"] == "moments-exact"
        assert header == ["n", "exact", "normalized", "limit", "rel_gap"]
        assert rows[0][0] == "2"
        assert rows[0][1] == "1/4"
        assert float(rows[0][2]) == 0.25
        assert float(rows[0][3]) == pytest.approx(math.sqrt(math.pi / 2), rel=1e-15)
        assert rows[1][1] == "14/15*sqrt(1/6)"

    def test_rows_keep_typed_order_with_one_engine_build(self, capsys, monkeypatch):
        from iselab import genfun

        built = []
        real_ops = genfun._ExactOps

        def counting_ops(family, order):
            built.append(order)
            return real_ops(family, order)

        monkeypatch.setattr(genfun, "_ENGINES", {})
        monkeypatch.setattr(genfun, "_ExactOps", counting_ops)
        rc, out, _ = run_cli(
            capsys,
            ["moments-exact", "--family", "complete", "--lambda", "2", "--n", "9,3,21,5"],
        )
        assert rc == 0
        _, _, rows = parse_csv(out)
        assert [row[0] for row in rows] == ["9", "3", "21", "5"]
        # Moments come from the closed form: no PowerSeries engine at all.
        assert built == []

    def test_exact_string_matches_normalized(self, capsys):
        for family, lam, sizes in [
            ("binary", "2", "2,3,4,5"),
            ("plane_pm1", "2", "1,2,3"),
            ("plane_0pm1", "2,2", "2,3"),
            ("complete", "1,1", "3,5,7"),
        ]:
            rc, out, _ = run_cli(
                capsys,
                ["moments-exact", "--family", family, "--lambda", lam, "--n", sizes],
            )
            assert rc == 0
            _, _, rows = parse_csv(out)
            for row in rows:
                want = float(row[2])
                got = eval_exact(row[1])
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_zero_moment_row(self, capsys):
        rc, out, _ = run_cli(
            capsys, ["moments-exact", "--family", "binary", "--lambda", "1", "--n", "4"]
        )
        assert rc == 0
        _, _, rows = parse_csv(out)
        assert rows[0][1] == "0"
        assert float(rows[0][2]) == 0.0
        assert float(rows[0][4]) == 0.0

    def test_invalid_size_is_usage_error(self, capsys):
        rc, _, err = run_cli(
            capsys, ["moments-exact", "--family", "complete", "--lambda", "2", "--n", "4"]
        )
        assert rc == 2
        assert "error" in err

    def test_unknown_family_is_usage_error(self, capsys):
        rc, _, err = run_cli(
            capsys, ["moments-exact", "--family", "ternary", "--lambda", "2", "--n", "4"]
        )
        assert rc == 2
        assert "error" in err


class TestGrandMoments:
    def test_ise_table(self, capsys):
        rc, out, _ = run_cli(
            capsys, ["grand-moments", "--kind", "ise", "--lambda", "2", "--lambda", "1,1"]
        )
        assert rc == 0
        _, header, rows = parse_csv(out)
        assert header == ["lambda", "exact", "limit"]
        assert rows[0][:2] == ["2", "1"]
        assert float(rows[0][2]) == pytest.approx(math.sqrt(math.pi / 2), rel=1e-15)
        # The 1,1 cell is csv-quoted; strip the quotes.
        assert rows[1][0].strip('"') == "1" or rows[1][0] == '"1'
        assert float(rows[1][-1]) == pytest.approx(
            math.sqrt(math.pi) / (2 * math.sqrt(2)), rel=1e-15
        )

    def test_exc_json(self, capsys):
        rc, out, _ = run_cli(
            capsys,
            ["grand-moments", "--kind", "exc", "--lambda", "1", "--format", "json"],
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["meta"]["command"] == "grand-moments"
        assert doc["columns"] == ["lambda", "exact", "limit"]
        lam, exact, limit = doc["rows"][0]
        assert (lam, exact) == ("1", "1")
        assert limit == pytest.approx(math.sqrt(math.pi / 8), rel=1e-15)


class TestNumericCommands:
    def test_mgf_table(self, capsys):
        rc, out, _ = run_cli(capsys, ["mgf", "--a", "0,0.5"])
        assert rc == 0
        _, header, rows = parse_csv(out)
        assert header == ["a", "L", "err"]
        assert float(rows[0][1]) == 1.0
        assert float(rows[0][2]) == 0.0
        assert float(rows[1][1]) > 1.0
        assert 0.0 <= float(rows[1][2]) <= 1e-10

    def test_mgf_tol_refuses_wide_gap(self, capsys):
        # At 0.99 of the branch radius the rule gap is about 7e-11: inside
        # the default bound of 1e-10, outside --tol 1e-12.
        argv = ["mgf", "--a", "2.2863"]
        assert run_cli(capsys, argv)[0] == 0
        rc, _, err = run_cli(capsys, argv + ["--tol", "1e-12"])
        assert rc == 3
        assert "exceeds bound" in err

    def test_mgf_domain_error(self, capsys):
        rc, _, err = run_cli(capsys, ["mgf", "--a", "2.5"])
        assert rc == 2
        assert "4/sqrt" in err

    def test_mean_density_gap(self, capsys):
        rc, out, _ = run_cli(capsys, ["mean-density", "--grid=-1,0,1"])
        assert rc == 0
        _, header, rows = parse_csv(out)
        assert header == ["lambda", "quadrature", "series", "gap", "err"]
        for row in rows:
            assert float(row[3]) <= 1e-8
            assert 0.0 < float(row[4]) <= 1e-14

    @pytest.mark.parametrize("command", [["mgf", "--a", "0.5"], ["mean-density", "--grid", "0"]])
    def test_nonpositive_tol_is_a_usage_error(self, capsys, command):
        rc, _, err = run_cli(capsys, command + ["--tol", "0"])
        assert rc == 2
        assert "--tol must be positive" in err

    def test_tolerance_failure_exit_code(self, capsys):
        rc, _, err = run_cli(capsys, ["mean-density", "--grid", "0", "--tol", "1e-30"])
        assert rc == 3
        assert "numeric failure" in err

    def test_fourier_bound(self, capsys):
        rc, out, _ = run_cli(
            capsys, ["fourier-bound", "--family", "binary", "--n", "10", "--grid", "0:1:5"]
        )
        assert rc == 0
        _, header, rows = parse_csv(out)
        assert header == ["n", "max_ratio", "u_at_max"]
        assert float(rows[0][1]) >= 1.0

    def test_fourier_bound_readme_rows(self, capsys):
        # The README example's data rows, from the exact pair correlations;
        # a float path would change these digits and must re-pin them.
        rc, out, _ = run_cli(capsys, ["fourier-bound", "--family", "binary", "--n", "10,20,40"])
        assert rc == 0
        assert out.splitlines()[-3:] == [
            "10,12.429620862707637,3",
            "20,11.328580099694484,3",
            "40,10.776194695886796,3",
        ]

    def test_fourier_bound_refuses_non_finite_angle(self, capsys):
        argv = ["fourier-bound", "--family", "binary", "--n", "10", "--grid", "0:nan:3"]
        rc, out, err = run_cli(capsys, argv)
        assert rc == 2
        assert "finite" in err
        assert out == ""


class TestMonteCarloCommands:
    def test_profile_rejects_bad_requests(self, capsys):
        rc, _, err = run_cli(capsys, ["profile", "--family", "complete", "--n", "64"])
        assert rc == 2
        rc, _, _ = run_cli(capsys, ["profile", "--n", "8"])
        assert rc == 2
        rc, _, _ = run_cli(capsys, ["profile", "--n", "64", "--samples", "1"])
        assert rc == 2

    def test_profile_deterministic_modulo_wall_time(self, capsys):
        argv = [
            "profile", "--n", "32", "--samples", "3",
            "--seed", "7", "--grid", "0:1:3",
        ]
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        strip = lambda s: [l for l in s.splitlines() if not l.startswith("# wall_ms")]
        assert strip(out1) == strip(out2)

    def test_dyck_moments_default_partition(self, capsys):
        rc, out, _ = run_cli(
            capsys, ["dyck-moments", "--n", "64", "--samples", "16", "--seed", "5"]
        )
        assert rc == 0
        _, header, rows = parse_csv(out)
        assert header == ["lambda", "mean", "stderr", "limit"]
        assert rows[0][0] == "1"
        assert float(rows[0][3]) == pytest.approx(math.sqrt(math.pi / 8), rel=1e-15)
        assert math.isfinite(float(rows[0][1]))


class TestVerifyCommand:
    def test_status_rows_and_exit_codes(self, capsys, monkeypatch):
        from iselab import verify

        def fake_run(level):
            return [
                verify.CriterionResult(1, "alpha", True, "ok", 0.01),
                verify.CriterionResult(2, "beta", False, "off by 1", 0.02),
            ]

        monkeypatch.setattr(verify, "run", fake_run)
        rc, out, _ = run_cli(capsys, ["verify", "--level", "quick"])
        assert rc == 1
        _, header, rows = parse_csv(out)
        assert header == ["criterion", "name", "status", "detail", "seconds"]
        assert [r[2] for r in rows] == ["pass", "fail"]

        monkeypatch.setattr(
            verify,
            "run",
            lambda level: [verify.CriterionResult(1, "alpha", True, "ok", 0.01)],
        )
        rc, _, _ = run_cli(capsys, ["verify"])
        assert rc == 0


class TestOutput:
    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "table.csv"
        rc, out, _ = run_cli(
            capsys,
            ["grand-moments", "--kind", "ise", "--lambda", "2", "--out", str(path)],
        )
        assert rc == 0
        assert out == ""
        assert "lambda,exact,limit" in path.read_text()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert cli.VERSION in capsys.readouterr().out


class TestReadmeExamples:
    def test_examples_found(self):
        assert len(readme_examples()) == 8

    # Full verification is covered by test_acceptance.py.
    @pytest.mark.parametrize(
        "line", [ln for ln in readme_examples() if ln != "iselab verify --level full"]
    )
    def test_example_exits_zero(self, capsys, line):
        rc, out, err = run_cli(capsys, shlex.split(line)[1:])
        assert rc == 0, err
        assert out.startswith("# version:")

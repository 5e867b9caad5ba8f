import contextlib
import io
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phmaps import (ClassParams, ExtremalSpec, Family, ParamError, convexity_radius, distortion_extremal, evaluate,
                    example_F1, example_F2, half_plane_map, hs_lambda, identity_map, make_map, parse_map, weight)
from phmaps.cli import main
from phmaps.exact import MAX_SCALAR_DIGITS
from phmaps.geometry import MAX_GRID_POINTS
from phmaps.phmio import save_map, serialize_map

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def f1(tmp_path):
    path = tmp_path / "f1.phm"
    save_map(example_F1(), path)
    return str(path)


@pytest.fixture
def f2(tmp_path):
    path = tmp_path / "f2.phm"
    save_map(example_F2(), path)
    return str(path)


@pytest.fixture
def h2(tmp_path):
    path = tmp_path / "h2.phm"
    save_map(half_plane_map(2), path)
    return str(path)


@pytest.fixture
def big(tmp_path):
    # exact, but too large for a float
    path = tmp_path / "big.phm"
    save_map(make_map(1, a={(2, 1): 10**400}), path)
    return str(path)


BEYOND_FLOAT = str(10**400)  # an exact integer that float64 cannot hold


@pytest.fixture(params=[10**20, 10**400], ids=["n=1e20", "n=1e400"])
def huge_degree(request, tmp_path):
    """z + z^n / 2, with a degree n that int64 cannot hold."""
    path = tmp_path / "huge_degree.phm"
    path.write_text(f"p 1\na 1 1 1 0\na {request.param} 1 1/2 0\n")
    return str(path)


def off_axis_phm(tmp_path, head: str) -> str:
    """The map z + (head + i) z^2 for an integer literal ``head``."""
    path = tmp_path / "off_axis.phm"
    path.write_text(f"p 1\na 1 1 1 0\na 2 1 {head} 1\n")
    return str(path)


def single_error_line(capsys) -> str:
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
    return captured.err


def kv(capsys) -> dict:
    return dict(line.split("=", 1) for line in capsys.readouterr().out.strip().splitlines())


class TestCheck:
    def test_member_exit_zero(self, f1, capsys):
        assert main(["check", "--class", "hs-lambda", "--lambda", "2/3", f1]) == 0
        out = kv(capsys)
        assert out["member"] == "true" and out["row1_margin"] == "0"

    def test_golden_transcript(self, f1, capsys):
        main(["check", "--class", "hs-lambda", "--lambda", "2/3", f1])
        assert capsys.readouterr().out == (GOLDEN / "f1_check_transcript.txt").read_text()

    def test_non_member_exit_one(self, f1, capsys):
        assert main(["check", "--class", "hc", f1]) == 1
        out = kv(capsys)
        assert out["member"] == "false"
        assert Fraction(out["row1_lhs"]) == Fraction(6, 5)

    def test_missing_file_exit_two(self, tmp_path):
        assert main(["check", "--class", "hs", str(tmp_path / "missing.phm")]) == 2

    def test_parse_error_exit_two(self, tmp_path):
        bad = tmp_path / "bad.phm"
        bad.write_text("p 1\na 1 1 2 0\n")
        assert main(["check", "--class", "hs", str(bad)]) == 2

    def test_lambda_required_for_hs_lambda(self, f1):
        assert main(["check", "--class", "hs-lambda", f1]) == 2

    @pytest.mark.parametrize("family", ["hs", "hc"])
    def test_lambda_out_of_range_exits_two_for_every_class(self, f1, capsys, family):
        assert main(["check", "--class", family, "--lambda", "5", f1]) == 2
        assert single_error_line(capsys) == "error: lambda must lie in [0,1], got 5\n"

    @pytest.mark.parametrize("family", ["hs", "hc"])
    def test_lambda_in_range_keeps_the_report(self, f1, capsys, family):
        code = main(["check", "--class", family, f1])
        want = capsys.readouterr().out
        assert main(["check", "--class", family, "--lambda", "1/2", f1]) == code
        assert capsys.readouterr().out == want

    def test_usage_error_exit_two(self, f1):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--class", "nonsense", f1])
        assert exc.value.code == 2

    def test_coefficient_beyond_float_keeps_exact_report(self, big, capsys):
        assert main(["check", "--class", "hs", big]) == 1
        out = kv(capsys)
        assert out["member"] == "false" and out["exact"] == "true"
        assert out["row1_lhs"] == str(2 * 10**400)

    def test_off_axis_coefficient_beyond_float_gets_a_report(self, tmp_path, capsys):
        # |10**250 + i|^2 = 10**500 + 1 is too large for a float, its root is not
        path = off_axis_phm(tmp_path, "1" + "0" * 250)
        assert main(["check", "--class", "hs", path]) == 1
        out = kv(capsys)
        assert out["member"] == "false" and out["exact"] == "false" and out["row1_lhs"] == repr(2e250)
        assert main(["neighborhood", path, path, "--lambda", "1/2"]) == 1
        assert capsys.readouterr().err.startswith("not a member: ")

    def test_off_axis_root_beyond_float_exits_two(self, tmp_path, capsys):
        path = off_axis_phm(tmp_path, "3" + "0" * 400)
        for argv in (["check", "--class", "hs", path], ["neighborhood", path, path, "--lambda", "1/2"]):
            assert main(argv) == 2
            assert single_error_line(capsys).startswith("error: a[2,1]: the square root of an exact value")

    @pytest.mark.parametrize("family", ["hs", "hc"])
    def test_degree_beyond_int64_keeps_an_exact_report(self, huge_degree, capsys, family):
        assert main(["check", "--class", family, huge_degree]) == 1
        assert kv(capsys)["exact"] == "true"

    def test_float_lambda_is_not_exact(self, f1, capsys):
        # exact magnitudes, but the float lambda rounds the row-1 weights
        assert main(["check", "--class", "hs-lambda", "--lambda", "0.5", f1]) == 0
        out = kv(capsys)
        assert out["row1_lhs"] == "0.8999999999999999"
        assert (out["member"], out["exact"], out["used_epsilon"]) == ("true", "false", "false")

    def test_decimal_f1_transcript(self, tmp_path, capsys):
        # The float row-1 sum rounds to just above 1; summing in another order flips the verdict.
        path = tmp_path / "d1.phm"
        path.write_text("p 1\na 1 1 1 0\na 2 1 0.1 0\nb 2 1 0.2 0\n")
        assert main(["check", "--class", "hs-lambda", "--lambda", "2/3", str(path)]) == 1
        out = kv(capsys)
        assert out["row1_lhs"] == "1.0000000000000002" and out["row1_margin"] == "-2.220446049250313e-16"
        assert (out["member"], out["exact"], out["used_epsilon"]) == ("false", "false", "false")

    def test_normalized_flag(self, tmp_path, capsys):
        path = tmp_path / "g.phm"
        save_map(make_map(1, b={(1, 1): Fraction(1, 4)}), path)
        assert main(["check", "--class", "hs", str(path)]) == 0
        assert main(["check", "--class", "hs", "--normalized", str(path)]) == 1


class TestConvolve:
    def test_figure_coefficients(self, f1, h2, tmp_path):
        out = tmp_path / "out.phm"
        assert main(["convolve", f1, h2, "-o", str(out)]) == 0
        G = parse_map(out.read_bytes())
        assert G.coeff_a(2, 1).re == Fraction(3, 20)
        assert G.coeff_b(2, 1).re == Fraction(-1, 10)

    def test_identity_absorbs_to_stdout(self, f1, tmp_path, capsys):
        ident = tmp_path / "id.phm"
        save_map(identity_map(), ident)
        assert main(["convolve", f1, str(ident)]) == 0
        assert parse_map(capsys.readouterr().out) == identity_map()

    def test_integral_variant(self, f1, h2, tmp_path):
        out = tmp_path / "out.phm"
        assert main(["iconvolve", f1, h2, "-o", str(out)]) == 0
        G = parse_map(out.read_bytes())
        assert G.coeff_a(2, 1).re == Fraction(3, 40)
        assert G.coeff_b(2, 1).re == Fraction(-1, 20)

    def test_products_past_the_int_str_limit(self, tmp_path, capsys):
        d = tmp_path / "d.phm"
        d.write_text("p 1\na 1 1 1 0\na 2 1 1" + "0" * 3000 + " 0\n")
        out = tmp_path / "dd.phm"
        assert main(["convolve", str(d), str(d), "-o", str(out)]) == 0
        assert parse_map(out.read_bytes()).coeff_a(2, 1).re == 10**6000
        assert main(["convolve", str(d), str(d)]) == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()
        assert main(["check", "--class", "hs", str(out)]) == 1
        assert kv(capsys)["row1_lhs"] == "2" + "0" * 6000

    def test_values_past_the_digit_bound_exit_two(self, tmp_path, capsys):
        over = tmp_path / "over.phm"
        over.write_text("p 1\na 1 1 1 0\na 2 1 1" + "0" * MAX_SCALAR_DIGITS + " 0\n")
        assert main(["check", "--class", "hs", str(over)]) == 2
        assert f"line 3: numeric literal has more than MAX_SCALAR_DIGITS={MAX_SCALAR_DIGITS}" in \
            single_error_line(capsys)
        half = tmp_path / "half.phm"
        half.write_text("p 1\na 1 1 1 0\na 2 1 1" + "0" * (MAX_SCALAR_DIGITS // 2 + 1) + " 0\n")
        assert main(["convolve", str(half), str(half)]) == 2
        assert f"MAX_SCALAR_DIGITS={MAX_SCALAR_DIGITS}" in single_error_line(capsys)

    def test_exact_part_beyond_float_times_a_float_part_exits_two(self, tmp_path, capsys):
        # the product mixes the exact 10**400 with float parts, which converts it to a float
        mixed = tmp_path / "mixed.phm"
        mixed.write_text(f"p 1\na 1 1 1 0\na 2 1 {10**400} 1e308\n")
        assert main(["convolve", str(mixed), str(mixed)]) == 2
        line = single_error_line(capsys)
        assert line.startswith("error: product of coefficients [401 digits]+1e+308i and ")
        assert line.endswith(" overflows float64\n")

    @pytest.mark.parametrize("command", ["convolve", "iconvolve"])
    def test_a_product_beyond_float_exits_two_and_writes_nothing(self, tmp_path, capsys, command):
        # 1e200 * 1e200 rounds to inf, which no .phm file can hold
        big = tmp_path / "big.phm"
        big.write_text("p 1\na 1 1 1 0\na 2 1 1e200 0\n")
        out = tmp_path / "big2.phm"
        assert main([command, str(big), str(big), "-o", str(out)]) == 2
        assert single_error_line(capsys) == "error: a[2,1]: coefficient inf+0.0i is not finite\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, entries, message", [
        (["check", "--class", "hs"], "a 1 1 1 0\na 2 1 {big} 1e308", "coefficient {part}+1e+308i overflows float64"),
        (["convolve"], "a 1 1 1 0\na 2 1 {big} 1e308",
         "product of coefficients {part}+1e+308i and {part}+1e+308i overflows float64"),
        (["check", "--class", "hs"], "a 1 1 {big} 0", "a[1,1] must equal 1, got {part}+0i"),
        (["check", "--class", "hs"], "a 1 1 1 0\nb 1 1 -{big} 0", "|b[1,1]| must be < 1, got -{part}+0i"),
    ], ids=["as_complex", "product", "a11", "b11"])
    def test_a_part_at_the_digit_bound_gives_a_short_error_line(self, tmp_path, capsys, command, entries, message):
        path = tmp_path / "big.phm"
        path.write_text(f"p 1\n{entries.format(big='9' * MAX_SCALAR_DIGITS)}\n")
        argv = command + [str(path)] * (2 if command == ["convolve"] else 1)
        assert main(argv) == 2
        line = single_error_line(capsys)
        assert message.format(part=f"[{MAX_SCALAR_DIGITS} digits]") in line and len(line) < 200


class TestNeighborhood:
    def test_self_distance(self, f1, capsys):
        assert main(["neighborhood", f1, f1, "--lambda", "2/3"]) == 0
        out = kv(capsys)
        assert out["distance"] == "0" and out["delta_bound"] == "2/5" and out["inside"] == "true"

    def test_single_slot_perturbation(self, f1, tmp_path, capsys):
        g = tmp_path / "g.phm"
        save_map(make_map(1, a={(2, 1): Fraction(2, 10)}, b={(2, 1): Fraction(1, 5)}), g)
        assert main(["neighborhood", f1, str(g), "--lambda", "2/3"]) == 0
        assert kv(capsys)["distance"] == "1/5"

    def test_outside_exits_one(self, f1, tmp_path, capsys):
        g = tmp_path / "g.phm"
        save_map(make_map(1, b={(1, 1): Fraction(9, 10)}), g)
        assert main(["neighborhood", f1, str(g), "--lambda", "2/3"]) == 1
        assert kv(capsys)["inside"] == "false"

    def test_float_lambda_with_p_beyond_float(self, tmp_path, capsys):
        # lambda/(p + lambda) for a float lambda is divided exactly and rounded once
        path = tmp_path / "h.phm"
        path.write_text(f"p {BEYOND_FLOAT}\na 1 1 1 0\n")
        assert main(["neighborhood", str(path), str(path), "--lambda", "0.5"]) == 0
        assert kv(capsys) == {"distance": "0", "delta_bound": "0.0", "inside": "true", "exact": "false"}
        assert main(["neighborhood", str(path), str(path), "--lambda", "1/2"]) == 0
        assert kv(capsys)["delta_bound"] == f"1/{2 * 10**400 + 1}"

    def test_non_member_base_exits_one(self, tmp_path, f1, capsys):
        bad = tmp_path / "bad.phm"
        save_map(make_map(1, a={(2, 1): 1}), bad)
        assert main(["neighborhood", str(bad), f1, "--lambda", "2/3"]) == 1
        assert "not a member" in capsys.readouterr().err


class TestVerify:
    def test_starlike_suite(self, f1, capsys):
        assert main(["verify", f1, "--suite", "starlike"]) == 0
        out = kv(capsys)
        assert float(out["min_arg_derivative"]) > 0
        assert out["suite_passed"] == "true"

    def test_convex_at_certified_radius(self, f1, capsys):
        assert main(["verify", f1, "--suite", "convex", "--r", "2/3"]) == 0
        assert float(kv(capsys)["min_convexity_indicator"]) >= -1e-9

    def test_convex_probe_beyond_claim(self, f2, capsys):
        code = main(["verify", f2, "--suite", "convex", "--r", "0.51", "--grid", "4x512"])
        assert code in (0, 1)  # measurement, no certified claim at 0.51
        assert "min_convexity_indicator" in kv(capsys)

    def test_distortion_suite(self, f1, capsys):
        assert main(["verify", f1, "--suite", "distortion", "--lambda", "2/3"]) == 0
        out = kv(capsys)
        assert out["distortion_ok"] == "true" and out["distortion_branch"] == "high"

    def test_distortion_requires_lambda(self, f1):
        assert main(["verify", f1, "--suite", "distortion"]) == 2

    def test_all_suite_with_lambda(self, f2, capsys):
        code = main(["verify", f2, "--suite", "all", "--lambda", "1/100", "--grid", "16x128"])
        out = kv(capsys)
        assert "min_jacobian" in out and "distortion_ok" in out
        # convexity on the full default radius fails for F2, so the suite reports it
        assert code in (0, 1)

    def test_jacobian_and_injective(self, f2, capsys):
        assert main(["verify", f2, "--suite", "jacobian"]) == 0
        capsys.readouterr()
        assert main(["verify", f2, "--suite", "injective"]) == 0
        assert kv(capsys)["injectivity_collisions"] == "0"

    def test_non_member_distortion_exits_one(self, tmp_path):
        bad = tmp_path / "bad.phm"
        save_map(make_map(1, a={(2, 1): 1}), bad)
        assert main(["verify", str(bad), "--suite", "distortion", "--lambda", "1/2"]) == 1

    def test_bad_radius_exits_two(self, f1):
        assert main(["verify", f1, "--suite", "convex", "--r", "1"]) == 2

    @pytest.mark.parametrize("suite", ["starlike", "convex", "jacobian", "injective", "all"])
    def test_overflowing_coefficients_exit_two(self, tmp_path, capsys, suite):
        path = tmp_path / "overflow.phm"
        save_map(make_map(1, a={(2, 1): 1e308, (3, 1): 1e308}, b={(2, 1): 1e308}), path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", str(path), "--suite", suite]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "NaN or infinite at grid ring" in captured.err
        assert len(captured.err.splitlines()) == 1

    def test_coefficient_beyond_float_exits_two(self, big, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", big, "--suite", "starlike"]) == 2
        assert "overflows float64" in single_error_line(capsys)

    def test_image_too_wide_for_float_exits_two(self, tmp_path, capsys):
        # F is finite on the grid, but distances across its image overflow
        path = tmp_path / "one308.phm"
        save_map(make_map(1, a={(2, 1): 1e308}), path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", str(path), "--suite", "injective"]) == 2
        assert "too wide for float64" in single_error_line(capsys)

    def test_radius_beyond_float_exits_two(self, f1, capsys):
        assert main(["verify", f1, "--r", BEYOND_FLOAT]) == 2
        assert "--r must lie in (0,1)" in single_error_line(capsys)

    def test_radius_rounding_to_zero_names_the_given_value(self, f1, capsys):
        assert main(["verify", f1, "--r", f"1/{BEYOND_FLOAT}"]) == 2
        assert single_error_line(capsys) == "error: r_max=[1/401 digits] rounds to 0.0 in float64\n"

    @pytest.mark.parametrize("grid", [f"4x{BEYOND_FLOAT}", f"{BEYOND_FLOAT}x4"], ids=["rays", "rings"])
    def test_grid_beyond_float_exits_two(self, f1, capsys, grid):
        assert main(["verify", f1, "--grid", grid]) == 2
        assert "rings and rays" in single_error_line(capsys)

    @pytest.mark.parametrize("suite", ["jacobian", "all"])
    def test_degree_beyond_int64_exits_two(self, huge_degree, capsys, suite):
        assert main(["verify", huge_degree, "--suite", suite]) == 2
        assert "does not fit int64" in single_error_line(capsys)

    def test_distortion_sample_budget_checked_before_grid(self, f1, capsys):
        assert main(["verify", f1, "--suite", "all", "--lambda", "2/3", "--samples", str(10**12)]) == 2
        single_error_line(capsys)

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_distortion_needs_a_sample(self, f1, capsys, samples):
        assert main(["verify", f1, "--suite", "distortion", "--lambda", "2/3", "--samples", samples]) == 2
        assert "samples must be >= 1" in single_error_line(capsys)

    def test_distortion_sample_budget(self, f1, capsys):
        # rejected before the samples are drawn, so the huge count allocates nothing
        assert main(["verify", f1, "--suite", "distortion", "--lambda", "2/3", "--samples", str(10**12)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: --samples {10**12} exceeds {MAX_GRID_POINTS}"]

    @pytest.mark.parametrize("flags, message", [
        (["--samples", "0"], "samples must be >= 1, got 0"),
        (["--seed", "-1"], "--seed must be >= 0, got -1"),
        (["--lambda", "2"], "lambda must lie in [0,1], got 2"),
    ], ids=["samples", "seed", "lambda"])
    def test_bad_distortion_flag_prints_no_report(self, f1, capsys, flags, message):
        # checked before the grid checks, so no report line reaches stdout
        assert main(["verify", f1, "--grid", "4x16", "--lambda", "2/3", *flags]) == 2
        assert single_error_line(capsys) == f"error: {message}\n"


    @pytest.mark.parametrize("flags, message", [
        (["--suite", "starlike", "--lambda", "2", "--samples", "0", "--seed", "-1"], "lambda must lie in [0,1], got 2"),
        (["--suite", "all", "--samples", "0"], "samples must be >= 1, got 0"),
    ], ids=["starlike", "all-without-lambda"])
    def test_bad_flag_is_checked_when_no_distortion_runs(self, f1, capsys, flags, message):
        assert main(["verify", f1, "--grid", "4x16", *flags]) == 2
        assert single_error_line(capsys) == f"error: {message}\n"

    @pytest.mark.parametrize("flags", [
        ["--suite", "jacobian", "--grid", "4x16", "--r", f"{'9' * 30}/1{'0' * 30}"],
        ["--suite", "distortion", "--lambda", "2/3", "--grid", "0x2"],
        ["--suite", "distortion", "--lambda", "2/3", "--grid", "4000x4000"],
    ], ids=["radius-rounds-to-one", "empty-grid-without-grid-suite", "grid-budget-without-grid-suite"])
    def test_grid_is_checked_for_every_suite(self, f1, capsys, flags):
        assert main(["verify", f1, *flags]) == 2
        single_error_line(capsys)

    @pytest.mark.parametrize("suite", ["starlike", "convex", "jacobian", "injective", "distortion", "all"])
    def test_default_flags_pass_the_flag_checks(self, f1, capsys, suite):
        lam = ["--lambda", "2/3"] if suite == "distortion" else []
        assert main(["verify", f1, "--grid", "4x16", "--suite", suite, *lam]) in (0, 1)
        captured = capsys.readouterr()
        assert captured.err == "" and captured.out.endswith("\n") and "suite_passed=" in captured.out


def _raised(call):
    """lam -> the ParamError message of call(lam)."""
    def message(lam):
        with pytest.raises(ParamError) as exc:
            call(lam)
        return str(exc.value)
    return message


def _extremal_cli(lam):
    """lam -> the error line of `phmaps extremal --lambda lam`, which exits 2."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(["extremal", "--n", "2", f"--lambda={lam}"]) == 2
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    return err.getvalue()[len("error: "):-1]


LAMBDA_OWNERS = {
    "hs_lambda": _raised(hs_lambda),
    **{f"ClassParams-{family.value}": _raised(lambda lam, family=family: ClassParams(family, lam))
       for family in Family},
    "weight": _raised(lambda lam: weight(2, 1, lam)),
    "ExtremalSpec": _raised(lambda lam: ExtremalSpec(n=2, k=1, lam=lam)),
    "distortion_extremal": _raised(lambda lam: distortion_extremal(lam, 0)),
    "convexity_radius": _raised(convexity_radius),
    "extremal-cli": _extremal_cli,
}


@pytest.mark.parametrize("lam", [2, Fraction(-1, 3)], ids=["2", "-1/3"])
@pytest.mark.parametrize("owner", LAMBDA_OWNERS)
def test_every_lambda_is_checked_by_class_params(owner, lam):
    assert LAMBDA_OWNERS[owner](lam) == f"lambda must lie in [0,1], got {lam}"


@pytest.mark.parametrize("entry", ["a 2 1", "b 3 1"])
@pytest.mark.parametrize("command", ["check", "neighborhood", "verify"])
def test_an_overflowing_coefficient_is_named(tmp_path, capsys, command, entry):
    path = tmp_path / "mixed.phm"
    path.write_text(f"p 1\na 1 1 1 0\n{entry} 1{'0' * 400} 0.5\n")
    argv = {"check": ["check", "--class", "hs"], "neighborhood": ["neighborhood", str(path), "--lambda", "1/2"],
            "verify": ["verify", "--suite", "jacobian"]}[command]
    assert main([*argv, str(path)]) == 2
    letter, n, k = entry.split()
    assert single_error_line(capsys) == f"error: {letter}[{n},{k}]: coefficient [401 digits]+0.5i overflows float64\n"


def test_a_difference_beyond_float_names_both_coefficients(tmp_path, capsys):
    # neighborhood subtracts a[2,1] entrywise: the exact 10**400 meets the float 0.1
    mixed, decimal = tmp_path / "m.phm", tmp_path / "d.phm"
    mixed.write_text(f"p 1\na 1 1 1 0\na 2 1 1{'0' * 400} 0.5\n")
    decimal.write_text("p 1\na 1 1 1 0\na 2 1 0.1 0\n")
    assert main(["neighborhood", str(mixed), str(decimal), "--lambda", "1/2"]) == 2
    assert single_error_line(capsys) == \
        "error: a[2,1]: difference of coefficients [401 digits]+0.5i and 0.1+0i overflows float64\n"


def test_a_b11_beyond_float_is_rejected_by_its_bound(tmp_path, capsys):
    # |b11|^2 mixes the exact 10**800 with a float, so it lies far above 1
    path = tmp_path / "b.phm"
    path.write_text(f"p 1\na 1 1 1 0\nb 1 1 1{'0' * 400} 0.5\n")
    assert main(["check", "--class", "hs", str(path)]) == 2
    assert single_error_line(capsys) == "error: |b[1,1]| must be < 1, got [401 digits]+0.5i\n"


@pytest.mark.parametrize("command", ["check", "neighborhood", "extremal", "verify"])
def test_a_501_digit_lambda_gives_a_short_error_line(f1, capsys, command):
    argv = {"check": ["check", "--class", "hs-lambda", f1], "neighborhood": ["neighborhood", f1, f1],
            "extremal": ["extremal", "--n", "2"], "verify": ["verify", f1, "--suite", "distortion"]}[command]
    assert main([*argv, "--lambda", "3" + "0" * 500]) == 2
    assert len(single_error_line(capsys)) < 200


LONG_TOKEN = "x" * 100_000  # non-numeric, so every parser rejects it
LONG_TOKEN_FILES = {
    "p": f"p {LONG_TOKEN}\n",
    "index": f"p 1\na 1 1 1 0\na 2 {LONG_TOKEN} 1 0\n",
    "value": f"p 1\na 1 1 1 0\na 2 1 {LONG_TOKEN} 0\n",
    "non-finite-value": f"p 1\na 1 1 1 0\na 2 1 1e{'9' * 5000} 0\n",
    "zero-denominator": f"p 1\na 1 1 1 0\na 2 1 1/{'0' * 5000} 0\n",
}


@pytest.mark.parametrize("where", [*LONG_TOKEN_FILES, "lambda", "grid"])
def test_a_long_token_gives_a_short_error_line(f1, tmp_path, capsys, where):
    path = tmp_path / "long.phm"
    path.write_text(LONG_TOKEN_FILES.get(where, ""))
    argv = {"lambda": ["check", "--class", "hs-lambda", "--lambda", LONG_TOKEN, f1],
            "grid": ["verify", f1, "--grid", LONG_TOKEN]}.get(where, ["check", "--class", "hs", str(path)])
    try:
        code = main(argv)
    except SystemExit as e:  # argparse's usage error: usage lines, then the one error line
        code = e.code
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert code == 2 and len(errors) == 1
    assert len(errors[0].encode()) < 200, errors[0][:300]
    assert " characters]" in errors[0]


class TestRender:
    def test_svg_and_csv_outputs(self, f1, tmp_path):
        svg = tmp_path / "f1.svg"
        csv = tmp_path / "f1.csv"
        assert main(["render", f1, "-o", str(svg), "--csv", str(csv), "--rings", "4", "--rays", "8", "--samples", "64"]) == 0
        assert svg.read_bytes().startswith(b"<?xml")
        assert csv.read_text().splitlines()[0] == "curve_id,theta_or_r,re,im"

    def test_vertex_budget(self, f1, tmp_path, capsys):
        # rejected before any curve is evaluated, so no output file is written
        svg = tmp_path / "big.svg"
        assert main(["render", f1, "-o", str(svg), "--rings", "100000", "--rays", "100000", "--samples", "100000"]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not svg.exists()

    def test_coefficient_beyond_float_exits_two(self, big, tmp_path, capsys):
        svg = tmp_path / "big.svg"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["render", big, "-o", str(svg)]) == 2
        assert "overflows float64" in single_error_line(capsys)
        assert not svg.exists()

    @pytest.mark.parametrize("flag", ["--width", "--height"])
    def test_canvas_beyond_float_exits_two(self, f1, tmp_path, capsys, flag):
        svg = tmp_path / "wide.svg"
        assert main(["render", f1, "-o", str(svg), flag, BEYOND_FLOAT]) == 2
        assert "canvas width and height" in single_error_line(capsys)
        assert not svg.exists()

    @pytest.mark.parametrize("side", [MAX_GRID_POINTS + 1, 10**300], ids=["32769", "1e300"])
    @pytest.mark.parametrize("flag", ["--width", "--height"])
    def test_canvas_budget(self, f1, tmp_path, capsys, flag, side):
        svg = tmp_path / "wide.svg"
        assert main(["render", f1, "-o", str(svg), flag, str(side)]) == 2
        assert single_error_line(capsys) == f"error: canvas width and height must lie in [100, {MAX_GRID_POINTS}]\n"
        assert not svg.exists()

    @pytest.mark.parametrize("flag", ["--rings", "--rays"])
    def test_curves_beyond_float_exit_two(self, f1, tmp_path, capsys, flag):
        svg = tmp_path / "dense.svg"
        assert main(["render", f1, "-o", str(svg), flag, BEYOND_FLOAT]) == 2
        assert "rings and rays" in single_error_line(capsys)
        assert not svg.exists()

    def test_degree_beyond_int64_exits_two(self, huge_degree, tmp_path, capsys):
        svg = tmp_path / "huge.svg"
        assert main(["render", huge_degree, "-o", str(svg)]) == 2
        assert "does not fit int64" in single_error_line(capsys)
        assert not svg.exists()

    def test_csv_render_evaluates_once(self, f2, tmp_path, monkeypatch):
        import phmaps.render

        calls = []

        def counting_evaluate(F, z):
            calls.append(z.shape)
            return evaluate(F, z)

        monkeypatch.setattr(phmaps.render, "evaluate", counting_evaluate)
        svg, csv = tmp_path / "f2.svg", tmp_path / "f2.csv"
        argv = ["render", f2, "-o", str(svg), "--csv", str(csv), "--rings", "4", "--rays", "8", "--rmax", "0.9",
                "--samples", "64"]
        assert main(argv) == 0
        assert calls == [(12, 65)]  # all 4 closed rings and 8 rays at once
        assert svg.read_bytes() == (GOLDEN / "f2_render.svg").read_bytes()
        assert csv.read_bytes() == (GOLDEN / "f2_render.csv").read_bytes()

    @pytest.mark.parametrize("terms", [{"a": {(2, 1): 1e308, (3, 1): 1e308}, "b": {(2, 1): 1e308}},
                                       {"a": {(2, 1): 1e308}}], ids=["non_finite", "wide"])
    def test_non_finite_image_exits_two(self, tmp_path, capsys, terms):
        path = tmp_path / "ovf.phm"
        save_map(make_map(1, **terms), path)
        svg, csv = tmp_path / "ovf.svg", tmp_path / "ovf.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["render", str(path), "-o", str(svg), "--csv", str(csv)]) == 2
        assert "NaN, infinite or too wide" in single_error_line(capsys)
        assert not svg.exists() and not csv.exists()

    def test_renders_are_reproducible(self, f2, tmp_path):
        one, two = tmp_path / "a.svg", tmp_path / "b.svg"
        main(["render", f2, "-o", str(one), "--rings", "4", "--rays", "8", "--samples", "64"])
        main(["render", f2, "-o", str(two), "--rings", "4", "--rays", "8", "--samples", "64"])
        assert one.read_bytes() == two.read_bytes()


class TestExtremalAndCatalog:
    def test_extremal_map(self, tmp_path):
        out = tmp_path / "e.phm"
        assert main(["extremal", "--n", "2", "--lambda", "2/3", "-o", str(out)]) == 0
        F = parse_map(out.read_bytes())
        assert F.coeff_a(2, 1).re == Fraction(3, 10)

    def test_extremal_antianalytic_layer(self, tmp_path):
        out = tmp_path / "e.phm"
        assert main(["extremal", "--n", "2", "--k", "2", "--lambda", "0", "--kind", "b", "-p", "2", "-o", str(out)]) == 0
        F = parse_map(out.read_bytes())
        assert F.coeff_b(2, 2).re == Fraction(1, 4)

    def test_extremal_rejects_degree_one(self):
        assert main(["extremal", "--n", "1", "--lambda", "0"]) == 2

    def test_catalog_names(self, tmp_path, capsys):
        for name, expected in [("f1", example_F1()), ("f2", example_F2()), ("identity", identity_map())]:
            out = tmp_path / f"{name}.phm"
            assert main(["catalog", name, "-o", str(out)]) == 0
            assert parse_map(out.read_bytes()) == expected
        out = tmp_path / "h.phm"
        assert main(["catalog", "half-plane", "-N", "2", "-o", str(out)]) == 0
        assert parse_map(out.read_bytes()) == half_plane_map(2)

    def test_extremal_huge_phase_is_not_snapped_to_an_axis(self, capsys):
        # 1e16 / (pi/2) is an integer in float64, but e^{1e16 i} lies off both axes
        assert main(["extremal", "--n", "2", "--lambda", "1/2", "--phase", "1e16"]) == 0
        F = parse_map(capsys.readouterr().out.encode())
        assert isinstance(F.coeff_a(2, 1).re, float) and F.coeff_a(2, 1).im != 0

    @pytest.mark.parametrize("phase", ["inf", "-inf", "nan"])
    def test_extremal_non_finite_phase_exits_two(self, phase, capsys):
        assert main(["extremal", "--n", "2", "--lambda", "1/2", f"--phase={phase}"]) == 2
        assert "phase must be finite" in single_error_line(capsys)

    def test_half_plane_degree_budget(self, tmp_path, capsys):
        # rejected before any coefficient is built, so no file is written
        out = tmp_path / "h.phm"
        assert main(["catalog", "half-plane", "-N", "40000", "-o", str(out)]) == 2
        assert single_error_line(capsys) == f"error: truncation degree 40000 exceeds {MAX_GRID_POINTS}\n"
        assert not out.exists()


# Values for the numeric flags: valid, out of range, huge, non-finite and unparseable.
TOKENS = st.sampled_from(["2", "3", "1/2", "0.9", "0", "-1", str(10**12), str(10**400), "inf", "-inf", "nan", "1e400",
                          "1e-400", "10**12", "x", "", "1/0", "2/x"])

# Per command: a valid argv, its choice-valued options, and the numeric flags a draw overrides.
# `{f1}` and `{out}` stand for an input map and an output path.
COMMANDS = {
    "extremal": (["--n=2", "--lambda=1/2", "-o", "{out}"], {"--kind": ["a", "b"]},
                 ["--n", "--k", "--lambda", "--phase", "-p"]),
    "catalog": (["-o", "{out}"], {"": ["identity", "f1", "f2", "half-plane"]}, ["-N", "-p"]),
    "check": (["{f1}"], {"--class": ["hs-lambda", "hs", "hc"]}, ["--lambda"]),
    "verify": (["{f1}", "--lambda=2/3"], {"--suite": ["starlike", "convex", "jacobian", "injective", "distortion", "all"]},
               ["--grid", "--r", "--lambda", "--samples", "--seed"]),
    "render": (["{f1}", "-o", "{out}"], {}, ["--rings", "--rays", "--rmax", "--samples", "--width", "--height"]),
}


@st.composite
def cli_argv(draw):
    """A valid argv of one command with one numeric flag overridden by TOKENS.

    argparse keeps the last value of a repeated flag, so the override wins, and
    --flag=value lets a value such as -inf reach the flag's parser. One flag at
    a time, so that an unparseable token elsewhere cannot hide a fault.
    """
    command = draw(st.sampled_from(sorted(COMMANDS)))
    base, choices, numeric = COMMANDS[command]
    argv = [command, *base]
    for flag, options in choices.items():
        option = draw(st.sampled_from(options))
        argv.append(f"{flag}={option}" if flag else option)
    flag = draw(st.sampled_from(numeric))
    value = f"{draw(TOKENS)}x{draw(TOKENS)}" if flag == "--grid" else draw(TOKENS)
    return [*argv, f"{flag}={value}"]


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("contract")
    save_map(example_F1(), path / "f1.phm")
    return path


@settings(max_examples=300)
@given(argv=cli_argv())
def test_cli_exits_0_1_2_on_any_numeric_token(argv, contract_dir):
    """The CLI contract: exit 0, 1 or 2 (argparse's own usage errors exit 2), never a traceback,
    and an exit of 2 writes nothing to stdout."""
    argv = [arg.format(f1=contract_dir / "f1.phm", out=contract_dir / "out") for arg in argv]
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
    except SystemExit as e:
        code = e.code
        assert code == 2, argv
    assert code in (0, 1, 2), argv
    assert code != 2 or stdout.getvalue() == "", argv


# .phm fields: a valid token, or one time in ten an invalid, huge or non-finite one.
PHM_P = (["2", "3"], ["1", "0", "-1", str(10**20), "x"])
PHM_N = (["1", "2", "3"], ["0", "-1", str(10**20), "x"])
PHM_K = (["1", "2"], ["3", "0", "-1", str(10**20), "x"])  # a valid k never exceeds a valid p
PHM_VALUE = (["0", "1", "-1", "1/2", "-1/5", "1/10", "0.1", "0.99", "2", str(10**20), str(10**400), "1e308", "1e-400"],
             ["1e400", "inf", "nan", "1/0", "x", ""])
PHM_BASES = [example_F1(), example_F2(), half_plane_map(3),
             make_map(2, a={(2, 1): (Fraction(1, 8), Fraction(-1, 9)), (1, 2): Fraction(1, 20)}, b={(1, 1): 0.25})]


@st.composite
def phm_bytes(draw):
    """A small .phm document: generated line by line from the PHM_ tokens, or a valid
    map's text with up to three bytes deleted, inserted or replaced."""
    if draw(st.booleans()):
        def field(tokens):
            return draw(st.sampled_from(tokens[draw(st.integers(0, 9)) == 0]))

        lines, keys = [f"p {field(PHM_P)}", "a 1 1 1 0"], {("a", "1", "1")}
        for _ in range(draw(st.integers(0, 3))):
            key = (draw(st.sampled_from("ab")), field(PHM_N), field(PHM_K))
            if key in keys and draw(st.integers(0, 9)):  # keep a duplicate, a syntax error, one time in ten
                continue
            keys.add(key)
            lines.insert(draw(st.integers(1, len(lines))), " ".join([*key, field(PHM_VALUE), field(PHM_VALUE)]))
        return "\n".join(lines).encode()
    data = bytearray(serialize_map(draw(st.sampled_from(PHM_BASES))))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(data) - 1))
        byte = draw(st.sampled_from(b" \n#-/.01239eabpx\xff"))
        action = draw(st.sampled_from(["delete", "insert", "replace"]))
        data[i:i + (action != "insert")] = b"" if action == "delete" else bytes([byte])
    return bytes(data)


PHM_COMMANDS = [["check", "--class", "hs", "{phm}"],
                ["neighborhood", "{phm}", "{f1}", "--lambda", "1/2"],
                ["convolve", "{phm}", "{phm}"],
                ["verify", "{phm}", "--grid", "4x8", "--suite", "all", "--lambda", "1/2"]]


@settings(max_examples=150)
@given(data=phm_bytes())
def test_cli_exits_0_1_2_on_any_phm_bytes(data, contract_dir):
    """The CLI contract on map files: exit 0, 1 or 2, never a traceback, and an exit of 2 writes
    nothing to stdout."""
    phm = contract_dir / "any.phm"
    phm.write_bytes(data)
    for argv in PHM_COMMANDS:
        argv = [arg.format(phm=phm, f1=contract_dir / "f1.phm") for arg in argv]
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")  # convolve writes to its buffer
        with contextlib.redirect_stdout(stdout), warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning is a fault here too
            code = main(argv)
        stdout.flush()
        assert code in (0, 1, 2), (argv, data)
        assert code != 2 or stdout.buffer.getvalue() == b"", (argv, data)

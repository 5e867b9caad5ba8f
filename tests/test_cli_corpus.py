"""The CLI golden corpus: one file under ``tests/golden/cli/`` per (map, argv), holding the
argv, the exit code, stdout and stderr of one in-process ``cli.main`` call, and for ``render``
the SHA-256 and size of each file it wrote (``none`` when it wrote none).

A missing file is written from the current code and its test fails, naming the file; delete
a file to regenerate it. The exact-only files (``check``, ``neighborhood``, and ``convolve``
and ``iconvolve``, whose written map is the stdout) also run where numpy and pytest are
absent; the ``verify`` and ``render`` files need numpy and are skipped without it:

    python tests/test_cli_corpus.py

The ``verify`` and ``render`` files pin digits that come from numpy (the grid minima from its
FFT), so a numpy upgrade can move their last digits without any change here. Today's wrong
verdicts are recorded as they are and listed in ``tests/golden/wrong_verdicts.txt``, with the
ROADMAP item that fixes each.
"""

import contextlib
import hashlib
import importlib.util
import io
import math
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from phmaps import Coefficient, example_F1, example_F2, half_plane_map, make_map, serialize_map
from phmaps.cli import main
from phmaps.sampling import random_member

CORPUS = Path(__file__).parent / "golden" / "cli"
BIG = 10**400  # an exact integer that float64 cannot hold


def _turned(F, turn):
    """F with every coefficient but a[1,1] multiplied by ``turn``."""
    a = {key: c if key == (1, 1) else c * turn for key, c in F.a.items()}
    return make_map(F.p, a, {key: c * turn for key, c in F.b.items()})


def _irrational(offset):
    """z + c(1+i)z^2 with c the 60-digit decimal of 1/(2 sqrt 2) plus ``offset``: 2|a[2,1]| = 1 + O(offset)."""
    c = Fraction(math.isqrt(10**120 // 8), 10**60) + offset
    return make_map(1, a={(2, 1): (c, c)})


def _members():
    """Five seeded exact members of hs-lambda: (seed, p, lambda, normalized, tight)."""
    for seed, p, lam, normalized, tight in ((1, 1, Fraction(1, 2), True, False), (2, 2, Fraction(0), False, True),
                                            (3, 3, Fraction(2, 3), False, False), (4, 2, Fraction(1), True, True),
                                            (5, 1, Fraction(1, 3), False, True)):
        yield f"member{seed}", random_member(random.Random(seed), p, lam, normalized, tight)


def _maps():
    """Map name -> .phm text."""
    maps = {"f1": example_F1(), "f2": example_F2(), "decimal_f1": make_map(1, a={(2, 1): 0.1}, b={(2, 1): 0.2}),
            **{f"h{N}": half_plane_map(N) for N in (2, 3, 5, 64)}, **dict(_members()),
            # |3/5 - 4/5 i| = 1: every magnitude stays rational off the axes
            "pythagorean_member": _turned(random_member(random.Random(6), 2, Fraction(1, 2), False, True),
                                          Coefficient(Fraction(3, 5), Fraction(-4, 5))),
            "irrational_over": _irrational(Fraction(1, 10**25)),
            "irrational_under": _irrational(Fraction(-1, 10**25)),
            # z + |z|^2 z/3: row 1 holds with margin 0, and its first-weighted sum 2 fails row 2 in every family
            "first_row_tight": make_map(2, a={(1, 2): Fraction(1, 3)}),
            # decimal coefficients whose first-weighted sum 1 + |b11| + 3|a[1,2]| is exactly 2
            "float_first_row_tight": make_map(2, a={(1, 2): 0.25}, b={(1, 1): 0.25}),
            # decimal coefficients tight at lambda = 0: the stored doubles' exact row-1 margin is +8.3e-17
            "float_row1_tight": make_map(2, a={(2, 1): 0.19999999999999996, (1, 2): 0.1}, b={(1, 1): 0.3}),
            **{f"reflection_{b.numerator}_{b.denominator}": make_map(1, b={(1, 1): b})
               for b in (Fraction(9355, 10000), Fraction(39, 40), Fraction(999, 1000))},
            "beyond_float": make_map(1, a={(2, 1): BIG}),
            "beyond_float_p": make_map(BIG),
            "beyond_float_mixed": make_map(1, a={(2, 1): (BIG, 0.5)}),
            "overflow_1e308": make_map(1, a={(2, 1): 1e308, (3, 1): 1e308}, b={(2, 1): 1e308}),
            "wide_1e308": make_map(1, a={(2, 1): 1e308})}
    texts = {name: serialize_map(F).decode() for name, F in maps.items()}
    texts.update({
        "beyond_float_1e308": f"p 1\na 1 1 1 0\na 2 1 {BIG} 1e308\n",
        "beyond_float_b11": f"p 1\na 1 1 1 0\nb 1 1 {BIG} 0.5\n",
        "off_axis_250": f"p 1\na 1 1 1 0\na 2 1 1{'0' * 250} 1\n",
        "off_axis_400": f"p 1\na 1 1 1 0\na 2 1 3{'0' * 400} 1\n",
        "degree_1e400": f"p 1\na 1 1 1 0\na {BIG} 1 1/2 0\n",
    })
    return texts


MAPS = _maps()
COMMANDS = {
    "check-hs": ["check", "--class", "hs", "{map}"],
    "check-hc": ["check", "--class", "hc", "{map}"],
    **{f"check-hs-lambda-{lam.replace('/', '_')}": ["check", "--class", "hs-lambda", "--lambda", lam, "{map}"]
       for lam in ("0", "1/2", "2/3", "1")},
    "neighborhood-to-f1": ["neighborhood", "{map}", "f1.phm", "--lambda", "1/2"],
    "neighborhood-from-f1": ["neighborhood", "f1.phm", "{map}", "--lambda", "2/3"],
    "convolve-self": ["convolve", "{map}", "{map}"],
    "iconvolve-f1": ["iconvolve", "{map}", "f1.phm"],
    **{f"verify-{suite}": ["verify", "{map}", "--suite", suite]
       for suite in ("jacobian", "starlike", "convex", "injective")},
    "verify-all-lambda-1_2": ["verify", "{map}", "--suite", "all", "--lambda", "1/2"],
    "verify-all-8x64-r9_10-lambda-1_2": ["verify", "{map}", "--suite", "all", "--grid", "8x64", "--r", "9/10",
                                         "--lambda", "1/2"],
    "verify-convex-4x512": ["verify", "{map}", "--suite", "convex", "--grid", "4x512"],
    # the layout of tests/golden/f2_render.*
    "render-4x8-64": ["render", "{map}", "-o", "out.svg", "--csv", "out.csv", "--rings", "4", "--rays", "8",
                      "--rmax", "0.9", "--samples", "64"],
}
OUTPUTS = (".svg", ".csv")  # files a call writes, named relative to its directory
HAS_NUMPY = importlib.util.find_spec("numpy") is not None
CASES = [(name, command) for name in MAPS for command in COMMANDS]


def case_file(name: str, command: str) -> Path:
    return CORPUS / f"{name}__{command}.txt"


def transcript(name: str, command: str, directory: Path) -> str:
    """The corpus text of one call, with map paths written relative to ``directory``."""
    argv = [arg.format(map=f"{name}.phm") for arg in COMMANDS[command]]
    outputs = [directory / arg for arg in argv if arg.endswith(OUTPUTS)]
    # a text stream over bytes, so that a map written to sys.stdout.buffer lands in stdout too
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="\n", write_through=True)
    stderr = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main([str(directory / arg) if arg.endswith((".phm", *OUTPUTS)) else arg for arg in argv])
        except SystemExit as e:  # argparse's usage errors
            code = e.code
    prefix = str(directory) + "/"
    out = stdout.buffer.getvalue().decode("utf-8")
    text = (f"argv: {' '.join(argv)}\nexit: {code}\n--- stdout\n{out.replace(prefix, '')}"
            f"--- stderr\n{stderr.getvalue().replace(prefix, '')}")
    if not outputs:
        return text
    written = []
    for path in outputs:  # removed once recorded, so the next call in the directory starts without them
        if path.exists():
            data = path.read_bytes()
            written.append(f"{path.name} sha256={hashlib.sha256(data).hexdigest()} bytes={len(data)}\n")
            path.unlink()
    return text + "--- files\n" + ("".join(written) or "none\n")


def write_maps(directory: Path, names=MAPS) -> None:
    for name in names:
        (directory / f"{name}.phm").write_text(MAPS[name])


def check_case(name: str, command: str, directory: Path) -> str | None:
    """None when the call's transcript equals its file; otherwise why not. A missing file is written."""
    path = case_file(name, command)
    got = transcript(name, command, directory)
    if not path.exists():
        path.parent.mkdir(exist_ok=True)
        path.write_text(got)
        return f"{path.name} was missing and has been written; check it and commit it"
    if path.read_text() != got:
        return f"{path.name} differs:\n--- want\n{path.read_text()}--- got\n{got}"
    return None


def pytest_generate_tests(metafunc):
    if "case" in metafunc.fixturenames:
        metafunc.parametrize("case", CASES, ids=[f"{name}__{command}" for name, command in CASES])


def needs_numpy(command: str) -> bool:
    return COMMANDS[command][0] in ("verify", "render")


def test_cli_corpus(case, tmp_path):
    if needs_numpy(case[1]) and not HAS_NUMPY:
        import pytest
        pytest.skip("verify and render need numpy")
    write_maps(tmp_path, {case[0], "f1"})
    failure = check_case(*case, tmp_path)
    assert failure is None, failure


def test_corpus_has_only_known_files():
    known = {case_file(*case).name for case in CASES}
    assert sorted(path.name for path in CORPUS.iterdir() if path.name not in known) == []


def test_each_indexed_wrong_verdict_is_still_recorded():
    lines = (CORPUS.parent / "wrong_verdicts.txt").read_text().splitlines()
    entries = [line.split("\t") for line in lines if line and not line.startswith("#")]  # file, line, item
    assert entries and all(len(entry) == 3 and entry[2].startswith("item ") for entry in entries)
    known = {case_file(*case).name for case in CASES}
    for name, line, _ in entries:
        assert name in known, name
        assert line in (CORPUS / name).read_text().splitlines(), f"{name} no longer holds {line!r}"


def runnable_cases() -> list[tuple[str, str]]:
    """The cases this Python can run: all of them with numpy, the exact-only ones without."""
    return [case for case in CASES if HAS_NUMPY or not needs_numpy(case[1])]


def run_all() -> list[str]:
    """Every runnable case's failure, in corpus order; written to run without pytest."""
    with tempfile.TemporaryDirectory() as tmp:
        write_maps(Path(tmp))
        return [failure for case in runnable_cases() if (failure := check_case(*case, Path(tmp))) is not None]


if __name__ == "__main__":
    failures = run_all()
    for failure in failures:
        print(failure, file=sys.stderr)
    run = len(runnable_cases())
    skipped = f", {len(CASES) - run} verify and render files skipped without numpy" if run < len(CASES) else ""
    print(f"{run - len(failures)} of {run} corpus files unchanged{skipped}")
    sys.exit(1 if failures else 0)

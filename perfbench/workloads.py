"""The four benchmark workloads: inputs, one op, its oracle and its counts.

Each workload builds a list of distinct inputs and a round: the order in which
the closed loop visits them. `child_process` says whether an op is a child
process, which picks the reference kernel its times are scaled by
(`hostspeed.py`). Inputs come only from the seed. Every op calls the
public phmaps API; `tr.span(name)` marks the layer each call belongs to (a
no-op unless the run is traced). `expect` runs in the set-up child, outside the
timed region, and returns plain JSON values the parent compares against.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

import phmaps as pm
from phmaps import sampling

import oracles

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

GRID = pm.DiskGrid(rings=32, rays=256, r_max=0.995)
DENSE = pm.DiskGrid(rings=32, rays=1024, r_max=0.995)   # 32768 = MAX_GRID_POINTS
RENDER_SPEC = pm.RenderSpec(grid=pm.DiskGrid(rings=8, rays=16, r_max=0.98), samples_per_curve=128)
GOLDEN_SPEC = pm.RenderSpec(grid=pm.DiskGrid(rings=4, rays=8, r_max=0.9), samples_per_curve=64)
ALL_CHECKS = ("jacobian", "starlike", "convex", "injective")
DENSE_CHECKS = ALL_CHECKS[:3]
TOL = 1e-12

# Collision counts of half_plane_map(N) on GRID, pinned when this benchmark was added.
PINNED_HALF_PLANE = {2: 61, 3: 47, 4: 95, 5: 74}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def support_size(F) -> int:
    return len(set(F.a) | set(F.b))


def decompose_grid(tr, F, grid, checks) -> None:
    """Traced only: each check alone, then the evaluation kernels on the same grid."""
    z, r, theta = grid.points(), grid.radii()[:, None], grid.angles()[None, :]
    for check in checks:
        with tr.span(f"geometry.check.{check}"):
            pm.verify_geometry(F, grid, (check,))
    with tr.span("geometry.evaluate"):
        pm.evaluate(F, z)
    with tr.span("geometry.theta_derivative"):
        pm.theta_derivative(F, r, theta, 1)
        pm.theta_derivative(F, r, theta, 2)
    with tr.span("geometry.jacobian"):
        pm.jacobian(F, z)


def geometry_counts(F, grid, report, checks) -> dict:
    points = grid.rings * grid.rays
    return {
        "geometry.grid.points": points * len(checks),
        "geometry.kernel.term_points": support_size(F) * points,
        "geometry.collision.count": report.injectivity_collisions or 0,
    }


def membership_counts(reports) -> dict:
    return {
        "classes.membership.calls": len(reports),
        "classes.membership.exact": sum(r.exact for r in reports),
        "classes.membership.used_epsilon": sum(r.used_epsilon for r in reports),
    }


def member_ok(rep, tight: bool, exact_input: bool = True) -> bool:
    """Exact input gives an exact verdict that never consults the epsilon guard."""
    if not rep.member:
        return False
    if exact_input and not (rep.exact and not rep.used_epsilon):
        return False
    return not tight or rep.row1_margin == 0


def geometry_expect(F, grid) -> dict:
    z = grid.points()
    w = pm.evaluate(F, z)
    library_rule, documented_rule = oracles.brute_force_collisions(w)
    return {
        "collisions": library_rule,
        "documented_rule_collisions": documented_rule,
        "spacing_ratio": oracles.spacing_ratio(w),
        "evaluate_ok": oracles.evaluation_agrees(F, z, w),
    }


# --- verify-members ----------------------------------------------------------


@dataclass(eq=False)
class MemberCase:
    F: object
    lam: Fraction
    tight: bool
    r: np.ndarray
    z: np.ndarray
    seed: int


class VerifyMembers:
    """Typical verification traffic: exact members through all four grid checks."""

    name = "verify-members"
    stop_between_ops = False
    child_process = False
    size = 80

    def build(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        npr = np.random.default_rng(seed)

        def points():
            r = npr.uniform(0.0, 0.999, 1000)
            return r, r * np.exp(1j * npr.uniform(0.0, 2.0 * np.pi, 1000))

        cases = [
            MemberCase(pm.example_F1(), Fraction(2, 3), True, *points(), seed),
            MemberCase(pm.example_F2(), Fraction(1, 100), True, *points(), seed + 1),
        ]
        while len(cases) < self.size:
            p = rng.randint(1, 3)
            lam = Fraction(rng.randint(0, 100), 100)
            tight = rng.random() < 0.25
            F = sampling.random_member(rng, p, lam, normalized=True, tight=tight)
            cases.append(MemberCase(F, lam, tight, *points(), seed + len(cases)))
        return cases, list(range(len(cases)))

    def expect(self, c) -> dict:
        w = pm.evaluate(c.F, GRID.points())
        return {
            "spacing_ratio": oracles.spacing_ratio(w),
            "evaluate_ok": oracles.evaluation_agrees(c.F, GRID.points(), w),
        }

    def op(self, c, tr):
        with tr.span("classes.membership"):
            mem = pm.membership(c.F, pm.hs_lambda(c.lam))
        with tr.span("geometry.verify_geometry"):
            geo = pm.verify_geometry(c.F, GRID)
        with tr.span("geometry.distortion"):
            env = pm.distortion_envelope(c.F, c.lam)
            mags = np.abs(pm.evaluate(c.F, c.z))
            bounds = (env.lower(c.r), env.upper(c.r))
            layers_ok = pm.layer_bound_check(c.F, c.lam, samples=1000, seed=c.seed)
        return mem, geo, mags, bounds, layers_ok

    def check(self, c, exp, out) -> list[str]:
        mem, geo, mags, (lower, upper), layers_ok = out
        bad = []
        if not member_ok(mem, c.tight):
            bad.append("classes")
        # Members of hs-lambda are sense-preserving, starlike and injective.
        if not (exp["evaluate_ok"] and geo.min_jacobian.value > 0 and geo.min_arg_derivative.value > 0
                and geo.injectivity_collisions == 0):
            bad.append("geometry")
        if not (layers_ok and np.all(mags >= lower - TOL) and np.all(mags <= upper + TOL)):
            bad.append("geometry")
        return bad

    def decompose(self, c, tr) -> None:
        decompose_grid(tr, c.F, GRID, ALL_CHECKS)

    def counts(self, c, exp, out) -> dict:
        mem, geo = out[0], out[1]
        return {
            **geometry_counts(c.F, GRID, geo, ALL_CHECKS),
            **membership_counts([mem]),
            "geometry.spacing_ratio_ge_1e3": exp["spacing_ratio"] >= 1e3,
        }


# --- verify-halfplane --------------------------------------------------------


@dataclass(eq=False)
class HalfPlaneCase:
    label: str
    F: object
    grid: object
    base: int | None = None   # N of an unmodified half_plane_map(N) on GRID


class VerifyHalfPlane:
    """Adversarial injectivity: half-plane truncations whose image spacing varies by 1e3-1e4."""

    name = "verify-halfplane"
    stop_between_ops = False
    child_process = False

    def build(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        cases = [HalfPlaneCase(f"H{N}", pm.half_plane_map(N), GRID, N) for N in (2, 3, 4, 5)]

        def r_max(stratum):
            """A seeded r_max in the stratum-th of six slices of [0.95, 0.992)."""
            return 0.95 + (7 * stratum + rng.randrange(0, 7)) / 1000

        def variant(label, F, grid):
            cases.append(HalfPlaneCase(label, F, grid))
            return len(cases) - 1

        h2 = [variant("H2@r", pm.half_plane_map(2), pm.DiskGrid(32, 256, r_max(k))) for k in range(6)]
        conv = [variant("H2*cert", pm.convolve(pm.half_plane_map(2), sampling.random_certified_map(rng, 4)), GRID)
                for _ in range(2)]
        # 62 ops per round: H5 and H4 once, H3 ten times, H2 40 times and the
        # ten seeded variants, which cost less than H3. So p90 falls among the
        # H3 ops and the median among the H2 ops, wherever the variants fall,
        # and two rounds leave more than ten samples beyond p90.
        order = [3, 2] + [1] * 10 + [0] * 40 + h2 + conv * 2
        rng.shuffle(order)
        return cases, order

    def expect(self, c) -> dict:
        return geometry_expect(c.F, c.grid)

    def op(self, c, tr):
        with tr.span("geometry.verify_geometry"):
            return pm.verify_geometry(c.F, c.grid)

    def check(self, c, exp, rep) -> list[str]:
        count = rep.injectivity_collisions
        ok = exp["evaluate_ok"] and count == exp["collisions"]
        if c.base is not None:
            ok &= count == PINNED_HALF_PLANE[c.base] and not rep.passed()
        if count:
            ok &= not rep.passed()
        return [] if ok else ["geometry"]

    def decompose(self, c, tr) -> None:
        decompose_grid(tr, c.F, c.grid, ALL_CHECKS)

    def counts(self, c, exp, rep) -> dict:
        return {
            **geometry_counts(c.F, c.grid, rep, ALL_CHECKS),
            "geometry.spacing_ratio_ge_1e3": exp["spacing_ratio"] >= 1e3,
            "geometry.collision.documented_rule_count": exp["documented_rule_collisions"],
        }


# --- paper-deck --------------------------------------------------------------


@dataclass(eq=False)
class DeckCase:
    label: str
    F: object
    lam: Fraction | None          # class parameter of a member; None for a non-member
    tight: bool = False
    exact_input: bool = True      # every coefficient magnitude is an exact rational
    partners: list = field(default_factory=list)       # convex-certified maps
    companion: object = None      # combined with F in a convex combination
    perturbations: list = field(default_factory=list)  # maps inside F's neighborhood
    spec: object = RENDER_SPEC
    golden: bool = False          # render must equal tests/golden/f2_render.*
    criterion3: bool = False      # convolve(f1, H8) coefficients are pinned


PYTHAGOREAN = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25))


def rotated(F, rng, pythagorean: bool):
    """F with each coefficient turned off its axis, keeping its magnitude when
    pythagorean (so sqrt_scalar finds an exact root), shrinking it by 1/sqrt(2)
    otherwise (an irrational magnitude, so the sums degrade to floats)."""
    def turn(c):
        if (c.re, c.im) == (1, 0):
            return c
        m = c.magnitude()
        if pythagorean:
            x, y, h = rng.choice(PYTHAGOREAN)
            return pm.Coefficient(m * rng.choice((1, -1)) * x / h, m * rng.choice((1, -1)) * y / h)
        return pm.Coefficient(m / 2, -m / 2)

    return pm.PolyharmonicMap(F.p, {k: turn(c) for k, c in F.a.items()}, {k: turn(c) for k, c in F.b.items()})


def fixed_plan(rng, p: int, slots: int, max_degree: int):
    """A slot plan with exactly `slots` row-1 slots, so the support size does not depend on the seed."""
    cells = [(letter, n, k) for letter in "ab" for n in range(2, max_degree + 1) for k in range(1, p + 1)]
    chosen = rng.sample(cells, slots)
    return sampling.SlotPlan(None, (), tuple((*cell, rng.choice(sampling.AXES)) for cell in chosen))


class PaperDeck:
    """The exact core and the dense numerics on one map per op; no collision pass."""

    name = "paper-deck"
    stop_between_ops = False
    child_process = False
    partner_count = 32

    def build(self, seed: int, workdir: Path):
        rng = random.Random(seed)

        def certified(degree):
            return [sampling.random_certified_map(rng, degree) for _ in range(self.partner_count)]

        def member_case(label, p, slots, degree, lam, tight=False, turn=None):
            plan = fixed_plan(rng, p, slots, degree)
            F = pm.make_map(p)
            while len(F.a) + len(F.b) <= slots:   # a zero fill would leave only z
                F = sampling.random_member(rng, p, lam, normalized=True, tight=tight, plan=plan)
            companion = sampling.random_member(rng, p, lam, normalized=True, plan=plan)
            if turn is not None:
                F = rotated(F, rng, pythagorean=turn)
            bound = pm.delta_bound(F, lam)
            return DeckCase(
                label, F, lam, tight=tight, exact_input=turn is not False,
                partners=certified(degree) + [pm.half_plane_map(degree)],
                companion=companion if turn is None else pm.make_map(1),
                perturbations=[sampling.random_perturbation(rng, F, bound) for _ in range(2)],
            )

        def lam_in(lo, hi):
            return Fraction(rng.randint(lo, hi), 100)

        f1, f2 = pm.example_F1(), pm.example_F2()
        cases = [
            DeckCase("f1", f1, Fraction(2, 3), tight=True, partners=certified(8) + [pm.half_plane_map(8)],
                     companion=pm.make_map(1),
                     perturbations=[sampling.random_perturbation(rng, f1, pm.delta_bound(f1, Fraction(2, 3)))],
                     criterion3=True),
            DeckCase("f2", f2, Fraction(1, 100), tight=True, partners=certified(8) + [pm.half_plane_map(8)],
                     companion=pm.make_map(1),
                     perturbations=[sampling.random_perturbation(rng, f2, pm.delta_bound(f2, Fraction(1, 100)))],
                     spec=GOLDEN_SPEC, golden=True),
            DeckCase("H64", pm.half_plane_map(64), None, partners=certified(64), companion=pm.make_map(1)),
        ]
        for i in range(3):
            cases.append(member_case(f"multi{i}", 3 + i % 2, 12, 16, lam_in(10, 100), tight=i == 0))
        for i in range(2):
            cases.append(member_case(f"pythagorean{i}", 2, 10, 12, lam_in(10, 100), tight=i == 0, turn=True))
        cases.append(member_case("irrational", 2, 10, 12, lam_in(10, 100), turn=False))
        for i in range(3):
            cases.append(member_case(f"single{i}", 1, 10, 24, lam_in(50, 100), tight=i == 0))
        # H64 is a fifth of the round, so p90 falls among its ops instead of in
        # the sparse tail of the members, and the median falls among the members.
        order = list(range(len(cases)))
        return cases, order[:7] + [2] + order[7:10] + [2] + order[10:]

    def expect(self, c) -> dict:
        w = pm.evaluate(c.F, DENSE.points())
        return {
            "evaluate_ok": oracles.evaluation_agrees(c.F, DENSE.points(), w),
            "svg": digest(pm.render_svg(c.F, c.spec)),
            "csv": digest(pm.render_csv(c.F, c.spec)),
        }

    def op(self, c, tr):
        F, out = c.F, {}
        with tr.span("phmio.serialize_map"):
            blob = pm.serialize_map(F)
        with tr.span("phmio.parse_map"):
            out["roundtrip"] = [(pm.parse_map(blob), F, len(blob))]
        lam = c.lam if c.lam is not None else Fraction(1, 2)
        with tr.span("classes.membership"):
            out["classes"] = [pm.membership(F, pm.hs_lambda(lam)), pm.membership(F, pm.hs()),
                              pm.membership(F, pm.hc())]
        out["products"] = []
        for H in c.partners:
            with tr.span("operators.convolve"):
                FH = pm.convolve(F, H)
            with tr.span("operators.integral_convolve"):
                FiH = pm.integral_convolve(F, H)
            with tr.span("classes.membership"):
                reps = (pm.membership(FH, pm.hs(normalized=True)), pm.membership(FiH, pm.hc(normalized=True)))
            with tr.span("phmio.serialize_map"):
                blob = pm.serialize_map(FH)
            with tr.span("phmio.parse_map"):
                out["roundtrip"].append((pm.parse_map(blob), FH, len(blob)))
            out["products"].append((FH, FiH, *reps))
        t = Fraction(1, 3)
        with tr.span("operators.combine"):
            combo = pm.combine([(t, F), (1 - t, c.companion)])
        with tr.span("classes.membership"):
            out["combo"] = pm.membership(combo, pm.hs_lambda(lam))
        out["neighborhood"] = []
        for G in c.perturbations:
            with tr.span("operators.neighborhood_report"):
                out["neighborhood"].append(pm.neighborhood_report(F, G, c.lam))
        radius = pm.convexity_radius(lam)
        with tr.span("operators.rescale"):
            scaled = pm.rescale(F, radius)
        with tr.span("classes.membership"):
            out["rescaled"] = pm.membership(scaled, pm.hc())
        if c.lam is not None:
            with tr.span("geometry.rescale_convexity_certificate"):
                out["certificate"] = pm.rescale_convexity_certificate(F, c.lam, radius)
        with tr.span("geometry.verify_geometry"):
            out["geometry"] = pm.verify_geometry(F, DENSE, DENSE_CHECKS)
        with tr.span("render.render_svg"):
            out["svg"] = pm.render_svg(F, c.spec)
        with tr.span("render.render_csv"):
            out["csv"] = pm.render_csv(F, c.spec)
        return out

    def check(self, c, exp, out) -> list[str]:
        bad = []
        if not all(back == orig for back, orig, _ in out["roundtrip"]):
            bad.append("phmio")
        mem_lam, mem_hs, _ = out["classes"]
        classes_ok = True
        operators_ok = True
        if c.lam is None:
            classes_ok &= not mem_lam.member
        else:
            # hs-lambda is contained in hs, and the class is convex.
            classes_ok &= member_ok(mem_lam, c.tight, c.exact_input) and mem_hs.member
            classes_ok &= member_ok(out["combo"], False, c.exact_input)
            operators_ok &= all(nr.inside and (nr.exact or not c.exact_input) for nr in out["neighborhood"])
            # Convolution closure (acceptance criterion 7): single layer, lambda >= 1/2.
            if c.F.effective_p == 1 and c.lam >= Fraction(1, 2):
                classes_ok &= all(member_ok(r1, False, c.exact_input) and member_ok(r2, False, c.exact_input)
                                  for _, _, r1, r2 in out["products"])
        if c.criterion3:
            FH, FiH = out["products"][-1][:2]
            operators_ok &= (FH.coeff_a(2, 1), FH.coeff_b(2, 1)) == (pm.Coefficient(Fraction(3, 20)),
                                                                     pm.Coefficient(Fraction(-1, 10)))
            operators_ok &= (FiH.coeff_a(2, 1), FiH.coeff_b(2, 1)) == (pm.Coefficient(Fraction(3, 40)),
                                                                       pm.Coefficient(Fraction(-1, 20)))
        if not classes_ok:
            bad.append("classes")
        if not operators_ok:
            bad.append("operators")
        geo = out["geometry"]
        geometry_ok = exp["evaluate_ok"] and geo.checks == DENSE_CHECKS
        if c.lam is not None:
            geometry_ok &= out["certificate"] and out["rescaled"].row1_margin >= 0
            geometry_ok &= geo.min_jacobian.value > 0 and geo.min_arg_derivative.value > 0
        if not geometry_ok:
            bad.append("geometry")
        if c.golden:
            render_ok = (out["svg"] == (GOLDEN / "f2_render.svg").read_bytes()
                         and out["csv"] == (GOLDEN / "f2_render.csv").read_bytes())
        else:
            render_ok = digest(out["svg"]) == exp["svg"] and digest(out["csv"]) == exp["csv"]
        if not render_ok:
            bad.append("render")
        return bad

    def decompose(self, c, tr) -> None:
        decompose_grid(tr, c.F, DENSE, DENSE_CHECKS)

    def counts(self, c, exp, out) -> dict:
        reps = [*out["classes"], out["combo"], out["rescaled"]]
        for _, _, r1, r2 in out["products"]:
            reps += [r1, r2]
        return {
            **geometry_counts(c.F, DENSE, out["geometry"], DENSE_CHECKS),
            **membership_counts(reps),
            "phmio.bytes": sum(size for _, _, size in out["roundtrip"]),
            "render.bytes": len(out["svg"]) + len(out["csv"]),
        }


# --- cli-session -------------------------------------------------------------


@dataclass(eq=False)
class CliCase:
    command: str                  # metric name of the command
    argv: list[str]               # arguments after `python -m phmaps.cli`
    maps: dict = field(default_factory=dict)   # the maps behind the file arguments, for the oracle
    params: dict = field(default_factory=dict)


class CliSession:
    """One fresh `python -m phmaps.cli` process per op: start-up, imports and I/O."""

    name = "cli-session"
    stop_between_ops = True   # commands cost about the same, so the loop may stop mid-round
    child_process = True      # op times are scaled by a bare interpreter's start-up

    def __init__(self):
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.stdout = self.stderr = None
        self.peak_rss_kb = 0   # largest peak RSS of any CLI child

    def build(self, seed: int, workdir: Path):
        self.stdout = str(workdir / "stdout.txt")
        self.stderr = str(workdir / "stderr.txt")
        rng = random.Random(seed)
        lam = Fraction(rng.randint(10, 100), 100)
        member = sampling.random_member(rng, rng.randint(1, 3), lam, normalized=True)
        perturbed = sampling.random_perturbation(rng, member, pm.delta_bound(member, lam))
        degree = rng.randint(8, 32)
        files = {
            "f1.phm": pm.example_F1(),
            "f2.phm": pm.example_F2(),
            "h8.phm": pm.half_plane_map(8),
            "hN.phm": pm.half_plane_map(degree),
            "member.phm": member,
            "perturbed.phm": perturbed,
        }
        for fname, F in files.items():
            pm.save_map(F, workdir / fname)

        def path(fname):
            return str(workdir / fname)

        ext = {"n": rng.randint(2, 12), "k": rng.randint(1, 3), "lam": Fraction(rng.randint(0, 100), 100),
               "kind": rng.choice("ab")}
        ext["p"] = ext["k"] + rng.randint(0, 1)
        cases = [
            CliCase("catalog", ["catalog", "half-plane", "-N", str(degree)], params={"N": degree}),
            CliCase("extremal", ["extremal", "--n", str(ext["n"]), "--k", str(ext["k"]),
                                 "--lambda", pm.format_scalar(ext["lam"]), "--kind", ext["kind"],
                                 "-p", str(ext["p"])], params=ext),
            CliCase("check_hs_lambda", ["check", "--class", "hs-lambda", "--lambda", "2/3", path("f1.phm")]),
            CliCase("check_hs", ["check", "--class", "hs", path("member.phm")], maps={"F": member}),
            CliCase("check_hc", ["check", "--class", "hc", path("f1.phm")], maps={"F": files["f1.phm"]}),
            CliCase("convolve", ["convolve", path("f1.phm"), path("h8.phm")]),
            CliCase("iconvolve", ["iconvolve", path("member.phm"), path("hN.phm")],
                    maps={"F": member, "G": files["hN.phm"]}),
            CliCase("neighborhood", ["neighborhood", path("member.phm"), path("perturbed.phm"),
                                     "--lambda", pm.format_scalar(lam)],
                    maps={"F": member, "G": perturbed}, params={"lam": lam}),
            CliCase("verify_starlike", ["verify", path("member.phm"), "--suite", "starlike"], maps={"F": member}),
            CliCase("verify_all", ["verify", path("f1.phm"), "--suite", "all", "--lambda", "2/3"]),
            CliCase("render", ["render", path("f2.phm"), "-o", path("out.svg"), "--csv", path("out.csv"),
                               "--rings", "4", "--rays", "8", "--rmax", "0.9", "--samples", "64"],
                    params={"svg": path("out.svg"), "csv": path("out.csv")}),
        ]
        # verify_all, the slowest command, runs twice per round, so that p90
        # falls among its runs and not on the edge between two commands.
        return cases, list(range(len(cases))) + [9]

    def expect(self, c) -> dict:
        """Expected exit code and stdout, from the library (and the goldens)."""
        f1, h8 = pm.example_F1(), pm.half_plane_map(8)
        cmd = c.command
        if cmd == "catalog":
            return {"exit": 0, "stdout": pm.serialize_map(pm.half_plane_map(c.params["N"])).decode()}
        if cmd == "extremal":
            e = c.params
            spec = pm.ExtremalSpec(n=e["n"], k=e["k"], lam=e["lam"],
                                   kind="analytic" if e["kind"] == "a" else "antianalytic")
            return {"exit": 0, "stdout": pm.serialize_map(pm.extremal_point(spec, e["p"])).decode()}
        if cmd == "check_hs_lambda":
            return {"exit": 0, "stdout": (GOLDEN / "f1_check_transcript.txt").read_text()}
        if cmd in ("check_hs", "check_hc"):
            rep = pm.membership(c.maps["F"], pm.hs() if cmd == "check_hs" else pm.hc())
            return {"exit": 0 if rep.member else 1, "stdout": rep.to_kv() + "\n"}
        if cmd == "convolve":
            return {"exit": 0, "stdout": pm.serialize_map(pm.convolve(f1, h8)).decode()}
        if cmd == "iconvolve":
            return {"exit": 0, "stdout": pm.serialize_map(pm.integral_convolve(c.maps["F"], c.maps["G"])).decode()}
        if cmd == "neighborhood":
            rep = pm.neighborhood_report(c.maps["F"], c.maps["G"], c.params["lam"])
            return {"exit": 0 if rep.inside else 1, "stdout": rep.to_kv() + "\n"}
        if cmd == "verify_starlike":
            rep = pm.verify_geometry(c.maps["F"], GRID, ("starlike",))
            verdict = "true" if rep.passed() else "false"
            return {"exit": 0 if rep.passed() else 1, "stdout": f"{rep.to_kv()}\nsuite_passed={verdict}\n"}
        if cmd == "verify_all":
            # f1 is not convex out to r=0.995, so the suite fails with exit 1.
            rep = pm.verify_geometry(f1, GRID)
            verdict = "true" if rep.passed() else "false"
            return {"exit": 0 if rep.passed() else 1, "prefix": rep.to_kv() + "\n",
                    "suffix": f"distortion_ok=true\nsuite_passed={verdict}\n"}
        if cmd == "render":
            return {"exit": 0, "stdout": "", "svg": digest((GOLDEN / "f2_render.svg").read_bytes()),
                    "csv": digest((GOLDEN / "f2_render.csv").read_bytes())}
        raise ValueError(f"unknown command {cmd}")

    def op(self, c, tr):
        with tr.span(f"cli.{c.command}"):
            code, rss_kb = run_process(["-m", "phmaps.cli", *c.argv], self.env, self.stdout, self.stderr)
        self.peak_rss_kb = max(self.peak_rss_kb, rss_kb)
        return code

    def check(self, c, exp, out) -> list[str]:
        code = out
        with open(self.stdout, encoding="utf-8") as fh:
            text = fh.read()
        ok = code == exp["exit"]
        if "stdout" in exp:
            ok &= text == exp["stdout"]
        else:
            ok &= text.startswith(exp["prefix"]) and text.endswith(exp["suffix"])
        if c.command == "render":
            for key in ("svg", "csv"):
                with open(c.params[key], "rb") as fh:
                    ok &= digest(fh.read()) == exp[key]
        return [] if ok else ["cli"]

    def decompose(self, c, tr) -> None:
        pass

    def counts(self, c, exp, out) -> dict:
        return {f"cli.exit_{out}": 1}


def run_process(args, env, stdout_path, stderr_path):
    """Run `python <args>` to completion; return (exit code, peak RSS in KiB)."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, stdout_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss


WORKLOADS = {w.name: w for w in (VerifyMembers, VerifyHalfPlane, PaperDeck, CliSession)}


def make_workdir(tag: str) -> Path:
    path = Path(__file__).resolve().parent / "out" / f"work-{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path

"""End-to-end acceptance checks.

One test per shipped guarantee, each with an explicit runtime budget and a
printed PASS line.  These are intentionally redundant with the per-module
suites: they pin down the headline properties in one place, at the stated
tolerances, on the benchmark-scale instances.
"""

import time

import numpy as np
import pytest
from click.testing import CliRunner

from barrierpd.baselines import BaselineConfig, dual_fb_run, pdhgm_run
from barrierpd.barrier import (
    RankOneConstraint,
    barrier_gradient,
    barrier_value,
    central_path_solve,
    check_interior_monotonicity,
    check_soc_extension_bound,
    check_soc_pair_monotonicity,
    det_sandwich_bounds,
    min_eig_M,
)
from barrierpd.cli import main as cli_main
from barrierpd.imaging import DenoiseProblem, add_gaussian_noise, synthetic_image
from barrierpd.jordan import (
    SpinElement,
    det,
    identity,
    inner,
    inverse,
    jordan_product,
    norm,
    quadratic_rep_apply,
)
from barrierpd.pedi import StepConfig, initial_state, pedi_run, step_rule_general, step_rule_soc
from barrierpd.pgm import write_pgm
from conftest import rand_admissible_c, rand_constraint, rand_spin, sclp_optimal_pair


def report(name, detail):
    print(f"PASS {name}: {detail}")


def elapsed_ok(t0, budget, name):
    dt = time.time() - t0
    assert dt < budget, f"{name} exceeded runtime budget: {dt:.1f}s > {budget}s"
    return dt


def test_acceptance_01_jordan_identity_suite():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    rtol = 1e-10
    worst = 0.0
    for m in (1, 2, 5, 50):
        for _ in range(1000):
            x = rand_spin(rng, m, interior=True)
            y = rand_spin(rng, m)
            w = rand_spin(rng, m)
            x2 = jordan_product(x, x)
            # fundamental formula
            r = norm(jordan_product(x2, jordan_product(x, y)) - jordan_product(x, jordan_product(x2, y)))
            s = 1.0 + norm(x) ** 3 * norm(y)
            worst = max(worst, r / s)
            # quadratic presentation identities
            r = norm(quadratic_rep_apply(x, inverse(x)) - x) / (1.0 + norm(x))
            worst = max(worst, r)
            r = norm(quadratic_rep_apply(x, identity(m)) - x2) / (1.0 + norm(x2))
            worst = max(worst, r)
            r = abs(det(quadratic_rep_apply(x, y)) - det(x) ** 2 * det(y))
            worst = max(worst, r / (1.0 + abs(det(x) ** 2 * det(y))))
            # trace-form associativity
            r = abs(inner(jordan_product(x, y), w) - inner(y, jordan_product(x, w)))
            worst = max(worst, r / (1.0 + norm(x) * norm(y) * norm(w)))
    assert worst <= rtol
    dt = elapsed_ok(t0, 5.0, "jordan suite")
    report("jordan identity suite", f"worst residual {worst:.2e} over 4x1000 instances in {dt:.1f}s")


def test_acceptance_02_barrier_gradient_fd():
    t0 = time.time()
    rng = np.random.default_rng(7)
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 8))
        x = rand_spin(rng, m, interior=True)
        g = 2.0 * barrier_gradient(x).as_array()  # coordinate gradient
        coords = x.as_array()
        for k in range(1 + m):
            ek = np.zeros(1 + m)
            ek[k] = h
            fd = (
                barrier_value(SpinElement.from_array(coords + ek))
                - barrier_value(SpinElement.from_array(coords - ek))
            ) / (2 * h)
            worst = max(worst, abs(fd - g[k]) / max(abs(g[k]), 1e-8))
    assert worst <= 1e-5
    dt = elapsed_ok(t0, 2.0, "gradient fd")
    report("barrier gradient vs finite differences", f"max rel err {worst:.2e} in {dt:.1f}s")


def test_acceptance_03_central_path_residuals_and_sandwich():
    t0 = time.time()
    rng = np.random.default_rng(31)
    worst_res = 0.0
    for mu in (1.0, 1e-3, 1e-6, 1e-8):
        for _ in range(50):
            m = int(rng.integers(1, 8))
            constraint = rand_constraint(rng, m)
            # offsets at the scale of mu keep the absolute residual bound
            # attainable in double precision
            c = rand_admissible_c(rng, constraint.a, scale=mu)
            pt = central_path_solve(constraint, c, mu)
            res = norm(jordan_product(pt.y, pt.d) - mu * identity(m))
            worst_res = max(worst_res, res / mu)
            lower, val, upper = det_sandwich_bounds(constraint, pt)
            slack = 1e-9 * max(abs(val), mu**2)
            assert lower - slack <= val <= upper + slack
    assert worst_res <= 1e-10
    dt = elapsed_ok(t0, 2.0, "central path")
    report("central-path residuals + determinant sandwich", f"worst residual {worst_res:.2e}*mu in {dt:.1f}s")


def test_acceptance_04_monotonicity_validators():
    t0 = time.time()
    rng = np.random.default_rng(41)
    # boundary instance solved by hand: a = e in E_2, b0 = 2, c = (0, 1)
    hand = RankOneConstraint(identity(1), 2.0)
    hand_c = SpinElement(0.0, np.array([1.0]))
    hand_y = SpinElement(1.0, np.array([-1.0]))
    hand_d = SpinElement(1.0, np.array([1.0]))
    for mu in (1.0, 1e-2):
        pt = central_path_solve(hand, hand_c, mu)
        assert check_soc_extension_bound(pt, hand_y, hand_d, hand, hand_c, hand_c) >= -1e-10

    worst = 0.0
    for _ in range(500):
        m = int(rng.integers(1, 6))
        # interior pair
        y = rand_spin(rng, m, interior=True)
        yp = rand_spin(rng, m, interior=True)
        scale = (1.0 + norm(y - yp) ** 2 / max(det(y) * det(yp), 1e-12)) ** 2
        worst = min(worst, check_interior_monotonicity(y, yp) / scale)
        # same-mu solution pair
        constraint = rand_constraint(rng, m)
        mu = 10.0 ** rng.uniform(-3, 0)
        p1 = central_path_solve(constraint, rand_admissible_c(rng, constraint.a), mu)
        p2 = central_path_solve(constraint, rand_admissible_c(rng, constraint.a), mu)
        scale = (1.0 + norm(p1.y) * norm(p1.d) / mu + norm(p2.y) * norm(p2.d) / mu) ** 2
        worst = min(worst, check_soc_pair_monotonicity(p1, p2) / scale)
        # boundary-extended bound against a cold optimum
        opt_c = rand_admissible_c(rng, constraint.a)
        oy, od, _ = sclp_optimal_pair(constraint, opt_c)
        pt = central_path_solve(constraint, rand_admissible_c(rng, constraint.a), mu)
        scale = (1.0 + norm(pt.y) * norm(pt.d) + norm(oy) * norm(od)) ** 2
        worst = min(worst, check_soc_extension_bound(pt, oy, od, constraint, pt.d - pt.z * constraint.a, opt_c) / scale)
    assert worst >= -1e-10
    dt = elapsed_ok(t0, 10.0, "monotonicity")
    report("monotonicity validators", f"worst scaled residual {worst:.2e} over 3x500 instances in {dt:.1f}s")


def test_acceptance_05_central_path_rate():
    t0 = time.time()
    hand = RankOneConstraint(identity(1), 2.0)
    hand_c = SpinElement(0.0, np.array([1.0]))
    hand_y = SpinElement(1.0, np.array([-1.0]))
    hand_d = SpinElement(1.0, np.array([1.0]))
    lam = min_eig_M(hand_y, hand_d, hand)
    assert lam == pytest.approx(1.0)
    ratios = []
    for mu in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        pt = central_path_solve(hand, hand_c, mu)
        dist = norm(pt.y - hand_y)
        bound = 2.0 * mu * np.sqrt(2.0) / lam
        assert dist <= bound
        ratios.append(dist / bound)
    dt = elapsed_ok(t0, 2.0, "rate check")
    report("central-path convergence rate", f"dist/bound in [{min(ratios):.3f}, {max(ratios):.3f}] in {dt:.1f}s")


def test_acceptance_06_step_rule_asymptotics():
    t0 = time.time()
    cfg = StepConfig(opnorm_K=np.sqrt(8.0), b0=1.0)
    s = initial_state()
    phi5k = None
    for i in range(10000):
        s = step_rule_general(s, cfg)
        if s.iter == 5000:
            phi5k = s.phi
    ratio = (s.phi / 10000**2) / (phi5k / 5000**2)
    assert abs(ratio - 1.0) <= 0.05

    # clamped ||Kx|| >= L0 > 0 forces geometric growth of phi
    s = initial_state()
    L0 = 1.0
    phis = []
    for _ in range(300):
        s = step_rule_soc(s, L0, cfg)
        phis.append(s.phi)
    tail_growth = min(phis[i + 1] / phis[i] for i in range(150, 299))
    assert tail_growth > 1.0 + 1e-3
    dt = elapsed_ok(t0, 1.0, "step asymptotics")
    report(
        "step-rule asymptotics",
        f"phi_N/N^2 drift {abs(ratio - 1):.3%}, soc growth factor >= {tail_growth:.3f} in {dt:.1f}s",
    )


def _benchmark_problem(n, variant, alpha, sigma=6.15, seed=42):
    noisy = add_gaussian_noise(synthetic_image(n, n), sigma, seed)
    return DenoiseProblem(noisy, alpha, variant)


def test_acceptance_07_cross_solver_agreement():
    t0 = time.time()
    details = []
    for variant, alpha in (("tv", 0.01), ("h1", 5.0)):
        dp = _benchmark_problem(16, variant, alpha)
        sp = dp.saddle_problem()
        zeta = 0.9 / alpha**2
        cfg = StepConfig(opnorm_K=sp.opnorm_K, b0=alpha, theta=1000.0 / zeta)
        sols = {
            "pedi-general": pedi_run(sp, cfg, 20000, step_rule="general").x,
            "pedi-soc": pedi_run(sp, cfg, 20000, step_rule="soc").x,
            "pdhgm": pdhgm_run(dp, BaselineConfig.default_for(dp, max_iters=60000, gamma=0.3)).x,
            "dual-fb": dual_fb_run(dp, 60000).x,
        }
        names = list(sols)
        worst = 0.0
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                a, b = sols[names[i]], sols[names[j]]
                rel = np.linalg.norm(a - b) / np.linalg.norm(b)
                worst = max(worst, rel)
        assert worst <= 1e-6, f"{variant}: worst pairwise disagreement {worst:.2e}"
        details.append(f"{variant} worst {worst:.2e}")
    dt = elapsed_ok(t0, 60.0, "cross-solver agreement")
    report("cross-solver agreement (16x16)", "; ".join(details) + f" in {dt:.1f}s")


def test_acceptance_08_rate_reproduction_desk_scale():
    t0 = time.time()
    # linear convergence on H1 (nonzero optimal gradient, single cone)
    dp = _benchmark_problem(64, "h1", 5.0)
    ref = dual_fb_run(dp, 40000).x
    ref_sq = float(np.sum(ref**2))
    sp = dp.saddle_problem()
    cfg = StepConfig(opnorm_K=sp.opnorm_K, b0=dp.alpha)
    errs = []
    pedi_run(sp, cfg, 2000, step_rule="soc",
             callback=lambda i, x, y, s, m: errs.append(float(np.sum((x - ref) ** 2))))
    errs = np.array(errs)
    floor = max(errs.min() * 100.0, 1e-28 * ref_sq)
    idx = np.where(errs > floor)[0]
    idx = idx[idx >= 2]  # skip the burn-in
    assert idx.size >= 8, "too few pre-floor iterations for a fit"
    xs, ys = idx.astype(float), np.log(errs[idx])
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    r2 = 1.0 - np.sum((ys - pred) ** 2) / np.sum((ys - np.mean(ys)) ** 2)
    assert slope < 0.0
    assert r2 >= 0.9

    # O(1/N) squared-distance on TV under the general rule
    dp_tv = _benchmark_problem(64, "tv", 0.01)
    ref_tv = dual_fb_run(dp_tv, 40000).x
    sp_tv = dp_tv.saddle_problem()
    cfg_tv = StepConfig(opnorm_K=sp_tv.opnorm_K, b0=dp_tv.alpha)
    errs_tv = []
    pedi_run(sp_tv, cfg_tv, 10000,
             callback=lambda i, x, y, s, m: errs_tv.append(float(np.sum((x - ref_tv) ** 2))))
    n = np.arange(1, len(errs_tv) + 1)
    series = n * np.array(errs_tv)
    early = series[99:1000].max()
    late = series[999:].max()
    assert late <= 2.0 * early, "N*err^2 grows: O(1/N) rate violated"
    dt = elapsed_ok(t0, 120.0, "rate reproduction")
    report(
        "desk-scale rates (64x64)",
        f"h1 slope {slope:.3e} (R2 {r2:.3f}); tv sup N*err^2 late/early {late / early:.2f} in {dt:.1f}s",
    )


def test_acceptance_09_gap_threshold_ordering():
    t0 = time.time()
    dp = _benchmark_problem(64, "h1", 5.0)
    gap0 = 0.5 * float(np.sum(dp.z.flat() ** 2))
    thresh = gap0 * 10.0 ** (-15.0)  # -150 dB relative to the initial gap

    def crossing(gaps):
        for i, g in enumerate(gaps):
            if g <= thresh:
                return i + 1
        return None

    gaps_fb = []
    dual_fb_run(dp, 2000, callback=lambda i, x, p, m: gaps_fb.append(dp.duality_gap(x, p)))
    sp = dp.saddle_problem()
    cfg = StepConfig(opnorm_K=sp.opnorm_K, b0=dp.alpha)
    gaps_pedi = []
    pedi_run(sp, cfg, 2000, step_rule="soc",
             callback=lambda i, x, y, s, m: gaps_pedi.append(dp.duality_gap(x, dp.unlifted_dual(y))))
    gaps_cp = []
    pdhgm_run(dp, BaselineConfig.default_for(dp, max_iters=8000, gamma=0.3),
              callback=lambda i, x, p, m: gaps_cp.append(dp.duality_gap(x, p)))

    c_fb, c_pedi, c_cp = crossing(gaps_fb), crossing(gaps_pedi), crossing(gaps_cp)
    assert c_fb is not None and c_pedi is not None and c_cp is not None
    assert c_fb < c_pedi < c_cp
    dt = elapsed_ok(t0, 60.0, "gap ordering")
    report("H1 gap-threshold ordering", f"dual-fb {c_fb} < pedi {c_pedi} < pdhgm {c_cp} in {dt:.1f}s")


def test_acceptance_10_cli_round_trip(tmp_path):
    t0 = time.time()
    img_path = tmp_path / "img.pgm"
    write_pgm(synthetic_image(32, 32), img_path)
    runner = CliRunner()
    base = [
        "--image", str(img_path), "--variant", "h1", "--alpha", "5",
        "--sigma", "6.15", "--seed", "3", "--out", str(tmp_path / "bench"),
    ]
    r = runner.invoke(cli_main, ["make-target"] + base + ["--target-iters", "30000"])
    assert r.exit_code == 0, r.output

    def one_round():
        r = runner.invoke(cli_main, ["run"] + base + [
            "--solvers", "pedi-general,pedi-soc,pdhgm,dual-fb",
            "--iters", "300", "--target", "load",
        ])
        assert r.exit_code == 0, r.output
        logs = [str(tmp_path / "bench" / f"{s}.csv") for s in ("pedi-general", "pedi-soc", "pdhgm", "dual-fb")]
        rt = runner.invoke(cli_main, ["table"] + logs + ["--threshold", "gap:-50", "--threshold", "gap:-150"])
        assert rt.exit_code == 0, rt.output
        stripped_csvs = []
        for log in logs:
            rows = []
            with open(log) as f:
                lines = f.read().strip().splitlines()[1:]
            for line in lines:
                parts = line.split(",")
                rows.append((parts[0], parts[2], parts[3], parts[4]))
            stripped_csvs.append(rows)
        return rt.output, stripped_csvs

    table1, csvs1 = one_round()
    table2, csvs2 = one_round()
    assert csvs1 == csvs2, "CSV logs not deterministic"

    def iter_cells(tbl):
        return [ln.split()[1:3] for ln in tbl.strip().splitlines()[1:]]

    assert iter_cells(table1) == iter_cells(table2), "table not stable across reruns"
    dt = elapsed_ok(t0, 30.0, "cli round trip")
    report("CLI make-target/run/table round trip", f"stable 4-solver table in {dt:.1f}s")

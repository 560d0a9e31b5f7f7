"""End-to-end acceptance suite.

One test per criterion; each prints a single pass/fail line (run with
pytest -s to see the lines for passing criteria as well).  Long
scenarios are shared through module-scoped fixtures.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from pedflow import analysis as an
from pedflow import cli
from pedflow import models as md
from pedflow import multilane as ml
from pedflow import pressure as pr
from pedflow import solver as sv

SIM = md.ModelSpec.sim_flux(0.7)
SIGMA = 1e-2


def _report(num, name, ok, detail=""):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" :: {detail}"
    print(line, flush=True)
    assert ok, line


def _scenario(tmp_factory, text, name):
    base = tmp_factory.mktemp(name)
    path = base / f"{name}.cfg"
    path.write_text(text)
    cfg = cli.load_config(path)
    t0 = time.time()
    result = cli.run_scenario(cfg, base / "out")
    return cfg, result, time.time() - t0


FIG3 = """
model.kind = sim_flux
model.a = 0.7
grid.n_cells = 512
grid.dx = 1.0
scheme.dt = 0.2
scheme.delta = 0.4
initial.rho_plus = 0.35
initial.rho_minus = 0.3
noise.sigma = 1e-2
noise.seed = 1234
run.t_end = 500
run.snapshot_every = 100
"""

# Domain length is a free parameter of the long cluster runs; 256 cells
# let the coarsening finish within the pinned horizon.  The stability
# guard must admit the clustered phase, where the combined advective +
# diffusive number sits near 0.63.
FIG4 = """
model.kind = sim_flux
model.a = 0.7
grid.n_cells = 256
grid.dx = 1.0
scheme.dt = 0.2
scheme.delta = 0.4
scheme.cfl_guard = 0.95
initial.rho_plus = 0.5
initial.rho_minus = 0.3
noise.sigma = 1e-2
noise.seed = 1234
run.t_end = 10000
run.snapshot_every = 500
"""

FIG5_LOW_DIFFUSION = """
model.kind = sim_flux
model.a = 0.7
grid.n_cells = 256
grid.dx = 1.0
scheme.dt = 0.2
scheme.delta = 0.4
scheme.cfl_guard = 0.95
initial.rho_plus = 0.4
initial.rho_minus = 0.3
noise.sigma = 1e-2
noise.seed = 1234
run.t_end = 5000
run.snapshot_every = 500
"""

# dt = 0.1 keeps the explicit diffusion update (2*delta*dt/dx^2 = 0.4)
# inside the default guard.
FIG5_HIGH_DIFFUSION = """
model.kind = sim_flux
model.a = 0.7
grid.n_cells = 256
grid.dx = 1.0
scheme.dt = 0.1
scheme.delta = 2.0
initial.rho_plus = 0.4
initial.rho_minus = 0.3
noise.sigma = 1e-2
noise.seed = 1234
run.t_end = 5000
run.snapshot_every = 500
"""


@pytest.fixture(scope="module")
def fig3(tmp_path_factory):
    return _scenario(tmp_path_factory, FIG3, "fig3")


@pytest.fixture(scope="module")
def fig4(tmp_path_factory):
    return _scenario(tmp_path_factory, FIG4, "fig4")


@pytest.fixture(scope="module")
def fig5_low(tmp_path_factory):
    return _scenario(tmp_path_factory, FIG5_LOW_DIFFUSION, "fig5_low")


@pytest.fixture(scope="module")
def fig5_high(tmp_path_factory):
    return _scenario(tmp_path_factory, FIG5_HIGH_DIFFUSION, "fig5_high")


def test_criterion_01_hyperbolicity_classification():
    t0 = time.time()
    hmap = an.hyperbolicity_map(SIM, 200)
    elapsed = time.time() - t0

    def classify(rp, rm):
        i = int(np.argmin(np.abs(hmap.rho_plus - rp)))
        j = int(np.argmin(np.abs(hmap.rho_minus - rm)))
        return bool(hmap.hyperbolic[i, j])

    boundary = hmap.boundary_points
    dist = float(np.sqrt((boundary[:, 0] - 0.4) ** 2 + (boundary[:, 1] - 0.3) ** 2).min())
    ok = (
        classify(0.35, 0.3)
        and not classify(0.5, 0.3)
        and dist < 0.05
        and elapsed < 5.0
    )
    _report(
        1,
        "hyperbolicity classification",
        ok,
        f"boundary distance of (0.4,0.3) = {dist:.4f}, runtime {elapsed:.2f}s",
    )


def test_criterion_02_stable_relaxation(fig3):
    cfg, result, elapsed = fig3
    final = result.run.final.values
    dev = max(
        float(np.abs(final[0] - 0.35).max()), float(np.abs(final[1] - 0.3).max())
    )
    ok = dev < SIGMA and elapsed < 30.0
    _report(
        2,
        "stable relaxation to the uniform state",
        ok,
        f"final sup-norm deviation {dev:.2e} < {SIGMA:.0e}, runtime {elapsed:.1f}s",
    )


def test_criterion_03_cluster_formation_and_coarsening(fig4):
    cfg, result, elapsed = fig4
    series = result.clusters
    by_time = {t: m for (t, m, _) in series}
    at_2000 = by_time[2000.0]
    final_t, final_metrics, _ = series[-1]
    counts_late = [m.count for (t, m, _) in series if t >= 5000.0]
    drifts_late = [
        d for (t, m, d) in series if d is not None and t >= 7500.0
    ]
    formed = at_2000.count >= 1 and at_2000.peak_total >= 1.0
    small_final = final_metrics.count <= 2
    monotone = all(a >= b for a, b in zip(counts_late, counts_late[1:]))
    leftward = len(drifts_late) > 0 and float(np.mean(drifts_late)) < 0.0
    ok = formed and small_final and monotone and leftward and elapsed < 300.0
    _report(
        3,
        "cluster formation and coarsening",
        ok,
        f"count(2000)={at_2000.count} peak={at_2000.peak_total:.3f}, "
        f"count({final_t:.0f})={final_metrics.count}, late counts {counts_late}, "
        f"mean late drift {np.mean(drifts_late):.2e}, runtime {elapsed:.0f}s",
    )


def test_criterion_04_diffusive_stabilization(fig5_low, fig5_high):
    _, low, _ = fig5_low
    _, high, _ = fig5_high
    low_final_count = low.clusters[-1][1].count
    clustered = low_final_count >= 1
    high_final = high.run.final.values
    high_count = high.clusters[-1][1].count
    dev = max(
        float(np.abs(high_final[0] - 0.4).max()),
        float(np.abs(high_final[1] - 0.3).max()),
    )
    ok = clustered and high_count == 0 and dev < 2 * SIGMA
    _report(
        4,
        "large diffusivity prevents cluster formation",
        ok,
        f"delta=0.4: final count {low_final_count}; "
        f"delta=2: count {high_count}, deviation {dev:.2e} < {2*SIGMA:.0e}",
    )


def test_criterion_05_dispersion_vs_solver_growth():
    rho_plus, rho_minus, diffusivity = 0.5, 0.3, 0.4
    speeds = an.diffusive_speeds(SIM, rho_plus, rho_minus)
    report = an.instability_summary(speeds, diffusivity)
    wavelengths = 12
    length = 2.0 * np.pi * wavelengths / report.dominant_xi
    n = 768
    grid = sv.Grid1D(n_cells=n, dx=length / n)
    xi = 2.0 * np.pi * wavelengths / grid.length  # exactly representable mode
    nu_predicted = float(an.growth_rate(speeds, diffusivity, xi))

    # seed the growing eigenvector of the Fourier symbol at amplitude 1e-6
    symbol = xi * speeds.jacobian - 1j * diffusivity * xi**2 * np.eye(2)
    eigvals, eigvecs = np.linalg.eig(symbol)
    vec = eigvecs[:, int(np.argmax(eigvals.imag))]
    vec = vec / vec[0]
    amp0 = 1e-6
    pert = amp0 * np.real(np.outer(vec, np.exp(1j * xi * grid.x)))
    field = sv.StateField(np.stack([rho_plus + pert[0], rho_minus + pert[1]]))
    params = sv.SchemeParams(dt=0.01, delta_diff=diffusivity)
    res = sv.run(SIM, field, grid, params, t_end=45.0, snapshot_every=0.5)

    ts, amps = [], []
    for snap in res.snapshots:
        amps.append(
            float(np.abs(np.fft.rfft(snap.values[0] - rho_plus))[wavelengths]) * 2 / n
        )
        ts.append(snap.time)
    ts, amps = np.array(ts), np.array(amps)
    window = amps < 1e-3
    slope = float(np.polyfit(ts[window], np.log(amps[window]), 1)[0])
    rel_err = abs(slope - nu_predicted) / nu_predicted
    ok = rel_err < 0.15
    _report(
        5,
        "seeded-mode growth matches the dispersion relation",
        ok,
        f"measured {slope:.5f} vs predicted {nu_predicted:.5f} (rel err {rel_err:.2%})",
    )


def _golden_max(fn, lo, hi, iters=200):
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fn(d)
    x = 0.5 * (a + b)
    return x, fn(x)


def _bisect_zero(fn, lo, hi, iters=200):
    flo = fn(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if (fn(mid) > 0) == (flo > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_06_closed_form_identities():
    rng = np.random.default_rng(2024)
    checked = 0
    worst = 0.0
    while checked < 20:
        rho_plus = rng.uniform(0.05, 0.9)
        rho_minus = rng.uniform(0.05, 0.95 - rho_plus)
        speeds = an.diffusive_speeds(SIM, rho_plus, rho_minus)
        delta = an.diffusive_discriminant(speeds)
        if delta >= 0:
            continue
        diffusivity = rng.uniform(0.1, 1.0)

        def nu(xi):
            return an.growth_rate(speeds, diffusivity, xi)

        hi = 0.5
        while nu(hi) > 0:
            hi *= 2.0
        ximax_scan = _bisect_zero(nu, 1e-9, hi)
        xidom_scan, numax_scan = _golden_max(nu, 0.0, ximax_scan)

        report = an.instability_summary(speeds, diffusivity)
        errs = (
            abs(ximax_scan - report.unstable_xi_max) / report.unstable_xi_max,
            abs(xidom_scan - report.dominant_xi) / report.dominant_xi,
            abs(numax_scan - report.max_growth_rate) / report.max_growth_rate,
        )
        worst = max(worst, *errs)
        checked += 1
    ok = worst < 1e-6
    _report(
        6,
        "closed-form band edge / dominant mode / peak growth",
        ok,
        f"20 random non-hyperbolic states, worst rel err {worst:.2e}",
    )


def test_criterion_07_eigen_oracles():
    rng = np.random.default_rng(99)
    worst_char = 0.0
    checked = 0
    while checked < 1000:
        c_u_plus, c_u_minus = rng.uniform(-2, 2, 2)
        c_pm, c_mp = rng.uniform(0, 2, 2)
        rho_plus, rho_minus = rng.uniform(0, 1, 2)
        # c_pp = c_u+, c_pm = -rho+ c+-, c_mm = -c_u-, c_mp = -rho- c-+
        speeds = an.DiffusiveSpeeds(
            c_pp=c_u_plus,
            c_pm=-rho_plus * c_pm,
            c_mp=-rho_minus * c_mp,
            c_mm=-c_u_minus,
        )
        if an.diffusive_discriminant(speeds) < 0:
            continue
        matrix = np.array(
            [
                [c_u_plus, -rho_plus * c_pm],
                [rho_minus * c_mp, c_u_minus],
            ]
        )
        expected = np.sort(np.linalg.eigvals(matrix).real)
        got = an.instability_summary(speeds, 0.0).eigenvalues
        worst_char = max(
            worst_char, abs(got[0] - expected[0]), abs(got[1] - expected[1])
        )
        checked += 1

    worst_disp = 0.0
    for _ in range(1000):
        speeds = an.DiffusiveSpeeds(
            c_pp=rng.uniform(-2, 2),
            c_pm=rng.uniform(-2, 0),
            c_mp=rng.uniform(-2, 0),
            c_mm=rng.uniform(-2, 2),
        )
        xi = rng.uniform(-3, 3)
        diffusivity = rng.uniform(0, 1)
        symbol = xi * speeds.jacobian - 1j * diffusivity * xi**2 * np.eye(2)
        got = [xi * lam for lam in an.dispersion(speeds, diffusivity, xi)]
        want = list(np.linalg.eigvals(symbol))
        straight = max(abs(got[0] - want[0]), abs(got[1] - want[1]))
        crossed = max(abs(got[0] - want[1]), abs(got[1] - want[0]))
        worst_disp = max(worst_disp, min(straight, crossed))
    ok = worst_char < 1e-10 and worst_disp < 1e-10
    _report(
        7,
        "eigenvalue oracles (characteristics and Fourier symbol)",
        ok,
        f"worst errors: characteristics {worst_char:.2e}, dispersion {worst_disp:.2e}",
    )


def test_criterion_08_conservation(fig3, fig4):
    worst = 0.0
    for _, result, _ in (fig3, fig4):
        mass = result.run.audit.mass
        n_steps = mass.shape[0]
        drift = np.abs(mass[-1] - mass[0]) / np.abs(mass[0])
        budget = 1e-12 * max(1.0, n_steps / 1e4)
        worst = max(worst, float(drift.max() / budget))
    single_ok = worst <= 1.0

    # multilane: per-direction totals and source cancellation
    rng = np.random.default_rng(8)
    params_p = pr.PressureParams(M=1.0, m=2.0, eps=1e-3, gamma=2.0, rho_star=1.0)
    model = md.ModelSpec.two_way_car(V=1.0, pressure=params_p)
    grid = sv.Grid1D(n_cells=32, dx=1.0)
    scheme = sv.SchemeParams(dt=0.05, delta_diff=0.1)
    lane_drift = 0.0
    source_residual = 0.0
    for K in range(1, 9):
        lanes = [
            np.stack([rng.uniform(0.05, 0.3, 32), rng.uniform(0.05, 0.3, 32)])
            for _ in range(K)
        ]
        U, offsets = np.stack(lanes, axis=1), None
        rates = ml.LaneChangeRates(lambda0=0.5)
        before = ml.lane_densities(model, U).sum(axis=(0, 2)) * grid.dx
        for k in range(25):
            U, offsets, _ = ml.coupled_step(model, rates, U, offsets, grid, scheme,
                                            k * scheme.dt)
        after = ml.lane_densities(model, U).sum(axis=(0, 2)) * grid.dx
        lane_drift = max(lane_drift, float(np.abs(after / before - 1.0).max()))

        rho = rng.uniform(0.0, 0.5, (K, 2, 32))
        up = rng.uniform(0, 1, (K, 2, 32))
        down = rng.uniform(0, 1, (K, 2, 32))
        w = rng.uniform(0.5, 1.5, (K, 2, 32))
        S = ml.density_sources(rho, up, down)
        R = ml.density_sources(rho * w, up, down)
        scale = max(float(np.abs(up * rho).max()), float(np.abs(down * rho).max()))
        source_residual = max(
            source_residual,
            float(np.abs(S.sum(axis=0)).max()) / (scale * K),
            float(np.abs(R.sum(axis=0)).max()) / (scale * K * float(w.max())),
        )
    lanes_ok = lane_drift < 1e-12 and source_residual < 1e-13
    ok = single_ok and lanes_ok
    _report(
        8,
        "exact discrete conservation",
        ok,
        f"single-run drift {worst:.2e} of budget, lane drift {lane_drift:.2e}, "
        f"source residual {source_residual:.2e}",
    )


def _lone_stream(params, rho):
    """The one-way offset: the plus offset of a lone stream."""
    return pr.two_way_offsets(params, pr.LONE_STREAM, pr.LONE_STREAM, rho, 0.0)[0]


def test_criterion_09_pressure_law():
    params = pr.PressureParams(M=1.0, m=2.0, eps=1e-3, gamma=2.0, rho_star=1.0)
    q = pr.CrowdingWeight(kind="affine", beta=1.0)
    rng = np.random.default_rng(17)

    worst_rec = 0.0
    for _ in range(500):
        rho_plus = rng.uniform(0.01, 0.7)
        rho_minus = rng.uniform(0.01, 0.95 - rho_plus)
        bg = _lone_stream(replace(params, eps=0.0), rho_plus + rho_minus)
        q_plus = pr.two_way_pressure(params, q, rho_plus, rho_minus) - bg
        q_minus = pr.two_way_pressure(params, q, rho_minus, rho_plus) - bg
        lhs = q.value(rho_plus, 1.0) * q_plus
        rhs = q.value(rho_minus, 1.0) * q_minus
        worst_rec = max(worst_rec, abs(lhs - rhs) / max(abs(lhs), 1e-300))
    reciprocity_ok = worst_rec < 1e-12

    h = 1e-6
    worst_fd = 0.0
    for _ in range(200):
        rho_plus = rng.uniform(0.05, 0.5)
        rho_minus = rng.uniform(0.05, 0.75 - rho_plus)
        d1, d2 = pr.pressure_partials(params, q, rho_plus, rho_minus)
        fd1 = (
            pr.two_way_pressure(params, q, rho_plus + h, rho_minus)
            - pr.two_way_pressure(params, q, rho_plus - h, rho_minus)
        ) / (2 * h)
        fd2 = (
            pr.two_way_pressure(params, q, rho_plus, rho_minus + h)
            - pr.two_way_pressure(params, q, rho_plus, rho_minus - h)
        ) / (2 * h)
        worst_fd = max(worst_fd, abs(d1 / fd1 - 1.0), abs(d2 / fd2 - 1.0))
    partials_ok = worst_fd < 1e-5

    # the singular term overtakes the background only inside the predicted
    # band below the jam density, within a factor of 4 of its width
    band_ok = True
    band_detail = []
    for eps in (1e-2, 1e-3, 1e-4):
        for gamma in (2.0, 3.0):
            p_sweep = pr.PressureParams(M=1.0, m=2.0, eps=eps, gamma=gamma, rho_star=1.0)

            def excess(rho):
                singular = _lone_stream(replace(p_sweep, M=0.0), rho)
                return singular - _lone_stream(replace(p_sweep, eps=0.0), rho)

            crossing = _bisect_zero(lambda r: -excess(r), 0.2, 1.0 - 1e-9, iters=100)
            width = pr.crossover_width(p_sweep, p_sweep.rho_star)
            gap = 1.0 - crossing
            band_detail.append(f"eps={eps:g},gamma={gamma:g}: gap/width={gap/width:.2f}")
            if not (width / 4.0 <= gap <= 4.0 * width):
                band_ok = False
    ok = reciprocity_ok and partials_ok and band_ok
    _report(
        9,
        "pressure law identities",
        ok,
        f"reciprocity {worst_rec:.2e}, partials vs FD {worst_fd:.2e}, "
        + "; ".join(band_detail),
    )


def test_criterion_10_one_way_bound_preservation():
    params_p = pr.PressureParams(M=1.0, m=2.0, eps=1e-3, gamma=2.0, rho_star=1.0)
    model = md.ModelSpec.one_way_ar(params_p)
    grid = sv.Grid1D(n_cells=512, dx=1.0)
    x = grid.x
    rho0 = 0.55 + 0.35 * np.sin(2.0 * np.pi * x / grid.length)  # max 0.9 = 0.9*rho_star
    w0 = 1.1 + 0.1 * np.cos(4.0 * np.pi * x / grid.length)  # in [1.0, 1.2]
    field = sv.StateField(np.stack([rho0, rho0 * w0]))
    params = sv.SchemeParams(dt=0.025, delta_diff=0.0)
    res = sv.run(model, field, grid, params, t_end=100.0)
    rho_bound_ok = bool(res.audit.max_rho.max() < params_p.rho_star)
    _, w_final, _ = md.ar_primitives(model, res.final.values)
    drift_hi = (w_final.max() - w0.max()) / w0.max()
    drift_lo = (w0.min() - w_final.min()) / w0.min()
    w_ok = drift_hi < 0.01 and drift_lo < 0.01
    ok = rho_bound_ok and w_ok
    _report(
        10,
        "one-way invariant region",
        ok,
        f"max density {res.audit.max_rho.max():.4f} < 1, "
        f"w drift (+{drift_hi:.2e}, -{drift_lo:.2e}) < 1%",
    )

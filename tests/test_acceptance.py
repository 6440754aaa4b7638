"""Acceptance criteria.

One test per criterion, each printing a PASS/FAIL line with the measured
values (run with -s or read captured output). The expensive fixture runs
the shipped 54-case campaign once at jobs=4 and the criteria read its
persisted metrics and controller logs.

Criterion 1 is expected to FAIL and is asserted faithfully anyway: the
predictor parameters are not identifiable from noise-free closed-loop data
(equivalent predictors fit the data identically once the measured loads
carry no innovation content), so the parameter-space error plateaus far
above the gate. The measured value is printed; the rest of the suite is
independent of it.
"""

import importlib.util
import json
import time
from pathlib import Path

import numpy as np
import pytest

from ipcsim.control import ControllerTuning, RepetitiveController, build_basis
from ipcsim.harness import (
    LoadCaseConfig,
    default_campaign,
    run_campaign,
    run_load_case,
)
from ipcsim.metrics import band_energy_ratio
from ipcsim.numerics import (
    RlsState,
    pinv,
    solve_dare,
    welch_psd,
)
from ipcsim.plant import (
    DisturbanceModel,
    FaultScenario,
    build_plant,
)
from reference import (
    PeriodicBuffer,
    assemble_lifted,
    coleman_forward,
    coleman_inverse,
    markov_blocks_from_xi,
    markov_oracle,
    markov_oracle_siso,
    predict_lifted,
    relative_errors,
    rls_update,
    series_azimuth,
    series_time,
    spectral_radius,
    step,
)

P, WINDOW = 100, 21
ONSET_ROT = 1000  # fault at 1000 s in the shipped campaign


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")


# ---------------------------------------------------------------------------
# campaign fixture (shared by criteria 3-7 and 10)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def campaign(tmp_path_factory):
    out = tmp_path_factory.mktemp("campaign")
    t0 = time.perf_counter()
    rep = run_campaign(default_campaign(), parallelism=4, out_dir=out)
    elapsed = time.perf_counter() - t0
    assert not rep.failed, [s.error for s in rep.failed]
    return {"report": rep, "out": out, "elapsed_s": elapsed,
            "metrics": rep.metrics_by_id()}


def groups_with(metrics, *tags):
    groups = sorted({m["group"] for m in metrics.values()
                     if all(t in m["group"] for t in tags)})
    assert groups, f"no campaign groups match {tags}"
    return groups


def metric_of(metrics, group, controller):
    return metrics[f"{group}-{controller}"]


def rsd_of(metrics, group, controller, which, blade):
    base = metric_of(metrics, group, "cpc")[which][f"blade{blade}"]["sd_y"]
    ours = metric_of(metrics, group, controller)[which][f"blade{blade}"]["sd_y"]
    return (base - ours) / base


# ---------------------------------------------------------------------------
# criterion 1 — identification oracle (expected red; see module docstring)
# ---------------------------------------------------------------------------

def test_criterion_01_identification_oracle():
    t0 = time.perf_counter()
    plant = build_plant()
    dist = DisturbanceModel(period=P, sigma_e=0.0, seed=3)  # noise-free
    fault = FaultScenario()
    tuning = ControllerTuning(warmup_rotations=51)  # excitation only, no control
    ctl = RepetitiveController(WINDOW, P, tuning, seed=12, rotations=50)
    n = 50 * P
    u = np.empty((n, 3))
    y = np.empty((n, 3))
    for j in range(50):
        rows = ctl.rotation_commands(j)
        for s in range(P):
            k = j * P + s
            u[k] = rows[s]
            y[k] = step(plant, u[k], dist, fault, k)
        ctl.finish_rotation(j, u, y)
    oracle = np.vstack([markov_oracle_siso(plant, WINDOW, b) for b in (1, 2, 3)])
    errs = relative_errors(ctl.engine, oracle)
    elapsed = time.perf_counter() - t0
    ok = bool(np.all(errs < 1e-2) and elapsed < 5.0)
    report(1, ok,
           f"noise-free restricted-excitation Markov error after 50 rotations = "
           f"{np.round(errs, 3)} (gate < 1e-2 each), runtime {elapsed:.2f} s (< 5 s). "
           "Without innovation content in the loads the predictor row is not "
           "identifiable: data-equivalent predictors exist, so the error plateaus.")
    assert elapsed < 5.0
    assert np.all(errs < 1e-2), (
        f"parameter-space identification error plateaus at {np.round(errs, 3)} "
        "on noise-free data (structural non-identifiability; red by design)")


# ---------------------------------------------------------------------------
# criterion 2 — predictor fidelity
# ---------------------------------------------------------------------------

def test_criterion_02_predictor_fidelity():
    plant = build_plant()
    blocks = markov_blocks_from_xi(markov_oracle(plant, WINDOW), WINDOW)
    lifted = assemble_lifted(blocks, P, WINDOW)
    rng = np.random.default_rng(3)
    dist = DisturbanceModel(period=P, sigma_e=0.0)
    n = 4 * P
    us = rng.normal(0.0, 1.0, size=(n, 3))
    ys = np.empty((n, 3))
    for k in range(n):
        ys[k] = step(plant, us[k], dist, FaultScenario(), k)
    k0 = 2 * P
    pred = predict_lifted(
        lifted,
        us[k0:k0 + P] - us[k0 - P:k0],
        ys[k0:k0 + P] - ys[k0 - P:k0],
        us[k0 + P:k0 + 2 * P] - us[k0:k0 + P],
    )
    actual = (ys[k0 + P:k0 + 2 * P] - ys[k0:k0 + P]).reshape(-1)
    err = np.linalg.norm(pred - actual) / np.linalg.norm(actual)
    ok = err < 1e-6
    report(2, ok, f"one-rotation prediction from oracle parameters: relative error "
                  f"{err:.2e} (< 1e-6)")
    assert ok


# ---------------------------------------------------------------------------
# criterion 3 — healthy load mitigation
# ---------------------------------------------------------------------------

def test_criterion_03_healthy_mitigation(campaign):
    metrics = campaign["metrics"]
    results = {}
    for ti, gate in (("ti00", 0.50), ("ti375", 0.40)):
        for group in groups_with(metrics, "lvlA-pad", ti):
            vals = [rsd_of(metrics, group, "ftipc", "healthy", b) for b in (1, 2, 3)]
            results[group] = (vals, gate)
    ok = all(np.all(np.asarray(v) >= gate) for v, gate in results.values())
    detail = "; ".join(f"{g}: rSD={np.round(v, 3)} (gate >= {gate})"
                       for g, (v, gate) in results.items())
    report(3, ok, f"pre-fault healthy-window SD reduction vs cpc: {detail}")
    assert ok


# ---------------------------------------------------------------------------
# criterion 4 — fault accommodation direction
# ---------------------------------------------------------------------------

def test_criterion_04_fault_accommodation(campaign):
    metrics = campaign["metrics"]
    healthy_blades = (1, 2)  # blade 3 is always the faulty one
    failures = []
    details = []
    for fault_tag in ("pad", "pas", "bld"):
        for group in groups_with(metrics, fault_tag):
            ft = [rsd_of(metrics, group, "ftipc", "faulty", b) for b in healthy_blades]
            mbc = [rsd_of(metrics, group, "mbc_ipc", "faulty", b) for b in healthy_blades]
            details.append(f"{group}: ftipc={np.round(ft, 3)} mbc={np.round(mbc, 3)}")
            if not all(f >= 0.40 for f in ft):
                failures.append(f"{group}: ftipc healthy-blade rSD below 40%: {ft}")
            if not all(f >= m for f, m in zip(ft, mbc)):
                failures.append(f"{group}: ftipc not >= mbc: {ft} vs {mbc}")
    # Italic-entry direction: MBC drives at least one blade's load above the
    # baseline somewhere in the PAS family.
    pas_negative = False
    for group in groups_with(metrics, "pas"):
        for b in (1, 2, 3):
            if rsd_of(metrics, group, "mbc_ipc", "faulty", b) < 0.0:
                pas_negative = True
    if not pas_negative:
        failures.append("mbc shows no negative-rSD blade in the PAS analogs")
    ok = not failures
    report(4, ok, "post-fault rSD on healthy blades (ftipc >= 40% and >= mbc), "
                  f"PAS negative-entry present={pas_negative}; " + "; ".join(details[:4])
                  + (f"; FAILURES: {failures}" if failures else ""))
    assert ok, failures


# ---------------------------------------------------------------------------
# criterion 5 — adaptation speed
# ---------------------------------------------------------------------------

def blade_band_power(log_rows):
    """Per-rotation per-blade 1P+2P power from the logged output projection."""
    y_bar = log_rows[:, 6:18]
    power = np.zeros((y_bar.shape[0], 3))
    for h in range(4):
        power += y_bar[:, h * 3:(h + 1) * 3] ** 2
    return power


def test_criterion_05_adaptation_speed(campaign):
    out = campaign["out"]
    failures = []
    details = []
    for run_dir in sorted(Path(out).glob("*-ftipc")):
        cfg = json.loads((run_dir / "config.json").read_text())
        rows = np.load(run_dir / "controller_log.npy")
        power = blade_band_power(rows)
        # PAS leaves blade 3 uncontrollable; score the blades the actuator
        # system can still drive.
        blades = [0, 1] if cfg["fault_kind"] == "pas" else [0, 1, 2]
        tracked = power[:, blades].sum(axis=1)
        floor = tracked[ONSET_ROT - 100:ONSET_ROT].mean()
        smoothed = np.convolve(tracked, np.ones(5) / 5.0, mode="valid")
        post = smoothed[ONSET_ROT:]
        hit = np.nonzero(post <= 2.0 * floor)[0]
        rotations = int(hit[0]) if hit.size else 10**9
        details.append(f"{run_dir.name}: {rotations} rot")
        if rotations > 150:
            failures.append(f"{run_dir.name}: recovery took {rotations} rotations")
    ok = not failures
    report(5, ok, "rotations to return within 2x pre-fault band-power floor "
                  f"(gate <= 150): {'; '.join(details)}")
    assert ok, failures


# ---------------------------------------------------------------------------
# criterion 6 — restricted excitation
# ---------------------------------------------------------------------------

def test_criterion_06_restricted_excitation(campaign):
    metrics = campaign["metrics"]
    ft_ratios = []
    for group in groups_with(metrics, "lvlA", "ti00"):
        m = metric_of(metrics, group, "ftipc")
        for which in ("healthy", "faulty"):
            for b in (1, 2):
                ft_ratios.append(m[which][f"blade{b}"]["band_ratio_u"])
    # uFTIPC comparison run on the 0%-TI blade-fault analog.
    cfg = LoadCaseConfig(
        id="uftipc-cmp", controller="uftipc", seed=2031, duration_s=2000.0,
        fault_onset_s=1000.0, fault_kind="blade_stiffness", fault_blade=3,
        fault_parameter=0.2, amp_1p=500.0, amp_2p=150.0, sigma_e=0.0,
    )
    res = run_load_case(cfg)
    uf_ratios = [res.metrics[which][f"blade{b}"]["band_ratio_u"]
                 for which in ("healthy", "faulty") for b in (1, 2)]
    ok = bool(np.all(np.asarray(ft_ratios) >= 0.95)
              and np.all(np.asarray(uf_ratios) <= 0.70))
    report(6, ok, f"pitch-command 1P/2P band-energy ratio: ftipc min "
                  f"{min(ft_ratios):.3f} (>= 0.95), uftipc max {max(uf_ratios):.3f} "
                  f"(<= 0.70)")
    assert ok


# ---------------------------------------------------------------------------
# criterion 7 — ADC ordering
# ---------------------------------------------------------------------------

def test_criterion_07_adc_ordering(campaign):
    metrics = campaign["metrics"]
    families = {}
    for m in metrics.values():
        family = m["group"].split("-ti")[0].split("-", 1)[1]  # e.g. lvlA-pad
        adcs = [m["faulty"][f"blade{b}"]["adc"] for b in (1, 2)]
        families.setdefault(family, {}).setdefault(m["controller"], []).extend(adcs)
    failures = []
    details = []
    for family, by_ctl in sorted(families.items()):
        means = {c: float(np.mean(v)) for c, v in by_ctl.items()}
        details.append(f"{family}: cpc={means['cpc']:.4f} mbc={means['mbc_ipc']:.4f} "
                       f"ftipc={means['ftipc']:.4f}")
        if not means["ftipc"] < means["mbc_ipc"]:
            failures.append(f"{family}: ftipc ADC not below mbc")
        if not (means["ftipc"] > means["cpc"] and means["mbc_ipc"] > means["cpc"]):
            failures.append(f"{family}: IPC ADCs not above cpc baseline")
    ok = not failures
    report(7, ok, "family-mean healthy-blade ADC (faulty window): " + "; ".join(details))
    assert ok, failures


# ---------------------------------------------------------------------------
# criterion 8 — numerics property suites
# ---------------------------------------------------------------------------

def test_criterion_08_numerics_properties():
    checks = {}
    rng = np.random.default_rng(0)

    # RLS vs batch weighted LS on random prefixes (1e-8).
    lam, init_info, n_reg = 0.999, 1e-3, 12
    state = RlsState.fresh(1, n_reg, lam=lam, init_info=init_info)
    xs, ys, worst = [], [], 0.0
    for _ in range(60):
        x, yv = rng.normal(size=n_reg), rng.normal(size=1)
        xs.append(x)
        ys.append(yv)
        state, est = rls_update(state, x, yv)
        k = len(xs)
        info = (lam**k) * init_info * np.eye(n_reg)
        rhs = np.zeros(n_reg)
        for t, (xx, yy) in enumerate(zip(xs, ys)):
            info += lam ** (k - 1 - t) * np.outer(xx, xx)
            rhs += lam ** (k - 1 - t) * xx * yy[0]
        worst = max(worst, float(np.linalg.norm(est[0] - np.linalg.solve(info, rhs))))
    checks["rls_vs_batch"] = worst <= 1e-8

    # Penrose conditions (1e-10).
    m = rng.normal(size=(9, 3)) @ rng.normal(size=(3, 7))
    mp = pinv(m)
    checks["penrose"] = (
        np.allclose(m @ mp @ m, m, atol=1e-10)
        and np.allclose(mp @ m @ mp, mp, atol=1e-10)
        and np.allclose((m @ mp).T, m @ mp, atol=1e-10)
        and np.allclose((mp @ m).T, mp @ m, atol=1e-10)
    )

    # DARE residual 1e-9 and closed-loop stability over 100 seeded systems.
    dare_ok = True
    for seed in range(100):
        g = np.random.default_rng(seed)
        a = g.normal(size=(6, 6))
        a *= 0.9 / spectral_radius(a)
        b = g.normal(size=(6, 2))
        sol = solve_dare(a, b, np.eye(6), np.eye(2))
        dare_ok &= sol.residual < 1e-9 and spectral_radius(a - b @ sol.gain) < 1.0
    checks["dare_100_seeds"] = bool(dare_ok)

    # Welch/Parseval within 10%.
    sig = rng.normal(size=40000)
    psd = welch_psd(sig, fs=100.0)
    integ = float(np.trapezoid(psd.power, psd.frequencies))
    checks["welch_parseval"] = abs(integ - np.var(sig)) <= 0.10 * np.var(sig)

    # Basis pseudo-inverse identity (1e-10).
    phi = np.kron(build_basis(P).u_f, np.eye(3))
    checks["phi_pinv_identity"] = bool(
        np.max(np.abs(pinv(phi) @ phi - np.eye(12))) <= 1e-10
    )

    # Coleman round trip (1e-10).
    round_ok = True
    for _ in range(20):
        psi = rng.uniform(0, 2 * np.pi)
        angles = psi + 2 * np.pi * np.arange(3) / 3
        a, b = rng.normal(size=2)
        yv = a * np.cos(angles) + b * np.sin(angles)
        round_ok &= bool(np.allclose(coleman_inverse(*coleman_forward(yv, psi), psi),
                                     yv, atol=1e-10))
    checks["coleman_round_trip"] = round_ok

    # Periodic-difference of a periodic signal is identically zero.
    buf = PeriodicBuffer(P, WINDOW)
    u_rot = rng.normal(size=(P, 3))
    delta_ok = True
    for k in range(3 * P):
        buf.push(u_rot[k % P], 2.0 * u_rot[k % P])
        if k >= P:
            delta_ok &= buf.delta("u1", k) == 0.0 and buf.delta("y3", k) == 0.0
    checks["delta_periodic_zero"] = delta_ok

    ok = all(checks.values())
    report(8, ok, ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items()))
    assert ok, checks


# ---------------------------------------------------------------------------
# criterion 9 — determinism
# ---------------------------------------------------------------------------

def test_criterion_09_determinism(tmp_path):
    def make_cfg():
        return LoadCaseConfig(
            id="det", controller="ftipc", seed=99, duration_s=200.0,
            fault_onset_s=100.0, fault_kind="pad", fault_blade=3,
            fault_parameter=0.5, sigma_e=18.75,
        )

    a = run_load_case(make_cfg())
    b = run_load_case(make_cfg())
    same_series = (np.array_equal(a.u_cmd, b.u_cmd) and np.array_equal(a.y, b.y)
                   and np.array_equal(series_azimuth(a), series_azimuth(b)))
    same_metrics = a.metrics == b.metrics
    a.save(tmp_path / "a")
    b.save(tmp_path / "b")
    npy_a = (tmp_path / "a" / "det" / "series.npy").read_bytes()
    npy_b = (tmp_path / "b" / "det" / "series.npy").read_bytes()
    ok = same_series and same_metrics and npy_a == npy_b
    report(9, ok, f"repeated run bit-identical: series={same_series}, "
                  f"metrics={same_metrics}, npy_bytes={npy_a == npy_b}")
    assert ok


# ---------------------------------------------------------------------------
# criterion 10 — performance envelope
# ---------------------------------------------------------------------------

def test_criterion_10_performance(campaign):
    cfg = LoadCaseConfig(
        id="perf", controller="ftipc", seed=7, duration_s=2000.0,
        fault_onset_s=1000.0, fault_kind="pad", fault_blade=3,
        fault_parameter=0.5, sigma_e=18.75,
    )
    t0 = time.perf_counter()
    res = run_load_case(cfg)
    single = time.perf_counter() - t0
    camp = campaign["elapsed_s"]
    t = series_time(res)
    ok = single < 60.0 and camp < 1800.0 and t.shape == (200000,)
    report(10, ok, f"single 2000 s load case {single:.1f} s (< 60 s), "
                   f"{t.shape[0]} samples; 54-run campaign at jobs=4 "
                   f"{camp:.0f} s (< 1800 s)")
    assert t.shape == (200000,)
    assert ok


# ---------------------------------------------------------------------------
# acceptance values, pinned
# ---------------------------------------------------------------------------

ACCEPTANCE_GOLDEN = Path(__file__).with_name("acceptance_golden.json")
GOLDEN_SEED = "2024"  # default_campaign's base seed


def test_campaign_matches_the_acceptance_golden(campaign):
    # The gates above leave the values behind them free to drift: every run
    # of the shipped campaign is compared with its recorded summary through
    # perfbench/check.py, floats within its RTOL (1e-6) and counts exactly.
    # A change that moves a value records the file again and says why.
    spec = importlib.util.spec_from_file_location(
        "perfbench_check", Path(__file__).resolve().parent.parent / "perfbench" / "check.py")
    check = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check)
    expected = check.load_golden(ACCEPTANCE_GOLDEN)["default_campaign"][GOLDEN_SEED]
    metrics = campaign["metrics"]
    assert sorted(metrics) == sorted(expected)
    bad = [f"{run_id} {d}" for run_id, m in sorted(metrics.items())
           for d in check.mismatches(check.summarize(m), expected[run_id])]
    assert bad == []

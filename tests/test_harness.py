"""Harness: config validation, determinism, persistence round-trips,
campaign isolation and parallel equivalence, comparison table, CLI."""

import concurrent.futures
import csv
import dataclasses
import errno
import json
import os
import pickle
import warnings

import numpy as np
import pytest

import ipcsim.harness as harness
import ipcsim.sysid as sysid
from ipcsim.cli import main as cli_main
from ipcsim.control import LOG_COLUMNS, build_basis, project_output
from ipcsim.harness import (
    ConfigError,
    LoadCaseConfig,
    compare,
    default_campaign,
    load_config_file,
    recompute_metrics,
    run_campaign,
    run_load_case,
)
from ipcsim.plant import azimuth
from reference import qr_rls_update_batch, step


def short_cfg(**kw):
    base = dict(id="t-case", controller="ftipc", seed=42, duration_s=60.0,
                fault_onset_s=30.0, fault_kind="pad", fault_blade=3,
                fault_parameter=0.5, sigma_e=10.0,
                tuning={"warmup_rotations": 8})
    base.update(kw)
    return LoadCaseConfig(**base)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_validation_errors():
    with pytest.raises(ConfigError):
        short_cfg(controller="pid")
    with pytest.raises(ConfigError):
        short_cfg(fault_onset_s=60.0)  # onset must be inside the run
    with pytest.raises(ConfigError):
        short_cfg(id="")
    with pytest.raises(ConfigError):
        short_cfg(duration_s=60.37)  # not a whole number of rotor periods
    with pytest.raises(ConfigError):
        short_cfg(fault_kind="pad", fault_parameter=0.0)
    with pytest.raises(ConfigError):
        LoadCaseConfig.from_dict({"id": "x", "controller": "cpc"})  # seed missing
    for seed in (-1, 1.5, "7", True):
        with pytest.raises(ConfigError):
            short_cfg(seed=seed)
    for window in (0, -3, 100, 150, 21.0):  # 1 <= p < P = 100 samples per rotation
        with pytest.raises(ConfigError):
            short_cfg(predictor_window=window)
    for field, value in (("sigma_e", np.nan), ("amp_1p", np.inf), ("phase_1p", np.nan),
                         ("period_jitter", 0.7), ("uftipc_amplitude_deg", np.nan)):
        with pytest.raises(ConfigError):
            short_cfg(**{field: value})
    for field, value in (("warmup_rotations", -3), ("alpha", 1.5), ("r_scale", -1),
                         ("forgetting", 0.5), ("dare_max_iter", 0),
                         ("excitation_amplitude", -0.1), ("warmup_rotations", 8.0),
                         ("beta", np.nan), ("theta_cap_deg", 0)):
        with pytest.raises(ConfigError):
            short_cfg(tuning={field: value})
    # A metric window shorter than one 4-sample Welch segment: an empty
    # healthy window, an empty faulty window, a 2-sample healthy window.
    for controller, duration, onset in (("cpc", 1.0, 0.01), ("cpc", 3.0, 2.995),
                                        ("ftipc", 2.0, 0.1)):
        with pytest.raises(ConfigError, match="metric window"):
            short_cfg(controller=controller, duration_s=duration, fault_onset_s=onset)
    # Fault parameters are finite for every kind; a bool is not a blade index.
    for kind in ("healthy", "pas", "pad", "blade_stiffness"):
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(ConfigError):
                short_cfg(fault_kind=kind, fault_parameter=value)
    with pytest.raises(ConfigError):
        short_cfg(fault_blade=True)
    # Removed fields (the plant seed, identification_log) are rejected, not ignored.
    with pytest.raises(ConfigError):
        short_cfg(plant={"seed": 1})
    with pytest.raises(ConfigError):
        LoadCaseConfig.from_dict({**short_cfg().to_dict(), "identification_log": True})
    for key in ("uftipc_cutoff_hz", "uftipc_bit_time_s"):
        with pytest.raises(ConfigError):
            LoadCaseConfig.from_dict({**short_cfg().to_dict(), key: 1.0})
    with pytest.raises(ConfigError):
        short_cfg(tuning={"excitation_filter_pole": 0.8})
    # Amplitudes and phases are one scalar for all blades.
    for field in ("amp_1p", "phase_2p"):
        with pytest.raises(ConfigError):
            short_cfg(**{field: [1.0, 1.0, 1.0]})
    # Plant parameters the model cannot be built from, and values that used
    # to escape as OverflowError / ZeroDivisionError.
    for plant in ({"damping": np.nan}, {"coupling": np.inf}, {"dt": -0.01},
                  {"period_samples": 6}, {"period_samples": 0}, {"nat_freq_hz": 0.0},
                  {"dc_gain": 0.0}, {"predictor_poles": [0.4, 1.5]}):
        with pytest.raises(ConfigError):
            short_cfg(plant=plant)
    with pytest.raises(ConfigError):
        short_cfg(duration_s=np.inf)
    # No excitation is a degenerate regime the run reports, not a bad config.
    short_cfg(tuning={"excitation_amplitude": 0.0})


def test_a_built_config_is_immutable():
    # Validation runs once, at construction; a variant is a new config,
    # validated in its turn.
    cfg = short_cfg(group="")
    assert cfg.group == cfg.id
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.seed = -1
    with pytest.raises(ConfigError):
        dataclasses.replace(cfg, seed=-1)
    assert dataclasses.replace(cfg, seed=7).seed == 7 and cfg.seed == 42


WRITES = {
    "setitem": lambda d: d.__setitem__("beta", 7.0),
    "delitem": lambda d: d.__delitem__(next(iter(d))),
    "ior": lambda d: d.__ior__({"beta": 7.0}),
    "clear": lambda d: d.clear(),
    "pop": lambda d: d.pop(next(iter(d))),
    "popitem": lambda d: d.popitem(),
    "setdefault": lambda d: d.setdefault("beta", 7.0),
    "update": lambda d: d.update(beta=7.0),
}


@pytest.mark.parametrize("write", sorted(WRITES))
def test_a_built_config_refuses_writes_to_plant_and_tuning(write):
    # A write would bypass validation: tuning.beta = 7 would fail the run,
    # not the config.
    cfg = short_cfg(plant={"coupling": 0.05})
    for name in ("plant", "tuning"):
        with pytest.raises(TypeError, match="cannot change"):
            WRITES[write](getattr(cfg, name))
    assert cfg == short_cfg(plant={"coupling": 0.05})
    assert dataclasses.replace(cfg, seed=2).seed == 2


def test_a_built_config_keeps_its_own_plant_and_tuning():
    tuning, plant = {"warmup_rotations": 8}, {"predictor_poles": [0.4, 0.35]}
    cfg = short_cfg(tuning=tuning, plant=plant)
    # Editing the dicts it was built from leaves the config as validated.
    tuning["beta"] = 7.0
    plant["predictor_poles"][0] = 5.0
    assert cfg.tuning == {"warmup_rotations": 8}
    assert cfg.plant == {"predictor_poles": (0.4, 0.35)}
    # It pickles to a pool worker as built, and still refuses writes there.
    clone = pickle.loads(pickle.dumps(cfg))
    assert clone == cfg
    with pytest.raises(TypeError, match="cannot change"):
        clone.tuning["beta"] = 7.0
    # `to_dict` (and so config.json) holds plain dicts.
    saved = cfg.to_dict()
    assert type(saved["plant"]) is dict and type(saved["tuning"]) is dict
    assert json.loads(json.dumps(saved))["plant"] == {"predictor_poles": [0.4, 0.35]}
    saved["tuning"]["beta"] = 7.0
    assert "beta" not in cfg.tuning
    for given in (None, [("dt", 0.01)], "dt"):
        with pytest.raises(ConfigError, match="plant must be a dict"):
            short_cfg(plant=given)


@pytest.mark.parametrize("field, value", [
    ("amp_1p", "500"), ("amp_2p", "150"), ("phase_1p", "0"), ("phase_2p", True),
    ("sigma_e", "1"), ("sigma_e", True), ("period_jitter", "0.1"), ("period_jitter", False),
    ("uftipc_amplitude_deg", True), ("fault_parameter", True), ("fault_onset_s", True),
    ("plant", {"coupling": True}), ("fault_parameter", "0.5"), ("uftipc_amplitude_deg", "1"),
    ("plant", {"dt": "0.01"}),
])
def test_disturbance_settings_must_be_real_numbers(field, value):
    # A string or a bool is neither converted nor stored: the error names the
    # field, and a plant parameter by its name in `plant`.
    name = f"plant {next(iter(value))}" if field == "plant" else field
    with pytest.raises(ConfigError, match=name):
        short_cfg(**{field: value})


@pytest.mark.parametrize("kind", ["healthy", "pas", "pad", "blade_stiffness"])
def test_the_faulty_blade_is_an_integer(kind):
    # 3.0 equals 3 but cannot index a blade: rejected for every fault kind.
    with pytest.raises(ConfigError, match="blade_index"):
        short_cfg(fault_kind=kind, fault_blade=3.0)


@pytest.mark.parametrize("field, value", [
    ("id", 5), ("id", "../escaped"), ("id", "a/b"), ("id", "a\\b"), ("id", "a\0b"),
    ("id", "."), ("id", ".."), ("group", 7), ("group", None),
])
def test_a_load_case_id_names_one_directory(field, value):
    # The id is the run's directory under --out, and both are strings.
    with pytest.raises(ConfigError, match=field):
        short_cfg(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("seed", np.int64(1)), ("fault_blade", np.int64(3)), ("predictor_window", np.int64(21)),
    ("plant", {"period_samples": np.int64(100)}), ("tuning", {"warmup_rotations": np.int64(8)}),
    ("sigma_e", np.float32(10.0)),
])
def test_a_config_that_cannot_be_saved_is_rejected(field, value):
    # These values run, but `config.json` could not be written after the run.
    with pytest.raises(ConfigError, match="JSON serializable"):
        short_cfg(**{field: value})


def test_a_dotted_id_and_a_float64_setting_still_build():
    # A dotted id is still one directory. np.float64 is a float and saves as
    # one; the checks convert nothing.
    cfg = short_cfg(id="..LC01.v2", sigma_e=np.float64(10.0))
    assert cfg.id == "..LC01.v2" and type(cfg.sigma_e) is np.float64


def test_a_stiffness_fault_the_plant_cannot_be_rebuilt_for_is_rejected():
    # A stiffness scale of 1e-100 leaves the faulty blade's rebuilt channel
    # with a zero output row, so its observer cannot be placed; the config
    # is rejected when it is built, not at the onset mid-run. 1e-10 runs.
    fields = dict(controller="cpc", duration_s=4.0, fault_onset_s=2.0,
                  fault_kind="blade_stiffness")
    with pytest.raises(ConfigError, match="[Ss]ingular"):
        short_cfg(fault_parameter=1e-100, **fields)
    run_load_case(short_cfg(fault_parameter=1e-10, **fields))


def test_run_length_is_bounded():
    # A run allocates its histories up front, so its length is checked
    # when the config is built: 2,000,000 samples (20000 s) at most.
    with pytest.raises(ConfigError, match="limited to 2000000 samples"):
        short_cfg(duration_s=1e6, fault_onset_s=5e5)
    assert harness.MAX_RUN_SAMPLES == 2_000_000
    short_cfg(duration_s=20000.0, fault_onset_s=10000.0)


def test_config_json_round_trip(tmp_path):
    cfg = short_cfg()
    path = tmp_path / "case.json"
    path.write_text(json.dumps(cfg.to_dict()))
    loaded = load_config_file(path)
    assert len(loaded) == 1
    assert loaded[0] == cfg


def test_campaign_file_requires_unique_ids(tmp_path):
    cfg = short_cfg().to_dict()
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"cases": [cfg, cfg]}))
    with pytest.raises(ConfigError):
        load_config_file(path)


def test_campaign_file_requires_a_nonempty_case_list(tmp_path, caplog):
    # An empty campaign is rejected too: it would run nothing and report success.
    path = tmp_path / "bad.json"
    for cases in (5, [], {}, "cases", None):
        path.write_text(json.dumps({"cases": cases}))
        with pytest.raises(ConfigError, match="non-empty list"):
            load_config_file(path)
        caplog.clear()
        assert cli_main(["run", str(path)]) == 1
        assert "configuration error:" in caplog.text


def test_default_campaign_structure():
    configs = default_campaign()
    assert len(configs) == 54  # 2 levels x 3 TI x 3 faults x 3 controllers
    ids = {c.id for c in configs}
    assert len(ids) == 54
    groups = {c.group for c in configs}
    assert len(groups) == 18
    for g in groups:
        members = [c for c in configs if c.group == g]
        assert {m.controller for m in members} == {"cpc", "mbc_ipc", "ftipc"}
        assert len({m.seed for m in members}) == 1  # shared disturbance realization


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def test_run_sample_count_and_series_shapes():
    res = run_load_case(short_cfg(duration_s=40.0, fault_onset_s=20.0))
    assert res.t.shape == (4000,)
    assert res.u_cmd.shape == (4000, 3)
    assert res.y.shape == (4000, 3)
    assert res.t[1] - res.t[0] == pytest.approx(0.01)


def test_run_is_bit_identical_per_seed():
    a = run_load_case(short_cfg())
    b = run_load_case(short_cfg())
    assert np.array_equal(a.u_cmd, b.u_cmd)
    assert np.array_equal(a.y, b.y)
    assert a.metrics == b.metrics
    c = run_load_case(short_cfg(seed=43))
    assert not np.array_equal(a.y, c.y)


def test_controllers_share_disturbance_realization():
    # Same seed, different controller: the disturbance realization (periodic
    # part and innovation stream) is identical, which is what makes the
    # cross-controller rSD comparisons meaningful.
    cfg_a = short_cfg(controller="cpc")
    cfg_b = short_cfg(controller="mbc_ipc")
    seeds_a = np.random.SeedSequence(cfg_a.seed).spawn(3)
    seeds_b = np.random.SeedSequence(cfg_b.seed).spawn(3)
    da, db = cfg_a.build(seeds_a[0])[2], cfg_b.build(seeds_b[0])[2]
    assert np.array_equal(da.periodic_block(0, 100), db.periodic_block(0, 100))
    assert np.array_equal(da.innovation_block(0, 500), db.innovation_block(0, 500))
    # And end to end: at sample 0 every controller commands zero pitch, so
    # the first output sample is bit-identical across cpc and mbc.
    y_cpc = run_load_case(cfg_a).y
    y_mbc = run_load_case(cfg_b).y
    assert np.array_equal(y_cpc[0], y_mbc[0])


def test_save_and_metrics_round_trip(tmp_path):
    res = run_load_case(short_cfg())
    res.save(tmp_path)
    d = tmp_path / "t-case"
    written = {f.name for f in d.iterdir()}
    assert written == {"series.npy", "controller_log.csv", "metrics.json", "config.json"}
    data = np.load(d / "series.npy", allow_pickle=False)
    n = res.y.shape[0]
    assert data.shape == (n, 6)
    assert data.dtype == np.float64 and data.flags.c_contiguous
    # The sample times and the azimuth are not persisted; the result
    # rebuilds them from the config.
    assert np.array_equal(res.t, np.arange(n) * 0.01)
    assert np.array_equal(res.psi, np.tile(azimuth(100), n // 100))
    saved = json.loads((d / "metrics.json").read_text())
    recomputed = recompute_metrics(d)
    assert recomputed == saved


def test_shortest_metric_window_runs():
    # A 4-sample healthy window is the shortest accepted, and it computes.
    res = run_load_case(short_cfg(duration_s=2.0, fault_onset_s=0.2))
    assert res.metrics["healthy"]["blade1"]["band_ratio_u"] is not None


def test_controller_log_columns(tmp_path):
    res = run_load_case(short_cfg(duration_s=20.0, fault_onset_s=10.0))
    res.save(tmp_path)
    with open(tmp_path / "t-case" / "controller_log.csv") as fh:
        header, *rows = list(csv.reader(fh))
    assert tuple(header) == LOG_COLUMNS
    assert len(rows) == 20 and all(len(row) == len(LOG_COLUMNS) for row in rows)
    basis = build_basis(100)
    first = LOG_COLUMNS.index("y_bar_0")
    iterations = LOG_COLUMNS.index("dare_iterations")
    for j, row in enumerate(rows):
        assert int(row[0]) == j
        y_bar = project_output(res.y[j * 100:(j + 1) * 100], basis)
        assert [float(v) for v in row[first:first + 12]] == y_bar.tolist()
        # One Riccati solve per rotation past the 8-rotation warm-up.
        assert (int(row[iterations]) >= 1) == (j >= 8)


def test_run_result_csv_full_precision(tmp_path):
    res = run_load_case(short_cfg(duration_s=20.0, fault_onset_s=10.0))
    res.save(tmp_path)
    data = np.load(tmp_path / "t-case" / "series.npy", allow_pickle=False)
    assert harness.SERIES_COLUMNS == ("u1", "u2", "u3", "y1", "y2", "y3")
    assert np.array_equal(data[:, :3], res.u_cmd)
    assert np.array_equal(data[:, 3:], res.y)


def test_run_result_holds_no_recomputable_series():
    # Only the commanded pitch and the loads are run-length arrays; the
    # sample times and the azimuth are rebuilt from the config when read.
    res = run_load_case(short_cfg(controller="cpc", duration_s=20.0, fault_onset_s=10.0))
    run_length = {f.name for f in dataclasses.fields(res)
                  if isinstance(getattr(res, f.name), np.ndarray)
                  and getattr(res, f.name).shape[:1] == (2000,)}
    assert run_length == {"u_cmd", "y"}


@pytest.mark.parametrize("kind", ["wrong_shape", "legacy_eight_columns", "object_dtype",
                                  "legacy_csv_only", "nonfinite_window"])
def test_recompute_metrics_rejects_bad_series(tmp_path, kind):
    res = run_load_case(short_cfg(controller="cpc", duration_s=20.0, fault_onset_s=10.0))
    res.save(tmp_path)
    d = tmp_path / "t-case"
    data = np.load(d / "series.npy")
    if kind == "wrong_shape":
        np.save(d / "series.npy", data[:-1])  # one row short of duration / dt
        with pytest.raises(ValueError, match="shape"):
            recompute_metrics(d)
    elif kind == "legacy_eight_columns":
        # t,u1,u2,u3,y1,y2,y3,psi, as runs were once saved: no legacy reader.
        legacy = np.column_stack([res.t, res.u_cmd, res.y, res.psi])
        np.save(d / "series.npy", legacy)
        with pytest.raises(ValueError, match=r"shape \(2000, 8\); expected float64 of "
                                             r"shape \(2000, 6\)"):
            recompute_metrics(d)
    elif kind == "nonfinite_window":
        # Right shape and dtype, damaged inside both metric windows: the error
        # names the file and the keys, and no numpy warning escapes.
        data[850:900, 3] = 1e300
        data[1900:1950, 0] = np.nan
        np.save(d / "series.npy", data)
        with pytest.raises(ValueError, match=r"series\.npy gives non-finite metrics: "
                                             r"healthy\.blade1\.sd_y, faulty\.blade1\.adc"):
            recompute_metrics(d)
    elif kind == "object_dtype":
        np.save(d / "series.npy", data.astype(object), allow_pickle=True)
        with pytest.raises(ValueError, match="allow_pickle"):
            recompute_metrics(d)
    else:
        (d / "series.npy").unlink()
        np.savetxt(d / "series.csv", data, fmt="%.17g", delimiter=",",
                   header="u1,u2,u3,y1,y2,y3", comments="")
        with pytest.raises(FileNotFoundError, match="series.npy"):
            recompute_metrics(d)


def test_cpc_run_commands_zero_differential_pitch():
    res = run_load_case(short_cfg(id="cpc-zero", controller="cpc", duration_s=20.0,
                                  fault_onset_s=10.0))
    assert res.u_cmd.shape == (2000, 3)
    assert np.all(res.u_cmd == 0.0)


def test_closed_loop_band_power_monotone_until_floor():
    # After control activation the per-rotation 1P+2P band power decreases
    # (10-rotation moving average) until it reaches its noise floor.
    cfg = short_cfg(id="mono", controller="ftipc", duration_s=120.0,
                    fault_onset_s=60.0, fault_kind="healthy", sigma_e=0.0,
                    tuning={"warmup_rotations": 20})
    res = run_load_case(cfg)
    y_bar = np.array([row[6:18] for row in res.rotation_log])
    power = sum(y_bar[:, h * 3:(h + 1) * 3] ** 2 for h in range(4)).sum(axis=1)
    ma = np.convolve(power, np.ones(10) / 10.0, mode="valid")
    floor = ma[-20:].mean()
    start = 22  # first averaged index fully inside the controlled regime
    for i in range(start, len(ma) - 1):
        if ma[i] <= 1.10 * floor:
            break
        assert ma[i + 1] <= ma[i] * (1.0 + 1e-9), f"band power rose at rotation {i}"


def test_ftipc_tolerates_rotor_speed_jitter():
    # +-2% rotor-speed wobble on the disturbance: the azimuth-scheduled
    # basis keeps tracking and the loads stay well below baseline.
    common = dict(duration_s=240.0, fault_onset_s=120.0, fault_kind="healthy",
                  sigma_e=0.0, period_jitter=0.02)
    base = run_load_case(short_cfg(id="j-cpc", controller="cpc", **common))
    ctl = run_load_case(short_cfg(id="j-ft", controller="ftipc", **common))
    sd_base = base.y[-4000:].std(axis=0)
    sd_ctl = ctl.y[-4000:].std(axis=0)
    assert np.all(sd_ctl < 0.5 * sd_base), (sd_ctl, sd_base)


@pytest.mark.parametrize("kind,parameter", [("blade_stiffness", 0.2), ("pas", 1.5), ("pad", 0.5)],
                         ids=["blade_stiffness", "pas", "pad"])
def test_mid_rotation_blade_onset_matches_per_sample(advance_block_rows, kind, parameter):
    # The onset falls at sample 37 of rotation 2: that rotation advances in
    # two blocks, and the series equals one reference.step per sample.
    cfg = short_cfg(id="mid", controller="cpc", duration_s=5.0, fault_onset_s=2.37,
                    fault_kind=kind, fault_parameter=parameter, sigma_e=40.0)
    res = run_load_case(cfg)
    assert advance_block_rows == [100, 100, 37, 63, 100, 100]
    plant, fault, dist, _ = cfg.build(np.random.SeedSequence(cfg.seed).spawn(3)[0])
    assert fault.onset_sample == 237
    y_ref = np.array([step(plant, np.zeros(3), dist, fault, k) for k in range(len(res.y))])
    assert np.abs(res.y - y_ref).max() <= 1e-12 * np.abs(y_ref).max()
    # The same onset under the repetitive controller runs to the end.
    ft = run_load_case(short_cfg(id="mid-ft", duration_s=20.0, fault_onset_s=10.37,
                                 fault_kind=kind, fault_parameter=parameter))
    assert np.all(np.isfinite(ft.y)) and np.all(np.isfinite(ft.u_cmd))


# ---------------------------------------------------------------------------
# campaign
# ---------------------------------------------------------------------------

def two_tiny_cases():
    return [
        short_cfg(id="g1-cpc", group="g1", controller="cpc",
                  duration_s=30.0, fault_onset_s=15.0),
        short_cfg(id="g1-ftipc", group="g1", controller="ftipc",
                  duration_s=30.0, fault_onset_s=15.0),
    ]


def test_empty_campaign_is_fine():
    report = run_campaign([], parallelism=1)
    assert report.statuses == []
    assert report.failed == []


def test_campaign_parallel_matches_serial(tmp_path):
    serial = run_campaign(two_tiny_cases(), parallelism=1, out_dir=tmp_path / "s")
    parallel = run_campaign(two_tiny_cases(), parallelism=2, out_dir=tmp_path / "p")
    assert [s.ok for s in serial.statuses] == [True, True]
    assert [s.ok for s in parallel.statuses] == [True, True]
    for a, b in zip(serial.statuses, parallel.statuses):
        assert a.id == b.id
        assert a.metrics == b.metrics
    ys = np.load(tmp_path / "s" / "g1-ftipc" / "series.npy", allow_pickle=False)
    yp = np.load(tmp_path / "p" / "g1-ftipc" / "series.npy", allow_pickle=False)
    assert np.array_equal(ys, yp)


def test_campaign_forks_no_more_workers_than_cases(monkeypatch, tmp_path, caplog):
    # A recording stand-in for the pool: it runs the cases in-process and
    # records the worker count the campaign asked for.
    requested = []

    class RecordingPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    # run_campaign imports the pool from concurrent.futures when it needs one.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    report = run_campaign(two_tiny_cases(), parallelism=64)
    assert requested == [2]
    assert [s.ok for s in report.statuses] == [True, True]
    for bad in (0, -3, 1.5, True):
        with pytest.raises(ConfigError, match="parallelism"):
            run_campaign(two_tiny_cases(), parallelism=bad)
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"cases": [c.to_dict() for c in two_tiny_cases()]}))
    for jobs in ("0", "-2"):
        assert cli_main(["campaign", str(cfg_path), "--jobs", jobs,
                         "--out", str(tmp_path / "o")]) == 1
    assert "parallelism (--jobs) must be an integer >= 1" in caplog.text
    assert requested == [2] and not (tmp_path / "o").exists()


def test_a_campaign_runs_its_configs_without_validating_them_again(monkeypatch):
    # Each config was validated when it was built and cannot have changed
    # since: the campaign hands the objects themselves to its runs.
    cases = [short_cfg(id=f"g1-{ctl}", group="g1", controller=ctl, duration_s=4.0,
                       fault_onset_s=2.0, tuning={"warmup_rotations": 2})
             for ctl in ("cpc", "mbc_ipc", "ftipc")]
    validated = []
    real = LoadCaseConfig._validate
    monkeypatch.setattr(LoadCaseConfig, "_validate",
                        lambda self: validated.append(self.id) or real(self))
    report = run_campaign(cases, parallelism=1)
    assert [s.ok for s in report.statuses] == [True, True, True]
    assert validated == []


@pytest.mark.parametrize("via", ["run_campaign", "ipcsim run"])
def test_a_failed_rerun_leaves_no_stale_outputs(tmp_path, capsys, via):
    # A run's directory holds its latest attempt only: a rerun that fails
    # removes the earlier run's files, so `compare` cannot report them.
    good = two_tiny_cases()
    bad = dataclasses.replace(good[1], plant={"coupling": -1e300})
    out = tmp_path / "out"

    def succeeds(cfg):
        if via == "run_campaign":
            return not run_campaign([cfg], out_dir=out).failed
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        return cli_main(["run", str(cfg_path), "--out", str(out)]) == 0

    assert all(succeeds(cfg) for cfg in good)
    assert (out / bad.id / "metrics.json").exists()
    assert not succeeds(bad)
    assert sorted(p.name for p in out.iterdir()) == ["g1-cpc"]
    capsys.readouterr()
    assert cli_main(["compare", str(out), "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [(r["group"], r["controller"]) for r in rows] == [("g1", "cpc")]


def test_a_failed_save_leaves_no_partial_directory(tmp_path, monkeypatch):
    # The disk fills while metrics.json is written, after series.npy and
    # controller_log.csv: the run is reported failed and its partial
    # directory is removed, so `compare` never reads a truncated metrics file.
    def full_disk(*args, **kwargs):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(harness.json, "dump", full_disk)
    cfg = short_cfg(controller="cpc", duration_s=4.0, fault_onset_s=2.0)
    report = run_campaign([cfg], parallelism=1, out_dir=tmp_path)
    assert [s.id for s in report.failed] == [cfg.id]
    assert report.failed[0].error.startswith("OSError:")
    assert not (tmp_path / cfg.id).exists()


def test_cli_run_reports_an_output_error_as_a_failed_run(tmp_path, caplog):
    # `ipcsim run` is a campaign of one: an --out that is a regular file
    # fails the run (exit 2), as it does in a campaign, instead of raising.
    cfg_path, not_a_dir = tmp_path / "c.json", tmp_path / "file"
    cfg_path.write_text(json.dumps(short_cfg(controller="cpc", duration_s=4.0,
                                             fault_onset_s=2.0).to_dict()))
    not_a_dir.write_text("")
    assert cli_main(["run", str(cfg_path), "--out", str(not_a_dir)]) == 2
    assert "run failed: NotADirectoryError" in caplog.text
    assert not_a_dir.read_text() == ""


def test_campaign_isolates_run_failures(monkeypatch):
    real = harness.compute_metrics

    def boom(cfg, *args, **kw):
        if cfg.id == "g1-ftipc":
            raise RuntimeError("synthetic failure")
        return real(cfg, *args, **kw)

    monkeypatch.setattr(harness, "compute_metrics", boom)
    report = run_campaign(two_tiny_cases(), parallelism=1)
    by_id = {s.id: s for s in report.statuses}
    assert by_id["g1-cpc"].ok
    assert not by_id["g1-ftipc"].ok
    assert "synthetic failure" in by_id["g1-ftipc"].error


_real_run_one = harness._run_one


def _run_one_or_die(cfg, out_dir):
    """`harness._run_one`, except that the worker running "g1-die" exits."""
    if cfg.id == "g1-die":
        os._exit(3)
    return _real_run_one(cfg, out_dir)


def test_a_dead_worker_fails_only_its_own_run(monkeypatch, tmp_path):
    # A worker that dies breaks the pool and every run in flight with it.
    # The campaign keeps the statuses that came back, reruns each broken run
    # alone in a fresh pool, and fails only the run that kills that one too.
    # The forked workers see the patched `_run_one`.
    cases = [short_cfg(id=f"g1-{name}", group="g1", controller=ctl, duration_s=4.0,
                       fault_onset_s=2.0, tuning={"warmup_rotations": 2})
             for name, ctl in (("cpc", "cpc"), ("die", "cpc"), ("ftipc", "ftipc"),
                               ("mbc", "mbc_ipc"))]
    serial = run_campaign([c for c in cases if c.id != "g1-die"], parallelism=1)
    monkeypatch.setattr(harness, "_run_one", _run_one_or_die)
    report = run_campaign(cases, parallelism=2, out_dir=tmp_path / "o")
    assert [s.id for s in report.statuses] == [c.id for c in cases]
    assert [s.id for s in report.failed] == ["g1-die"]
    assert "worker process died" in report.failed[0].error
    assert report.metrics_by_id() == serial.metrics_by_id()
    assert sorted(p.name for p in (tmp_path / "o").iterdir()) == ["g1-cpc", "g1-ftipc",
                                                                  "g1-mbc"]
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"cases": [c.to_dict() for c in cases]}))
    assert cli_main(["campaign", str(cfg_path), "--jobs", "2",
                     "--out", str(tmp_path / "cli")]) == 2


@pytest.mark.parametrize("case,controller,settings,counts", [
    ("LC01", "ftipc", {"tuning": {"excitation_amplitude": 0.0}}, {"dare_failures": 20}),
    ("LC18", "ftipc", {"tuning": {"dare_max_iter": 1}}, {"dare_failures": 20}),
    ("LC18", "ftipc", {"tuning": {"theta_cap_deg": 0.05}}, {"clamp_events": 20}),
    ("LC18", "mbc_ipc", {"tuning": {"theta_cap_deg": 0.05}}, {}),
    ("LC18", "ftipc", {"period_jitter": 0.02}, {}),
], ids=["no-excitation", "dare-non-convergence", "clamp-ftipc", "clamp-mbc_ipc", "jitter"])
def test_degenerate_regimes_end_with_finite_metrics(case, controller, settings, counts):
    # The degenerate regimes a run must survive, each a 40 s default case
    # (20 rotations past warm-up): no excitation and a one-iteration
    # Riccati recursion fail every post-warm-up DARE, a 0.05 deg cap clamps
    # every post-warm-up theta update. A dead worker is the sixth regime
    # (`test_a_dead_worker_fails_only_its_own_run`).
    cfg = next(c for c in default_campaign(duration_s=40.0, controllers=(controller,))
               if c.id.startswith(case + "-"))
    result = run_load_case(LoadCaseConfig.from_dict(dict(cfg.to_dict(), **settings)))
    values = [v for which in ("healthy", "faulty") for blade in result.metrics[which].values()
              for v in blade.values() if v is not None]
    assert values and all(np.isfinite(values))
    for key, count in counts.items():
        assert result.metrics[key] == count


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def metrics_for_compare():
    report = run_campaign(two_tiny_cases(), parallelism=1)
    return report.metrics_by_id()


def test_compare_baseline_against_itself_is_zero():
    metrics = metrics_for_compare()
    table = compare(metrics, baseline="cpc")
    base_row = [r for r in table.rows if r.controller == "cpc"][0]
    assert all(v == 0.0 for v in base_row.rsd_faulty_window.values())


def test_compare_requires_baseline_present():
    metrics = metrics_for_compare()
    only_ftipc = {k: v for k, v in metrics.items() if v["controller"] == "ftipc"}
    with pytest.raises(ValueError):
        compare(only_ftipc, baseline="cpc")


def test_compare_rejects_two_runs_of_one_controller_in_a_group():
    # A second ftipc run of group g1 under another id would replace the
    # first one's row without a word.
    metrics = metrics_for_compare()
    metrics["g1-ftipc-rerun"] = dict(metrics["g1-ftipc"], id="g1-ftipc-rerun")
    with pytest.raises(ValueError, match="group g1 holds two ftipc runs: g1-ftipc and "
                                         "g1-ftipc-rerun"):
        compare(metrics, baseline="cpc")


def test_compare_text_notes_faulty_blade():
    table = compare(metrics_for_compare(), baseline="cpc")
    text = table.to_text()
    assert "blade 3 not shown: faulty blade" in text
    assert "blade3" not in text.split("\n")[1]  # column suppressed in rows


def test_compare_text_does_not_name_the_hidden_faulty_blade():
    # A stuck blade's load rising is expected: the note of increased loads
    # follows the columns and leaves the hidden faulty blade out, while the
    # JSON keeps every negative blade.
    def run(controller, sd_y):
        faulty = {f"blade{b}": {"sd_y": sd, "adc": 0.0} for b, sd in zip((1, 2, 3), sd_y)}
        return {"id": f"g-{controller}", "group": "g", "controller": controller,
                "faulty_blade": 3, "faulty": faulty}
    metrics = {m["id"]: m for m in (run("cpc", (1.0, 1.0, 1.0)),
                                    run("ftipc", (1.5, 0.5, 2.0)))}
    table = compare(metrics, baseline="cpc")
    row = next(line for line in table.to_text().split("\n") if " ftipc " in line)
    assert "blade 3 not shown: faulty blade" in row
    assert "load increased on: blade1]" in row
    assert "blade3" not in row
    rows = json.loads(table.to_json())["rows"]
    assert next(r for r in rows if r["controller"] == "ftipc")["negative_blades"] == [
        "blade1", "blade3"]


def test_compare_rejects_zero_sd_baseline(tmp_path):
    metrics = metrics_for_compare()
    base = next(m for m in metrics.values() if m["controller"] == "cpc")
    base["faulty"]["blade1"]["sd_y"] = 0.0
    with pytest.raises(ValueError):
        compare(metrics, baseline="cpc")
    # The CLI reports it as an error (exit code 1), not a traceback.
    for run_id, m in metrics.items():
        (tmp_path / run_id).mkdir()
        (tmp_path / run_id / "metrics.json").write_text(json.dumps(m))
    assert cli_main(["compare", str(tmp_path)]) == 1


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

FAULTY = {f"blade{b}": {"sd_y": 1.0, "adc": 0.0} for b in (1, 2, 3)}
VALID_METRICS = {"id": "a", "group": "g", "controller": "cpc", "faulty_blade": 3,
                 "faulty": FAULTY}


@pytest.mark.parametrize("content", [
    [1, 2], {"id": "a", "controller": "cpc"}, {**VALID_METRICS, "id": [1]},
    {**VALID_METRICS, "group": 7}, {**VALID_METRICS, "faulty_blade": True},
    {**VALID_METRICS, "faulty_blade": 3.0}, {**VALID_METRICS, "faulty_blade": 4},
    {**VALID_METRICS, "faulty": {**FAULTY, "blade2": {"sd_y": "1", "adc": 0.0}}},
    {**VALID_METRICS, "faulty": {**FAULTY, "blade1": {"sd_y": 1.0, "adc": np.nan}}},
], ids=["list", "no_group", "id_list", "group_number", "blade_bool", "blade_float",
        "blade_4", "sd_string", "adc_nan"])
def test_cli_compare_rejects_malformed_metrics(tmp_path, caplog, content):
    (tmp_path / "a").mkdir()
    mfile = tmp_path / "a" / "metrics.json"
    mfile.write_text(json.dumps(content))
    assert cli_main(["compare", str(tmp_path)]) == 1
    assert len(caplog.records) == 1 and str(mfile) in caplog.text


def test_cli_compare_rejects_a_repeated_run_id(tmp_path, capsys, caplog):
    # A renamed copy of a run directory, its loads edited, keeps the run's id:
    # which of the two gave the row would depend on the directory names.
    for m in metrics_for_compare().values():
        (tmp_path / m["id"]).mkdir()
        (tmp_path / m["id"] / "metrics.json").write_text(json.dumps(m))
    real = tmp_path / "g1-ftipc" / "metrics.json"
    backup = json.loads(real.read_text())
    backup["faulty"]["blade1"]["sd_y"] *= 0.5
    (tmp_path / "zz-backup-ftipc").mkdir()
    (tmp_path / "zz-backup-ftipc" / "metrics.json").write_text(json.dumps(backup))
    assert cli_main(["compare", str(tmp_path)]) == 1
    assert capsys.readouterr().out == ""
    assert "'g1-ftipc'" in caplog.text and str(real) in caplog.text
    assert str(tmp_path / "zz-backup-ftipc" / "metrics.json") in caplog.text


def test_cli_compare_unreadable_metrics(tmp_path, caplog):
    # A metrics.json that is a directory is one logged error, not a traceback.
    (tmp_path / "a" / "metrics.json").mkdir(parents=True)
    assert cli_main(["compare", str(tmp_path)]) == 1
    assert len(caplog.records) == 1 and "cannot read" in caplog.text


def test_cli_compare_reads_loads_as_floats(tmp_path, capsys):
    # Integer loads and duty cycles are read as floats; one past the float
    # range is refused.
    metrics = metrics_for_compare()
    for m in metrics.values():
        (tmp_path / m["id"]).mkdir()
        m["faulty"]["blade1"]["adc"] = 10**307
        (tmp_path / m["id"] / "metrics.json").write_text(json.dumps(m))
    assert cli_main(["compare", str(tmp_path), "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert all(r["adc_faulty_window"]["blade1"] == 1e307 for r in rows)
    assert cli_main(["compare", str(tmp_path)]) == 0  # the text table shows inf %
    m["faulty"]["blade1"]["sd_y"] = 10**400
    (tmp_path / m["id"] / "metrics.json").write_text(json.dumps(m))
    assert cli_main(["compare", str(tmp_path)]) == 1


def test_cli_compare_rejects_an_overflowing_rsd(tmp_path, capsys, caplog):
    # Both loads are finite, but the rSD of one against the other overflows:
    # an error naming the group and the blade in both modes, and no table.
    loads = {"cpc": 1e-300, "ftipc": 1e308}
    for ctl, sd in loads.items():
        faulty = {f"blade{b}": {"sd_y": sd, "adc": 0.1} for b in (1, 2, 3)}
        (tmp_path / ctl).mkdir()
        (tmp_path / ctl / "metrics.json").write_text(json.dumps(
            {"id": ctl, "group": "g", "controller": ctl, "faulty_blade": None,
             "faulty": faulty}))
    for mode in ([], ["--json"]):
        caplog.clear()
        assert cli_main(["compare", str(tmp_path), *mode]) == 1
        assert capsys.readouterr().out == ""
        assert "group g" in caplog.text and "blade1" in caplog.text


def test_cli_run_and_compare(tmp_path, capsys):
    cases = {"cases": [c.to_dict() for c in two_tiny_cases()]}
    cfg_path = tmp_path / "campaign.json"
    cfg_path.write_text(json.dumps(cases))

    rc = cli_main(["run", str(cfg_path), "--case", "g1-cpc", "--out", str(tmp_path / "out")])
    assert rc == 0
    out = capsys.readouterr().out
    assert json.loads(out)["id"] == "g1-cpc"

    rc = cli_main(["campaign", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 0

    rc = cli_main(["compare", str(tmp_path / "out"), "--baseline", "cpc"])
    assert rc == 0
    assert "rSD" in capsys.readouterr().out


def test_cli_config_error_exit_code(tmp_path, caplog):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli_main(["run", str(bad)]) == 1
    missing_case = tmp_path / "ok.json"
    missing_case.write_text(json.dumps(short_cfg().to_dict()))
    assert cli_main(["run", str(missing_case), "--case", "nope"]) == 1
    # Values that used to escape validation as OverflowError and
    # ZeroDivisionError end as a configuration error too.
    for fields in ({"duration_s": float("inf")}, {"plant": {"period_samples": 0}}):
        bad.write_text(json.dumps({**short_cfg().to_dict(), **fields}))
        caplog.clear()
        assert cli_main(["run", str(bad)]) == 1
        assert "configuration error:" in caplog.text


def test_cli_campaign_failure_exit_code(tmp_path, monkeypatch):
    real = harness.compute_metrics

    def boom(cfg, *args, **kw):
        raise RuntimeError("synthetic")

    monkeypatch.setattr(harness, "compute_metrics", boom)
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"cases": [short_cfg(duration_s=20.0,
                                                        fault_onset_s=10.0).to_dict()]}))
    assert cli_main(["campaign", str(cfg_path), "--out", str(tmp_path / "o")]) == 2


def unexcited_cfg(case: str, **tuning) -> LoadCaseConfig:
    """The default campaign's 200 s ftipc run of `case`, without excitation."""
    cfg = next(c for c in default_campaign(duration_s=200.0, controllers=("ftipc",))
               if c.id.startswith(case))
    tuning = {"excitation_amplitude": 0.0, **tuning}
    return LoadCaseConfig.from_dict(dict(cfg.to_dict(), tuning=tuning))


@pytest.mark.parametrize("case", ["LC01", "LC18"])
def test_zero_excitation_fails_every_dare_and_identifies_no_input_path(monkeypatch, case):
    # Without excitation theta stays zero, so the periodic differences of
    # the commanded pitch, the u-half of every regressor, are exactly zero:
    # the u-half of each blade's estimate stays exactly zero, (A_bar, B_bar)
    # is not stabilizable, and every post-warm-up DARE fails, with no numpy
    # warning on the way.
    cfg = unexcited_cfg(case)
    controllers = []

    class Recorded(harness.RepetitiveController):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            controllers.append(self)

    monkeypatch.setattr(harness, "RepetitiveController", Recorded)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_load_case(cfg)
    assert result.metrics["dare_failures"] == 180
    (ctl,) = controllers
    assert np.all(ctl.engine.rows[:, :ctl.p] == 0.0)


def test_underflowed_prior_is_a_counted_dare_failure():
    # At forgetting 0.91 the prior ridge lam^k * init_info underflows to
    # zero after about 7,800 samples. Without excitation the u-block of the
    # RLS information matrix is then exactly zero, so the matrix is
    # singular: its estimate reads NaN, and the run counts failed DAREs
    # instead of raising LinAlgError.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_load_case(unexcited_cfg("LC01", forgetting=0.91))
    assert result.metrics["dare_failures"] == 180


def test_uftipc_without_turbulence_stays_near_the_qr_fold(monkeypatch):
    # LC04 (stuck blade, no turbulence) under uftipc: broadband excitation
    # on noise-free loads drives cond(S) to about 7e14 at 2000 s, the worst
    # conditioned of the supported runs. Against the same run on the
    # square-root (QR) fold: equal DARE failure and clamp counts, and loads
    # within 2e-6 of max |y| (8.5e-7 measured; solving S Theta' = b at each
    # read instead reaches 2.1e-5, and two QR folds that differ only in
    # rounding 5e-10). The stuck blade's command, which the loads never see, is
    # left out: it drifts far on rounding alone.
    cfg = next(c for c in default_campaign(duration_s=2000.0, controllers=("uftipc",))
               if c.id.startswith("LC04-"))
    result = run_load_case(cfg)
    monkeypatch.setattr(sysid, "rls_update_batch", qr_rls_update_batch())
    oracle = run_load_case(cfg)
    for key in ("dare_failures", "clamp_events"):
        assert result.metrics[key] == oracle.metrics[key]
    assert np.abs(result.y - oracle.y).max() <= 2e-6 * np.abs(oracle.y).max()


def test_nonfinite_metrics_fail_the_run(tmp_path, caplog):
    # A huge excitation keeps the plant finite but overflows the load SDs
    # (inf) and the pitch band ratios (nan): the run fails instead of
    # finishing "ok" with an unreadable metrics.json.
    cfg = short_cfg(controller="uftipc", duration_s=20.0, fault_onset_s=10.0,
                    uftipc_amplitude_deg=1e300)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError, match=r"non-finite metrics: .*healthy\.blade1\.sd_y"):
            run_load_case(cfg)
        report = run_campaign([cfg, short_cfg(id="ok", controller="cpc", duration_s=20.0,
                                              fault_onset_s=10.0)])
        assert [s.id for s in report.failed] == [cfg.id]
        assert "non-finite metrics" in report.failed[0].error
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        assert cli_main(["run", str(cfg_path)]) == 2
    assert "run failed:" in caplog.text
    # Without an errstate of its own, the error naming the run is the only
    # report: no numpy overflow warning escapes the metrics first.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match=r"non-finite metrics: .*healthy\.blade1\.sd_y"):
            run_load_case(cfg)
    # metrics.json is strict JSON: a non-finite value is refused, not written.
    result = run_load_case(short_cfg(controller="cpc", duration_s=20.0, fault_onset_s=10.0))
    result.metrics["faulty"]["blade1"]["sd_y"] = float("inf")
    with pytest.raises(ValueError):
        result.save(tmp_path / "out")


def test_cli_seed_override(tmp_path, capsys):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(short_cfg(duration_s=20.0, fault_onset_s=10.0).to_dict()))
    assert cli_main(["run", str(cfg_path)]) == 0
    m1 = json.loads(capsys.readouterr().out)
    assert cli_main(["run", str(cfg_path), "--seed", "777"]) == 0
    m2 = json.loads(capsys.readouterr().out)
    assert m1 != m2

"""The artifact writers against the per-row loops they replaced.

`write_slots_csv` and `write_oracle_csv` format whole `.tolist()` columns
through one row format string, and `line_chart` computes its polyline points
as arrays and formats them with one `str.format`. The references below are
test-local copies of the loops they replaced: a `csv.writer` row per slot or
state with `repr(float(...))` cells, and one f-string per point on Python
floats. These tests pin the new writers to them byte for byte, over floats
chosen to expose the formatting (signed zero, subnormals, the switch to
exponent notation, 17-digit reprs, NaN and infinities).
"""

import csv
import math
import xml.etree.ElementTree as ET
from types import SimpleNamespace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import small_config, small_sim
from layerq import CentralizedQLearner, LearningSchedule, RunStats, line_chart
from layerq.experiments import SLOT_COLUMNS, OracleResult, write_oracle_csv, write_slots_csv
from layerq.svgplot import _downsample, _ticks

SPECIAL_FLOATS = (-0.0, 0.0, 5e-324, 1e-05, 1e16, 0.1 + 0.2, -1.7976931348623157e308, -123456.789)
FLOATS = st.floats() | st.sampled_from(SPECIAL_FLOATS)
INTS = st.integers(-(2**63), 2**63 - 1)
# Chart values stay finite and small enough that the axis span is finite too.
CHART_FLOATS = st.floats(-1e12, 1e12) | st.sampled_from((-0.0, 5e-324, 1e-05, 0.1 + 0.2))


# -- the references -------------------------------------------------------


def ref_write_slots_csv(path, stats: RunStats) -> None:
    n = stats.slots
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SLOT_COLUMNS)
        for i in range(n):
            writer.writerow(
                [
                    i,
                    stats.freq[i],
                    stats.unit_type[i],
                    stats.occupancy[i],
                    stats.command[i],
                    stats.config[i],
                    stats.arrivals[i],
                    stats.overflow[i],
                    repr(float(stats.reward[i])),
                    repr(float(stats.gain[i])),
                    repr(float(stats.cost_os[i])),
                    repr(float(stats.cost_app[i])),
                    repr(float(stats.delta[i])),
                ]
            )


def ref_write_oracle_csv(oracle: OracleResult, system, out) -> None:
    states = system.state_space()
    n_configs = len(system.configs)
    with open(out / "policy.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("s", "f", "z", "q", "u", "h"))
        for s in range(len(oracle.policy)):
            fi, zi, q = states.components(s)
            u, h = divmod(int(oracle.policy[s]), n_configs)
            writer.writerow((s, fi, zi, q, u, h))
    for name, column, vec in (
        ("values.csv", "value", oracle.values),
        ("weights.csv", "weight", oracle.weights),
    ):
        with open(out / name, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(("s", column))
            for s, v in enumerate(vec):
                writer.writerow((s, repr(float(v))))


def ref_polyline_points(series, title: str) -> list[str]:
    """The points attribute of each polyline, formatted one float at a time
    on line_chart's default 720x440 geometry."""
    clean = [_downsample(np.asarray(x, dtype=float), np.asarray(y, dtype=float)) for _, x, y in series]
    xt = _ticks(min(float(x.min()) for x, _ in clean), max(float(x.max()) for x, _ in clean))
    yt = _ticks(min(float(y.min()) for _, y in clean), max(float(y.max()) for _, y in clean))
    x_lo, x_hi = float(xt[0]), float(xt[-1])
    y_lo, y_hi = float(yt[0]), float(yt[-1])
    left, top = 64, 30 if title else 16
    pw, ph = 720 - left - 18, 440 - top - 46

    def px(v: float) -> float:
        return left + (v - x_lo) / (x_hi - x_lo) * pw

    def py(v: float) -> float:
        return top + ph - (v - y_lo) / (y_hi - y_lo) * ph

    return [
        " ".join(f"{px(float(a)):.1f},{py(float(b)):.1f}" for a, b in zip(x, y)) for x, y in clean
    ]


# -- per-slot CSVs ----------------------------------------------------------


def stats_of(horizon: int, rows) -> RunStats:
    """A RunStats of `horizon` slots with `rows` logged through log_slot."""
    stats = RunStats(horizon, checkpoint_interval=horizon)
    for f, z, q, u, h, arrivals, overflow, reward, gain, j1, j2, delta in rows:
        sim = SimpleNamespace(
            f=f, z=z, q=q, u=u, h=h, arrivals=arrivals, overflow=overflow,
            reward=reward, gain=gain, j1=j1, j2=j2,
        )
        stats.log_slot(sim, delta)
    return stats


ROWS = st.lists(st.tuples(*[INTS] * 7, *[FLOATS] * 5), max_size=25)


def assert_same_slots_csv(tmp_path, stats: RunStats) -> None:
    write_slots_csv(tmp_path / "new.csv", stats)
    ref_write_slots_csv(tmp_path / "ref.csv", stats)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@settings(max_examples=150, deadline=None)
@given(rows=ROWS, spare=st.integers(0, 5))
@example(rows=[(1, 2, 3, 4, 5, 6, 7, x, -x, x, -x, x) for x in SPECIAL_FLOATS], spare=0)
@example(rows=[(0, 0, 0, 0, 0, 0, 0, math.nan, math.inf, -math.inf, 0.1 + 0.2, 1e16)], spare=3)
def test_slots_csv_matches_row_writer(tmp_path_factory, rows, spare):
    """Any logged prefix of the horizon, full or not, including no slot at all."""
    assert_same_slots_csv(tmp_path_factory.mktemp("slots"), stats_of(len(rows) + spare or 1, rows))


def test_slots_csv_of_no_slot_is_the_header(tmp_path):
    stats = RunStats(10)
    write_slots_csv(tmp_path / "slots.csv", stats)
    assert (tmp_path / "slots.csv").read_bytes() == (",".join(SLOT_COLUMNS) + "\r\n").encode()
    assert_same_slots_csv(tmp_path, stats)


def test_slots_csv_of_a_run(tmp_path):
    """A simulated run, stopped short of its horizon."""
    sim, rng = small_sim(5)
    learner = CentralizedQLearner(sim.cfg, LearningSchedule(), rng)
    stats = RunStats(500)
    for _ in range(321):
        stats.log_slot(sim, learner.step(sim))
    assert_same_slots_csv(tmp_path, stats)
    with open(tmp_path / "new.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 322 and all(len(r) == len(SLOT_COLUMNS) for r in rows)


# -- oracle CSVs ------------------------------------------------------------


def assert_same_oracle_csvs(tmp_path, system, policy, values, weights) -> None:
    oracle = OracleResult(None, None, None, policy, values, weights)
    new, ref = tmp_path / "new", tmp_path / "ref"
    new.mkdir()
    ref.mkdir()
    files = write_oracle_csv(oracle, system, new)
    ref_write_oracle_csv(oracle, system, ref)
    names = ("policy.csv", "values.csv", "weights.csv")
    assert files == [str(new / name) for name in names]
    for name in names:
        assert (new / name).read_bytes() == (ref / name).read_bytes(), name


def test_oracle_csvs_of_special_floats(tmp_path):
    system = small_config()
    n_states = system.state_space().n_states
    values = np.resize(np.array(SPECIAL_FLOATS), n_states)
    policy = np.arange(n_states) % system.action_space().n_actions
    assert_same_oracle_csvs(tmp_path, system, policy, values, values[::-1].copy())


@settings(max_examples=60, deadline=None)
@given(capacity=st.integers(1, 6), data=st.data())
def test_oracle_csvs_match_row_writer(tmp_path_factory, capacity, data):
    system = small_config(capacity=capacity)
    n_states = system.state_space().n_states
    n_actions = system.action_space().n_actions
    policy = data.draw(st.lists(st.integers(0, n_actions - 1), min_size=n_states, max_size=n_states))
    floats = st.lists(FLOATS, min_size=n_states, max_size=n_states)
    values, weights = data.draw(floats), data.draw(floats)
    assert_same_oracle_csvs(
        tmp_path_factory.mktemp("oracle"), system, np.array(policy), np.array(values), np.array(weights)
    )


# -- SVG polylines ----------------------------------------------------------


def series_strategy():
    def one(n):
        xs = st.lists(CHART_FLOATS, min_size=n, max_size=n)
        return st.tuples(st.just("s"), xs, xs)

    return st.lists(st.integers(1, 40).flatmap(one), min_size=1, max_size=4)


@settings(max_examples=100, deadline=None)
@given(series=series_strategy(), title=st.sampled_from(["", "t"]))
@example(series=[("s", [0.0, 1.0, 2.0], [-0.0, 5e-324, 1e-05])], title="t")
@example(series=[("s", [3.0], [0.1 + 0.2])], title="")
def test_polyline_points_match_float_formatting(tmp_path_factory, series, title):
    path = tmp_path_factory.mktemp("svg") / "chart.svg"
    line_chart(series, str(path), title=title)
    root = ET.parse(path).getroot()
    points = [p.get("points") for p in root.iter("{http://www.w3.org/2000/svg}polyline")]
    assert points == ref_polyline_points(series, title)


def test_polyline_points_of_a_downsampled_series(tmp_path):
    rng = np.random.default_rng(3)
    x = np.arange(1, 8001, dtype=float)
    series = [(f"seed {k}", x, np.cumsum(rng.normal(size=x.size)) / x) for k in range(5)]
    line_chart(series, str(tmp_path / "chart.svg"), title="reward")
    root = ET.parse(tmp_path / "chart.svg").getroot()
    points = [p.get("points") for p in root.iter("{http://www.w3.org/2000/svg}polyline")]
    assert points == ref_polyline_points(series, "reward")

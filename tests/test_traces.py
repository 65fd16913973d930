import numpy as np
import pytest

from conftest import small_config, small_params
from layerq import (
    CoverageError,
    GeneratorParams,
    NonstationarySource,
    ReplaySource,
    StationarySource,
    SystemConfig,
    TraceColumns,
    TraceError,
    TraceSample,
    TripleDistribution,
    UnknownLabelError,
    default_generator_params,
    empirical_arrival_distribution,
    load_csv,
    save_csv,
    synth_columns,
    synth_stationary,
)


def point_params(cycles_a=4e6, cycles_b=6e6):
    """Single-config point-mass generators for P and B units."""
    def cell(c):
        return TripleDistribution(c, 0.0, 10.0, 0.0, 2.0, 0.0)

    return GeneratorParams(configs=("h1",), per_type={"P": (cell(cycles_a),), "B": (cell(cycles_b),)})


def test_triple_distribution_validation():
    for kwargs in (
        dict(cycles_mean=0.0, cycles_sigma=0.1, bits_mean=1, bits_sd=0, distortion_mean=1, distortion_sd=0),
        dict(cycles_mean=1e6, cycles_sigma=-0.1, bits_mean=1, bits_sd=0, distortion_mean=1, distortion_sd=0),
        dict(cycles_mean=1e6, cycles_sigma=0.1, bits_mean=-1, bits_sd=0, distortion_mean=1, distortion_sd=0),
        dict(cycles_mean=1e6, cycles_sigma=0.1, bits_mean=1, bits_sd=-1, distortion_mean=1, distortion_sd=0),
        dict(cycles_mean=1e6, cycles_sigma=0.0, bits_mean=1, bits_sd=0, distortion_mean=1, distortion_sd=0,
             cycles_values=(1e6, -2e6)),
        dict(cycles_mean=1e6, cycles_sigma=0.0, bits_mean=1, bits_sd=0, distortion_mean=1, distortion_sd=0,
             cycles_values=(1e6, 2e6), cycles_probs=(0.5, 0.4)),
        dict(cycles_mean=1e6, cycles_sigma=0.0, bits_mean=1, bits_sd=0, distortion_mean=1, distortion_sd=0,
             cycles_values=(1e6, 2e6), cycles_probs=(1.0,)),
    ):
        with pytest.raises(ValueError):
            TripleDistribution(**kwargs)


def test_point_masses():
    cell = TripleDistribution(3e6, 0.0, 42.0, 0.0, 7.0, 0.0)
    bits, dist, cycles = cell.draw(100, np.random.default_rng(0))
    assert np.all(bits == 42.0) and np.all(dist == 7.0) and np.all(cycles == 3e6)


def test_lognormal_mean_parameterization():
    """The lognormal is mean-parameterized: sample mean ~ cycles_mean."""
    cell = TripleDistribution(1e7, 0.4, 50.0, 10.0, 8.0, 1.0)
    _, _, cycles = cell.draw(100_000, np.random.default_rng(1))
    assert cycles.mean() == pytest.approx(1e7, rel=0.02)
    assert np.all(cycles > 0)


def test_normals_clip_at_zero():
    cell = TripleDistribution(1e6, 0.0, 1.0, 5.0, 0.5, 3.0)
    bits, dist, _ = cell.draw(10_000, np.random.default_rng(2))
    assert bits.min() == 0.0 and dist.min() == 0.0


def test_empirical_cycle_support():
    cell = TripleDistribution(5e6, 0.0, 1.0, 0.0, 1.0, 0.0,
                              cycles_values=(3e6, 7e6), cycles_probs=(0.25, 0.75))
    _, _, cycles = cell.draw(40_000, np.random.default_rng(3))
    assert set(np.unique(cycles)) == {3e6, 7e6}
    assert (cycles == 7e6).mean() == pytest.approx(0.75, abs=0.01)


def test_scaled():
    cell = TripleDistribution(1e7, 0.4, 50.0, 5.0, 8.0, 1.0, cycles_values=(1e7, 2e7), cycles_probs=(0.5, 0.5))
    scaled = cell.scaled(cycles_scale=2.0, bits_scale=0.5, distortion_scale=3.0)
    assert scaled.cycles_mean == 2e7 and scaled.cycles_values == (2e7, 4e7)
    assert scaled.cycles_probs == (0.5, 0.5)
    assert scaled.bits_mean == 25.0 and scaled.bits_sd == 2.5
    assert scaled.distortion_mean == 24.0 and scaled.distortion_sd == 3.0


def test_generator_params_validation():
    cell = TripleDistribution(1e6, 0.0, 1.0, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        GeneratorParams(configs=("h1", "h2"), per_type={"P": (cell,)})
    params = GeneratorParams(configs=("h1",), per_type={"P": (cell,)})
    assert params.for_type("P") == (cell,)
    with pytest.raises(ValueError):
        params.for_type("I")
    assert params.scaled(cycles_scale=2.0).for_type("P")[0].cycles_mean == 2e6


def test_default_params_shape():
    params = default_generator_params()
    assert params.configs == ("h1", "h2", "h3")
    assert set(params.per_type) == {"P", "B", "I"}
    for label in ("P", "B", "I"):
        cells = params.for_type(label)
        assert len(cells) == 3
        # h1 is the heavy high-quality config; cycle demand falls toward h3
        assert cells[0].cycles_mean > cells[1].cycles_mean > cells[2].cycles_mean
        assert cells[0].bits_mean < cells[2].bits_mean
        assert cells[0].distortion_mean < cells[2].distortion_mean


def test_stationary_source_deterministic_across_refills():
    params = small_params()
    a = StationarySource(params, ("P", "B"), np.random.default_rng(5), block=16)
    b = StationarySource(params, ("P", "B"), np.random.default_rng(5), block=16)
    for i in range(64):
        type_idx = i % 2
        sa, sb = a.draw(type_idx), b.draw(type_idx)
        assert sa.unit_type == sb.unit_type == ("P", "B")[type_idx]
        assert np.array_equal(sa.cycles, sb.cycles)
        assert np.array_equal(sa.bits, sb.bits)
        assert sa.index == sb.index == i


def test_nonstationary_boundaries_and_cycling():
    params_a = point_params(cycles_a=4e6, cycles_b=4e6)
    params_b = point_params(cycles_a=8e6, cycles_b=8e6)
    source = NonstationarySource([(5, params_a), (3, params_b)], ("P", "B"), np.random.default_rng(0))
    cycles = [source.draw(i % 2).cycles[0] for i in range(16)]
    assert cycles == [4e6] * 5 + [8e6] * 3 + [4e6] * 5 + [8e6] * 3
    with pytest.raises(ValueError):
        NonstationarySource([], ("P",), np.random.default_rng(0))
    with pytest.raises(ValueError):
        NonstationarySource([(0, params_a)], ("P",), np.random.default_rng(0))


def make_rows(labels):
    return [
        TraceSample(i, label, np.array([10.0]), np.array([2.0]), np.array([1e6 * (i + 1)]))
        for i, label in enumerate(labels)
    ]


def test_replay_source_cycles_per_type():
    rows = make_rows(["P", "B", "P"])
    source = ReplaySource(rows, ("P", "B"))
    assert [source.draw(0).cycles[0] for _ in range(4)] == [1e6, 3e6, 1e6, 3e6]
    assert [source.draw(1).cycles[0] for _ in range(3)] == [2e6, 2e6, 2e6]
    with pytest.raises(CoverageError):
        ReplaySource(make_rows(["P", "P"]), ("P", "B"))


def test_csv_round_trip(tmp_path):
    params = small_params()
    samples = synth_stationary(params, ["P", "B"] * 10, np.random.default_rng(4))
    path = tmp_path / "trace.csv"
    save_csv(samples, path)
    header = path.read_text().splitlines()[0]
    assert header == "n,z,b_h1,d_h1,c_h1,b_h2,d_h2,c_h2"
    loaded = load_csv(path)
    assert len(loaded) == len(samples)
    for orig, back in zip(samples, loaded):
        assert back.index == orig.index and back.unit_type == orig.unit_type
        assert np.array_equal(back.bits, orig.bits)
        assert np.array_equal(back.distortion, orig.distortion)
        # cycles are written as integers; the small-instance supports are integral
        assert np.array_equal(back.cycles, orig.cycles)


def write_lines(tmp_path, lines):
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_load_csv_errors_name_the_line(tmp_path):
    header = "n,z,b_h1,d_h1,c_h1"
    cases = [
        ([header, "0,P,1.0,2.0,1000", "1,P,1.0,2.0"], "line 3"),
        ([header, "x,P,1.0,2.0,1000"], "line 2"),
        ([header, "0, ,1.0,2.0,1000"], "line 2: empty type label"),
        ([header, "0,P,abc,2.0,1000"], "line 2"),
        ([header, "0,P,-1.0,2.0,1000"], "line 2"),
        ([header, "0,P,1.0,2.0,0"], "line 2"),
    ]
    for lines, needle in cases:
        with pytest.raises(TraceError) as err:
            load_csv(write_lines(tmp_path, lines))
        assert needle in str(err.value)


def test_load_csv_labels(tmp_path):
    """Any non-empty label loads; a given label set names the first stray line."""
    header = "n,z,b_h1,d_h1,c_h1"
    path = write_lines(tmp_path, [header, "0,key,1.0,2.0,1000", "1,Q,1.0,2.0,1000"])
    assert [s.unit_type for s in load_csv(path)] == ["key", "Q"]
    assert len(load_csv(path, ("key", "Q"))) == 2
    with pytest.raises(UnknownLabelError, match="line 3: unknown type label 'Q'"):
        load_csv(path, ("key", "delta"))
    assert issubclass(UnknownLabelError, TraceError)


def test_load_csv_header_errors(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(TraceError):
        load_csv(path)
    with pytest.raises(TraceError):
        load_csv(write_lines(tmp_path, ["n,z,b_h1,d_h1"]))
    with pytest.raises(TraceError):
        load_csv(write_lines(tmp_path, ["n,z,c_h1,b_h1,d_h1"]))


def test_save_csv_empty_raises(tmp_path):
    with pytest.raises(ValueError):
        save_csv([], tmp_path / "nothing.csv")


def test_synth_stationary_metadata():
    labels = ["B", "P", "P", "B"]
    samples = synth_stationary(small_params(), labels, np.random.default_rng(6))
    assert [s.index for s in samples] == [0, 1, 2, 3]
    assert [s.unit_type for s in samples] == labels
    again = synth_stationary(small_params(), labels, np.random.default_rng(6))
    for a, b in zip(samples, again):
        assert np.array_equal(a.cycles, b.cycles)


def test_empirical_arrivals_match_scalar_floors():
    """The pmf support reproduces int(c/f * eta) applied sample by sample."""
    cfg = small_config()
    samples = synth_stationary(small_params(), ["P", "B"] * 40, np.random.default_rng(8))
    dyn = empirical_arrival_distribution(samples, cfg, min_samples=len(samples))
    dyn.validate(cfg)
    n_counts = dyn.arrival_pmf.shape[3]
    for fi, f in enumerate(cfg.frequencies):
        for zi, label in enumerate(cfg.unit_types):
            rows = [s for s in samples if s.unit_type == label]
            for hi in range(len(cfg.configs)):
                counts = np.zeros(n_counts)
                for s in rows:
                    counts[int(float(s.cycles[hi]) / f * cfg.arrival_rate)] += 1
                assert np.array_equal(dyn.arrival_pmf[fi, zi, hi], counts / len(rows))
    expected_rd = np.array(
        [
            [
                np.mean([s.distortion[hi] + cfg.rd_lambda * s.bits[hi] for s in samples if s.unit_type == label])
                for hi in range(2)
            ]
            for label in cfg.unit_types
        ]
    )
    assert dyn.mean_rd_cost == pytest.approx(expected_rd, rel=1e-12)
    assert dyn.sample_counts.tolist() == [40, 40]


def test_empirical_arrivals_errors():
    cfg = small_config()
    samples = synth_stationary(small_params(), ["P", "B"] * 40, np.random.default_rng(8))
    with pytest.raises(ValueError):
        empirical_arrival_distribution(samples, cfg, min_samples=10_000)
    only_p = [s for s in samples if s.unit_type == "P"]
    with pytest.raises(CoverageError):
        empirical_arrival_distribution(only_p, cfg, min_samples=1)
    bad = [TraceSample(0, "P", np.array([1.0]), np.array([1.0]), np.array([1e6]))]
    with pytest.raises(TraceError):
        empirical_arrival_distribution(bad * 5, cfg, min_samples=1)


def test_synth_columns_match_synth_stationary():
    """Same draws, in the same order, as the object-based synthesis."""
    unit_types = ("P", "B", "I")
    walk = np.random.default_rng(3).integers(3, size=500)
    labels = [unit_types[z] for z in walk]
    rng_obj = np.random.default_rng(12)
    rng_col = np.random.default_rng(12)
    samples = synth_stationary(default_generator_params(), labels, rng_obj)
    counts = np.bincount(walk, minlength=3).tolist()
    stream = synth_columns(default_generator_params(), unit_types, counts, rng_col)
    untouched = rng_col.bit_generator.state
    columns = dict(stream)
    assert untouched != rng_col.bit_generator.state  # drawn as the stream is read
    assert rng_obj.random() == rng_col.random()  # both consumed the same stream
    assert list(columns) == ["B", "I", "P"]
    assert sum(len(cols[0]) for cols in columns.values()) == 500
    for label in unit_types:
        rows = [s for s in samples if s.unit_type == label]
        bits, dist, cyc = columns[label]
        assert np.array_equal(bits, np.array([s.bits for s in rows]))
        assert np.array_equal(dist, np.array([s.distortion for s in rows]))
        assert np.array_equal(cyc, np.array([s.cycles for s in rows]))
    # a type the sequence never reaches gets no columns and no draws
    only_p = dict(synth_columns(default_generator_params(), unit_types, [4, 0, 0], rng_col))
    assert list(only_p) == ["P"] and len(only_p["P"][0]) == 4


def test_empirical_arrivals_from_columns_match_samples():
    cfg = small_config()
    samples = synth_stationary(small_params(), ["P", "B", "B"] * 40, np.random.default_rng(8))
    from_samples = empirical_arrival_distribution(samples, cfg, min_samples=1)
    columns = TraceColumns.from_samples(samples)
    from_columns = empirical_arrival_distribution(columns, cfg, min_samples=1)
    assert np.array_equal(from_samples.arrival_pmf, from_columns.arrival_pmf)
    assert np.array_equal(from_samples.mean_rd_cost, from_columns.mean_rd_cost)
    assert from_columns.sample_counts.tolist() == [40, 80]
    with pytest.raises(ValueError):
        empirical_arrival_distribution(columns, cfg, min_samples=121)
    with pytest.raises(CoverageError):
        empirical_arrival_distribution(TraceColumns({"P": columns.by_type["P"]}), cfg, min_samples=1)
    narrow = {label: tuple(a[:, :1] for a in cols) for label, cols in columns.by_type.items()}
    with pytest.raises(TraceError):
        empirical_arrival_distribution(TraceColumns(narrow), cfg, min_samples=1)


def ref_arrival_pmf(columns: TraceColumns, cfg) -> np.ndarray:
    """The arrival pmfs as first written: every cell's counts held at once,
    then binned to the global support."""
    counts_per_cell = [
        [np.floor(columns.by_type[label][2] / f * cfg.arrival_rate).astype(np.int64) for f in cfg.frequencies]
        for label in cfg.unit_types
    ]
    n_counts = 1 + max(int(per_freq.max()) for row in counts_per_cell for per_freq in row)
    nf, nz, nh = len(cfg.frequencies), len(cfg.unit_types), len(cfg.configs)
    pmf = np.zeros((nf, nz, nh, n_counts))
    for zi in range(nz):
        for fi in range(nf):
            for hi in range(nh):
                binned = np.bincount(counts_per_cell[zi][fi][:, hi], minlength=n_counts)
                pmf[fi, zi, hi] = binned / binned.sum()
    return pmf


@pytest.mark.parametrize("units, seed", [(3, 0), (500, 1), (20_000, 777)])
def test_empirical_arrivals_bin_one_cell_at_a_time(units, seed):
    """Binning each cell as its counts are made gives the reference's pmf, bit
    for bit and with the same support, the largest count over all cells."""
    cfg = SystemConfig()
    counts = np.bincount(np.arange(units) % len(cfg.unit_types), minlength=len(cfg.unit_types))
    columns = TraceColumns(
        dict(synth_columns(default_generator_params(), cfg.unit_types, counts, np.random.default_rng(seed)))
    )
    pmf = empirical_arrival_distribution(columns, cfg, min_samples=1).arrival_pmf
    ref = ref_arrival_pmf(columns, cfg)
    assert pmf.shape == ref.shape and pmf.tobytes() == ref.tobytes()
    # the lazy stream, reduced type by type, gives the same bytes
    stream = synth_columns(default_generator_params(), cfg.unit_types, counts, np.random.default_rng(seed))
    assert empirical_arrival_distribution(stream, cfg, min_samples=1).arrival_pmf.tobytes() == ref.tobytes()

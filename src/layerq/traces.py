"""Per-data-unit measurement streams.

Every sample carries (bits, distortion, cycles) for all encoder configurations
of one data unit. Streams come from CSV files (replay), or from synthetic
generators: lognormal cycle counts and normals clipped at zero for bits and
distortion, i.i.d. per (type, config) in the stationary regime and
piecewise-stationary in the non-stationary regime. One block source draws both:
a stationary trace is one segment that never ends.

The type sequence itself is not produced here: the simulator owns the type
Markov chain and asks a source for the next sample of a given type.

Estimation traces are columns, one (bits, distortion, cycles) triple of
(n_units, n_configs) arrays per type. `synth_columns` draws them lazily, one
type at a time, and `empirical_arrival_distribution` reduces each type before
the next is drawn, so the oracle never holds a whole estimation trace.
`TraceSample` objects are kept for CSV files and replay.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .system import EmpiricalDynamics, SystemConfig


class TraceError(ValueError):
    """Malformed trace data (parse failures carry the offending line number)."""


class UnknownLabelError(TraceError):
    """A trace row's type label is not one of the configured unit types."""


class CoverageError(ValueError):
    """A (type, config) cell has no observations; lists the missing cells."""


@dataclass(slots=True)
class TraceSample:
    """One data unit: type plus per-configuration measurement triples."""

    index: int
    unit_type: str
    bits: np.ndarray
    distortion: np.ndarray
    cycles: np.ndarray


@dataclass
class TraceColumns:
    """A trace grouped by unit type, for estimation.

    by_type[label] is (bits, distortion, cycles), each (n_units, n_configs),
    with row k the k-th unit of that type in trace order.
    """

    by_type: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]

    @classmethod
    def from_samples(cls, samples: list[TraceSample]) -> "TraceColumns":
        rows: dict[str, list[tuple]] = {}
        for s in samples:
            rows.setdefault(s.unit_type, []).append((s.bits, s.distortion, s.cycles))
        return cls({label: tuple(np.array(col) for col in zip(*group)) for label, group in rows.items()})


@dataclass(frozen=True)
class TripleDistribution:
    """Generator for one (type, config) cell.

    Cycles are lognormal with the given mean and log-space sigma unless
    explicit empirical support points (cycles_values, cycles_probs) are
    supplied. Bits and distortion are normals clipped at zero. Zero sigmas and
    sds give point masses.
    """

    cycles_mean: float
    cycles_sigma: float
    bits_mean: float
    bits_sd: float
    distortion_mean: float
    distortion_sd: float
    cycles_values: tuple[float, ...] | None = None
    cycles_probs: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.cycles_values is None:
            if self.cycles_mean <= 0:
                raise ValueError("cycles_mean must be positive")
            if self.cycles_sigma < 0:
                raise ValueError("cycles_sigma must be >= 0")
        else:
            if len(self.cycles_values) == 0 or any(v <= 0 for v in self.cycles_values):
                raise ValueError("cycles_values must be positive")
            if self.cycles_probs is not None and (
                len(self.cycles_probs) != len(self.cycles_values)
                or abs(sum(self.cycles_probs) - 1.0) > 1e-9
            ):
                raise ValueError("cycles_probs must match cycles_values and sum to 1")
        if self.bits_mean < 0 or self.distortion_mean < 0:
            raise ValueError("bits_mean and distortion_mean must be >= 0")
        if self.bits_sd < 0 or self.distortion_sd < 0:
            raise ValueError("bits_sd and distortion_sd must be >= 0")

    def draw(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self.cycles_values is not None:
            cycles = rng.choice(np.array(self.cycles_values), size=n, p=self.cycles_probs)
        elif self.cycles_sigma == 0.0:
            cycles = np.full(n, self.cycles_mean)
        else:
            # mean-parameterized lognormal: mu = ln(mean) - sigma^2 / 2
            mu = math.log(self.cycles_mean) - 0.5 * self.cycles_sigma**2
            cycles = rng.lognormal(mu, self.cycles_sigma, size=n)
        bits = np.clip(rng.normal(self.bits_mean, self.bits_sd, size=n), 0.0, None)
        distortion = np.clip(rng.normal(self.distortion_mean, self.distortion_sd, size=n), 0.0, None)
        return bits, distortion, cycles

    def scaled(self, cycles_scale=1.0, bits_scale=1.0, distortion_scale=1.0) -> "TripleDistribution":
        values = self.cycles_values
        if values is not None:
            values = tuple(v * cycles_scale for v in values)
        return TripleDistribution(
            cycles_mean=self.cycles_mean * cycles_scale,
            cycles_sigma=self.cycles_sigma,
            bits_mean=self.bits_mean * bits_scale,
            bits_sd=self.bits_sd * bits_scale,
            distortion_mean=self.distortion_mean * distortion_scale,
            distortion_sd=self.distortion_sd * distortion_scale,
            cycles_values=values,
            cycles_probs=self.cycles_probs,
        )


@dataclass(frozen=True)
class GeneratorParams:
    """Per-type, per-config generator table; configs ordered as in the system."""

    configs: tuple[str, ...]
    per_type: dict[str, tuple[TripleDistribution, ...]]

    def __post_init__(self):
        for label, cells in self.per_type.items():
            if len(cells) != len(self.configs):
                raise ValueError(f"type {label!r} has {len(cells)} cells, expected {len(self.configs)}")

    def for_type(self, label: str) -> tuple[TripleDistribution, ...]:
        try:
            return self.per_type[label]
        except KeyError:
            raise ValueError(f"no generator params for unit type {label!r}") from None

    def scaled(self, cycles_scale=1.0, bits_scale=1.0, distortion_scale=1.0) -> "GeneratorParams":
        return GeneratorParams(
            configs=self.configs,
            per_type={
                label: tuple(c.scaled(cycles_scale, bits_scale, distortion_scale) for c in cells)
                for label, cells in self.per_type.items()
            },
        )


def _draw_cells(cells, n: int, rng: np.random.Generator):
    """n units of one type: (bits, distortion, cycles), each (n, n_configs),
    drawn cell by cell in config order."""
    bits = np.empty((n, len(cells)))
    dist = np.empty((n, len(cells)))
    cyc = np.empty((n, len(cells)))
    for h, cell in enumerate(cells):
        bits[:, h], dist[:, h], cyc[:, h] = cell.draw(n, rng)
    return bits, dist, cyc


def default_generator_params() -> GeneratorParams:
    """Default synthetic workload.

    Configs order h1 -> h3 from best rate-distortion / highest complexity to
    worst / cheapest; I units are the heaviest, B the lightest. h1 is heavy
    enough that no frequency can drain the buffer under it, so a controller
    that ignores the buffer and maximizes quality pins the queue; h2/h3 are
    drainable at mid/low frequencies.
    """
    base_cycles = (45e6, 14e6, 7e6)
    base_bits = (60.0, 75.0, 90.0)
    base_dist = (10.0, 12.0, 13.5)
    type_factors = {"P": (1.0, 1.0, 1.0), "B": (0.75, 0.7, 0.95), "I": (1.8, 2.2, 1.1)}
    per_type = {}
    for label, (cf, bf, df) in type_factors.items():
        per_type[label] = tuple(
            TripleDistribution(
                cycles_mean=base_cycles[h] * cf,
                cycles_sigma=0.4,
                bits_mean=base_bits[h] * bf,
                bits_sd=0.2 * base_bits[h] * bf,
                distortion_mean=base_dist[h] * df,
                distortion_sd=0.15 * base_dist[h] * df,
            )
            for h in range(3)
        )
    return GeneratorParams(configs=("h1", "h2", "h3"), per_type=per_type)


class StationarySource:
    """Draw-on-demand samples per type from a schedule of generator segments.

    segments is a list of (duration, GeneratorParams); a stationary trace is
    one segment of infinite duration (np.inf), and a schedule cycles when the
    stream outlives it. Each type is drawn in blocks of min(block, draws left
    in the segment) units, and every block is dropped when a segment ends, so
    each boundary lands on its exact draw index and no block reaches past it.
    """

    def __init__(self, segments, unit_types, rng: np.random.Generator, block: int = 4096):
        if not segments:
            raise ValueError("need at least one segment")
        if any(d <= 0 for d, _ in segments):
            raise ValueError("segment durations must be positive")
        self.segments = list(segments)
        self.unit_types = tuple(unit_types)
        self.rng = rng
        self.block = block
        self._segment = -1
        self._count = 0
        self._start_segment()

    def _start_segment(self) -> None:
        self._segment = (self._segment + 1) % len(self.segments)
        self._left, params = self.segments[self._segment]  # draws left in the segment
        self._cells = [params.for_type(label) for label in self.unit_types]
        self._buffers = [()] * len(self.unit_types)
        self._sizes = [0] * len(self.unit_types)
        self._cursors = [0] * len(self.unit_types)

    def draw(self, type_idx: int) -> TraceSample:
        if not self._left:
            self._start_segment()
        cursor = self._cursors[type_idx]
        if cursor == self._sizes[type_idx]:
            n = self._sizes[type_idx] = min(self.block, self._left)
            self._buffers[type_idx] = _draw_cells(self._cells[type_idx], n, self.rng)
            cursor = 0
        buf = self._buffers[type_idx]
        self._cursors[type_idx] = cursor + 1
        self._left -= 1
        label = self.unit_types[type_idx]
        sample = TraceSample(self._count, label, buf[0][cursor], buf[1][cursor], buf[2][cursor])
        self._count += 1
        return sample


class ReplaySource:
    """Serve loaded samples by type, cycling each type's rows in file order."""

    def __init__(self, samples: list[TraceSample], unit_types):
        self.unit_types = tuple(unit_types)
        self._by_type: list[list[TraceSample]] = [[] for _ in self.unit_types]
        label_to_idx = {label: i for i, label in enumerate(self.unit_types)}
        for s in samples:
            idx = label_to_idx.get(s.unit_type)
            if idx is not None:
                self._by_type[idx].append(s)
        missing = [label for i, label in enumerate(self.unit_types) if not self._by_type[i]]
        if missing:
            raise CoverageError(f"trace has no samples of type(s) {missing}")
        self._cursors = [0] * len(self.unit_types)

    def draw(self, type_idx: int) -> TraceSample:
        rows = self._by_type[type_idx]
        cursor = self._cursors[type_idx]
        self._cursors[type_idx] = (cursor + 1) % len(rows)
        return rows[cursor]


def _expected_header(n_configs: int) -> list[str]:
    cols = ["n", "z"]
    for h in range(1, n_configs + 1):
        cols += [f"b_h{h}", f"d_h{h}", f"c_h{h}"]
    return cols


def load_csv(path, unit_types=None) -> list[TraceSample]:
    """Read a trace file: one row per data unit, triples per configuration.

    Header `n,z,b_h1,d_h1,c_h1,...` is mandatory; the configuration count is
    inferred from it. Raises TraceError naming the line on any malformed row.
    A type label is any non-empty string; when unit_types is given, a label
    outside it raises UnknownLabelError naming the line.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TraceError("empty trace file") from None
        if len(header) < 5 or (len(header) - 2) % 3 != 0:
            raise TraceError(f"header has {len(header)} columns, expected 2 + 3 per config")
        n_configs = (len(header) - 2) // 3
        if [c.strip() for c in header] != _expected_header(n_configs):
            raise TraceError(f"unexpected header {header}")
        samples = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise TraceError(f"line {line_no}: expected {len(header)} fields, got {len(row)}")
            try:
                index = int(row[0])
            except ValueError:
                raise TraceError(f"line {line_no}: non-integer index {row[0]!r}") from None
            unit_type = row[1].strip()
            if not unit_type:
                raise TraceError(f"line {line_no}: empty type label")
            if unit_types is not None and unit_type not in unit_types:
                raise UnknownLabelError(f"line {line_no}: unknown type label {unit_type!r}")
            try:
                values = [float(x) for x in row[2:]]
            except ValueError:
                raise TraceError(f"line {line_no}: non-numeric measurement") from None
            bits = np.array(values[0::3])
            dist = np.array(values[1::3])
            cyc = np.array(values[2::3])
            if np.any(bits < 0) or np.any(dist < 0):
                raise TraceError(f"line {line_no}: negative bits or distortion")
            if np.any(cyc <= 0):
                raise TraceError(f"line {line_no}: non-positive cycle count")
            samples.append(TraceSample(index, unit_type, bits, dist, cyc))
    return samples


def save_csv(samples: list[TraceSample], path) -> None:
    if not samples:
        raise ValueError("no samples to write")
    n_configs = len(samples[0].bits)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_expected_header(n_configs))
        for s in samples:
            row = [s.index, s.unit_type]
            for h in range(n_configs):
                row += [repr(float(s.bits[h])), repr(float(s.distortion[h])), int(round(s.cycles[h]))]
            writer.writerow(row)


def synth_stationary(params: GeneratorParams, z_sequence, rng: np.random.Generator) -> list[TraceSample]:
    """Materialize a finite i.i.d. trace for an externally supplied type sequence."""
    z_sequence = list(z_sequence)
    positions: dict[str, list[int]] = {}
    for i, label in enumerate(z_sequence):
        positions.setdefault(label, []).append(i)
    samples: list[TraceSample | None] = [None] * len(z_sequence)
    for label in sorted(positions):
        idx = positions[label]
        bits, dist, cyc = _draw_cells(params.for_type(label), len(idx), rng)
        for k, i in enumerate(idx):
            samples[i] = TraceSample(i, label, bits[k], dist[k], cyc[k])
    return samples  # type: ignore[return-value]


def synth_columns(params: GeneratorParams, unit_types, counts, rng: np.random.Generator):
    """Lazy columnar synth_stationary for a sequence with counts[i] units of
    unit_types[i]: yields (label, (bits, distortion, cycles)) per type with
    units, each drawn only when asked for, with synth_stationary's draws in
    its order (labels sorted, then cells in config order), so the rng use and
    the values are the same."""
    for label, n in sorted(zip(unit_types, counts)):
        if n:
            yield label, _draw_cells(params.for_type(label), n, rng)


def empirical_arrival_distribution(
    trace, cfg: SystemConfig, min_samples: int = 10_000
) -> EmpiricalDynamics:
    """Estimate per-(frequency, type, config) arrival-count pmfs and mean costs.

    trace is a list of TraceSample, a TraceColumns, or any iterable of
    (label, (bits, distortion, cycles)) such as synth_columns yields. Each
    type is reduced to its binned arrival counts and mean cost before the
    next is read, so a lazy stream holds one type's columns at a time.
    Arrival counts are floor(cycles / f * arrival_rate) with the same
    operation order as the simulator, so the floors agree bit-for-bit. Units
    of types outside cfg.unit_types are ignored.
    """
    nf, nz, nh = len(cfg.frequencies), len(cfg.unit_types), len(cfg.configs)
    if isinstance(trace, list) and trace and isinstance(trace[0], TraceSample):
        for s in trace:
            if len(s.bits) != nh:
                raise TraceError(f"sample {s.index} has {len(s.bits)} configs, expected {nh}")
        trace = TraceColumns.from_samples(trace)
    if isinstance(trace, TraceColumns):
        trace = trace.by_type.items()

    type_index = {label: zi for zi, label in enumerate(cfg.unit_types)}
    # Each (frequency, config) cell is binned as its counts are made, through
    # one reused buffer: holding every cell's counts would take
    # n_units * n_configs * n_freqs int64s.
    binned: dict[tuple[int, int, int], np.ndarray] = {}
    mean_rd = np.zeros((nz, nh))
    sample_counts = np.zeros(nz, dtype=int)
    n_units = 0
    for label, (bits, dist, cycles) in trace:
        n_units += len(bits)
        zi = type_index.get(label)
        if zi is None:
            continue
        if bits.shape[1] != nh:
            raise TraceError(f"type {label!r} has {bits.shape[1]} configs, expected {nh}")
        sample_counts[zi] = len(bits)
        # lambda * bits + dist: IEEE addition commutes, so this is the
        # simulator's dist + lambda * bits to the bit
        rd = np.multiply(bits, cfg.rd_lambda)
        rd += dist
        mean_rd[zi] = rd.mean(axis=0)
        del rd  # before the binning buffers are made
        scaled = np.empty(len(cycles))
        counts = np.empty(len(cycles), dtype=np.int64)
        for fi, f in enumerate(cfg.frequencies):
            for hi in range(nh):
                np.divide(cycles[:, hi], f, out=scaled)
                np.multiply(scaled, cfg.arrival_rate, out=scaled)
                np.floor(scaled, out=counts, casting="unsafe")
                binned[fi, zi, hi] = np.bincount(counts)
        del bits, dist, cycles  # before the stream draws the next type

    if n_units < min_samples:
        raise ValueError(f"trace has {n_units} samples, need >= {min_samples}")
    missing = [
        (label, h) for label, n in zip(cfg.unit_types, sample_counts) if not n for h in cfg.configs
    ]
    if missing:
        raise CoverageError(f"no observations for cells {missing}")

    pmf = np.zeros((nf, nz, nh, max(b.size for b in binned.values())))
    for (fi, zi, hi), b in binned.items():
        pmf[fi, zi, hi, : b.size] = b / b.sum()

    return EmpiricalDynamics(arrival_pmf=pmf, mean_rd_cost=mean_rd, sample_counts=sample_counts)

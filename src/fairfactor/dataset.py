"""HMD 1x1 life-table ingestion, centered log-mortality panels, synthetic panels, long CSV files.

A panel stores y[t, i] = ln(m[t, i]) - a[i] for one group, where the intercept
a is the per-age mean of the log rates over the panel's (training) years, so
ln m = y + a gives the original rates back exactly.
"""

import math
from array import array
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .linalg import _is_integer, nearest_orthonormal

__all__ = [
    "DataError",
    "HmdFormatError",
    "MortalityTable",
    "Panel",
    "GroupedPanel",
    "SynthTruth",
    "parse_hmd_1x1",
    "build_panel",
    "split_train_test",
    "synthesize",
    "long_csv_lines",
    "long_csv_rows",
    "cell_matrix",
    "panels_csv_lines",
    "panels_from_csv",
]

PANEL_CSV_HEADER = ["group", "year", "age", "log_rate_centered", "intercept"]

OPEN_AGE_CLASS = 110


class DataError(ValueError):
    """Raised for inconsistent or incomplete mortality data."""


class HmdFormatError(DataError):
    """Raised for malformed HMD 1x1 input; the message carries the line number."""


@dataclass(frozen=True)
class MortalityTable:
    """Period death rates by (year, age), one column per population group."""

    years: np.ndarray
    ages: np.ndarray
    rates: dict[str, np.ndarray]  # group -> rates aligned with years/ages; NaN = missing

    def __post_init__(self):
        n = len(self.years)
        if len(self.ages) != n or any(len(v) != n for v in self.rates.values()):
            raise DataError("year/age/rate columns have mismatched lengths")


def _parse_rate(token: str, lineno: int) -> float:
    if token == ".":
        return float("nan")
    try:
        value = float(token)
    except ValueError:
        raise HmdFormatError(f"line {lineno}: unreadable rate {token!r}") from None
    if not math.isfinite(value) or value < 0.0:
        raise HmdFormatError(f"line {lineno}: rate {token!r} is not a finite non-negative number")
    return value


def parse_hmd_1x1(text: str | Iterable[str]) -> MortalityTable:
    """Parse an HMD Mx 1x1 file (columns Year, Age, Female, Male, Total).

    The first two lines are headers. A column-name line starting with "Year"
    is tolerated wherever it appears. Age "110+" maps to 110, missing rates
    "." map to NaN. Years must lie in 0-9999 and ages in 0-110, years must be
    non-decreasing, and duplicate (year, age) cells are rejected. Takes the
    file's text or its lines, such as those of a file read one at a time.
    """
    lines = text.splitlines() if isinstance(text, str) else text
    # typed columns: 8 bytes a cell, where a list holds a pointer plus a Python object
    years, ages = array("l"), array("l")
    female, male, total = array("d"), array("d"), array("d")
    year_ages: set[int] = set()  # ages seen in prev_year; years never go back, so no other year can repeat
    prev_year = None
    for lineno, raw in enumerate(lines, start=1):
        if lineno <= 2:
            continue
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0].lower() == "year":
            continue
        if len(tokens) != 5:
            raise HmdFormatError(f"line {lineno}: expected 5 columns, got {len(tokens)}")
        try:
            year = int(tokens[0])
        except ValueError:
            raise HmdFormatError(f"line {lineno}: unreadable year {tokens[0]!r}") from None
        age_token = tokens[1]
        if age_token.endswith("+"):
            age_token = age_token[:-1]
        try:
            age = int(age_token)
        except ValueError:
            raise HmdFormatError(f"line {lineno}: unreadable age {tokens[1]!r}") from None
        if not (0 <= year <= 9999 and 0 <= age <= OPEN_AGE_CLASS):
            raise HmdFormatError(f"line {lineno}: year {year} or age {age} outside 0-9999, 0-{OPEN_AGE_CLASS}")
        if prev_year is not None and year < prev_year:
            raise HmdFormatError(f"line {lineno}: year {year} breaks the non-decreasing year order")
        if year != prev_year:
            prev_year = year
            year_ages.clear()
        if age in year_ages:
            raise HmdFormatError(f"line {lineno}: duplicate cell for year {year}, age {age}")
        year_ages.add(age)
        years.append(year)
        ages.append(age)
        female.append(_parse_rate(tokens[2], lineno))
        male.append(_parse_rate(tokens[3], lineno))
        total.append(_parse_rate(tokens[4], lineno))
    columns = (np.frombuffer(c, dtype=c.typecode) for c in (years, ages, female, male, total))
    years, ages, female, male, total = columns  # views that share the typed columns' memory, not copies
    return MortalityTable(years=years, ages=ages, rates={"female": female, "male": male, "total": total})


@dataclass(frozen=True)
class Panel:
    """Centered log-mortality panel for one group over a year/age window."""

    group: str
    years: np.ndarray
    ages: np.ndarray
    y: np.ndarray  # (T, N) centered log rates
    intercept: np.ndarray  # (N,)

    def __post_init__(self):
        T, N = self.y.shape
        if len(self.years) != T or len(self.ages) != N or len(self.intercept) != N:
            raise DataError(f"panel {self.group!r}: inconsistent shapes")
        if not (np.isfinite(self.y).all() and np.isfinite(self.intercept).all()):
            raise DataError(f"panel {self.group!r}: non-finite entries in y or the intercept")

    @property
    def n_years(self) -> int:
        return self.y.shape[0]

    @property
    def n_ages(self) -> int:
        return self.y.shape[1]

    def log_rates(self, y: np.ndarray | None = None) -> np.ndarray:
        """Log rates ln(m) = y + intercept of (..., N) centered values, the panel's y by default."""
        return (self.y if y is None else y) + self.intercept

    def rates(self) -> np.ndarray:
        """Original death rates m, recovered exactly from y and the intercept."""
        return np.exp(self.log_rates())

    def take_rows(self, rows: np.ndarray) -> "Panel":
        """Row subset sharing this panel's intercept (no re-centering)."""
        return Panel(self.group, self.years[rows], self.ages, self.y[rows], self.intercept)


@dataclass(frozen=True)
class GroupedPanel:
    """Age-aligned panels for K >= 2 groups."""

    panels: tuple[Panel, ...]

    def __post_init__(self):
        if len(self.panels) < 2:
            raise DataError("a grouped panel needs at least two groups")
        ages = self.panels[0].ages
        for p in self.panels[1:]:
            if p.n_ages != len(ages) or not np.array_equal(p.ages, ages):
                raise DataError(f"group {p.group!r} is not age-aligned with {self.panels[0].group!r}")
        labels = [p.group for p in self.panels]
        if len(set(labels)) != len(labels):
            raise DataError("duplicate group labels")

    @property
    def groups(self) -> tuple[str, ...]:
        return tuple(p.group for p in self.panels)

    @property
    def n_ages(self) -> int:
        return self.panels[0].n_ages

    @property
    def total_rows(self) -> int:
        return sum(p.n_years for p in self.panels)

    @property
    def group_rows(self) -> np.ndarray:
        return np.array([p.n_years for p in self.panels], dtype=int)

    def stacked(self) -> np.ndarray:
        return np.vstack([p.y for p in self.panels])


def build_panel(table: MortalityTable, group: str, ages: tuple[int, int], years: tuple[int, int]) -> Panel:
    """Build a centered log-mortality panel over inclusive age/year windows.

    Every cell in the window must be present with a strictly positive rate.
    The intercept is the per-age mean of ln(m) over the window's years.
    """
    if group not in table.rates:
        raise DataError(f"unknown group {group!r}; table has {sorted(table.rates)}")
    a_lo, a_hi = ages
    y_lo, y_hi = years
    age_axis = np.arange(a_lo, a_hi + 1)
    year_axis = np.arange(y_lo, y_hi + 1)
    if len(year_axis) == 0:
        raise DataError(f"group {group!r}: the year window {y_lo}-{y_hi} holds no years")
    values = table.rates[group]
    m = np.full((len(year_axis), len(age_axis)), np.nan)
    in_window = (
        (table.years >= y_lo) & (table.years <= y_hi) & (table.ages >= a_lo) & (table.ages <= a_hi)
    )
    rows = table.years[in_window] - y_lo
    cols = table.ages[in_window] - a_lo
    m[rows, cols] = values[in_window]
    missing = ~np.isfinite(m)
    if missing.any():
        t, i = np.argwhere(missing)[0]
        raise DataError(
            f"group {group!r}: missing rate at year {year_axis[t]}, age {age_axis[i]}"
        )
    if (m <= 0.0).any():
        t, i = np.argwhere(m <= 0.0)[0]
        raise DataError(
            f"group {group!r}: rate {m[t, i]!r} at year {year_axis[t]}, age {age_axis[i]}"
            " is not strictly positive"
        )
    log_m = np.log(m)
    intercept = log_m.mean(axis=0)
    return Panel(group=group, years=year_axis, ages=age_axis, y=log_m - intercept, intercept=intercept)


def split_train_test(panel: Panel, cutoff: int) -> tuple[Panel, Panel]:
    """Split at a year strictly inside the panel's range.

    Train keeps years <= cutoff. Both halves are re-centered by the per-age
    mean of ln(m) over the TRAINING years only, as build_panel does; the test
    panel reuses the training intercept.
    """
    years = panel.years
    if not (years[0] <= cutoff < years[-1]):
        raise DataError(
            f"cutoff {cutoff} must lie in [{years[0]}, {years[-1] - 1}] to leave both sides non-empty"
        )
    train_mask = years <= cutoff
    shift = panel.y[train_mask].mean(axis=0)
    # ln(m) = y + a, so the train-mean intercept is a + mean(y_train)
    y, intercept = panel.y - shift, panel.intercept + shift
    train = Panel(panel.group, years[train_mask], panel.ages, y[train_mask], intercept)
    test = Panel(panel.group, years[~train_mask], panel.ages, y[~train_mask], intercept)
    return train, test


@dataclass(frozen=True)
class SynthTruth:
    """Generating parameters behind a synthetic grouped panel."""

    loading: np.ndarray  # (N, r) with loading.T @ loading / N = I_r
    factors: dict[str, np.ndarray] = field(default_factory=dict)  # group -> (T_k, r)
    drifts: dict[str, np.ndarray] = field(default_factory=dict)


def synthesize(
    N: int,
    r: int,
    group_sizes: Iterable[int],
    noise_scales: Iterable[float],
    seed: int = 0,
) -> tuple[GroupedPanel, SynthTruth]:
    """Random-walk-with-drift factor panels under a shared orthonormal loading.

    Group k's panel is F_k @ loading.T + noise_scales[k] * gaussian noise, with
    zero intercepts. Deterministic for a fixed seed.
    """
    sizes = list(group_sizes)
    scales = [float(s) for s in noise_scales]
    if not (_is_integer(N) and _is_integer(r) and 1 <= r <= N):
        raise DataError(f"need integers N >= r >= 1, got N={N!r}, r={r!r}")
    if len(sizes) != len(scales) or len(sizes) < 2:
        raise DataError("group_sizes and noise_scales must match and give K >= 2 groups")
    if not all(_is_integer(t) and t >= 2 for t in sizes):
        raise DataError(f"every group needs at least two rows, given as an integer, got {sizes}")
    if not all(0.0 <= s < math.inf for s in scales):
        raise DataError(f"noise scales must be finite and non-negative, got {scales}")
    rng = np.random.default_rng(seed)
    loading = np.sqrt(N) * nearest_orthonormal(rng.standard_normal((N, r)))
    panels = []
    factors: dict[str, np.ndarray] = {}
    drifts: dict[str, np.ndarray] = {}
    ages = np.arange(N)
    for k, (T_k, sigma) in enumerate(zip(sizes, scales)):
        group = f"g{k + 1}"
        drift = rng.normal(0.0, 0.2, size=r)
        steps = drift + rng.standard_normal((T_k, r))
        f = rng.standard_normal(r) + np.cumsum(steps, axis=0)
        noise = sigma * rng.standard_normal((T_k, N))
        y = f @ loading.T + noise
        panels.append(
            Panel(group=group, years=np.arange(1900, 1900 + T_k), ages=ages, y=y, intercept=np.zeros(N))
        )
        factors[group] = f
        drifts[group] = drift
    return GroupedPanel(tuple(panels)), SynthTruth(loading=loading, factors=factors, drifts=drifts)


def long_csv_lines(header: list[str], tables) -> Iterator[str]:
    """A long group,year,age,... CSV's lines: `header`, then a line per cell of each (group,
    years, ages, columns) table, a (years x ages) matrix per value column, written as repr(float)."""
    yield ",".join(header)
    for group, years, ages, columns in tables:
        for t, year in enumerate(years):
            for i, age in enumerate(ages):
                yield ",".join([group, str(int(year)), str(int(age)), *[repr(float(c[t, i])) for c in columns]])


def long_csv_rows(lines: Iterable[str], header: list[str], kind: str) -> Iterator[tuple]:
    """A long CSV's rows as (line number, group, year, age, values). Blank and
    '#' lines are skipped, and the first other line must be `header`. A row
    without the header's field count, with an unreadable or non-finite number,
    or repeating a (group, year, age) cell is a DataError naming its line."""
    rows = ((n, line) for n, line in enumerate(map(str.strip, lines), start=1) if line and not line.startswith("#"))
    lineno, line = next(rows, (None, None))
    if line is None:
        raise DataError(f"no {kind} header {','.join(header)!r}: the file holds no rows")
    if line.split(",") != header:
        raise DataError(f"line {lineno}: unexpected {kind} header {line!r}, expected {','.join(header)!r}")
    seen: dict[tuple[str, int, int], int] = {}  # cell -> its line
    for lineno, line in rows:
        fields = line.split(",")
        if len(fields) != len(header):
            raise DataError(f"line {lineno}: expected {len(header)} fields, got {len(fields)}")
        try:
            year, age, values = int(fields[1]), int(fields[2]), [float(x) for x in fields[3:]]
        except ValueError:
            raise DataError(f"line {lineno}: unreadable year, age or value in {line!r}") from None
        if not all(map(math.isfinite, values)):
            raise DataError(f"line {lineno}: value in {line!r} is not finite")
        first = seen.setdefault((fields[0], year, age), lineno)
        if first != lineno:
            raise DataError(f"line {lineno}: repeated cell group {fields[0]!r}, year {year}, age {age} (line {first})")
        yield lineno, fields[0], year, age, values


def cell_matrix(group: str, cells: dict[tuple[int, int], float], years, ages) -> np.ndarray:
    """A group's (years x ages) matrix of its (year, age) cells; a missing cell is a DataError."""
    try:
        return np.array([[cells[(int(yr), int(ag))] for ag in ages] for yr in years], dtype=float)
    except KeyError as exc:
        year, age = exc.args[0]
        raise DataError(f"group {group!r}: missing cell year {year}, age {age}") from None


def panels_csv_lines(panels: Iterable[Panel]) -> Iterator[str]:
    """Panels' long CSV lines, log_rate_centered = ln(m) - intercept, so the
    file round-trips exactly; each age's intercept is repeated on every year's line."""
    return long_csv_lines(PANEL_CSV_HEADER, (
        (p.group, p.years, p.ages, (p.y, np.broadcast_to(p.intercept, p.y.shape))) for p in panels
    ))


def panels_from_csv(lines: Iterable[str]) -> list[Panel]:
    """Read panels_csv_lines' layout from lines, or a text stream, under
    long_csv_rows' rules. An age whose intercept differs between a group's
    rows is a DataError naming its line."""
    cells: dict[str, dict[tuple[int, int], float]] = {}
    intercepts: dict[str, dict[int, float]] = {}
    for lineno, group, year, age, (value, intercept) in long_csv_rows(lines, PANEL_CSV_HEADER, "panel CSV"):
        cells.setdefault(group, {})[(year, age)] = value
        first = intercepts.setdefault(group, {}).setdefault(age, intercept)
        if first != intercept:
            raise DataError(f"line {lineno}: group {group!r}, age {age} has intercept {intercept!r}, not {first!r}")
    panels = []
    for group, data in cells.items():
        years, ages = (np.array(sorted(set(axis)), dtype=int) for axis in zip(*data))
        intercept = np.array([intercepts[group][int(ag)] for ag in ages])
        panels.append(Panel(group, years, ages, cell_matrix(group, data, years, ages), intercept))
    return panels

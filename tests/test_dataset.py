import io
import math
import tracemalloc

import numpy as np
import pytest
from conftest import hmd_text

from fairfactor.dataset import (
    DataError,
    GroupedPanel,
    HmdFormatError,
    MortalityTable,
    Panel,
    build_panel,
    panels_csv_lines,
    panels_from_csv,
    parse_hmd_1x1,
    split_train_test,
    synthesize,
)
from fairfactor.pipeline import _data_lines

HEADER = "Australia, Death rates (period 1x1)\n\n  Year   Age   Female   Male   Total\n"


def table_from(body: str):
    return parse_hmd_1x1(HEADER + body)


def test_parse_plain_line():
    t = table_from("1921  0  0.05  0.07  0.06\n")
    assert t.years[0] == 1921 and t.ages[0] == 0
    assert t.rates["female"][0] == 0.05
    assert t.rates["male"][0] == 0.07
    assert t.rates["total"][0] == 0.06


def test_parse_open_age_class():
    t = table_from("1921  110+  0.9  1.0  0.95\n")
    assert t.ages[0] == 110


def test_parse_missing_marker():
    t = table_from("1921  5  .  0.01  0.01\n")
    assert math.isnan(t.rates["female"][0])
    assert t.rates["male"][0] == 0.01


def test_parse_reports_line_numbers():
    with pytest.raises(HmdFormatError, match="line 4"):
        table_from("1921  0  0.05  0.07\n")
    with pytest.raises(HmdFormatError, match="line 5"):
        table_from("1921  0  0.05  0.07  0.06\n1921  1  0.05  oops  0.06\n")


def test_parse_rejects_year_disorder():
    with pytest.raises(HmdFormatError, match="year order"):
        table_from("1922  0  0.1  0.1  0.1\n1921  0  0.1  0.1  0.1\n")


def test_parse_rejects_duplicates():
    with pytest.raises(HmdFormatError, match="duplicate"):
        table_from("1921  0  0.1  0.1  0.1\n1921  0  0.2  0.2  0.2\n")


@pytest.mark.parametrize(
    "year, age", [("1995", "-3"), ("-1995", "3"), ("1995", "111"), ("1" * 20, "3"), ("1995", "1" * 20 + "+")]
)
def test_parse_rejects_out_of_range_year_or_age(year, age):
    # a negative age used to surface later as a missing cell at its absolute
    # value, and a 20-digit one as an OverflowError
    with pytest.raises(HmdFormatError, match="line 5: year .* or age .* outside"):
        table_from(f"1995  2  0.1  0.1  0.1\n{year}  {age}  0.1  0.1  0.1\n")


def test_parse_paper_shape_peak_memory(tmp_path):
    # 8514 rows of a 434 KB file: typed columns hold a cell in 8 bytes, where
    # lists of floats and a set of (year, age) tuples took over 3 MB, and the
    # file is read one line at a time, where its whole text and a list of all
    # its lines took about 0.9 MB more; the table shares the typed columns'
    # memory, where copying them into new arrays traced 708 KB against 470 KB
    path = tmp_path / "Mx_1x1.txt"
    path.write_text(hmd_text(years=(1921, 2019), ages=(0, 85)))
    tracemalloc.start()
    try:
        with _data_lines(str(path)) as lines:
            table = parse_hmd_1x1(lines)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table.years) == 99 * 86
    assert peak < 6.0e5


def parse_outcome(text):
    """The table's columns as bytes, or the message of the error it raises."""
    try:
        table = parse_hmd_1x1(text)
    except DataError as exc:
        return str(exc)
    return tuple(column.tobytes() for column in (table.years, table.ages, *table.rates.values()))


# every line break str.splitlines knows, apart from LF itself and the
# separators it handles like these (\x1d, \x1e, \u2029)
LINE_BREAKS = ("\r\n", "\r", "\v", "\f", "\x1c", "\x85", "\u2028")


def test_reader_matches_read_text_splitlines(tmp_path):
    # the reader splits each line the file yields once more, so its lines, and
    # the line numbers in errors, are those of the whole text's splitlines;
    # the padded texts put a CR LF pair across the file's 8192-character reads
    body = ["1921  0  0.05  0.07  0.06", "1921  1  0.05  0.07  0.06", "", "1922  0  0.04  0.06  0.05"]
    bad = body[:1] + ["1921  1  0.05  oops  0.06"] + body[2:]
    texts = []
    for brk in LINE_BREAKS + ("\n",):
        header = HEADER.replace("\n", brk)
        texts += [header + brk.join(body) + brk, header + brk.join(body), header + brk.join(bad) + brk]
    mixed = [HEADER.rstrip("\n")] + body + bad
    texts.append("".join(line + LINE_BREAKS[i % len(LINE_BREAKS)] + "\n" for i, line in enumerate(mixed)))
    for cr_at in range(8188, 8196):
        texts.append("x" * cr_at + "\r\n" + HEADER.partition("\n")[2] + "\r\n".join(bad) + "\r\n")
    path = tmp_path / "lines.txt"
    for text in texts:
        path.write_text(text, newline="")  # no newline translation on the way out
        with _data_lines(str(path)) as lines:
            assert list(lines) == path.read_text().splitlines() == text.splitlines()
        with _data_lines(str(path)) as lines:
            assert parse_outcome(lines) == parse_outcome(text)
    assert parse_outcome(texts[2]) == "line 5: unreadable rate 'oops'"
    assert parse_outcome(texts[-1]) == "line 5: unreadable rate 'oops'"


FUZZ_TOKENS = (
    "-3", "-1950", ".", "nan", "inf", "-inf", "1e400", "-0.01", "0", "1e-320", "abc",
    "110+", "+", "3+", "1.5", "2005.0", "99999", "0x10", "-0", "1" * 12, "1" * 20,
)


def mutate_lines(lines, rng):
    """One to three random edits: replace a token, delete, duplicate, swap,
    truncate a line, or insert a character."""
    lines = list(lines)
    for _ in range(rng.integers(1, 4)):
        i = int(rng.integers(len(lines)))
        op = int(rng.integers(6))
        if op == 0:
            tokens = lines[i].split() or [""]
            tokens[int(rng.integers(len(tokens)))] = FUZZ_TOKENS[int(rng.integers(len(FUZZ_TOKENS)))]
            lines[i] = "  ".join(tokens)
        elif op == 1:
            del lines[i]
        elif op == 2:
            lines.insert(i, lines[i])
        elif op == 3:
            j = int(rng.integers(len(lines)))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == 4:
            lines[i] = lines[i][: int(rng.integers(len(lines[i]) + 1))]
        else:
            k = int(rng.integers(len(lines[i]) + 1))
            lines[i] = lines[i][:k] + "0123456789-+. x"[int(rng.integers(15))] + lines[i][k:]
    return lines


def test_parse_and_build_fuzz_fail_only_with_data_errors():
    # seeded mutations of a 16-age file; like the CLI, the year window is the
    # table's own. Every outcome is a panel pair or a DataError (exit code 3),
    # and parsing the text gives what parsing its lines gives.
    rng = np.random.default_rng(2024)
    base = hmd_text().splitlines()
    outcomes = {"built": 0, "rejected": 0}
    for _ in range(200):
        text = "\n".join(mutate_lines(base, rng))
        assert parse_outcome(text) == parse_outcome(text.splitlines())
        try:
            table = parse_hmd_1x1(text)
            if len(table.years) == 0:
                raise DataError("no data rows")
            window = (int(table.years.min()), int(table.years.max()))
            for group in ("male", "female"):
                build_panel(table, group, ages=(0, 15), years=window)
            outcomes["built"] += 1
        except DataError:
            outcomes["rejected"] += 1
    assert outcomes["built"] > 0 and outcomes["rejected"] > 0


def synthetic_table(years, ages, fn):
    lines = [HEADER.rstrip("\n")]
    for year in years:
        for age in ages:
            m = fn(year, age)
            lines.append(f"{year} {age} {m} {m} {m}")
    return parse_hmd_1x1("\n".join(lines))


def test_build_panel_constant_rates():
    t = synthetic_table(range(2000, 2004), range(0, 3), lambda y, a: 0.25)
    p = build_panel(t, "female", (0, 2), (2000, 2003))
    assert np.allclose(p.y, 0.0)
    assert np.allclose(p.intercept, math.log(0.25))


def test_build_panel_mean_removal():
    t = synthetic_table(range(2000, 2002), [0], lambda y, a: math.exp(1.0) if y == 2000 else math.exp(3.0))
    p = build_panel(t, "male", (0, 0), (2000, 2001))
    assert np.allclose(p.intercept, [2.0])
    assert np.allclose(p.y[:, 0], [-1.0, 1.0])


def test_build_panel_shapes_like_training_window():
    t = synthetic_table(range(1921, 1990), range(0, 86), lambda y, a: 0.01 + 0.0001 * a)
    p = build_panel(t, "female", (0, 85), (1921, 1989))
    assert p.y.shape == (69, 86)


def test_build_panel_rejects_missing_and_nonpositive():
    t = synthetic_table(range(2000, 2003), range(0, 2), lambda y, a: 0.1)
    with pytest.raises(DataError, match="missing"):
        build_panel(t, "female", (0, 3), (2000, 2002))
    t2 = synthetic_table(range(2000, 2003), range(0, 2), lambda y, a: 0.0 if y == 2001 else 0.1)
    with pytest.raises(DataError, match="strictly positive"):
        build_panel(t2, "female", (0, 1), (2000, 2002))


def test_rates_round_trip():
    rng = np.random.default_rng(0)
    rates = {}
    t = synthetic_table(
        range(2000, 2010),
        range(0, 5),
        lambda y, a: rates.setdefault((y, a), float(rng.uniform(0.001, 0.5))),
    )
    p = build_panel(t, "total", (0, 4), (2000, 2009))
    m = np.array([[rates[(y, a)] for a in range(5)] for y in range(2000, 2010)])
    assert np.allclose(p.rates(), m, rtol=1e-12, atol=0.0)


def test_split_train_test_counts_and_intercept():
    t = synthetic_table(range(1921, 2022), range(0, 3), lambda y, a: 0.01 * (1 + a) * math.exp(0.001 * (y - 1921)))
    p = build_panel(t, "female", (0, 2), (1921, 2021))
    train, test = split_train_test(p, 1989)
    assert train.n_years == 69 and test.n_years == 32
    # the training intercept is the train-window mean of ln(m), reused by test
    log_m = np.log(p.rates())
    assert np.allclose(train.intercept, log_m[:69].mean(axis=0), atol=1e-12)
    assert np.allclose(test.intercept, train.intercept)
    assert np.allclose(test.rates(), p.rates()[69:], rtol=1e-12)
    assert np.allclose(train.y.mean(axis=0), 0.0, atol=1e-12)


def test_split_centers_by_the_training_years():
    table = parse_hmd_1x1(hmd_text())
    p = build_panel(table, "male", (0, 15), (1950, 2005))
    shift = p.y[:41].mean(axis=0)
    train, test = split_train_test(p, 1990)
    assert np.array_equal(train.intercept, p.intercept + shift) and np.array_equal(test.intercept, train.intercept)
    assert np.array_equal(train.y, p.y[:41] - shift) and np.array_equal(test.y, p.y[41:] - shift)
    assert np.allclose(test.rates(), p.rates()[41:], rtol=1e-12)


def test_split_boundary_and_round_trip():
    t = synthetic_table(range(2000, 2005), [0], lambda y, a: 0.1)
    p = build_panel(t, "male", (0, 0), (2000, 2004))
    train, test = split_train_test(p, 2003)
    assert test.n_years == 1
    assert list(train.years) + list(test.years) == list(p.years)
    with pytest.raises(DataError):
        split_train_test(p, 2004)
    with pytest.raises(DataError):
        split_train_test(p, 1999)


def test_synthesize_noiseless_lies_in_span():
    data, truth = synthesize(N=6, r=2, group_sizes=[5, 7], noise_scales=[0.0, 0.0], seed=1)
    P = truth.loading @ truth.loading.T / 6
    for p in data.panels:
        assert np.allclose(p.y @ P, p.y, atol=1e-10)


def test_synthesize_deterministic():
    a, _ = synthesize(N=5, r=1, group_sizes=[4, 4], noise_scales=[1.0, 0.5], seed=42)
    b, _ = synthesize(N=5, r=1, group_sizes=[4, 4], noise_scales=[1.0, 0.5], seed=42)
    for pa, pb in zip(a.panels, b.panels):
        assert np.array_equal(pa.y, pb.y)


def test_synthesize_noise_ordering():
    data, truth = synthesize(N=12, r=1, group_sizes=[80, 80], noise_scales=[2.0, 1.0], seed=3)
    P = truth.loading @ truth.loading.T / 12
    errors = []
    for p in data.panels:
        noise = p.y - truth.factors[p.group] @ truth.loading.T
        resid = noise - noise @ P  # the loading span absorbs none of the signal
        errors.append((resid**2).sum() / p.n_years)
        direct = p.y - p.y @ P
        assert np.allclose((direct**2).sum() / p.n_years, errors[-1], rtol=1e-10)
    assert errors[0] > errors[1]


def test_grouped_panel_alignment_checks():
    data, _ = synthesize(N=4, r=1, group_sizes=[3, 3], noise_scales=[1, 1], seed=0)
    p = data.panels[0]
    other = Panel("odd", p.years, p.ages + 1, p.y, p.intercept)
    with pytest.raises(DataError, match="age-aligned"):
        GroupedPanel((p, other))
    with pytest.raises(DataError, match="two groups"):
        GroupedPanel((p,))


def test_panel_csv_round_trip():
    data, _ = synthesize(N=4, r=2, group_sizes=[3, 5], noise_scales=[0.3, 0.1], seed=9)
    buf = io.StringIO("\n".join(panels_csv_lines(data.panels)) + "\n")
    back = panels_from_csv(buf)
    by_group = {p.group: p for p in back}
    for p in data.panels:
        q = by_group[p.group]
        assert np.array_equal(q.years, p.years)
        assert np.array_equal(q.ages, p.ages)
        assert np.allclose(q.y, p.y, atol=0.0)
        assert np.allclose(q.intercept, p.intercept, atol=0.0)



def panel_csv_lines():
    data, _ = synthesize(N=5, r=1, group_sizes=[3, 4], noise_scales=[0.3, 0.1], seed=9)
    return list(panels_csv_lines(data.panels))  # line 1 is the header, line k is lines[k - 1]


def read_panel_lines(lines):
    return panels_from_csv(io.StringIO("\n".join(lines) + "\n"))


def test_panel_csv_row_without_five_fields_names_its_line():
    lines = panel_csv_lines()
    lines[2] = lines[2].rsplit(",", 1)[0]
    with pytest.raises(DataError, match="line 3: expected 5 fields, got 4"):
        read_panel_lines(lines)


@pytest.mark.parametrize("column", [1, 2, 3, 4], ids=["year", "age", "value", "intercept"])
def test_panel_csv_unreadable_number_names_its_line(column):
    lines = panel_csv_lines()
    fields = lines[4].split(",")
    fields[column] = "x" + fields[column]
    lines[4] = ",".join(fields)
    with pytest.raises(DataError, match="line 5: unreadable"):
        read_panel_lines(lines)


@pytest.mark.parametrize("column, token", [(3, "inf"), (4, "nan")], ids=["value", "intercept"])
def test_panel_csv_non_finite_number_names_its_line(column, token):
    lines = panel_csv_lines()
    fields = lines[4].split(",")
    fields[column] = token
    lines[4] = ",".join(fields)
    with pytest.raises(DataError, match="line 5: value .* is not finite"):
        read_panel_lines(lines)


def test_panel_csv_repeated_cell_names_its_line():
    lines = panel_csv_lines()
    lines.append(lines[1])
    with pytest.raises(DataError, match=f"line {len(lines)}: repeated cell group 'g1', year 1900, age 0"):
        read_panel_lines(lines)


def test_panel_csv_intercept_differing_between_rows_names_its_line():
    lines = panel_csv_lines()
    fields = lines[6].split(",")  # age 0 of g1's second year: the first row of that age is line 2
    assert fields[:3] == ["g1", "1901", "0"]
    fields[4] = repr(float(fields[4]) + 1.0)
    lines[6] = ",".join(fields)
    with pytest.raises(DataError, match="line 7: group 'g1', age 0 has intercept"):
        read_panel_lines(lines)
    assert len(read_panel_lines(panel_csv_lines())) == 2  # the unchanged file still reads

def test_parse_build_deterministic():
    body = "".join(
        f"{y} {a} 0.0{a + 1} 0.0{a + 2} 0.0{a + 1}\n" for y in range(2000, 2006) for a in range(0, 4)
    )
    p1 = build_panel(table_from(body), "female", (0, 3), (2000, 2005))
    p2 = build_panel(table_from(body), "female", (0, 3), (2000, 2005))
    assert np.array_equal(p1.y, p2.y) and np.array_equal(p1.intercept, p2.intercept)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(N=5.5, r=1, group_sizes=[3, 3]),
        dict(N=5, r=1.5, group_sizes=[3, 3]),
        dict(N=5, r=True, group_sizes=[3, 3]),
        dict(N=5, r=1, group_sizes=[3.7, 3]),
        dict(N=5, r=1, group_sizes=[3, True]),
    ],
    ids=["float-N", "float-r", "bool-r", "float-size", "bool-size"],
)
def test_synthesize_rejects_counts_that_are_not_integers(kwargs):
    # 3.7 rows used to become a group of 3; a float N or r failed inside numpy
    with pytest.raises(DataError, match="integer"):
        synthesize(noise_scales=[1.0, 1.0], **kwargs)


@pytest.mark.parametrize(
    "kwargs, fragment",
    [
        (dict(N=3, r=4, group_sizes=[3, 3], noise_scales=[1, 1]), "N >= r >= 1"),
        (dict(N=3, r=1, group_sizes=[3, 1], noise_scales=[1, 1]), "every group needs at least two rows"),
        (dict(N=3, r=1, group_sizes=[3, 3], noise_scales=[1, np.inf]), "noise scales must be finite"),
    ],
    ids=["rank-above-ages", "one-row-group", "infinite-noise"],
)
def test_synthesize_rejects_bad_arguments(kwargs, fragment):
    with pytest.raises(DataError, match=fragment):
        synthesize(**kwargs)


def test_mortality_table_rejects_columns_of_different_lengths():
    with pytest.raises(DataError, match="mismatched lengths"):
        MortalityTable(years=np.array([1950, 1950]), ages=np.array([0]), rates={"male": np.array([0.1, 0.1])})


@pytest.mark.parametrize(
    "change, fragment",
    [
        (dict(intercept=np.zeros(2)), "inconsistent shapes"),
        (dict(y=np.array([[0.0, np.nan, 0.0]] * 2)), "non-finite entries"),
        (dict(intercept=np.array([np.nan, 0.0, 0.0])), "non-finite entries in y or the intercept"),
        (dict(intercept=np.array([0.0, 0.0, -np.inf])), "non-finite entries in y or the intercept"),
    ],
    ids=["shapes", "non-finite", "nan-intercept", "infinite-intercept"],
)
def test_panel_rejects_inconsistent_fields(change, fragment):
    fields = dict(group="g", years=np.arange(2), ages=np.arange(3), y=np.zeros((2, 3)), intercept=np.zeros(3))
    with pytest.raises(DataError, match=fragment):
        Panel(**{**fields, **change})


def test_grouped_panel_rejects_duplicate_group_labels():
    data, _ = synthesize(N=4, r=1, group_sizes=[3, 3], noise_scales=[1, 1], seed=0)
    p = data.panels[0]
    with pytest.raises(DataError, match="duplicate group labels"):
        GroupedPanel((p, p))


def test_build_panel_rejects_an_unknown_group():
    table = table_from("1921  0  0.1  0.1  0.1\n")
    with pytest.raises(DataError, match="unknown group 'other'"):
        build_panel(table, "other", (0, 0), (1921, 1921))


def test_panel_csv_with_a_wrong_header_is_rejected():
    lines = panel_csv_lines()
    with pytest.raises(DataError, match="unexpected panel CSV header"):
        read_panel_lines(["group,year,age,value,intercept"] + lines[1:])


def test_panel_csv_with_a_missing_cell_is_rejected():
    lines = panel_csv_lines()  # group g1 covers years 1900-1902 and ages 0-4
    with pytest.raises(DataError, match="group 'g1': missing cell year 1901, age 2"):
        read_panel_lines([line for line in lines if not line.startswith("g1,1901,2,")])

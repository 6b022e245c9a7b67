"""Core types: losses, smoothness, classes, VC dimension."""

import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothlab import core
from smoothlab.core import (
    ExampleMultiset,
    FiniteDomain,
    HypothesisClass,
    LossKind,
    LossSpec,
    SmoothDistribution,
    check_probs,
    compute_vc_dimension,
    equal_blocks,
    loss_eval,
    make_partition_class,
    make_shatter_class,
    make_support_partition_class,
    validate_smooth,
    whole_number,
    whole_numbers,
)
from smoothlab.errors import CapacityError, InputError
from smoothlab.oracle import CountTable, OracleSession


class TestLossEval:
    def test_centered_binary_agreement(self):
        loss = LossSpec.of("centered_binary")
        assert loss_eval(loss, 1.0, 1.0) == -0.5

    def test_binary_indicator_agreement(self):
        loss = LossSpec.of("binary_indicator")
        assert loss_eval(loss, 1.0, 1.0) == 0.0
        assert loss_eval(loss, -1.0, 1.0) == 1.0

    def test_absolute_hand_value(self):
        loss = LossSpec.of("absolute")
        assert loss_eval(loss, 0.5, -0.5) == 0.5

    def test_squared(self):
        loss = LossSpec.of("squared")
        assert loss_eval(loss, 1.0, -1.0) == 1.0
        assert loss.lipschitz_G == 1.0

    def test_binary_requires_pm1(self):
        loss = LossSpec.of("binary_indicator")
        with pytest.raises(InputError):
            loss_eval(loss, 0.5, 1.0)

    def test_out_of_range_rejected(self):
        for yhat, y in ((1.5, 0.0), (math.nan, 0.0), (0.0, math.nan),
                        (math.inf, 0.0)):
            with pytest.raises(InputError):
                loss_eval(LossSpec.of("absolute"), yhat, y)

    def test_centered_identity_with_indicator(self):
        """centered(yhat, y) == indicator(yhat, y) - 1/2 on +-1 arguments."""
        cb = LossSpec.of("centered_binary")
        bi = LossSpec.of("binary_indicator")
        for yhat in (-1.0, 1.0):
            for y in (-1.0, 1.0):
                assert loss_eval(cb, yhat, y) == loss_eval(bi, yhat, y) - 0.5

    @given(
        kind=st.sampled_from(["absolute", "squared", "centered_binary"]),
        y1=st.floats(-1, 1), y2=st.floats(-1, 1), lam=st.floats(0, 1),
        y=st.sampled_from([-1.0, 1.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_convexity_in_first_argument(self, kind, y1, y2, lam, y):
        loss = LossSpec.of(kind)
        mix = lam * y1 + (1 - lam) * y2
        mix = min(1.0, max(-1.0, mix))
        lhs = loss_eval(loss, mix, y)
        rhs = lam * loss_eval(loss, y1, y) + (1 - lam) * loss_eval(loss, y2, y)
        assert lhs <= rhs + 1e-9

    @given(y1=st.floats(-1, 1), y2=st.floats(-1, 1),
           y=st.floats(-1, 1), kind=st.sampled_from(["absolute", "squared"]))
    @settings(max_examples=200, deadline=None)
    def test_lipschitz_constant(self, y1, y2, y, kind):
        loss = LossSpec.of(kind)
        diff = abs(loss_eval(loss, y1, y) - loss_eval(loss, y2, y))
        assert diff <= loss.lipschitz_G * abs(y1 - y2) + 1e-12

    def test_vectorized_over_predictions(self):
        loss = LossSpec.of("absolute")
        out = loss_eval(loss, np.array([0.0, 1.0, -1.0]), 1.0)
        np.testing.assert_allclose(out, [0.5, 0.0, 1.0])

    def test_label_vector_broadcasts_over_a_table(self):
        loss = LossSpec.of("centered_binary")
        table = np.array([[1.0, -1.0], [-1.0, -1.0]])
        out = loss_eval(loss, table, np.array([1.0, -1.0]))
        np.testing.assert_allclose(out, [[-0.5, -0.5], [0.5, -0.5]])
        with pytest.raises(InputError):
            loss_eval(loss, table, np.array([1.0, 0.5]))


class TestValidateSmooth:
    def test_uniform_is_1_smooth(self):
        assert validate_smooth(np.full(8, 1 / 8), 1.0)

    def test_point_mass_not_smooth(self):
        assert not validate_smooth([1.0, 0.0], 1.0)

    def test_half_support_at_half_sigma(self):
        probs = np.zeros(8)
        probs[:4] = 0.25
        assert validate_smooth(probs, 0.5)
        assert not validate_smooth(probs, 0.6)

    def test_non_probability_rejected(self):
        for probs in ([0.5, 0.6], [math.nan, 1.0], [0.5, math.nan],
                      [math.nan, math.nan]):
            with pytest.raises(InputError):
                check_probs(probs)
            with pytest.raises(InputError):
                validate_smooth(probs, 1.0)

    def test_smooth_distribution_type_enforces(self):
        with pytest.raises(InputError):
            SmoothDistribution((1.0, 0.0), 1.0)
        d = SmoothDistribution.uniform(4)
        assert d.sigma == 1.0


class TestFiniteDomain:
    @pytest.mark.parametrize("size", [0, -3])
    def test_rejects_an_empty_domain(self, size):
        with pytest.raises(InputError, match=">= 1"):
            FiniteDomain(size)

    @pytest.mark.parametrize("size", [2.5, "8", True, [8], math.nan])
    def test_rejects_a_size_that_is_no_whole_number(self, size):
        """FiniteDomain(2.5) used to be accepted."""
        with pytest.raises(InputError, match="domain size"):
            FiniteDomain(size)

    def test_stores_a_whole_float_size_as_an_int(self):
        domain = FiniteDomain(8.0)
        assert type(domain.size) is int and domain == FiniteDomain(8)


class TestWholeNumber:
    @pytest.mark.parametrize("v", [0, 3, -2, 3.0, np.int64(3), np.float64(-2.0),
                                   np.uint64(3), 2.0**62])
    def test_accepts_whole_numbers(self, v):
        assert type(whole_number("k", v)) is int and whole_number("k", v) == v

    @pytest.mark.parametrize("v", [2.5, math.nan, math.inf, "2", True, np.True_,
                                   [2], None, 1e300, np.uint64(2**64 - 1)], ids=repr)
    def test_rejects_everything_else(self, v):
        """1e300 and the largest uint64 used to come back as int64 garbage
        (-2^63 and -1)."""
        with pytest.raises(InputError, match="^k must"):
            whole_number("k", v)


class TestCountTable:
    @pytest.mark.parametrize("cell", [(0, 0), (3, 1), (7, 1)], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("rows", [8, None])
    def test_rejects_a_negative_entry_in_any_cell(self, cell, rows):
        cells = np.ones((8, 2), dtype=int)
        cells[cell] = -1
        with pytest.raises(InputError, match="nonnegative"):
            core.count_table(cells, rows)

    def test_accepts_an_empty_table_without_a_row_count(self):
        table = core.count_table(np.zeros((0, 2), dtype=int))
        assert table.shape == (0, 2)
        with pytest.raises(InputError, match="shape"):
            core.count_table(np.zeros((0, 2), dtype=int), 8)


def reference_support_partition(size: int, support_size: int, d: int) -> np.ndarray:
    """The value table of the itertools builder the vectorized one replaced."""
    rows = []
    for pattern in itertools.product((1.0, -1.0), repeat=d):
        row = np.ones(size)
        row[:support_size] = np.repeat(pattern, support_size // d)
        rows.append(row)
    return np.array(rows)


def reference_shatter(size: int, special: list[int]) -> np.ndarray:
    rows = []
    for pattern in itertools.product((1.0, -1.0), repeat=len(special)):
        row = np.ones(size)
        row[special] = pattern
        rows.append(row)
    return np.array(rows)


class TestBlockBuilders:
    """The three +-1 class builders against the itertools reference: the
    same value table bit for bit, first block most significant, +1 before
    -1, for every d <= 8."""

    @pytest.mark.parametrize("d", range(1, 9))
    @given(block=st.integers(1, 3), extra=st.integers(0, 4))
    @settings(max_examples=8, deadline=None)
    def test_partition_builders_match_the_reference(self, d, block, extra):
        support = d * block
        want = reference_support_partition(support + extra, support, d)
        got = make_support_partition_class(FiniteDomain(support + extra), support, d)
        assert got.values.tobytes() == want.tobytes()
        assert got.declared_dim == d and got.binary
        if extra == 0:
            assert make_partition_class(FiniteDomain(support), d).values.tobytes() \
                == want.tobytes()

    @pytest.mark.parametrize("d", range(0, 9))
    @given(data=st.data())
    @settings(max_examples=8, deadline=None)
    def test_shatter_builder_matches_the_reference(self, d, data):
        size = data.draw(st.integers(max(d, 1), d + 4))
        special = data.draw(st.permutations(range(size)))[:d]
        got = make_shatter_class(FiniteDomain(size), special)
        assert got.values.tobytes() == reference_shatter(size, special).tobytes()
        assert got.declared_dim == d and got.binary

    def test_equal_blocks(self):
        np.testing.assert_array_equal(equal_blocks(8, 6, 3), [0, 0, 1, 1, 2, 2, -1, -1])
        np.testing.assert_array_equal(equal_blocks(4, 4, 1), [0, 0, 0, 0])
        with pytest.raises(InputError, match="not divisible by d=4"):
            equal_blocks(8, 6, 4)
        with pytest.raises(InputError, match="d must be >= 1"):
            equal_blocks(8, 6, 0)


class TestClasses:
    def test_partition_class_shape(self):
        c = make_partition_class(FiniteDomain(4), 2)
        assert len(c) == 4
        # first hypothesis is all +1; blocks are contiguous pairs
        np.testing.assert_array_equal(c.values[0], [1, 1, 1, 1])
        patterns = {tuple(row) for row in c.values}
        assert (1.0, 1.0, -1.0, -1.0) in patterns
        assert (1.0, -1.0, 1.0, -1.0) not in patterns

    def test_partition_d1(self):
        c = make_partition_class(FiniteDomain(2), 1)
        assert len(c) == 2

    def test_partition_d3(self):
        c = make_partition_class(FiniteDomain(6), 3)
        assert len(c) == 8

    def test_partition_divisibility(self):
        with pytest.raises(InputError):
            make_partition_class(FiniteDomain(5), 2)

    def test_shatter_class(self):
        c = make_shatter_class(FiniteDomain(3), [0])
        assert len(c) == 2
        assert c.values[0, 1] == 1.0 and c.values[1, 1] == 1.0
        assert {c.values[0, 0], c.values[1, 0]} == {1.0, -1.0}
        assert len(make_shatter_class(FiniteDomain(8), [1, 4, 6])) == 8

    def test_shatter_rejects_duplicates(self):
        with pytest.raises(InputError):
            make_shatter_class(FiniteDomain(4), [1, 1])

    def test_support_partition_class(self):
        c = make_support_partition_class(FiniteDomain(8), 4, 2)
        assert len(c) == 4
        # off-support values are +1 for every hypothesis
        assert np.all(c.values[:, 4:] == 1.0)

    @pytest.mark.parametrize("special", [[0.5, 3], [True, 3], [np.True_, 3], ["1"]],
                             ids=repr)
    def test_shatter_rejects_non_whole_special_points(self, special):
        """0.5 used to shatter instance 0 and True instance 1."""
        with pytest.raises(InputError, match="special index"):
            make_shatter_class(FiniteDomain(8), special)

    @pytest.mark.parametrize("special", [[4], [-1], [0, 9]])
    def test_shatter_rejects_points_off_the_domain(self, special):
        with pytest.raises(InputError, match="out of range"):
            make_shatter_class(FiniteDomain(4), special)

    @pytest.mark.parametrize("support_size", [0, -4, 9])
    def test_support_size_out_of_range(self, support_size):
        with pytest.raises(InputError, match="out of range"):
            make_support_partition_class(FiniteDomain(8), support_size, 1)

    def test_builders_take_whole_floats_and_reject_the_rest(self):
        """d = 2.0 used to raise a raw TypeError from itertools."""
        whole = make_partition_class(FiniteDomain(8), 2.0)
        np.testing.assert_array_equal(whole.values,
                                      make_partition_class(FiniteDomain(8), 2).values)
        assert type(whole.declared_dim) is int and whole.declared_dim == 2
        for bad in (2.5, "2", True):
            with pytest.raises(InputError, match="d must"):
                make_partition_class(FiniteDomain(8), bad)
            with pytest.raises(InputError, match="support_size must"):
                make_support_partition_class(FiniteDomain(8), bad, 1)

    def test_vc_dimension_oracle(self):
        singleton = HypothesisClass([[1.0, 1.0]], declared_dim=0, binary=True)
        assert compute_vc_dimension(singleton) == 0
        assert compute_vc_dimension(make_partition_class(FiniteDomain(4), 2)) == 2
        assert compute_vc_dimension(make_shatter_class(FiniteDomain(8), [0, 3, 5])) == 3

    @pytest.mark.parametrize("d,size", [(1, 4), (2, 8), (3, 12), (4, 16)])
    def test_partition_declared_dim_matches_vc(self, d, size):
        c = make_partition_class(FiniteDomain(size), d)
        assert compute_vc_dimension(c) == d == c.declared_dim

    def test_vc_capacity_error(self):
        big = HypothesisClass(np.ones((1, 20)), declared_dim=0, binary=True)
        with pytest.raises(CapacityError):
            compute_vc_dimension(big)

    def test_json_roundtrip(self, partition8):
        doc = partition8.to_json()
        back = HypothesisClass.from_json(doc)
        np.testing.assert_array_equal(back.values, partition8.values)
        assert back.declared_dim == partition8.declared_dim
        assert back.binary == partition8.binary

    def test_binary_flag_enforced(self):
        with pytest.raises(InputError):
            HypothesisClass([[0.5]], declared_dim=1, binary=True)

    def test_hypothesis_range_enforced(self):
        for bad in (1.5, -1.5, math.nan, math.inf):
            with pytest.raises(InputError):
                HypothesisClass([[bad, 1.0]], declared_dim=1)

    @pytest.mark.parametrize("hclass", [
        make_partition_class(FiniteDomain(8), 2),
        make_shatter_class(FiniteDomain(5), [0, 3]),
        HypothesisClass([[0.5, -0.25, 0.0], [-1.0, 1.0, -0.0]], declared_dim=1)])
    def test_negative_at_is_a_read_only_transposed_sign_table(self, hclass):
        table = hclass.negative_at
        assert table.shape == (hclass.domain_size, len(hclass))
        assert table.dtype == bool and table.flags.c_contiguous
        np.testing.assert_array_equal(table, hclass.values.T < 0)
        assert hclass.negative_at is table  # built once
        with pytest.raises(ValueError):
            table[0, 0] = not table[0, 0]
        with pytest.raises(ValueError):
            table[0] |= True


class TestExampleMultiset:
    def test_counts_and_logical_size(self):
        s = ExampleMultiset([(0, 1.0), (0, 1.0), (1, -1.0)])
        assert s.logical_size == 3 == len(s)
        assert dict(s.items())[(0, 1.0)] == 2

    def test_add_with_count(self):
        s = ExampleMultiset()
        s.add(2, -1.0, 5)
        assert s.logical_size == 5

    def test_rejects_zero_count(self):
        with pytest.raises(InputError):
            ExampleMultiset([(0, 1.0, 0)])

    def test_pair_constructor_checks_each_column(self):
        for y in (1.5, math.nan):
            with pytest.raises(InputError):
                ExampleMultiset([(0, 1.0), (1, y)])
        with pytest.raises(InputError):
            ExampleMultiset([(0, 1.0, 1), (1, -1.0, 0)])
        with pytest.raises(InputError):
            ExampleMultiset([((0, 1), 1.0)])
        # whole floats are whole numbers
        assert ExampleMultiset([(2.0, 1.0, 3.0)]).items() == [((2, 1.0), 3)]

    @given(st.lists(st.tuples(st.integers(0, 3),
                              st.sampled_from([-1.0, 1.0])), max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_logical_size_matches_list_length(self, pairs):
        s = ExampleMultiset(pairs)
        assert s.logical_size == len(pairs)
        assert sum(c for _, c in s.items()) == len(pairs)


class DictMultiset:
    """Reference: a plain (x, y) -> count dict with the same label and
    count checks."""

    def __init__(self, pairs=()):
        self.counts = {}
        for x, y, *c in pairs:
            self.add(x, y, c[0] if c else 1)

    @classmethod
    def from_cells(cls, cells):
        return cls((x, (-1.0, 1.0)[s], int(c))
                   for (x, s), c in np.ndenumerate(cells) if c)

    def add(self, x, y, count=1):
        if count < 1 or not -1.0 <= y <= 1.0:
            raise InputError("bad count or label")
        key = (int(x), float(y))
        self.counts[key] = self.counts.get(key, 0) + int(count)


_labels = st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.25, 1.0])
_triples = st.lists(st.tuples(st.integers(-2, 4), _labels, st.integers(1, 3)),
                    max_size=8)
_operations = st.lists(st.one_of(
    st.tuples(st.just("pairs"), _triples),
    st.tuples(st.just("arrays"), _triples),
    st.tuples(st.just("cells"), st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=4)),
    st.tuples(st.just("add"), st.integers(0, 50), st.integers(-2, 4), _labels,
              st.integers(1, 3)),
), min_size=1, max_size=12)


def _signed(items) -> list:
    """The pairs in order, with the sign of a zero label made visible."""
    return [((x, y.hex()), count) for (x, y), count in items]


def _table(cells):
    """`cells` as a `CountTable` over a session on len(cells) instances."""
    hclass = make_partition_class(FiniteDomain(len(cells)), 1)
    return CountTable(OracleSession(hclass, LossSpec.of("absolute")), cells)


class TestArrayMultisetAgainstDict:
    """Random operation sequences on the multiset record against the dict
    reference: the same items in the same first-seen order (a merged
    signed zero keeps its first sign), the same logical size, and an
    `add` changes only the record it is called on.  A record built from a
    count table's pairs lists them in (x, y) order."""

    @given(_operations)
    @settings(max_examples=300, deadline=None)
    def test_operation_sequences_match_reference(self, operations):
        pool = [(ExampleMultiset(), DictMultiset())]
        for op, *args in operations:
            if op == "pairs":
                pool.append((ExampleMultiset(args[0]), DictMultiset(args[0])))
            elif op == "arrays":
                cols = [np.array(c) for c in zip(*args[0])]
                pool.append((ExampleMultiset(zip(*cols)),
                             DictMultiset(zip(*cols))))
            elif op == "cells":
                cells = np.array(args[0])
                pool.append((ExampleMultiset((x, y, c) for (x, y), c
                                             in _table(cells).items()),
                             DictMultiset.from_cells(cells)))
            else:
                i, x, y, c = args
                real, ref = pool[i % len(pool)]
                real.add(x, y, c)
                ref.add(x, y, c)
            for real, ref in pool:
                assert _signed(real.items()) == _signed(ref.counts.items())
                assert real.logical_size == len(real) == sum(ref.counts.values())

    def test_items_is_sized(self):
        s = ExampleMultiset([(0, 1.0), (0, 1.0), (3, -1.0)])
        assert len(s.items()) == 2 and s.logical_size == 3

    @pytest.mark.parametrize("cells", [
        np.array([[1, -1]]), np.array([[1.0, np.nan]]), np.array([1, 2]),
        np.zeros((2, 3), dtype=int), np.array([[0.5, 0.0]]),
        np.array([[0.0, 1.7]])])
    def test_from_cells_rejects_bad_tables(self, cells):
        """A `CountTable` made from bad cells raises at construction."""
        with pytest.raises(InputError):
            _table(cells)

    @pytest.mark.parametrize("build", [
        lambda: ExampleMultiset([(0, math.nan)]),
        lambda: ExampleMultiset().add(0, math.nan),
        lambda: ExampleMultiset().add(0, math.inf),
        lambda: ExampleMultiset().add(0, 1.0, 0),
        lambda: ExampleMultiset([(0, 1.0, 1.7)]),
        lambda: ExampleMultiset([(0.5, 1.0)]),
        lambda: ExampleMultiset([(0, 1.0, math.nan)]),
        lambda: ExampleMultiset([(math.inf, 1.0)]),
        lambda: ExampleMultiset([(np.float64(2.5), 1.0, np.int64(2))]),
        lambda: ExampleMultiset([("a", 1.0)]),
        lambda: whole_numbers([1, [2]], "s"),
        lambda: ExampleMultiset([(True, 1.0)]),
        lambda: ExampleMultiset().add(0, 1.0, np.bool_(True)),
    ])
    def test_rejects_nan_labels_and_bad_counts(self, build):
        with pytest.raises(InputError):
            build()

    @pytest.mark.parametrize("y", ["0.5", b"0.5", "a", True, np.bool_(False), None])
    def test_rejects_text_and_boolean_labels(self, y):
        """The text label "0.5" and True used to enter as 0.5 and 1.0."""
        with pytest.raises(InputError, match="label must be a real number"):
            ExampleMultiset([(0, y)])
        with pytest.raises(InputError, match="label must be a real number"):
            ExampleMultiset().add(0, y)

    @pytest.mark.parametrize("y", [1, -1, 0, 0.5, np.float64(-0.25), np.float32(0.5),
                                   np.int64(-1), np.int8(1)])
    def test_accepts_python_and_numpy_numbers_as_labels(self, y):
        assert ExampleMultiset([(0, y)]).items() == [((0, float(y)), 1)]
        assert type(ExampleMultiset([(0, y)]).items()[0][0][1]) is float


def _outcome(call):
    """A call's return value, with the type of each entry, or the class of
    what it raised."""
    try:
        got = call()
    except Exception as e:  # the class is what the paths must share
        return type(e)
    entries = got if isinstance(got, tuple) else (got,)
    return repr(got), [type(v) for v in entries]


# the scalars the fast paths must treat as the array paths do
_SCALARS = [1.0, -1.0, -0.0, 0.0, 0.5, -0.75, math.nan, math.inf, -math.inf,
            np.float64(1.0), np.float64(0.5), np.float32(-1), True, False,
            np.True_, "1", b"1", 1, -1, 0, 2**70, None]
_COUNTS = [1, 2, 2**70, 0, -1, 1.0, 2.5, True, np.True_, np.int64(1), "1",
           math.nan]
_XS = [0, 5, 2**70, -1, True, np.int64(3), 3.0, 3.5, "3", math.inf]


class TestScalarFastPaths:
    """`_check_pm1` and `check_example` return exactly what their array
    paths return, entry types included, and raise the same class."""

    @pytest.mark.parametrize("v", _SCALARS, ids=repr)
    def test_check_pm1_matches_its_array_path(self, v):
        assert (_outcome(lambda: core._check_pm1(v, "label"))
                == _outcome(lambda: core._check_pm1_array(v, "label")))

    def test_check_example_matches_its_full_check(self):
        for x, y, count in itertools.product(_XS, _SCALARS, _COUNTS):
            assert (_outcome(lambda: core.check_example(x, y, count))
                    == _outcome(lambda: core._check_example_full(x, y, count))), \
                (x, y, count)

    _numbers = st.one_of(st.floats(), st.integers(), st.booleans(),
                         st.floats(width=32).map(np.float32),
                         st.integers(-2**63, 2**63 - 1).map(np.int64))

    @given(v=_numbers)
    @settings(max_examples=300, deadline=None)
    def test_check_pm1_matches_on_random_numbers(self, v):
        assert (_outcome(lambda: core._check_pm1(v, "label"))
                == _outcome(lambda: core._check_pm1_array(v, "label")))

    @given(x=_numbers, y=_numbers | st.sampled_from([-1.0, 1.0, -0.0]),
           count=_numbers)
    @settings(max_examples=300, deadline=None)
    def test_check_example_matches_on_random_numbers(self, x, y, count):
        assert (_outcome(lambda: core.check_example(x, y, count))
                == _outcome(lambda: core._check_example_full(x, y, count)))

    def test_the_fast_paths_take_a_rounds_example(self, monkeypatch):
        """A round's (int, +-1.0, 1) never reaches the array paths."""
        def unused(*args):
            raise AssertionError("array path taken")

        # the session checks the class's values through the array path
        session = OracleSession(make_partition_class(FiniteDomain(4), 2),
                                LossSpec.of("binary_indicator"))
        monkeypatch.setattr(core, "_check_pm1_array", unused)
        monkeypatch.setattr(core, "_check_example_full", unused)
        for y in (1.0, -1.0):
            core._check_pm1(y, "label")
            got = core.check_example(3, y, 1)
            assert got == (3, y, 1) and [type(v) for v in got] == [int, float, int]
        session.add(2, -1.0)
        assert session.logical_size == 1


class TestLossKind:
    @pytest.mark.parametrize("kind", list(LossKind))
    def test_keys_and_pickling_round_trip(self, kind):
        """Members hash by identity; lookups by value and unpickling give
        back the same member."""
        assert LossKind(kind.value) is kind
        assert pickle.loads(pickle.dumps(kind)) is kind
        assert {k: k.value for k in LossKind}[LossKind(kind.value)] == kind.value
        assert kind in {LossKind(kind.value)}
        spec = LossSpec.of(kind.value)
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert hash(pickle.loads(pickle.dumps(spec))) == hash(spec)

"""Oracles checked against an independent brute-force re-enumeration."""

from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from smoothlab.core import (
    ExampleMultiset,
    FiniteDomain,
    HypothesisClass,
    LossKind,
    LossSpec,
    loss_eval,
    make_partition_class,
)
from smoothlab.errors import InputError
from smoothlab import oracle
from smoothlab.oracle import (
    OBJ_TOL,
    CountTable,
    OracleSession,
    OracleStats,
    TiePolicy,
    erm,
    mixed_opt,
)


HINT_LOSS = LossSpec(LossKind.CENTERED_BINARY)


def seeded(hclass, loss, *pairs):
    """A session seeded from the record `ExampleMultiset(pairs)`: how a
    history record reaches an oracle slot."""
    return OracleSession(hclass, loss, ExampleMultiset(pairs))


def hints(hclass, *pairs):
    """A hint slot: a session under the centered loss."""
    return seeded(hclass, HINT_LOSS, *pairs)


def per_pair_objective(hclass, S, loss):
    """Reference: the objective accumulated one distinct pair at a time."""
    obj = np.zeros(len(hclass))
    for (x, y), c in S.items():
        obj += c * loss_eval(loss, hclass.values[:, x], y)
    return obj


def argmin_set(obj):
    return set(np.flatnonzero(obj <= obj.min() + OBJ_TOL).tolist())


def brute_force_erm(hclass, S, loss):
    """Reference: plain-python loop over hypotheses and logical examples."""
    best_val, best_idx = None, None
    for i in range(len(hclass)):
        total = 0.0
        for (x, y), c in S.items():
            for _ in range(c):
                total += loss_eval(loss, float(hclass.values[i, x]), y)
        if best_val is None or total < best_val - 1e-12:
            best_val, best_idx = total, i
    return best_idx, best_val


def brute_force_mixed(hclass, S_real, S_bin, loss):
    best_val, best_idx = None, None
    G = loss.lipschitz_G
    for i in range(len(hclass)):
        total = 0.0
        for (x, y), c in S_real.items():
            total += c * loss_eval(loss, float(hclass.values[i, x]), y) / (2 * G)
        for (x, y), c in S_bin.items():
            total += c * (-y * float(hclass.values[i, x]) / 2.0)
        if best_val is None or total < best_val - 1e-12:
            best_val, best_idx = total, i
    return best_idx, best_val


class TestErm:
    def test_realizable_singleton(self, const_class):
        loss = LossSpec.of("binary_indicator")
        idx, val = erm(const_class, seeded(const_class, loss, (0, 1.0)), loss)
        assert (idx, val) == (0, 0.0)

    def test_split_labels(self, const_class):
        loss = LossSpec.of("binary_indicator")
        S = seeded(const_class, loss, (0, 1.0), (1, -1.0))
        idx, val = erm(const_class, S, loss)
        assert val == 1.0 and idx == 0  # tie broken to the lowest index

    def test_empty_multiset(self, const_class):
        loss = LossSpec.of("binary_indicator")
        idx, val = erm(const_class, seeded(const_class, loss), loss)
        assert (idx, val) == (0, 0.0)

    def test_stats_accounting(self, const_class):
        stats, loss = OracleStats(), LossSpec.of("binary_indicator")
        S = seeded(const_class, loss, (0, 1.0, 3))
        erm(const_class, S, loss, stats=stats)
        erm(const_class, S, loss, stats=stats)
        assert stats.call_count == 2
        assert stats.total_input_length == 6
        assert stats.max_input_length == 3

    def test_final_tag_separate(self, const_class):
        stats, loss = OracleStats(), LossSpec.of("binary_indicator")
        erm(const_class, seeded(const_class, loss, (0, 1.0)), loss, stats=stats,
            tag="final")
        assert stats.call_count == 0 and stats.final_call_count == 1

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, data):
        n_h = data.draw(st.integers(1, 8))
        size = data.draw(st.integers(1, 5))
        vals = data.draw(st.lists(
            st.lists(st.sampled_from([-1.0, 1.0]), min_size=size, max_size=size),
            min_size=n_h, max_size=n_h))
        hclass = HypothesisClass(vals, declared_dim=0, binary=True)
        pairs = data.draw(st.lists(
            st.tuples(st.integers(0, size - 1), st.sampled_from([-1.0, 1.0])),
            max_size=12))
        S = ExampleMultiset(pairs)
        loss = LossSpec.of("binary_indicator")
        idx, val = erm(hclass, OracleSession(hclass, loss, S), loss)
        ref_idx, ref_val = brute_force_erm(hclass, S, loss)
        assert abs(val - ref_val) < 1e-9
        assert idx == ref_idx  # lowest-index tie policy in both routes


class TestTiePolicies:
    def test_prefer_negative(self, const_class):
        loss = LossSpec.of("binary_indicator")
        idx, _ = erm(const_class, seeded(const_class, loss), loss,
                     tie=TiePolicy.PREFER_NEGATIVE, query_point=0)
        assert const_class.values[idx, 0] == -1.0

    def test_prefer_negative_falls_back(self):
        pos_only = HypothesisClass([[1.0], [1.0]], declared_dim=0, binary=True)
        loss = LossSpec.of("binary_indicator")
        idx, _ = erm(pos_only, seeded(pos_only, loss), loss,
                     tie=TiePolicy.PREFER_NEGATIVE, query_point=0)
        assert idx == 0

    def test_prefer_negative_requires_binary(self, real_class):
        loss = LossSpec.of("absolute")
        with pytest.raises(InputError):
            erm(real_class, seeded(real_class, loss), loss,
                tie=TiePolicy.PREFER_NEGATIVE, query_point=0)

    def test_seeded_random_is_reproducible(self, const_class, rng):
        loss = LossSpec.of("binary_indicator")
        picks = {erm(const_class, seeded(const_class, loss), loss,
                     tie=TiePolicy.SEEDED_RANDOM,
                     rng=np.random.default_rng(7))[0] for _ in range(5)}
        assert len(picks) == 1


def _select_reference(obj, hclass, tie, query_point):
    """The minimizer-list rule `oracle._select` follows: the first index
    within OBJ_TOL of the minimum, or under PREFER_NEGATIVE the first such
    index negative at the query point, if any."""
    minimizers = np.flatnonzero(obj <= obj.min() + OBJ_TOL)
    if tie is TiePolicy.PREFER_NEGATIVE and query_point is not None:
        neg = minimizers[hclass.values[minimizers, query_point] < 0]
        if neg.size:
            return int(neg[0])
    return int(minimizers[0])


class TestSelect:
    # offsets from a base value: exact ties, near-ties just inside and just
    # outside OBJ_TOL, and clear losers
    _OFFSETS = [0.0, 0.0, 0.5 * OBJ_TOL, 0.9 * OBJ_TOL, 1.1 * OBJ_TOL,
                2.0 * OBJ_TOL, 0.25, 1.0]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_minimizer_list(self, data):
        n = data.draw(st.integers(1, 10))
        X = data.draw(st.integers(1, 4))
        base = data.draw(st.sampled_from([0.0, 1.5, -3.25]))
        obj = base + np.array(data.draw(st.lists(
            st.sampled_from(self._OFFSETS), min_size=n, max_size=n)))
        values = np.array(data.draw(st.lists(st.lists(
            st.sampled_from([-1.0, 1.0]), min_size=X, max_size=X),
            min_size=n, max_size=n)))
        query_point = data.draw(st.none() | st.integers(0, X - 1))
        if query_point is not None and data.draw(st.booleans()):
            # no minimizer is negative at the query point
            values[obj <= obj.min() + OBJ_TOL, query_point] = 1.0
        hclass = HypothesisClass(values, declared_dim=1, binary=True)
        for tie in (TiePolicy.LOWEST_INDEX, TiePolicy.PREFER_NEGATIVE):
            got = oracle._select(obj, hclass, tie, query_point, None)
            assert type(got) is int
            assert got == _select_reference(obj, hclass, tie, query_point)

    def test_tolerance_edges(self):
        obj = np.array([1.5 + 1.1 * OBJ_TOL, 1.5 + 0.9 * OBJ_TOL, 1.5])
        hclass = HypothesisClass([[1.0], [-1.0], [1.0]], declared_dim=1, binary=True)
        assert oracle._select(obj, hclass, TiePolicy.LOWEST_INDEX, None, None) == 1
        assert oracle._select(obj, hclass, TiePolicy.PREFER_NEGATIVE, 0, None) == 1
        flipped = HypothesisClass([[-1.0], [1.0], [1.0]], declared_dim=1, binary=True)
        assert oracle._select(obj, flipped, TiePolicy.PREFER_NEGATIVE, 0, None) == 1

    @pytest.mark.parametrize("query_point", [np.int64(2), np.int32(0), 3, 7.0])
    def test_a_whole_query_point_reads_its_values_column(self, partition8,
                                                         query_point):
        obj = np.array([0.5, 0.0, 0.0, 0.0])
        x = int(query_point)
        want = _select_reference(obj, partition8, TiePolicy.PREFER_NEGATIVE, x)
        assert oracle._select(obj, partition8, TiePolicy.PREFER_NEGATIVE,
                              query_point, None) == want

    @pytest.mark.parametrize("query_point", [-1, 8, 1.5, True, np.True_, "1"])
    def test_erm_and_mixed_opt_check_the_query_point(self, partition8,
                                                     query_point):
        """A query point outside [0, |X|), or no whole number, raises
        InputError, not a wrapped index or numpy's error."""
        loss = LossSpec.of("binary_indicator")
        S = OracleSession(partition8, loss)
        with pytest.raises(InputError):
            erm(partition8, S, loss, tie=TiePolicy.PREFER_NEGATIVE,
                query_point=query_point)
        with pytest.raises(InputError):
            mixed_opt(partition8, S, S, loss, tie=TiePolicy.PREFER_NEGATIVE,
                      query_point=query_point)


class TestMixedOpt:
    def test_both_empty(self, const_class):
        loss = LossSpec.of("binary_indicator")
        _, val = mixed_opt(const_class, seeded(const_class, loss),
                           hints(const_class), loss)
        assert val == 0.0

    def test_real_class_tie(self, real_class):
        # class {+1 const, 0 const}, absolute loss (G = 1/2):
        # +1 const scores 0 + 0.5, 0 const scores 0.5 + 0
        loss = LossSpec.of("absolute")
        idx, val = mixed_opt(real_class, seeded(real_class, loss, (0, 1.0)),
                             hints(real_class, (0, -1.0)), loss)
        assert val == pytest.approx(0.5)
        assert idx == 0

    def test_two_hint_copies(self, real_class):
        loss = LossSpec.of("absolute")
        S_bin = hints(real_class, (0, 1.0, 2))
        idx, val = mixed_opt(real_class, seeded(real_class, loss), S_bin, loss)
        assert val == pytest.approx(-1.0)
        assert real_class.values[idx, 0] == 1.0

    def test_agrees_with_erm_when_no_hints(self, partition8, rng):
        loss = LossSpec.of("binary_indicator")
        S = seeded(partition8, loss, *(
            (int(rng.integers(8)), float(rng.choice([-1.0, 1.0])))
            for _ in range(10)))
        idx_m, val_m = mixed_opt(partition8, S, hints(partition8), loss)
        idx_e, val_e = erm(partition8, S, loss)
        assert idx_m == idx_e
        assert val_m == pytest.approx(val_e / (2 * loss.lipschitz_G))

    def test_binary_hint_labels_enforced(self, const_class):
        loss = LossSpec.of("binary_indicator")
        with pytest.raises(InputError):
            mixed_opt(const_class, seeded(const_class, loss),
                      hints(const_class, (0, 0.5)), loss)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, data):
        n_h = data.draw(st.integers(1, 6))
        size = data.draw(st.integers(1, 4))
        vals = data.draw(st.lists(
            st.lists(st.floats(-1, 1), min_size=size, max_size=size),
            min_size=n_h, max_size=n_h))
        hclass = HypothesisClass(vals, declared_dim=0)
        loss = LossSpec.of("absolute")
        real_pairs = data.draw(st.lists(
            st.tuples(st.integers(0, size - 1), st.floats(-1, 1)), max_size=6))
        bin_pairs = data.draw(st.lists(
            st.tuples(st.integers(0, size - 1), st.sampled_from([-1.0, 1.0])),
            max_size=6))
        S_real, S_bin = ExampleMultiset(real_pairs), ExampleMultiset(bin_pairs)
        _, val = mixed_opt(hclass, OracleSession(hclass, loss, S_real),
                           OracleSession(hclass, HINT_LOSS, S_bin), loss)
        _, ref = brute_force_mixed(hclass, S_real, S_bin, loss)
        assert abs(val - ref) < 1e-9

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_label_flip_difference_bounded(self, data):
        """|OPT(S; B + (x,-1)) - OPT(S; B + (x,+1))| <= 1."""
        size = data.draw(st.integers(1, 4))
        n_h = data.draw(st.integers(1, 6))
        vals = data.draw(st.lists(
            st.lists(st.floats(-1, 1), min_size=size, max_size=size),
            min_size=n_h, max_size=n_h))
        hclass = HypothesisClass(vals, declared_dim=0)
        loss = LossSpec.of("absolute")
        S_real = seeded(hclass, loss, *data.draw(st.lists(
            st.tuples(st.integers(0, size - 1), st.floats(-1, 1)), max_size=5)))
        B = data.draw(st.lists(
            st.tuples(st.integers(0, size - 1), st.sampled_from([-1.0, 1.0])),
            max_size=5))
        x = data.draw(st.integers(0, size - 1))
        lo = hints(hclass, *B, (x, -1.0))
        hi = hints(hclass, *B, (x, 1.0))
        _, v_minus = mixed_opt(hclass, S_real, lo, loss)
        _, v_plus = mixed_opt(hclass, S_real, hi, loss)
        assert abs(v_minus - v_plus) <= 1.0 + 1e-9


def _objective_seen_by_select(call):
    """Run an oracle call and return (objective passed to _select, result)."""
    with mock.patch.object(oracle, "_select", wraps=oracle._select) as spy:
        result = call()
    return spy.call_args.args[0], result


@st.composite
def oracle_instances(draw):
    """A class, a loss it admits, a real-loss multiset and a hint multiset."""
    kind = draw(st.sampled_from(list(LossKind)))
    binary = kind is LossKind.BINARY_INDICATOR or draw(st.booleans())
    n_h = draw(st.integers(1, 8))
    size = draw(st.integers(1, 5))
    value = st.sampled_from([-1.0, 1.0]) if binary else st.floats(-1, 1)
    vals = draw(st.lists(st.lists(value, min_size=size, max_size=size),
                         min_size=n_h, max_size=n_h))
    hclass = HypothesisClass(vals, declared_dim=0, binary=binary)
    pm1 = kind in (LossKind.BINARY_INDICATOR, LossKind.CENTERED_BINARY)
    label = st.sampled_from([-1.0, 1.0]) if pm1 else st.floats(-1, 1)

    def multiset(label):
        return ExampleMultiset(draw(st.lists(
            st.tuples(st.integers(0, size - 1), label, st.integers(1, 5)),
            max_size=12)))

    return hclass, LossSpec(kind), multiset(label), multiset(
        st.sampled_from([-1.0, 1.0]))


class TestVectorizedObjective:
    """The oracles' one-matvec objective against the per-pair loop.

    A matvec may add in a different order, so the argmin sets are
    compared at OBJ_TOL and the values at 1e-12, not bit for bit.
    """

    @given(oracle_instances())
    @settings(max_examples=200, deadline=None)
    def test_erm_matches_per_pair_loop(self, instance):
        hclass, loss, S, _ = instance
        obj, (idx, val) = _objective_seen_by_select(
            lambda: erm(hclass, OracleSession(hclass, loss, S), loss))
        ref = per_pair_objective(hclass, S, loss)
        assert argmin_set(obj) == argmin_set(ref)
        np.testing.assert_allclose(obj, ref, rtol=0, atol=1e-12)
        assert idx == min(argmin_set(ref)) and abs(val - ref[idx]) <= 1e-12

    @given(oracle_instances())
    @settings(max_examples=200, deadline=None)
    def test_mixed_opt_matches_per_pair_loop(self, instance):
        hclass, loss, S_real, S_bin = instance
        obj, (idx, val) = _objective_seen_by_select(
            lambda: mixed_opt(hclass, OracleSession(hclass, loss, S_real),
                              OracleSession(hclass, HINT_LOSS, S_bin), loss))
        ref = (per_pair_objective(hclass, S_real, loss) / (2 * loss.lipschitz_G)
               + per_pair_objective(hclass, S_bin, HINT_LOSS))
        assert argmin_set(obj) == argmin_set(ref)
        np.testing.assert_allclose(obj, ref, rtol=0, atol=1e-12)
        assert idx == min(argmin_set(ref)) and abs(val - ref[idx]) <= 1e-12


class TestInstanceDomain:
    """A session seeded for either oracle slot rejects a record naming an
    instance outside [0, |X|) instead of reading some other instance's
    value."""

    @pytest.mark.parametrize("x", [-1, 4, 100])
    def test_erm_rejects_out_of_domain(self, x):
        hclass = make_partition_class(FiniteDomain(4), 2)
        loss, real = LossSpec.of("binary_indicator"), LossSpec.of("absolute")
        pairs = [(0, 1.0), (x, -1.0)]
        with pytest.raises(InputError, match="outside the domain"):
            erm(hclass, seeded(hclass, loss, *pairs), loss)
        with pytest.raises(InputError, match="outside the domain"):
            mixed_opt(hclass, seeded(hclass, real, *pairs), hints(hclass), real)
        with pytest.raises(InputError, match="outside the domain"):
            mixed_opt(hclass, seeded(hclass, real), hints(hclass, *pairs), real)

    def test_domain_ends_accepted(self):
        hclass = make_partition_class(FiniteDomain(4), 2)
        loss = LossSpec.of("binary_indicator")
        S = seeded(hclass, loss, (0, 1.0), (3, -1.0))
        assert erm(hclass, S, loss) == (1, 0.0)


class TestChecksPerCall:
    """The oracles evaluate the unchecked loss kernel through a session
    and reject what `loss_eval` rejects over the whole class under the
    real loss and over each slot's labels under that slot's loss."""

    @pytest.mark.parametrize("kind", ["binary_indicator", "centered_binary"])
    def test_half_label_rejected_under_sign_losses(self, const_class, kind):
        loss, half = LossSpec.of(kind), [(0, 1.0), (1, 0.5)]
        with pytest.raises(InputError, match="label"):
            erm(const_class, seeded(const_class, loss, *half), loss)
        with pytest.raises(InputError, match="label"):
            mixed_opt(const_class, seeded(const_class, loss, *half),
                      hints(const_class), loss)

    @pytest.mark.parametrize("kind", list(LossKind))
    def test_half_hint_label_rejected(self, real_class, kind):
        """The hint term uses the centered loss whatever the real loss.  A
        class the real loss rejects (real values under the indicator) is
        rejected first, whatever the slots hold."""
        loss = LossSpec(kind)
        with pytest.raises(InputError, match="prediction" if loss.binary_only
                           else "label"):
            mixed_opt(real_class, seeded(real_class, loss),
                      hints(real_class, (0, 0.5)), loss)
        # +-1 values pass the class check under every loss, built binary or not
        signs = HypothesisClass([[1.0], [-1.0]], declared_dim=1)
        with pytest.raises(InputError, match="label"):
            mixed_opt(signs, seeded(signs, loss), hints(signs, (0, 0.5)), loss)

    @pytest.mark.parametrize("kind", ["absolute", "squared"])
    def test_half_label_accepted_under_real_losses(self, const_class, kind):
        loss = LossSpec.of(kind)
        S = seeded(const_class, loss, (1, 0.5))
        assert erm(const_class, S, loss)[0] == 0
        mixed_opt(const_class, S, hints(const_class, (0, 1.0)), loss)

    def test_non_sign_class_rejected_under_indicator(self):
        """Checked over the whole class, whatever instances the history
        names, since a session's cell tables hold every class value."""
        hclass = HypothesisClass([[0.5, 1.0], [1.0, -1.0]], declared_dim=0)
        loss, real = LossSpec.of("binary_indicator"), LossSpec.of("absolute")
        at_half, elsewhere = [(0, 1.0)], [(1, 1.0)]
        for pairs in (at_half, elsewhere, []):
            with pytest.raises(InputError, match="prediction"):
                erm(hclass, seeded(hclass, loss, *pairs), loss)
            with pytest.raises(InputError, match="prediction"):
                mixed_opt(hclass, seeded(hclass, loss, *pairs), hints(hclass), loss)
        # the hint term's centered loss takes real predictions
        assert mixed_opt(hclass, seeded(hclass, real), hints(hclass, *at_half),
                         real) == (1, -0.5)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_rejects_exactly_what_loss_eval_rejects(self, data):
        kind = data.draw(st.sampled_from(list(LossKind)))
        size = data.draw(st.integers(1, 4))
        n_h = data.draw(st.integers(1, 4))
        value = st.sampled_from([-1.0, -0.5, 0.0, 1.0])
        vals = data.draw(st.lists(st.lists(value, min_size=size, max_size=size),
                                  min_size=n_h, max_size=n_h))
        hclass = HypothesisClass(vals, declared_dim=0)
        S = ExampleMultiset(data.draw(st.lists(st.tuples(
            st.integers(0, size - 1), st.sampled_from([-1.0, 0.5, 1.0])),
            max_size=5)))
        loss = LossSpec(kind)
        def raises(call):
            try:
                call()
            except InputError:
                return True
            return False

        def real():
            return OracleSession(hclass, loss, S)

        # the whole class under the real loss, then the slot's labels
        bad_class = raises(lambda: loss_eval(loss, hclass.values, 1.0))
        expected = bad_class or raises(lambda: per_pair_objective(hclass, S, loss))
        assert raises(lambda: erm(hclass, real(), loss)) == expected
        assert raises(lambda: mixed_opt(hclass, real(), hints(hclass), loss)) == expected
        # the hint slot's labels under the centered loss
        expected = bad_class or raises(
            lambda: per_pair_objective(hclass, S, HINT_LOSS))
        assert raises(lambda: mixed_opt(hclass, seeded(hclass, loss),
                                        OracleSession(hclass, HINT_LOSS, S),
                                        loss)) == expected


SIGN = st.sampled_from([-1.0, 1.0])


@st.composite
def session_instances(draw):
    """A +-1 or real-valued class (|X| <= 8, |H| <= 16), a loss (the
    indicator only over +-1 values), a history in arrival order with +-1
    labels, or also real ones under the real losses, a count table and a
    query point."""
    binary = draw(st.booleans())
    size, n_h = draw(st.integers(1, 8)), draw(st.integers(1, 16))
    vals = draw(st.lists(st.lists(SIGN if binary else st.floats(-1, 1),
                                  min_size=size, max_size=size),
                         min_size=n_h, max_size=n_h))
    hclass = HypothesisClass(vals, declared_dim=0, binary=binary)
    kinds = list(LossKind) if binary else [
        LossKind.CENTERED_BINARY, LossKind.ABSOLUTE, LossKind.SQUARED]
    loss = LossSpec(draw(st.sampled_from(kinds)))
    sign_labels = loss.kind in (LossKind.BINARY_INDICATOR, LossKind.CENTERED_BINARY)
    label = SIGN if sign_labels else SIGN | st.floats(-1, 1)
    history = draw(st.lists(st.tuples(st.integers(0, size - 1), label,
                                      st.integers(1, 3)), max_size=8))
    cells = np.array(draw(st.lists(st.integers(0, 5), min_size=2 * size,
                                   max_size=2 * size))).reshape(size, 2)
    return hclass, loss, history, cells, draw(st.integers(0, size - 1))


def _session(hclass, loss, history):
    """A session fed the history one example at a time, as a learner is."""
    session = OracleSession(hclass, loss)
    for x, y, count in history:
        session.add(x, y, count)
    return session


def _exact(hclass, history) -> bool:
    """Every term an integer or a half-integer: +-1 values and labels."""
    return bool(np.all(np.abs(hclass.values) == 1.0)
                and all(abs(y) == 1.0 for _, y, _ in history))


def _multisets(history, cells):
    """Reference records for the history, the table's pairs and both
    merged (a `Counter` sum), in that order."""
    past = Counter()
    for x, y, count in history:
        past[x, y] += count
    table = Counter({(x, (-1.0, 1.0)[sign]): int(c)
                     for (x, sign), c in np.ndenumerate(cells) if c})
    return tuple(ExampleMultiset((x, y, c) for (x, y), c in counts.items())
                 for counts in (past, table, past + table))


def _outcome(call):
    try:
        return call()
    except InputError:
        return "InputError"


class TestOracleSession:
    """The session path against the per-pair loop over the merged pairs
    of `history + cells`: the objectives, the oracles' choices and their
    accounting.  Bit for bit where every term is an integer or a
    half-integer, within 1e-12 otherwise.  Sessions seeded from the
    multiset records take the same choices and accounting."""

    @given(session_instances())
    @settings(max_examples=300, deadline=None)
    def test_objectives_match_the_multiset_path(self, instance):
        hclass, loss, history, cells, _ = instance
        session = _session(hclass, loss, history)
        past, table, merged = _multisets(history, cells)
        pairs = [
            (session.objective(hclass, loss), per_pair_objective(hclass, past, loss)),
            (CountTable(session, cells, with_history=True).objective(hclass, loss),
             per_pair_objective(hclass, merged, loss)),
            (CountTable(session, cells).objective(hclass, HINT_LOSS),
             per_pair_objective(hclass, table, HINT_LOSS)),
        ]
        for got, want in pairs:
            if _exact(hclass, history):
                np.testing.assert_array_equal(got, want)
            else:
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert session.logical_size == past.logical_size
        assert Counter(session.items()) == Counter(past.items())
        assert (Counter(CountTable(session, cells, with_history=True).items())
                == Counter(merged.items()))
        assert CountTable(session, cells).items() == table.items()

    @given(session_instances())
    @settings(max_examples=300, deadline=None)
    def test_oracles_choose_and_record_alike(self, instance):
        hclass, loss, history, cells, x_q = instance
        session = _session(hclass, loss, history)
        past, table, merged = _multisets(history, cells)
        refs = (per_pair_objective(hclass, merged, loss),
                per_pair_objective(hclass, past, loss) / (2 * loss.lipschitz_G)
                + per_pair_objective(hclass, table, HINT_LOSS))
        exact = _exact(hclass, history)
        if not exact:
            # rounding may move an objective across the tie band only
            # when it sits at its edge
            for obj in refs:
                assume(np.all(np.abs(obj - obj.min() - OBJ_TOL) > 1e-13))
        slots = {"session": (CountTable(session, cells, with_history=True), session,
                             CountTable(session, cells)),
                 "seeded": (OracleSession(hclass, loss, merged),
                            OracleSession(hclass, loss, past),
                            OracleSession(hclass, HINT_LOSS, table))}
        sizes = (merged.logical_size, past.logical_size + table.logical_size)
        for tie in TiePolicy:
            rng = np.random.default_rng(5)
            want = _outcome(lambda: [oracle._select(obj, hclass, tie, x_q, rng)
                                     for obj in refs])
            for S, S_real, S_bin in slots.values():
                stats, rng = OracleStats(), np.random.default_rng(5)
                got = _outcome(lambda: [
                    erm(hclass, S, loss, tie=tie, stats=stats, query_point=x_q,
                        rng=rng),
                    mixed_opt(hclass, S_real, S_bin, loss, tie=tie, stats=stats,
                              query_point=x_q, rng=rng)])
                if want == "InputError":
                    assert got == want
                    continue
                assert [idx for idx, _ in got] == want
                for (idx, val), obj in zip(got, refs):
                    assert val == obj[idx] if exact else abs(val - obj[idx]) <= 1e-12
                assert stats == OracleStats(2, sum(sizes), max(sizes))

    @pytest.mark.parametrize("x, y", [(-1, 1.0), (8, 1.0), (0, 1.5), (0, -2.0),
                                      (0, float("nan"))])
    def test_add_rejects_bad_examples(self, partition8, x, y):
        session = OracleSession(partition8, LossSpec.of("absolute"))
        session.add(1, 0.5)
        before = session.objective(partition8, session.loss).copy()
        with pytest.raises(InputError):
            session.add(x, y)
        assert session.logical_size == 1 and session.items() == [((1, 0.5), 1)]
        np.testing.assert_array_equal(session.objective(partition8, session.loss),
                                      before)

    @pytest.mark.parametrize("kind", ["binary_indicator", "centered_binary"])
    def test_add_rejects_non_sign_labels_under_sign_losses(self, partition8, kind):
        session = OracleSession(partition8, LossSpec.of(kind))
        with pytest.raises(InputError, match="label"):
            session.add(0, 0.5)
        assert session.logical_size == 0

    @pytest.mark.parametrize("cells", [
        -np.ones((8, 2), dtype=int),
        np.full((8, 2), 0.5),
        np.full((8, 2), np.nan),
        np.zeros((8, 3), dtype=int),
        np.zeros((9, 2), dtype=int),
        np.zeros(16, dtype=int),
        np.zeros((8, 2), dtype=bool),
    ], ids=["negative", "fractional", "nan", "three_columns", "nine_rows",
            "flat", "boolean"])
    def test_table_rejects_bad_cells(self, partition8, cells):
        session = OracleSession(partition8, LossSpec.of("absolute"))
        with pytest.raises(InputError, match="cells"):
            CountTable(session, cells)
        with pytest.raises(InputError, match="cells"):
            CountTable(session, cells, with_history=True)

    def test_class_sign_check_at_build(self):
        """Under the indicator loss every class value must be +-1, since
        the cell tables hold them all."""
        hclass = HypothesisClass([[0.5, 1.0], [1.0, -1.0]], declared_dim=0)
        with pytest.raises(InputError, match="prediction"):
            OracleSession(hclass, LossSpec.of("binary_indicator"))
        OracleSession(hclass, LossSpec.of("absolute"))

    def test_rejects_another_class_or_loss(self, partition8):
        session = OracleSession(partition8, LossSpec.of("absolute"))
        other = make_partition_class(FiniteDomain(8), 2)
        with pytest.raises(InputError, match="another class"):
            erm(other, session, LossSpec.of("absolute"))
        with pytest.raises(InputError, match="history under absolute"):
            erm(partition8, session, LossSpec.of("squared"))
        with pytest.raises(InputError, match="no squared table"):
            erm(partition8, CountTable(session, np.zeros((8, 2), dtype=int)),
                LossSpec.of("squared"))

    def test_built_from_a_multiset(self, partition8):
        history = ExampleMultiset([(0, 1.0), (5, -1.0, 3)])
        loss = LossSpec.of("binary_indicator")
        session = OracleSession(partition8, loss, history)
        assert session.items() == history.items()
        np.testing.assert_array_equal(session.objective(partition8, loss),
                                      per_pair_objective(partition8, history, loss))


# labels that sequential `ExampleMultiset.add` must merge or keep apart:
# +-1, signed zeros (equal, so merged, keeping the first one's sign) and
# reals
HISTORY_LABEL = st.sampled_from([-1.0, 1.0, 0.0, -0.0, 0.5]) | st.floats(-1, 1)


class TestMixedOptSlots:
    """The slots `mixed_opt` reads: it writes none of them."""

    @given(session_instances())
    @settings(max_examples=100, deadline=None)
    def test_mixed_opt_writes_no_slot(self, instance):
        """Every slot's objective, a session in the hint slot included, is
        unchanged by a call, whose value has the bits of the real term over
        2G plus the hint term."""
        hclass, loss, history, cells, _ = instance
        session = _session(hclass, loss, history)
        _, table, _ = _multisets(history, cells)
        reals = (session, CountTable(session, cells, with_history=True))
        hints = (CountTable(session, cells), OracleSession(hclass, HINT_LOSS, table))
        for S_real in reals:
            for S_bin in hints:
                before = [S.objective(hclass, l).tobytes()
                          for S, l in ((S_real, loss), (S_bin, HINT_LOSS))]
                want = S_real.objective(hclass, loss) / (2.0 * loss.lipschitz_G)
                want += S_bin.objective(hclass, HINT_LOSS)
                idx, val = mixed_opt(hclass, S_real, S_bin, loss)
                assert val == want[idx]
                assert [S.objective(hclass, l).tobytes()
                        for S, l in ((S_real, loss), (S_bin, HINT_LOSS))] == before


class TestCountTableDot:
    @given(session_instances())
    @settings(max_examples=100, deadline=None)
    def test_count_table_matvec_matches_matmul(self, instance):
        """A view's objective, read with `.dot`, has the bits of the `@`
        matvec (plus the history), real-valued classes included."""
        hclass, loss, history, cells, _ = instance
        session = _session(hclass, loss, history)
        for kind in (HINT_LOSS, loss):
            want = session._cell_table(hclass, kind) @ cells.reshape(-1)
            got = CountTable(session, cells).objective(hclass, kind)
            assert got.tobytes() == want.tobytes()
        want += session.objective(hclass, loss)  # the matvec under `loss`
        got = CountTable(session, cells, with_history=True).objective(hclass, loss)
        assert got.tobytes() == want.tobytes()


def _signed(items) -> Counter:
    """The pairs as a Counter in which the sign of a zero label counts."""
    return Counter({(x, y.hex()): count for (x, y), count in items})


class TestInPlaceAdd:
    @given(st.lists(st.tuples(st.integers(0, 3),
                              st.sampled_from([-1.0, -0.5, 0.0, 0.3, 1.0]),
                              st.integers(1, 3)), max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_add_matches_count_times_column(self, examples):
        """A one-copy add, made in place, gives the bits of `count * column`."""
        hclass = HypothesisClass([[0.7, -0.1, 1.0, -1.0], [0.2, 0.9, -0.3, 0.0]],
                                 declared_dim=1)
        loss = LossSpec.of("squared")
        session, want = OracleSession(hclass, loss), np.zeros(len(hclass))
        for x, y, count in examples:
            session.add(x, y, count)
            want += count * loss_eval(loss, hclass.values[:, x], y)
            assert session.objective(hclass, loss).tobytes() == want.tobytes()


class TestLazyHistory:
    """`OracleSession.items()` lists the history when read: the multiset
    that adding each example in turn builds, in first-seen order."""

    @given(st.lists(st.tuples(st.integers(0, 7), HISTORY_LABEL, st.integers(1, 3)),
                    max_size=24), st.data())
    @settings(max_examples=300, deadline=None)
    def test_history_matches_sequential_add(self, examples, data):
        reads = data.draw(st.sets(st.integers(0, len(examples)), max_size=3))
        session = OracleSession(make_partition_class(FiniteDomain(8), 2),
                                LossSpec.of("absolute"))
        ref = ExampleMultiset()
        for i, (x, y, count) in enumerate(examples):
            if i in reads:  # a read mid-game
                assert _signed(session.items()) == _signed(ref.items())
            session.add(x, y, count)
            ref.add(x, y, count)
        assert _signed(session.items()) == _signed(ref.items())
        assert session.logical_size == ref.logical_size
        firsts = [next(i for i, (x, y, _) in enumerate(examples) if (x, y) == pair)
                  for pair, _ in session.items()]
        assert firsts == sorted(firsts)

    @pytest.mark.parametrize("y, count", [(0.5, 0), (0.5, -2), (1.5, 1),
                                          (float("nan"), 2)])
    def test_a_bad_example_raises_at_add_not_at_read(self, partition8, y, count):
        session = OracleSession(partition8, LossSpec.of("absolute"))
        session.add(2, -0.0, 2)
        with pytest.raises(InputError):
            session.add(3, y, count)
        assert session.logical_size == 2
        assert _signed(session.items()) == _signed([((2, -0.0), 2)])

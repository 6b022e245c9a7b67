"""Adversary constructions: certificates, alternating labels, hints."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothlab.adversary import (
    Adversary,
    AdversaryKind,
    AdversarySpec,
    HintSchedule,
    RoundCommitment,
    biased_label_rule,
    cyclic_hint_schedule,
    full_domain_schedule,
    known_sequence_schedule,
    next_round,
)
from smoothlab.core import (
    FiniteDomain,
    choice_cdf,
    LossSpec,
    loss_eval,
    make_partition_class,
    make_support_partition_class,
    validate_smooth,
)
from smoothlab.errors import ContractViolation, InputError
from smoothlab import rng as rngmod


class TestHintSchedules:
    def test_known_sequence_is_K1(self):
        s = known_sequence_schedule([3, 1, 2])
        assert (s.T, s.K) == (3, 1)
        np.testing.assert_array_equal(s.row(1), [3])

    def test_cyclic(self):
        blocks = [np.array([0, 1]), np.array([2, 3])]
        s = cyclic_hint_schedule(5, blocks)
        np.testing.assert_array_equal(s.row(1), [0, 1])
        np.testing.assert_array_equal(s.row(2), [2, 3])
        np.testing.assert_array_equal(s.row(3), [0, 1])

    @pytest.mark.parametrize("T", [1, 2, 3, 6, 7, 8])
    def test_cyclic_rows_match_the_round_loop(self, T):
        """T below, equal to, a multiple of and off a multiple of the
        three blocks: the rows the per-round loop stacked."""
        blocks = [np.array([0, 1]), np.array([4, 5]), np.array([2, 3])]
        rows = cyclic_hint_schedule(T, blocks).rows
        want = np.stack([blocks[t % len(blocks)] for t in range(T)])
        assert rows.dtype == want.dtype
        np.testing.assert_array_equal(rows, want)

    def test_full_domain(self):
        s = full_domain_schedule(2, 4)
        assert s.K == 4
        np.testing.assert_array_equal(s.row(2), [0, 1, 2, 3])

    def test_shape_validation(self):
        with pytest.raises(InputError):
            HintSchedule(np.zeros((0, 1)))
        with pytest.raises(InputError, match="must hold integers"):
            HintSchedule([[0.5, 1.9]])
        with pytest.raises(InputError, match="must hold integers"):
            HintSchedule([["a"]])
        np.testing.assert_array_equal(HintSchedule([[0.0, 2.0]]).rows, [[0, 2]])

    @pytest.mark.parametrize("t", [0, -1, 4, 2.5, True])
    def test_row_checks_its_round(self, t):
        """A round outside 1..T used to wrap (`row(0)` read round 3's row,
        `row(-1)` round 2's) or raise numpy's raw IndexError (`row(4)`)."""
        with pytest.raises(InputError, match="round"):
            known_sequence_schedule([3, 1, 2]).row(t)


class TestRealizableSmooth:
    def test_certificate_and_realizability(self, partition8):
        spec = AdversarySpec(kind=AdversaryKind.REALIZABLE_SMOOTH)
        adv = Adversary(spec, partition8, T=10, seed=3)
        h_star = partition8.values[adv.h_star_index]
        for t in range(1, 11):
            c = adv.commit(t)
            c.check_contract()
            assert c.sigma == 1.0
            assert validate_smooth(c.probs, 1.0)
            np.testing.assert_array_equal(c.label_table, h_star)

    @pytest.mark.parametrize("delta", [0.7, -0.1, float("nan")])
    def test_delta_out_of_range_rejected_at_setup(self, partition8, delta):
        spec = AdversarySpec(kind=AdversaryKind.REALIZABLE_SMOOTH, delta=delta)
        with pytest.raises(InputError, match="delta"):
            Adversary(spec, partition8, T=4, seed=0)

    def test_h_star_depends_on_seed(self, partition8):
        spec = AdversarySpec(kind=AdversaryKind.REALIZABLE_SMOOTH)
        stars = {Adversary(spec, partition8, 5, seed=s).h_star_index
                 for s in range(30)}
        assert len(stars) > 1

    def test_with_hint_schedule_certifies_support(self, partition8):
        sched = cyclic_hint_schedule(4, [np.arange(4), np.arange(4, 8)])
        spec = AdversarySpec(kind=AdversaryKind.REALIZABLE_SMOOTH,
                             hint_schedule=sched)
        adv = Adversary(spec, partition8, T=4, seed=0)
        c = adv.commit(2)
        assert c.sigma is None
        assert set(np.flatnonzero(c.probs)) <= set(c.hint_row.tolist())


class TestSupportAlternating:
    def _adv(self, sigma=0.5, d=2, T=8, seed=0):
        hclass = make_support_partition_class(FiniteDomain(8), 4, d)
        spec = AdversarySpec(kind=AdversaryKind.SUPPORT_ALTERNATING,
                             sigma=sigma, d=d)
        return Adversary(spec, hclass, T=T, seed=seed), hclass

    def test_support_size_and_certificate(self):
        adv, _ = self._adv()
        c = adv.commit(1)
        c.check_contract()
        assert np.flatnonzero(c.probs).size == 4
        assert validate_smooth(c.probs, 0.5)

    def test_labels_alternate_within_block(self):
        adv, _ = self._adv()
        # block 0 = {0, 1}: first visit labeled +1, second -1, third +1
        labels = []
        for t in range(1, 4):
            c = adv.commit(t)
            labels.append(c.label_table[0])
            adv.observe(t, 0, 0.0, c.label_table[0])
        assert labels == [1.0, -1.0, 1.0]

    def test_blocks_alternate_independently(self):
        adv, _ = self._adv()
        c1 = adv.commit(1)
        adv.observe(1, 0, 0.0, c1.label_table[0])  # visit block 0 only
        c2 = adv.commit(2)
        assert c2.label_table[0] == -1.0  # block 0 flipped
        assert c2.label_table[2] == 1.0   # block 1 untouched

    def test_best_fixed_hypothesis_loss_is_half_T(self):
        """With an even number of visits per block, every fixed hypothesis
        errs on exactly half the rounds (exact counting)."""
        adv, hclass = self._adv(T=8)
        loss = LossSpec.of("binary_indicator")
        # visit blocks deterministically: 4 visits each to x=0 and x=2
        xs = [0, 0, 0, 0, 2, 2, 2, 2]
        totals = np.zeros(len(hclass))
        for t, x in enumerate(xs, start=1):
            c = adv.commit(t)
            y = float(c.label_table[x])
            totals += loss_eval(loss, hclass.values[:, x], y)
            adv.observe(t, x, 0.0, y)
        assert totals.min() == len(xs) / 2

    @given(st.lists(st.integers(0, 7), max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_parity_key_tracks_the_visit_counts(self, xs):
        """The commitment key is the visit count of each block mod 2, and
        the committed labels flip with it."""
        adv, _ = self._adv(sigma=1.0, d=2, T=len(xs) + 1)
        visits = np.zeros(2, dtype=int)
        for t, x in enumerate(xs, start=1):
            adv.observe(t, x, 0.0, 1.0)
            visits[x // 4] += 1
            assert adv._key(t + 1) == (visits % 2).astype(np.uint8).tobytes()
        labels = adv.commit(len(xs) + 1).label_table
        np.testing.assert_array_equal(labels, np.repeat(1 - 2 * (visits % 2), 4))

    @pytest.mark.parametrize("x_t", [-1, 8, 1.5, True, np.True_, "1", [1]],
                             ids=repr)
    def test_observe_rejects_a_query_outside_the_domain(self, x_t):
        """x_t passes the learners' query check: -1 does not wrap around to
        instance 7 and 8 raises no raw IndexError.  Nothing is counted."""
        adv, _ = self._adv(sigma=1.0, d=2)
        key = adv._key(1)
        with pytest.raises(InputError, match="x_t"):
            adv.observe(1, x_t, 1.0, 1.0)
        assert adv._key(1) == key

    @pytest.mark.parametrize("x_t", [np.int64(7), 7.0])
    def test_observe_accepts_a_whole_query(self, x_t):
        adv, _ = self._adv(sigma=1.0, d=2)
        adv.observe(1, x_t, 1.0, 1.0)
        assert adv._key(2) == bytes([0, 1])

    @pytest.mark.parametrize("name", ["smooth", "smooth_cyclic", "custom_table"])
    def test_every_kind_checks_the_observed_query(self, partition8, name):
        adv = Adversary(_SPECS[name], partition8, T=16, seed=0)
        for x_t in (-1, 8, 1.5, True):
            with pytest.raises(InputError):
                adv.observe(1, x_t, 1.0, 1.0)

    @pytest.mark.parametrize("size, sigma, d", [(8, 1.0, 2), (64, 0.25, 2), (12, 0.5, 3)])
    def test_commitments_match_the_reference_in_every_parity_state(
            self, size, sigma, d):
        """Uniform on the first ceil(sigma*|X|) instances; a block labeled -1
        iff it was visited an odd number of times, +1 off the support."""
        support = math.ceil(sigma * size)
        block = support // d
        hclass = make_support_partition_class(FiniteDomain(size), support, d)
        spec = AdversarySpec(kind=AdversaryKind.SUPPORT_ALTERNATING, sigma=sigma, d=d)
        for odd in itertools.product((0, 1), repeat=d):
            adv = Adversary(spec, hclass, T=d + 1, seed=0)
            visited = [j for j in range(d) if odd[j]]
            for t, j in enumerate(visited, start=1):
                adv.observe(t, j * block, 0.0, 1.0)
            probs, labels = np.zeros(size), np.ones(size)
            for x in range(support):
                probs[x] = 1.0 / support
                labels[x] = -1.0 if odd[x // block] else 1.0
            c = adv.commit(len(visited) + 1)
            assert c.probs.tobytes() == probs.tobytes()
            assert c.label_table.tobytes() == labels.tobytes()

    def test_support_not_divisible_by_d(self, partition8):
        spec = AdversarySpec(kind=AdversaryKind.SUPPORT_ALTERNATING, sigma=0.75, d=4)
        with pytest.raises(InputError, match="support size 6 not divisible by d=4"):
            Adversary(spec, partition8, T=2, seed=0)

    def test_non_integral_support_warns(self, partition8):
        spec = AdversarySpec(kind=AdversaryKind.SUPPORT_ALTERNATING,
                             sigma=0.4, d=1)
        with pytest.warns(UserWarning):
            Adversary(spec, partition8, T=2, seed=0)

    def test_hint_schedule_rejected_at_setup(self, partition8):
        """The kind is sigma-certified and keeps no hint promise: with cyclic
        K = 2 hints it used to load and then raise a ContractViolation in
        the first round whose x_t left the row."""
        spec = AdversarySpec(kind=AdversaryKind.SUPPORT_ALTERNATING, sigma=0.5, d=2,
                             hint_schedule=cyclic_hint_schedule(
                                 4, [np.arange(j, j + 2) for j in range(0, 8, 2)]))
        with pytest.raises(InputError, match="takes no hint schedule"):
            Adversary(spec, partition8, T=4, seed=0)


class TestContractEnforcement:
    def test_smoothness_violation_raised(self):
        probs = np.zeros(4)
        probs[0] = 1.0
        c = RoundCommitment(probs, 0.9, None, np.ones(4))
        with pytest.raises(ContractViolation):
            c.check_contract()

    def test_unnormalized_probs_are_a_contract_violation(self):
        c = RoundCommitment(np.full(4, 0.3), 1.0, None, np.ones(4))
        with pytest.raises(ContractViolation, match="sum to 1"):
            c.check_contract()

    def test_hint_certified_unnormalized_probs_are_a_contract_violation(self):
        c = RoundCommitment(np.full(4, 0.3), None, np.arange(4), np.ones(4))
        with pytest.raises(ContractViolation, match="sum to 1"):
            c.check_contract()

    def test_hint_certified_negative_mass_is_a_contract_violation(self):
        c = RoundCommitment(np.array([1.5, -0.5, 0.0, 0.0]), None,
                            np.arange(4), np.ones(4))
        with pytest.raises(ContractViolation, match="nonnegative"):
            c.check_contract()

    def test_hint_support_violation_raised(self):
        probs = np.array([0.5, 0.5, 0.0])
        c = RoundCommitment(probs, None, np.array([0]), np.ones(3))
        with pytest.raises(ContractViolation):
            c.check_contract()

    @pytest.mark.parametrize("labels", [[1.0, np.nan, 1.0], [np.nan] * 3,
                                        [1.0, np.inf, -1.0]])
    def test_non_finite_labels_violate_contract(self, labels):
        c = RoundCommitment(np.full(3, 1 / 3), 1.0, None, np.array(labels))
        with pytest.raises(ContractViolation):
            c.check_contract()

    def test_nan_probs_violate_contract(self):
        probs = np.array([np.nan, 1.0, 0.0])
        for sigma in (None, 1.0):
            c = RoundCommitment(probs, sigma, np.arange(3), np.ones(3))
            with pytest.raises(ContractViolation):
                c.check_contract()

    def test_transductive_draw_in_row(self, partition8, rng):
        sched = cyclic_hint_schedule(6, [np.arange(4), np.arange(4, 8)])
        spec = AdversarySpec(kind=AdversaryKind.TRANSDUCTIVE_CYCLIC,
                             hint_schedule=sched)
        adv = Adversary(spec, partition8, T=6, seed=1)
        for t in range(1, 7):
            c, x_t = next_round(adv, t, rng)
            assert x_t in sched.row(t)
            assert c.label_table[x_t] in (-1.0, 1.0)

    def test_transductive_without_schedule_rejected_at_setup(self, partition8):
        spec = AdversarySpec(kind=AdversaryKind.TRANSDUCTIVE_CYCLIC)
        with pytest.raises(InputError, match="hint schedule"):
            Adversary(spec, partition8, T=4, seed=0)


class TestCustomTable:
    def test_fixed_sequence(self, const_class=None):
        from smoothlab.core import HypothesisClass
        hclass = HypothesisClass([[1.0, 1.0]], declared_dim=0, binary=True)
        spec = AdversarySpec(kind=AdversaryKind.CUSTOM_TABLE,
                             xs=(0, 1, 0), ys=(1.0, -1.0, 1.0))
        adv = Adversary(spec, hclass, T=3, seed=0)
        c = adv.commit(2)
        c.check_contract()
        assert c.probs[1] == 1.0
        assert c.label_table[1] == -1.0

    def test_requires_sequences(self, partition8):
        spec = AdversarySpec(kind=AdversaryKind.CUSTOM_TABLE)
        with pytest.raises(InputError):
            Adversary(spec, partition8, T=2, seed=0)

    @pytest.mark.parametrize("xs, ys", [
        ((0, 1, 8), (1.0, 1.0, 1.0)),
        ((0, -1, 2), (1.0, 1.0, 1.0)),
        ((0, 1, 2), (1.0, np.nan, 1.0)),
        ((0, 1, 2), (1.0, np.inf, 1.0)),
        ((0, 1, 2), (1.0, 2.0, 1.0)),
    ])
    def test_rejects_bad_table_at_setup(self, partition8, xs, ys):
        spec = AdversarySpec(kind=AdversaryKind.CUSTOM_TABLE, xs=xs, ys=ys)
        with pytest.raises(InputError):
            Adversary(spec, partition8, T=3, seed=0)

    @pytest.mark.parametrize("xs, T", [((0, 1, 5, 3), 4), ((0, 2, 4, 6, 0), 5)],
                             ids=["x2_outside_row_2", "schedule_shorter_than_T"])
    def test_xs_outside_their_hint_rows_rejected_at_setup(self, partition8, xs, T):
        """Each xs[t-1] must lie in hint row t for t = 1..T; a sequence that
        left its row used to load and then fail its certificate mid-game."""
        sched = cyclic_hint_schedule(4, [np.arange(j, j + 2) for j in range(0, 8, 2)])
        spec = AdversarySpec(kind=AdversaryKind.CUSTOM_TABLE, xs=xs, ys=(1.0,) * len(xs),
                             hint_schedule=sched)
        with pytest.raises(InputError, match="must lie in hint row t"):
            Adversary(spec, partition8, T=T, seed=0)


class TestRoundCheck:
    """`commit` and `next_round` run the learners' round check.  A
    custom_table commit(0) used to commit round T's point mass and
    commit(-1) round T-1's, T+1 raised a raw IndexError and 1.5 a raw
    TypeError, and next_round at 0 on a cyclic schedule certified round
    T's hint row."""

    @staticmethod
    def _adv(kind, hclass, T=4):
        cyclic = cyclic_hint_schedule(T, [range(4), range(4, 8)])
        spec = {
            "custom_table": AdversarySpec(kind=AdversaryKind.CUSTOM_TABLE,
                                          xs=(0, 1, 2, 3), ys=(1.0, -1.0, 1.0, -1.0)),
            "transductive_cyclic": AdversarySpec(kind=AdversaryKind.TRANSDUCTIVE_CYCLIC,
                                                 hint_schedule=cyclic),
            "realizable_cyclic": AdversarySpec(kind=AdversaryKind.REALIZABLE_SMOOTH,
                                               hint_schedule=cyclic),
        }[kind]
        return Adversary(spec, hclass, T, seed=0)

    KINDS = ["custom_table", "transductive_cyclic", "realizable_cyclic"]

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("t", [0, -1, 5, 1.5, True],
                             ids=["0", "-1", "T+1", "1.5", "True"])
    def test_rejects_a_bad_round(self, partition8, kind, t):
        adv = self._adv(kind, partition8)
        with pytest.raises(InputError, match="round t="):
            adv.commit(t)
        with pytest.raises(InputError, match="round t="):
            next_round(adv, t, np.random.default_rng(0))
        assert adv._commitments == {}

    @pytest.mark.parametrize("kind", KINDS)
    def test_accepts_a_whole_round(self, partition8, kind):
        for t in (1, 4):
            want = self._adv(kind, partition8).commit(t)
            for whole in (float(t), np.int64(t)):
                got = self._adv(kind, partition8).commit(whole)
                np.testing.assert_array_equal(got.probs, want.probs)
                np.testing.assert_array_equal(got.label_table, want.label_table)
                _, x = next_round(self._adv(kind, partition8), whole,
                                  np.random.default_rng(t))
                assert x == next_round(self._adv(kind, partition8), t,
                                       np.random.default_rng(t))[1]


class TestBiasedLabelRule:
    def test_delta_half_is_deterministic(self, rng):
        h = np.array([1.0, -1.0, 1.0])
        np.testing.assert_array_equal(biased_label_rule(h, 0.5, rng), h)

    def test_delta_zero_is_pure_noise(self, rng):
        h = np.ones(100_000)
        agree = (biased_label_rule(h, 0.0, rng) == h).mean()
        assert abs(agree - 0.5) < 0.01

    def test_delta_point_one_rate(self, rng):
        h = np.ones(100_000)
        agree = (biased_label_rule(h, 0.1, rng) == h).mean()
        assert abs(agree - 0.6) < 0.005

    def test_delta_out_of_range(self, rng):
        with pytest.raises(InputError):
            biased_label_rule(np.ones(3), 0.7, rng)


class TestHintCertificate:
    def test_bincount_probs_match_unique_construction(self, partition8, rng):
        rows = rng.integers(0, 8, size=(20, 5))
        rows[0] = 3  # every hint repeated
        spec = AdversarySpec(kind=AdversaryKind.TRANSDUCTIVE_CYCLIC,
                             hint_schedule=HintSchedule(rows))
        adv = Adversary(spec, partition8, T=20, seed=0)
        for t in range(1, 21):
            row = rows[t - 1]
            want = np.zeros(8)
            uniq, counts = np.unique(row, return_counts=True)
            want[uniq] = counts / row.size
            got = adv.commit(t).probs
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("row", [[0], [0, 0], [1, 1, 1], [0, 0, 2, 2]])
    def test_support_escaping_a_repeated_row_violates(self, row):
        probs = np.array([0.25, 0.25, 0.25, 0.25])
        c = RoundCommitment(probs, None, np.array(row), np.ones(4))
        with pytest.raises(ContractViolation, match="escapes"):
            c.check_contract()

    def test_support_inside_a_repeated_row_passes(self):
        c = RoundCommitment(np.array([0.5, 0.0, 0.5, 0.0]), None,
                            np.array([2, 0, 0, 2, 2]), np.ones(4))
        c.check_contract()

    def test_row_entries_outside_the_domain_cover_nothing(self):
        probs = np.array([0.0, 0.0, 0.0, 1.0])
        for row in ([-1], [4], [-1, 4, 7]):
            with pytest.raises(ContractViolation, match="escapes"):
                RoundCommitment(probs, None, np.array(row), np.ones(4)).check_contract()
        RoundCommitment(probs, None, np.array([-1, 3, 9]), np.ones(4)).check_contract()

    @pytest.mark.parametrize("row", [[0, -1], [0, 8]])
    def test_schedule_outside_the_domain_rejected_at_setup(self, partition8, row):
        spec = AdversarySpec(kind=AdversaryKind.TRANSDUCTIVE_CYCLIC,
                             hint_schedule=HintSchedule([row, [0, 1]]))
        with pytest.raises(InputError, match="outside the domain"):
            Adversary(spec, partition8, T=2, seed=0)

    def test_schedule_shorter_than_T_rejected_at_setup(self, partition8):
        """A realizable_smooth adversary with a 2-round schedule and T = 4
        used to build, play rounds 1-2 and fail in round 3's commit."""
        spec = AdversarySpec(kind=AdversaryKind.REALIZABLE_SMOOTH,
                             hint_schedule=known_sequence_schedule([0, 1]))
        with pytest.raises(InputError, match="shorter than the horizon"):
            Adversary(spec, partition8, T=4, seed=0)
        Adversary(spec, partition8, T=2, seed=0)


class TestAdversaryStream:
    """The per-round "adversary" stream is built only where it is read:
    by `biased_label_rule`, under realizable_smooth with delta < 1/2."""

    @pytest.mark.parametrize("hints", [False, True])
    @pytest.mark.parametrize("delta, per_round", [(0.5, 0), (0.2, 1), (0.0, 1)])
    def test_streams_by_purpose(self, partition8, monkeypatch, hints, delta,
                                per_round):
        purposes = []
        real = rngmod.stream

        def counting(*args):
            purposes.append((args[1], args[2]))
            return real(*args)

        monkeypatch.setattr(rngmod, "stream", counting)
        sched = (cyclic_hint_schedule(6, [np.arange(4), np.arange(4, 8)])
                 if hints else None)
        spec = AdversarySpec(kind=AdversaryKind.REALIZABLE_SMOOTH, delta=delta,
                             hint_schedule=sched)
        adv = Adversary(spec, partition8, T=6, seed=3)
        for t in range(1, 7):
            adv.commit(t).check_contract()
        # one round-0 stream draws h*, on the first commit
        assert purposes == [(0, "adversary")] + [
            (t, "adversary") for t in range(1, 7) for _ in range(per_round)]

    def test_labels_unchanged_by_the_lazy_stream(self, partition8):
        """delta < 1/2 draws its labels from the round-t "adversary" stream."""
        spec = AdversarySpec(kind=AdversaryKind.REALIZABLE_SMOOTH, delta=0.2)
        adv = Adversary(spec, partition8, T=4, seed=9)
        h_star = partition8.values[adv.h_star_index]
        for t in range(1, 5):
            want = biased_label_rule(h_star, 0.2, rngmod.stream(9, t, "adversary"))
            np.testing.assert_array_equal(adv.commit(t).label_table, want)


@st.composite
def committed_probs(draw):
    """A distribution of each shape the adversaries commit: uniform,
    uniform on a support, the `bincount` of a hint row, or arbitrary."""
    n = draw(st.integers(1, 64))
    shape = draw(st.sampled_from(["uniform", "support", "row", "random"]))
    if shape == "uniform":
        return np.full(n, 1.0 / n)
    if shape == "support":
        size = draw(st.integers(1, n))
        probs = np.zeros(n)
        probs[:size] = 1.0 / size
        return probs
    if shape == "row":
        row = np.array(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=16)))
        return np.bincount(row, minlength=n) / row.size
    weights = np.array(draw(st.lists(st.floats(0, 1), min_size=n, max_size=n)))
    weights[0] += weights.sum() == 0
    return weights / weights.sum()


class _OneCommitment:
    """Stands in for an adversary whose every round has one commitment."""

    def __init__(self, probs):
        self.entry = (RoundCommitment(probs, None, None, np.ones(probs.size)),
                      choice_cdf(probs))

    def _certified(self, t):
        return self.entry


class TestCdfDraw:
    @given(committed_probs(), st.integers(0, 2**32 - 1), st.integers(1, 1000))
    @settings(max_examples=500, deadline=None)
    def test_same_index_as_generator_choice(self, probs, seed, t):
        _, x_t = next_round(_OneCommitment(probs), t,
                            rngmod.stream(seed, t, "instance"))
        key = [seed, 0, t, rngmod.purpose_tag("instance")]
        want = np.random.default_rng(key).choice(probs.size, p=probs)
        assert x_t == want


def _play(adv, T):
    """T rounds through `next_round`, each realized round observed."""
    for t in range(1, T + 1):
        c, x_t = next_round(adv, t, rngmod.stream(0, t, "instance"))
        adv.observe(t, x_t, 0.0, float(c.label_table[x_t]))


@pytest.fixture
def checks(monkeypatch):
    """The commitments whose certificate is checked, in order."""
    seen = []
    real = RoundCommitment.check_contract

    def counting(commitment):
        seen.append(commitment)
        return real(commitment)

    monkeypatch.setattr(RoundCommitment, "check_contract", counting)
    return seen


_CYCLIC = cyclic_hint_schedule(16, [np.arange(j, j + 2) for j in range(0, 8, 2)])
_SPECS = {
    "smooth": AdversarySpec(AdversaryKind.REALIZABLE_SMOOTH),
    "smooth_cyclic": AdversarySpec(AdversaryKind.REALIZABLE_SMOOTH,
                                   hint_schedule=_CYCLIC),
    "transductive_cyclic": AdversarySpec(AdversaryKind.TRANSDUCTIVE_CYCLIC,
                                         hint_schedule=_CYCLIC),
    "smooth_delta": AdversarySpec(AdversaryKind.REALIZABLE_SMOOTH, delta=0.2),
    "smooth_delta_cyclic": AdversarySpec(AdversaryKind.REALIZABLE_SMOOTH, delta=0.2,
                                         hint_schedule=_CYCLIC),
    "custom_table": AdversarySpec(AdversaryKind.CUSTOM_TABLE, xs=tuple(range(8)) * 2,
                                  ys=(1.0, -1.0) * 8),
    "support_alternating": AdversarySpec(AdversaryKind.SUPPORT_ALTERNATING,
                                         sigma=0.5, d=2),
}


class TestCertifiedOnce:
    """Each distinct commitment is built and checked once per game;
    random or per-round commitments are checked every round."""

    @pytest.mark.parametrize("name, want", [
        ("smooth", 1), ("smooth_cyclic", 4), ("transductive_cyclic", 4),
        ("smooth_delta", 16), ("smooth_delta_cyclic", 16), ("custom_table", 16)])
    def test_checks_per_game(self, partition8, checks, name, want):
        _play(Adversary(_SPECS[name], partition8, T=16, seed=2), 16)
        assert len(checks) == want

    def test_support_alternating_checks_each_parity_pattern_once(self, checks):
        hclass = make_support_partition_class(FiniteDomain(8), 4, 2)
        adv = Adversary(_SPECS["support_alternating"], hclass, T=64, seed=0)
        _play(adv, 64)
        patterns = {tuple(np.flatnonzero(c.label_table < 0)) for c in checks}
        assert len(checks) == len(patterns) <= 2**2

    @pytest.mark.parametrize("name", sorted(_SPECS))
    def test_each_round_gets_the_commitment_commit_builds(self, partition8, name):
        hclass = (make_support_partition_class(FiniteDomain(8), 4, 2)
                  if name == "support_alternating" else partition8)
        adv = Adversary(_SPECS[name], hclass, T=16, seed=2)
        for t in range(1, 17):
            got, x_t = next_round(adv, t, rngmod.stream(0, t, "instance"))
            want = adv.commit(t)
            for a, b in zip((got.probs, got.label_table, got.hint_row),
                            (want.probs, want.label_table, want.hint_row)):
                np.testing.assert_array_equal(a, b)
            assert got.sigma == want.sigma
            adv.observe(t, x_t, 0.0, float(got.label_table[x_t]))

    def test_a_later_distinct_commitment_is_still_checked(self, partition8,
                                                          monkeypatch):
        """A violation first committed in round 3, under the third hint
        row, raises in round 3 although rounds 1 and 2 were certified."""
        real = Adversary.commit

        def escaping(adv, t):
            c = real(adv, t)
            if c.hint_row[0] == 4:  # the third block
                return RoundCommitment(np.full(8, 1 / 8), None, c.hint_row,
                                       c.label_table)
            return c

        monkeypatch.setattr(Adversary, "commit", escaping)
        spec = AdversarySpec(AdversaryKind.TRANSDUCTIVE_CYCLIC, hint_schedule=_CYCLIC)
        adv = Adversary(spec, partition8, T=16, seed=0)
        _play(adv, 2)
        with pytest.raises(ContractViolation, match="escapes"):
            next_round(adv, 3, rngmod.stream(0, 3, "instance"))

    def test_committed_arrays_are_read_only(self, partition8):
        spec = AdversarySpec(AdversaryKind.TRANSDUCTIVE_CYCLIC, hint_schedule=_CYCLIC)
        adv = Adversary(spec, partition8, T=16, seed=0)
        c, _ = next_round(adv, 1, rngmod.stream(0, 1, "instance"))
        cdf = adv._certified(1)[1]
        for array in (c.probs, c.label_table, c.hint_row, cdf):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        # round 5 repeats round 1's hint row, so it reuses the commitment
        assert next_round(adv, 5, rngmod.stream(0, 5, "instance"))[0] is c

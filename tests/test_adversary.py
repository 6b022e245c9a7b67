"""Adversary constructions: certificates, alternating labels, hints."""

import numpy as np
import pytest

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
    make_hint_schedule,
    next_round,
)
from smoothlab.core import (
    FiniteDomain,
    LossSpec,
    loss_eval,
    make_partition_class,
    make_support_partition_class,
    validate_smooth,
)
from smoothlab.errors import ContractViolation, InputError


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

    def test_full_domain(self):
        s = full_domain_schedule(2, 4)
        assert s.K == 4
        np.testing.assert_array_equal(s.row(2), [0, 1, 2, 3])

    def test_shape_validation(self):
        with pytest.raises(InputError):
            make_hint_schedule(np.zeros((0, 1)))


class TestRealizableSmooth:
    def test_certificate_and_realizability(self, partition8):
        spec = AdversarySpec(kind=AdversaryKind.REALIZABLE_SMOOTH)
        adv = Adversary(spec, partition8, T=10, seed=3)
        h_star = partition8.values[adv.h_star_index]
        for t in range(1, 11):
            c = adv.commit(t, [])
            c.check_contract()
            assert c.sigma == 1.0
            assert validate_smooth(c.probs, 1.0)
            np.testing.assert_array_equal(c.label_table, h_star)

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
        c = adv.commit(2, [])
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
        c = adv.commit(1, [])
        c.check_contract()
        assert np.flatnonzero(c.probs).size == 4
        assert validate_smooth(c.probs, 0.5)

    def test_labels_alternate_within_block(self):
        adv, _ = self._adv()
        # block 0 = {0, 1}: first visit labeled +1, second -1, third +1
        labels = []
        for t in range(1, 4):
            c = adv.commit(t, [])
            labels.append(c.label_table[0])
            adv.observe(t, 0, 0.0, c.label_table[0])
        assert labels == [1.0, -1.0, 1.0]

    def test_blocks_alternate_independently(self):
        adv, _ = self._adv()
        c1 = adv.commit(1, [])
        adv.observe(1, 0, 0.0, c1.label_table[0])  # visit block 0 only
        c2 = adv.commit(2, [])
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
            c = adv.commit(t, [])
            y = float(c.label_table[x])
            totals += loss_eval(loss, hclass.values[:, x], y)
            adv.observe(t, x, 0.0, y)
        assert totals.min() == len(xs) / 2

    def test_non_integral_support_warns(self, partition8):
        spec = AdversarySpec(kind=AdversaryKind.SUPPORT_ALTERNATING,
                             sigma=0.4, d=1)
        with pytest.warns(UserWarning):
            Adversary(spec, partition8, T=2, seed=0)


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
            _, x_t, rule = next_round(adv, t, [], rng)
            assert x_t in sched.row(t)
            assert rule(x_t) in (-1.0, 1.0)


class TestCustomTable:
    def test_fixed_sequence(self, const_class=None):
        from smoothlab.core import HypothesisClass
        hclass = HypothesisClass([[1.0, 1.0]], declared_dim=0, binary=True)
        spec = AdversarySpec(kind=AdversaryKind.CUSTOM_TABLE,
                             xs=(0, 1, 0), ys=(1.0, -1.0, 1.0))
        adv = Adversary(spec, hclass, T=3, seed=0)
        c = adv.commit(2, [])
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

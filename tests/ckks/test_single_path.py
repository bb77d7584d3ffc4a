"""One execution path: its structure, and what ``B = 1`` must not pay on it.

The fused ``(B, L, N)`` code is the only implementation of every CKKS
operation; the singular API adapts it.  These tests pin the shape of that
arrangement (adapters hold no arithmetic, the fused classes hold no twin,
each switch-key level is stored once), that every transform is a planner
call, and the glue costs a lone stream is spared: no stack copy, no
defensive operand copy and no batch plan.
"""

import inspect

import numpy as np
import pytest

from repro.api import TensorFheContext
from repro.backend.residency import stack_arrays
from repro.ckks import Ciphertext, CkksParameters, evaluator as evaluator_module
from repro.ckks import keyswitch as keyswitch_module
from repro.ckks.batched_evaluator import BatchedEvaluator
from repro.ckks.batched_keyswitch import BatchedKeySwitcher
from repro.ckks.keys import SwitchKeyLevel
from repro.ntt import NttEngine, NttPlanner
from repro.numtheory import moduli_column

ARITHMETIC_LAYERS = ("repro.numtheory", "repro.kernels", "repro.ntt",
                     "repro.backend", "repro.rns")


@pytest.fixture(scope="module")
def fhe(toy_fhe):
    return toy_fhe


@pytest.fixture()
def pair(fhe, rng):
    return (fhe.encrypt(rng.uniform(-1, 1, fhe.slot_count)),
            fhe.encrypt(rng.uniform(-1, 1, fhe.slot_count)))


def singular_ops(fhe, lhs, rhs, values):
    """Every singular facade operation on same-level operands."""
    return [
        fhe.add(lhs, rhs), fhe.subtract(lhs, rhs), fhe.add_plain(lhs, values),
        fhe.multiply(lhs, rhs), fhe.multiply_plain(lhs, values),
        fhe.rescale(fhe.multiply(lhs, rhs, rescale=False)),
        fhe.rotate(lhs, 1), fhe.conjugate(lhs),
    ]


class TestStructure:
    @pytest.mark.parametrize("module", (evaluator_module, keyswitch_module))
    def test_singular_modules_reach_no_arithmetic_layer(self, module):
        """Adapters only: nothing callable from the arithmetic layers is in scope."""
        def origin(value):
            return (value.__name__ if inspect.ismodule(value)
                    else getattr(value, "__module__", None) or "")

        reachable = sorted(
            name for name, value in vars(module).items()
            if origin(value).startswith(ARITHMETIC_LAYERS)
            # The container type and its domain tag, not arithmetic.
            and name not in ("RnsPolynomial", "PolyDomain")
        )
        assert reachable == []

    def test_fused_classes_hold_no_twin(self, fhe):
        assert fhe.evaluator.batched is fhe.batched_evaluator
        assert not hasattr(fhe.batched_evaluator, "evaluator")
        switcher = fhe.batched_evaluator.key_switcher
        assert isinstance(switcher, BatchedKeySwitcher)
        assert not hasattr(switcher, "key_switcher")
        assert not hasattr(switcher, "_key_stack_cache")
        assert not hasattr(BatchedKeySwitcher, "KEY_STACK_CACHE_SIZE")


class TestEveryTransformIsAPlannerCall:
    """Every NTT a context makes is an ``NttPlanner.forward_ops`` /
    ``inverse_ops`` call: the engines launch nothing the planner did not
    hand them, so counts taken at the planner miss no transform."""

    def test_engine_launches_equal_planner_calls(self, monkeypatch, rng):
        calls = {NttPlanner: 0, NttEngine: 0}
        for owner in calls:
            for name in ("forward_ops", "inverse_ops"):
                def counting(*args, _original=getattr(owner, name), _owner=owner,
                             **kwargs):
                    calls[_owner] += 1
                    return _original(*args, **kwargs)

                monkeypatch.setattr(owner, name, counting)

        def counted(run, *args, **kwargs):
            calls.update(dict.fromkeys(calls, 0))
            result = run(*args, **kwargs)
            assert calls[NttEngine] == calls[NttPlanner] > 0, run
            return result

        parameters = CkksParameters(ring_degree=64, level_count=3, dnum=2,
                                    secret_hamming_weight=8)
        fhe = counted(TensorFheContext, parameters, seed=43)        # keygen
        planner = fhe.context.planner
        values = rng.uniform(-1, 1, (2, fhe.slot_count))
        lhs, rhs = (counted(fhe.encrypt, row) for row in values)
        product = counted(fhe.multiply, lhs, rhs)                  # and rescale
        coefficients = counted(product.c0.to_coefficient, planner)
        evaluations = counted(coefficients.to_evaluation, planner)
        assert np.array_equal(evaluations.residues, product.c0.residues)
        slots = counted(fhe.decrypt, product)
        assert np.allclose(slots.real, values[0] * values[1], atol=1e-2)


class TestSwitchKeyStoredOnce:
    def test_levels_hold_the_stacked_form(self, fhe):
        context = fhe.context
        for level in range(context.max_level + 1):
            key_level = fhe.relinearization_key.at_level(level)
            extended = context.extended_moduli_at_level(level)
            rows = len(key_level.group_moduli) * len(extended)
            bound = np.tile(moduli_column(extended),
                            (len(key_level.group_moduli), 1))
            for stack in key_level.stacks:
                assert stack.shape == (rows, context.ring_degree)
                assert stack.dtype == np.int64
                assert np.all((stack >= 0) & (stack < bound))

    def test_inner_product_consumes_the_stored_arrays(self, fhe, pair,
                                                      monkeypatch):
        seen = []
        original = BatchedKeySwitcher._inner_product

        def spying(self, slices, key_level, extended, addend):
            seen.append(key_level)
            return original(self, slices, key_level, extended, addend)

        monkeypatch.setattr(BatchedKeySwitcher, "_inner_product", spying)
        lhs, rhs = pair
        fhe.multiply(lhs, rhs, rescale=False)
        [key_level] = seen
        assert key_level is fhe.relinearization_key.at_level(lhs.level)
        # The launch operands are limb-major views of the stored arrays.
        for operand, stack in zip(key_level.operands, key_level.stacks):
            assert np.shares_memory(np.asarray(operand), stack)
            assert np.array_equal(
                np.asarray(operand)[:, :, 0].transpose(1, 0, 2).reshape(
                    stack.shape), stack)

    def test_misshapen_stack_rejected(self):
        flat = np.zeros(8, dtype=np.int64)
        ragged = np.zeros((3, 8), dtype=np.int64)
        for stack in (flat, ragged):
            with pytest.raises(ValueError, match="per decomposition group"):
                SwitchKeyLevel(level=0, group_moduli=[(97,), (193,)],
                               stacks=(stack, stack))


class TestBatchOneGlue:
    def test_one_stream_stack_is_a_view(self, pair):
        poly = pair[0].c0
        stacked = BatchedEvaluator._stack([poly])
        assert stacked.shape == (1,) + poly.buffer.shape

        def resident(buffer):   # int64, or float-only on a float backend
            return (buffer.full() if buffer.host_image is None
                    else buffer.host_image)

        assert np.shares_memory(resident(stacked), resident(poly.buffer))

    @pytest.mark.parametrize("axis", (0, 1, -1))
    def test_single_part_stack_matches_numpy(self, rng, axis):
        part = rng.integers(0, 97, (3, 8), dtype=np.int64)
        stacked = stack_arrays([part], axis=axis)
        assert np.array_equal(stacked, np.stack([part], axis=axis))
        assert np.shares_memory(stacked, part)

    def test_operations_take_no_defensive_copy(self, fhe, pair, rng,
                                               monkeypatch):
        lhs, rhs = pair
        values = rng.uniform(-1, 1, fhe.slot_count)
        fhe.ensure_rotation_keys([1])

        def no_copy(self):   # pragma: no cover - must not run
            raise AssertionError("an aligned operand was copied")

        monkeypatch.setattr(Ciphertext, "copy", no_copy)
        singular_ops(fhe, lhs, rhs, values)

    def test_results_never_alias_operands(self, fhe, pair, rng):
        """Views in, fresh storage out — and the explicit helpers still copy."""
        lhs, rhs = pair
        values = rng.uniform(-1, 1, fhe.slot_count)
        results = singular_ops(fhe, lhs, rhs, values) + [
            fhe.rotate(lhs, 0), fhe.evaluator.drop_to_level(lhs, lhs.level)]
        for result in results:
            for out in (result.c0, result.c1):
                for operand in (lhs.c0, lhs.c1, rhs.c0, rhs.c1):
                    assert not np.shares_memory(out.residues, operand.residues)

    def test_singular_facade_plans_no_batch(self, fhe, pair, rng, monkeypatch):
        lhs, rhs = pair
        values = rng.uniform(-1, 1, fhe.slot_count)
        plans = []
        original = fhe.batch_scheduler.plan

        def spying(*args, **kwargs):
            plans.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(fhe.batch_scheduler, "plan", spying)
        singular_ops(fhe, lhs, rhs, values)
        assert plans == []
        fhe.add_many([lhs], [rhs])
        assert len(plans) == 1


class TestEncodeForStreams:
    def test_one_encode_per_distinct_scale_and_level(self, fhe, pair,
                                                     monkeypatch, rng):
        lhs, rhs = pair
        lowered = fhe.evaluator.drop_to_level(rhs, rhs.level - 1)
        streams = [lhs, lowered, rhs, lowered]
        values = rng.uniform(-1, 1, fhe.slot_count)
        expected = [fhe.encryptor.encode(values, scale=ct.scale, level=ct.level)
                    for ct in streams]
        encodes = []
        original = fhe.encryptor.encode

        def spying(*args, **kwargs):
            encodes.append(kwargs)
            return original(*args, **kwargs)

        monkeypatch.setattr(fhe.encryptor, "encode", spying)
        plains = fhe.encryptor.encode_for_streams(values, streams)
        assert len(encodes) == 2
        assert plains[0] is plains[2] and plains[1] is plains[3]
        for plain, want in zip(plains, expected):
            assert plain.polynomial == want.polynomial
            assert (plain.scale, plain.level) == (want.scale, want.level)

    def test_explicit_scale_overrides_the_stream_scale(self, fhe, pair):
        plains = fhe.encryptor.encode_for_streams(
            np.ones(fhe.slot_count), pair, scale=2.0 ** 10)
        assert plains[0] is plains[1]
        assert plains[0].scale == 2.0 ** 10
        assert plains[0].level == pair[0].level

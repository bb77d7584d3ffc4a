"""TensorFheContext: the high-level API layer of the paper (Section IV-E).

The paper's API layer collects FHE requests from the application, decomposes
them into kernel workflows, picks batch sizes and invokes the kernel layer.
``TensorFheContext`` is the library's equivalent single entry point: it owns
the CKKS context, all key material, the encryptor/decryptor/evaluator, the
batch scheduler and the kernel instrumentation, and exposes the FHE
operations as plain methods so applications never touch the lower layers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Union

import numpy as np

from ..backend.base import ArrayBackend
from ..backend.registry import resolve_backend
from ..batching.scheduler import BatchPlan, BatchScheduler
from ..ckks.batched_evaluator import BatchedEvaluator
from ..ckks.bootstrap import BootstrapConfig, Bootstrapper
from ..ckks.ciphertext import Ciphertext, Plaintext
from ..ckks.context import CkksContext
from ..ckks.decryptor import Decryptor
from ..ckks.encryptor import Encryptor
from ..ckks.evaluator import Evaluator
from ..ckks.keygen import KeyGenerator
from ..ckks.params import CkksParameters, get_preset

if TYPE_CHECKING:
    from ..serving import ServingEngine

__all__ = ["TensorFheContext"]


class TensorFheContext:
    """One-stop facade over key generation, encryption and evaluation."""

    def __init__(self, parameters: CkksParameters, *, seed: Optional[int] = None,
                 rotation_steps: Iterable[int] = (),
                 backend: Union[None, str, "ArrayBackend"] = None,
                 bootstrap_config: Optional[BootstrapConfig] = None) -> None:
        self.context = CkksContext(parameters, seed=seed, backend=backend)
        self._keygen = KeyGenerator(self.context)
        self.secret_key = self._keygen.generate_secret_key()
        self.public_key = self._keygen.generate_public_key(self.secret_key)
        self.relinearization_key = self._keygen.generate_relinearization_key(self.secret_key)
        self.rotation_keys = self._keygen.generate_rotation_keys(
            self.secret_key, rotation_steps)
        self.encryptor = Encryptor(self.context, self.public_key, self.secret_key)
        self.decryptor = Decryptor(self.context, self.secret_key)
        # One evaluator: ``batched_evaluator`` is the (B, L, N) implementation
        # and ``evaluator`` its one-ciphertext spelling.  The singular facade
        # methods call ``evaluator`` directly — one stream needs no batch plan.
        self.evaluator = Evaluator(self.context)
        self.batched_evaluator: BatchedEvaluator = self.evaluator.batched
        # The scheduler sizes fused batches from the device budget alone:
        # every backend fills one device, so the plan is backend-free.
        self.batch_scheduler = BatchScheduler()
        self.bootstrap_config = bootstrap_config
        self._bootstrapper: Optional[Bootstrapper] = None

    # ------------------------------------------------------------------
    @classmethod
    def from_preset(cls, name: str, *, seed: Optional[int] = None,
                    rotation_steps: Iterable[int] = (),
                    backend: Union[None, str, "ArrayBackend"] = None) -> "TensorFheContext":
        """Build a context from a named parameter preset."""
        return cls(get_preset(name), seed=seed, rotation_steps=rotation_steps,
                   backend=backend)

    # ------------------------------------------------------------------
    @property
    def slot_count(self) -> int:
        return self.context.slot_count

    @property
    def parameters(self) -> CkksParameters:
        return self.context.parameters

    @property
    def kernel_counter(self):
        """Kernel instrumentation counters of this context."""
        return self.context.kernels.counter

    @property
    def compute_backend(self) -> str:
        """Name of the backend every launch of this context runs on.

        An explicit ``backend=`` pin covers all of them — the NTT-engine
        GEMMs, the element-wise mat-mod kernels, the basis-conversion GEMM
        and the key-switch inner product (see
        :func:`repro.ckks.context.pinned`) — whatever the process-wide
        selection is.  With no pin this reports the process-wide active
        backend (:func:`repro.use_backend` or ``REPRO_BACKEND``), which is
        then what the context follows.
        """
        return resolve_backend(self.context.backend).name

    @property
    def bootstrapper(self) -> Bootstrapper:
        """The lazily built :class:`~repro.ckks.bootstrap.Bootstrapper`.

        Constructed on first use from ``bootstrap_config`` (or the
        defaults) so contexts that never bootstrap pay nothing for the
        DFT matrices.
        """
        if self._bootstrapper is None:
            self._bootstrapper = Bootstrapper(self.context,
                                              self.bootstrap_config)
        return self._bootstrapper

    def ensure_rotation_keys(self, steps: Iterable[int]) -> None:
        """Generate any missing rotation keys for ``steps``."""
        self._keygen.ensure_rotation_keys(self.secret_key, self.rotation_keys,
                                          steps)

    # ------------------------------------------------------------------
    # Encryption / decryption
    # ------------------------------------------------------------------
    def encode(self, values: Sequence[complex], *, level: Optional[int] = None) -> Plaintext:
        return self.encryptor.encode(values, level=level)

    def encrypt(self, values: Sequence[complex]) -> Ciphertext:
        return self.encryptor.encrypt(values)

    def decrypt(self, ciphertext: Ciphertext) -> np.ndarray:
        return self.decryptor.decrypt_to_slots(ciphertext)

    def decrypt_real(self, ciphertext: Ciphertext) -> np.ndarray:
        return self.decryptor.decrypt_real(ciphertext)

    # ------------------------------------------------------------------
    # FHE operations (thin wrappers with the keys filled in)
    # ------------------------------------------------------------------
    def add(self, lhs: Ciphertext, rhs: Ciphertext) -> Ciphertext:
        return self.evaluator.add(lhs, rhs)

    def subtract(self, lhs: Ciphertext, rhs: Ciphertext) -> Ciphertext:
        return self.evaluator.subtract(lhs, rhs)

    def multiply(self, lhs: Ciphertext, rhs: Ciphertext, *, rescale: bool = True) -> Ciphertext:
        if rescale:
            return self.evaluator.multiply_and_rescale(lhs, rhs, self.relinearization_key)
        return self.evaluator.multiply(lhs, rhs, self.relinearization_key)

    def multiply_plain(self, ciphertext: Ciphertext, values: Sequence[complex],
                       *, rescale: bool = True) -> Ciphertext:
        plaintext = self.encryptor.encode(values, level=ciphertext.level)
        product = self.evaluator.multiply_plain(ciphertext, plaintext)
        return self.evaluator.rescale(product) if rescale else product

    def add_plain(self, ciphertext: Ciphertext, values: Sequence[complex]) -> Ciphertext:
        plaintext = self.encryptor.encode(values, level=ciphertext.level,
                                          scale=ciphertext.scale)
        return self.evaluator.add_plain(ciphertext, plaintext)

    def rotate(self, ciphertext: Ciphertext, steps: int) -> Ciphertext:
        self.ensure_rotation_keys([steps])
        return self.evaluator.rotate(ciphertext, steps, self.rotation_keys)

    def conjugate(self, ciphertext: Ciphertext) -> Ciphertext:
        return self.evaluator.conjugate(ciphertext, self.rotation_keys)

    def rescale(self, ciphertext: Ciphertext) -> Ciphertext:
        return self.evaluator.rescale(ciphertext)

    def inner_sum(self, ciphertext: Ciphertext, count: Optional[int] = None) -> Ciphertext:
        """Sum the first ``count`` (power-of-two) slots into every slot.

        ``count == 1`` is a no-op sum and needs no rotation keys at all;
        larger counts need the powers of two strictly below ``count``.  A
        count outside ``1 … slot_count`` raises before any key is made.
        """
        self.ensure_rotation_keys(self.evaluator.sum_steps(count))
        return self.evaluator.rotate_and_sum(ciphertext, self.rotation_keys, count)

    def bootstrap(self, ciphertext: Ciphertext) -> Ciphertext:
        """Refresh one exhausted (level-0) ciphertext to a high level."""
        bootstrapper = self.bootstrapper
        self.ensure_rotation_keys(bootstrapper.required_rotation_steps())
        return bootstrapper.bootstrap_many(
            [ciphertext], self.batched_evaluator, self.encryptor,
            self.relinearization_key, self.rotation_keys)[0]

    # ------------------------------------------------------------------
    # Batched FHE operations (independent streams, fused launches)
    # ------------------------------------------------------------------
    def add_many(self, lhs_streams: Sequence[Ciphertext],
                 rhs_streams: Sequence[Ciphertext]) -> list:
        """Batched HADD over independent pairs (fused ``(L, B, N)`` launches).

        The API layer picks the batch size *B* through the
        :class:`~repro.batching.scheduler.BatchScheduler` and feeds the
        streams to the :class:`~repro.ckks.batched_evaluator.BatchedEvaluator`
        one hardware-sized chunk at a time.
        """
        return self._run_batched(self.batched_evaluator.add,
                                 lhs_streams, rhs_streams)

    def multiply_many(self, lhs_streams: Sequence[Ciphertext],
                      rhs_streams: Sequence[Ciphertext], *,
                      rescale: bool = True) -> list:
        """Batched HMULT (optionally with the trailing batched RESCALE)."""
        if rescale:
            return self._run_batched(
                lambda lhs, rhs: self.batched_evaluator.multiply_and_rescale(
                    lhs, rhs, self.relinearization_key),
                lhs_streams, rhs_streams)
        return self._run_batched(
            lambda lhs, rhs: self.batched_evaluator.multiply(
                lhs, rhs, self.relinearization_key),
            lhs_streams, rhs_streams)

    def multiply_plain_many(self, ciphertexts: Sequence[Ciphertext],
                            values_streams: Sequence[Sequence[complex]], *,
                            rescale: bool = True) -> list:
        """Batched CMULT: each stream multiplied by its own slot vector.

        The distinct vectors of a level are encoded in one call (one FFT,
        one reduction into the chain); streams that pass the same vector
        object share its encoding at their level (encoding is
        deterministic: no bit changes).
        """
        ciphertexts = list(ciphertexts)
        values_streams = list(values_streams)
        if len(ciphertexts) != len(values_streams):
            raise ValueError("need one value vector per ciphertext stream")
        by_level = {}
        for ciphertext, values in zip(ciphertexts, values_streams):
            by_level.setdefault(ciphertext.level, {})[id(values)] = values
        encoded = {}
        for level, vectors in by_level.items():
            plains = self.encryptor.encode_many(list(vectors.values()), level=level)
            encoded.update(((key, level), plain)
                           for key, plain in zip(vectors, plains))
        plaintexts = [encoded[(id(values), ciphertext.level)]
                      for ciphertext, values in zip(ciphertexts, values_streams)]
        products = self._run_batched(self.batched_evaluator.multiply_plain,
                                     ciphertexts, plaintexts)
        if rescale:
            return self.rescale_many(products)
        return products

    def rescale_many(self, ciphertexts: Sequence[Ciphertext]) -> list:
        """Batched RESCALE over independent streams."""
        return self._run_batched(self.batched_evaluator.rescale, ciphertexts)

    def rotate_many(self, ciphertexts: Sequence[Ciphertext],
                    steps: Union[int, Sequence[int]]) -> list:
        """Batched HROTATE: the automorphism plus a B-fused key switch.

        ``steps`` is either one shared step count or one per stream;
        streams sharing a step fuse into single launches (the switch key
        is per step, so only same-step streams can share an inner
        product).  Zero-step streams are copies and need no keys at all.
        """
        ciphertexts = list(ciphertexts)
        if isinstance(steps, (int, np.integer)):
            step_list = [int(steps)] * len(ciphertexts)
        else:
            step_list = [int(step) for step in steps]
            if len(step_list) != len(ciphertexts):
                raise ValueError("need one step count per ciphertext stream")
        normalized = [step % self.slot_count for step in step_list]
        self.ensure_rotation_keys(sorted({step for step in normalized if step}))
        results: list = [None] * len(ciphertexts)
        step_groups: dict = {}
        for index, step in enumerate(normalized):
            step_groups.setdefault(step, []).append(index)
        for step, indices in step_groups.items():
            rotated = self._run_batched(
                lambda streams: self.batched_evaluator.rotate(
                    streams, step, self.rotation_keys),
                [ciphertexts[i] for i in indices])
            for i, ciphertext in zip(indices, rotated):
                results[i] = ciphertext
        return results

    def conjugate_many(self, ciphertexts: Sequence[Ciphertext]) -> list:
        """Batched HCONJ over independent streams (B-fused key switch)."""
        return self._run_batched(
            lambda streams: self.batched_evaluator.conjugate(
                streams, self.rotation_keys),
            ciphertexts)

    def bootstrap_many(self, ciphertexts: Sequence[Ciphertext]) -> list:
        """Batched bootstrap: the whole pipeline as fused ``B``-axis launches.

        ModRaise, the CoeffToSlot / SlotToCoeff BSGS transforms and the
        EvalMod sine ladder all run through the
        :class:`~repro.ckks.batched_evaluator.BatchedEvaluator`, so every
        HMULT / CMULT / HADD / HROTATE in the pipeline is one fused
        ``(B, ...)`` launch instead of ``B`` scalar ones.  Each stream's
        result is the one :meth:`bootstrap` gives it alone.  The streams
        run in chunks of the planned batch size, and a refresh launches up
        to four times a chunk's streams: CoeffToSlot's four BSGS transforms
        run their giant steps as one group.
        """
        ciphertexts = list(ciphertexts)
        if not ciphertexts:
            return []
        bootstrapper = self.bootstrapper
        self.ensure_rotation_keys(bootstrapper.required_rotation_steps())
        # Plan the batch size at the raised level, the top of the chain —
        # that is where the pipeline's working set lives, not at the
        # exhausted input level.
        size = max(1, self.plan_batch().batch_size)
        results = []
        for start in range(0, len(ciphertexts), size):
            results.extend(bootstrapper.bootstrap_many(
                ciphertexts[start:start + size], self.batched_evaluator,
                self.encryptor, self.relinearization_key, self.rotation_keys))
        return results

    def _run_batched(self, operation, *operand_streams) -> list:
        """``operation`` over equally long stream lists, one planned chunk at a time."""
        operand_streams = [list(streams) for streams in operand_streams]
        if len({len(streams) for streams in operand_streams}) != 1:
            raise ValueError("stream lists have different lengths")
        results = []
        for start, stop in self._batch_bounds(operand_streams[0]):
            results.extend(operation(
                *[streams[start:stop] for streams in operand_streams]))
        return results

    def _batch_bounds(self, streams: Sequence[Ciphertext]):
        """Chunk boundaries sized by the scheduler's chosen batch size."""
        if not streams:
            return
        # The deepest stream has the largest working set; let it bound B.
        level = max([ciphertext.level for ciphertext in streams])
        size = max(1, self.plan_batch(level=level).batch_size)
        for start in range(0, len(streams), size):
            yield start, min(start + size, len(streams))

    # ------------------------------------------------------------------
    def plan_batch(self, *, level: Optional[int] = None) -> BatchPlan:
        """The batch size of fused launches at ``level`` (``*_many`` and serving).

        The one policy: the scheduler's device limits, capped by
        ``parameters.batch_size``.
        """
        level = self.context.max_level if level is None else level
        return self.batch_scheduler.plan(self.context.ring_degree, level + 1,
                                         requested=self.parameters.batch_size)

    # ------------------------------------------------------------------
    def create_serving_engine(self, **kwargs) -> "ServingEngine":
        """A multi-tenant :class:`~repro.serving.ServingEngine` over this context.

        Keyword arguments are forwarded to the engine constructor
        (``config=``, ``registry=``).  Imported lazily so
        the api layer stays importable without the serving subsystem.
        """
        from ..serving import ServingEngine
        return ServingEngine(self, **kwargs)

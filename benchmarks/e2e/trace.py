"""Span tracer for the traced benchmark run: layers measured from outside.

``Tracer.install`` replaces the public callables listed in
:func:`default_targets` with timing wrappers (on the class, so every
instance and every caller sees them) and ``uninstall`` puts the original
functions back; nothing under ``src/`` is edited.  Spans are only taken
inside a :meth:`Tracer.root` scope — outside one the wrappers call
straight through — so a workload decides exactly which calls are
attributed and its own verification work stays out of the shares.

Every wrapped callable has a *group* (the bucket its self time goes to;
self time is the span's duration minus the part its child spans cover)
and a *stage* (the bucket for inclusive time, calls and computed work,
counted only where the stage is entered from outside itself, so a
``multiply_and_rescale`` that calls ``multiply`` and ``rescale`` is one
call).  Self times plus the root spans' own self time (``unattributed``)
add up to the root time exactly, which is what makes the shares sum to 1.
Aggregates are kept online; the spans themselves are stored only when a
Chrome trace was asked for, because the bootstrap workloads make ~10^5 of
them per pass.
"""

from __future__ import annotations

import functools
import inspect

import numpy
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional

__all__ = ["Target", "Tracer", "default_targets", "FLOAT_KERNELS"]

#: The float-resident kernel family of :class:`repro.backend.base.ArrayBackend`.
FLOAT_KERNELS = frozenset({
    "fmatmul", "fhadamard_limbs", "fadd_limbs", "fsub_limbs", "fneg_limbs",
    "fscalar_mul_limbs", "freduce_limbs",
})
_BACKEND_COPY = frozenset({"to_device", "from_device", "empty"})
_BACKEND_SKIP = frozenset({"capabilities", "is_available", "synchronize",
                           "from_spec", "close", "shutdown"})
_WORD = 8       # bytes per int64 / float64 residue
_RAISED = object()


class Target(NamedTuple):
    """Public callables of one class that share a group and a stage."""

    owner: object                       # a class, or a module for a function
    names: Optional[Iterable[str]]      # None: every public plain method
    group: str
    stage: str
    #: ``measure(tracer, name, args, result, elapsed, outermost)``, called as
    #: every call returns; ``outermost`` says the stage was entered from
    #: outside itself (the call that counts).
    measure: Optional[Callable] = None


def _size(value) -> int:
    shape = getattr(value, "shape", None)
    if shape is None:
        return 0
    size = 1
    for extent in shape:
        size *= int(extent)
    return size


def _operands(args) -> int:
    return sum(1 for value in args[1:3] if getattr(value, "shape", None))


def _measure_backend(kind: str) -> Callable:
    """Computed work of a backend kernel and the path its launch took."""

    def measure(tracer, name, args, result, elapsed, outermost) -> None:
        if name in FLOAT_KERNELS:
            tracer.float_pending = True
        if not outermost:
            return
        work = tracer.work
        if kind == "gemm":
            # Modular-GEMM-equivalent work computed from the array shapes:
            # one multiply-add per (output element, inner index), whatever
            # number of float passes the backend needed for exactness.
            inner = getattr(args[1], "shape", (0,))[-1]
            work["backend.gemm.flops"] += 2.0 * _size(result) * int(inner)
        elif kind == "elementwise":
            work["backend.elementwise.bytes"] += (_operands(args) + 1) * _size(result) * _WORD
        else:
            return
        # A launch is a kernel called from outside the backend; it took the
        # float path if it is, or called into, the ``f*`` family.
        if not (tracer.depth["backend.gemm"] or tracer.depth["backend.elementwise"]):
            work["backend.launches"] += 1
            work["backend.float_launches"] += tracer.float_pending
            tracer.float_pending = False

    return measure


def _measure_dgemm(tracer, name, args, result, elapsed, outermost) -> None:
    # The multiply-adds numpy.matmul really did, from its operand shapes.
    if outermost:
        inner = getattr(args[0], "shape", (0,))[-1]
        tracer.work["backend.dgemm.flops"] += 2.0 * _size(result) * int(inner)


def _measure_reduce(tracer, name, args, result, elapsed, outermost) -> None:
    if outermost:
        tracer.work["numtheory.reduce.bytes"] += (_operands(args) + 1) * _size(result) * _WORD


def _measure_launch(tracer, name, args, result, elapsed, outermost) -> None:
    """Book a fused launch against the ciphertexts it produced.

    The serving workloads look a request's result up here to split its
    latency into launch time and waiting.  A launch whose inputs were
    themselves launch outputs nobody claimed (CMULT's product feeding
    its rescale) carries their time forward.
    """
    if not (outermost and tracer.track_launches and isinstance(result, list)):
        return
    inputs = args[1] if len(args) > 1 and isinstance(args[1], (list, tuple)) else ()
    launches = tracer.launches
    for index, output in enumerate(result):
        carried = launches.pop(id(inputs[index]), 0.0) if index < len(inputs) else 0.0
        launches[id(output)] = carried + elapsed


def _backend_targets(backend) -> List[Target]:
    targets = []
    for klass in type(backend).__mro__:
        if not klass.__module__.startswith("repro."):
            continue
        groups: Dict[str, List[str]] = {"gemm": [], "elementwise": [], "copy": []}
        for name, member in vars(klass).items():
            if name.startswith("_") or name in _BACKEND_SKIP or not inspect.isfunction(member):
                continue
            if name.startswith("matmul") or name == "fmatmul":
                groups["gemm"].append(name)
            elif name in _BACKEND_COPY or name.startswith("nat_"):
                groups["copy"].append(name)
            else:
                groups["elementwise"].append(name)
        for kind, names in groups.items():
            if names:
                stage = "backend." + kind
                targets.append(Target(klass, tuple(names), stage, stage,
                                      _measure_backend(kind)))
    return targets


def default_targets(backend) -> List[Target]:
    """The layer table of README.md: wrapped public surface per layer."""
    from repro.api.facade import TensorFheContext
    from repro.batching.scheduler import BatchScheduler
    from repro.ckks.batched_evaluator import BatchedEvaluator
    from repro.ckks.batched_keyswitch import BatchedKeySwitcher
    from repro.ckks.bootstrap.bootstrapper import Bootstrapper
    from repro.ckks.bootstrap.bsgs import BsgsLinearTransform
    from repro.ckks.bootstrap.dft import CoeffToSlot, SlotToCoeff
    from repro.ckks.bootstrap.mod_raise import ModRaise
    from repro.ckks.bootstrap.sine_eval import SineEvaluator
    from repro.ckks.decryptor import Decryptor
    from repro.ckks.encoder import CkksEncoder
    from repro.ckks.encryptor import Encryptor
    from repro.ckks.evaluator import Evaluator
    from repro.ckks.keyswitch import KeySwitcher
    from repro.ntt.planner import NttPlanner
    from repro.numtheory.floatmod import BarrettChain
    from repro.rns.conv import BasisConverter
    from repro.rns.moddown import ModDown
    from repro.rns.modup import ModUp
    from repro.serving.engine import ServingEngine

    applies = ("apply", "apply_many")
    boot = "ckks.bootstrap"
    return [
        Target(TensorFheContext, None, "api", "api"),
        Target(BatchScheduler, ("plan",), "batching.plan", "batching.plan"),
        # Coroutine methods are skipped by install(): a span may not cross
        # an await.  What is left is admission (submit_nowait) and
        # diagnostics(); request latency is timed by the workload itself.
        Target(ServingEngine, None, "serving", "serving"),
        Target(Evaluator, None, "ckks.evaluator", "ckks.evaluator"),
        Target(BatchedEvaluator, None, "ckks.evaluator", "ckks.evaluator",
               _measure_launch),
        Target(KeySwitcher, ("switch",), "ckks.keyswitch", "ckks.keyswitch"),
        Target(BatchedKeySwitcher, ("switch_many",), "ckks.keyswitch", "ckks.keyswitch"),
        Target(CkksEncoder, ("encode",), "ckks.encode", "ckks.encode"),
        Target(Encryptor, ("encode",), "ckks.encode", "ckks.encode"),
        Target(Encryptor, ("encrypt", "encrypt_plaintext", "encrypt_symmetric"),
               "ckks.encrypt", "ckks.encrypt"),
        Target(Decryptor, ("decrypt", "decrypt_to_slots", "decrypt_real"),
               "ckks.decrypt", "ckks.decrypt"),
        Target(CkksEncoder, ("decode",), "ckks.decrypt", "ckks.decrypt"),
        Target(Bootstrapper, ("bootstrap", "bootstrap_many"), boot, boot + ".pipeline"),
        Target(ModRaise, applies, boot, boot + ".mod_raise"),
        Target(CoeffToSlot, applies, boot, boot + ".coeff_to_slot"),
        Target(SlotToCoeff, applies, boot, boot + ".slot_to_coeff"),
        Target(BsgsLinearTransform, applies, boot, boot + ".bsgs"),
        Target(SineEvaluator, applies + ("apply_pair", "apply_pair_many"),
               boot, boot + ".sine"),
        Target(BasisConverter, ("convert", "convert_residues", "convert_residues_batch"),
               "rns.conv", "rns.conv"),
        Target(ModUp, ("apply", "apply_batch"), "rns.modup", "rns.modup"),
        Target(ModDown, ("apply", "apply_batch"), "rns.moddown", "rns.moddown"),
        Target(NttPlanner, ("forward_limbs", "forward_ops"), "ntt.forward", "ntt.forward"),
        Target(NttPlanner, ("inverse_limbs", "inverse_ops"), "ntt.inverse", "ntt.inverse"),
        Target(BarrettChain, ("lazy_reduce", "product_reduce", "canonical_reduce"),
               "numtheory.reduce", "numtheory.reduce", _measure_reduce),
        # numpy.matmul itself, wherever it is called from: what is left in
        # backend.gemm's self time is the modular part of a modular GEMM.
        Target(numpy, ("matmul",), "backend.dgemm", "backend.dgemm", _measure_dgemm),
    ] + _backend_targets(backend)


class Tracer:
    """Online per-layer attribution over wrapped public callables."""

    def __init__(self, targets: Iterable[Target], *, keep_spans: bool = False) -> None:
        self.targets = list(targets)
        self.keep_spans = keep_spans
        self.self_time: Dict[str, float] = defaultdict(float)
        self.incl_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.work: Dict[str, float] = defaultdict(float)
        self.root_time = 0.0
        self.unattributed = 0.0
        #: ``(label, group, start, end, parent span id or -1)`` per span.
        self.spans: List[Optional[tuple]] = []
        #: Launch seconds by ``id()`` of a produced ciphertext (serving only).
        self.launches: Dict[int, float] = {}
        self.track_launches = False
        #: An ``f*`` kernel ran since the last backend launch was booked.
        self.float_pending = False
        #: Open calls per stage.
        self.depth: Dict[str, int] = defaultdict(int)
        self._stack: List[list] = []
        self._saved: List[tuple] = []

    # ------------------------------------------------------------------
    @property
    def groups(self) -> List[str]:
        """Every self-time bucket, in table order (the shares' keys)."""
        seen: List[str] = []
        for target in self.targets:
            if target.group not in seen:
                seen.append(target.group)
        return seen

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for target in self.targets:
            members = vars(target.owner)
            names = (target.names if target.names is not None
                     else [name for name in members if not name.startswith("_")])
            plain = inspect.isfunction if inspect.isclass(target.owner) else callable
            for name in names:
                original = members.get(name)
                if not plain(original) or inspect.iscoroutinefunction(original):
                    continue
                label = "%s.%s" % (target.owner.__name__, name)
                wrapper = self._wrap(original, name, label, target)
                self._saved.append((target.owner, name, original))
                setattr(target.owner, name, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # ------------------------------------------------------------------
    @property
    def in_root(self) -> bool:
        return bool(self._stack)

    @contextmanager
    def root(self, label: str) -> Iterator[None]:
        """Attribute everything called inside the block (no-op when nested)."""
        stack = self._stack
        if stack:
            yield
            return
        span_id = -1
        if self.keep_spans:
            span_id = len(self.spans)
            self.spans.append(None)
        frame = [0.0, span_id]
        stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            self.root_time += end - start
            self.unattributed += (end - start) - frame[0]
            if self.keep_spans:
                self.spans[span_id] = (label, "root", start, end, -1)

    def _wrap(self, function, name: str, label: str, target: Target):
        stack = self._stack
        depth = self.depth
        self_time, incl_time, calls = self.self_time, self.incl_time, self.calls
        spans = self.spans if self.keep_spans else None
        group, stage, measure = target.group, target.stage, target.measure
        tracer = self
        clock = perf_counter

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not stack:
                return function(*args, **kwargs)
            span_id = -1
            if spans is not None:
                span_id = len(spans)
                spans.append(None)
            parent = stack[-1]
            frame = [0.0, span_id]
            stack.append(frame)
            depth[stage] += 1
            result = _RAISED
            start = clock()
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                self_time[group] += elapsed - frame[0]
                parent[0] += elapsed
                depth[stage] -= 1
                outermost = not depth[stage]
                if outermost:
                    calls[stage] += 1
                    incl_time[stage] += elapsed
                if measure is not None and result is not _RAISED:
                    measure(tracer, name, args, result, elapsed, outermost)
                if spans is not None:
                    spans[span_id] = (label, group, start, end, parent[1])

        return wrapper

    # ------------------------------------------------------------------
    def share(self, seconds: float) -> float:
        return seconds / self.root_time if self.root_time else 0.0

    def chrome_trace(self, workload: str) -> dict:
        """The stored spans as Chrome-trace JSON (``chrome://tracing``, Perfetto)."""
        spans = [span for span in self.spans if span is not None]
        origin = min((span[2] for span in spans), default=0.0)
        events = [{
            "name": label, "cat": group, "ph": "X", "pid": 1, "tid": 1,
            "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
            "args": {"parent": parent, "workload": workload},
        } for label, group, start, end, parent in spans]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

"""The seven workloads.  Why each exists is its ``why`` line (and README.md).

Every workload builds its own context in :meth:`Workload.setup`, runs
*rounds* of calls into the public API, times each call through the
:class:`~e2e.harness.Recorder` it is handed and checks what it decrypts
against a numpy reference.  The library only ever sees generated inputs:
the seed picks the data, the arrival schedule and the context seed.

Shapes: "P28" is ``CkksParameters(ring_degree=4096, level_count=8, dnum=4)``
with the default 28/28/30-bit widths (the ``large`` preset); "P20" is the
same shape with a 20-bit scale and chain primes, which take the single-pass
float Barrett path instead of the hi/lo split.  ``quick`` swaps every shape
for N=64 so the contract test can run all seven in a few seconds.
"""

from __future__ import annotations

import asyncio
import sys
import traceback
from time import perf_counter
from types import SimpleNamespace
from typing import Dict, Optional, Tuple, Type

import numpy as np

from repro import CkksParameters, TensorFheContext
from repro.ckks import Ciphertext
from repro.ckks.bootstrap import BootstrapConfig
from repro.serving import KeyRegistry, ServingEngine

from .harness import Recorder
from .yardstick import Speedometer

__all__ = ["Workload", "WORKLOADS", "BACKEND"]

#: Selected process-wide by run.py *and* pinned on every context, so GEMM,
#: element-wise and Conv launches all take it.
BACKEND = "blas"


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(list(key))


class Workload:
    """One named set of inputs; subclasses fill in setup and round."""

    name = ""
    why = ""
    #: Ciphertexts per timed call (the B axis); 1 for the serving clients.
    streams = 1
    #: Largest absolute error a verified output may have.
    tolerance = 1e-2
    #: An open-loop workload runs one round that lasts its whole budget.
    open_loop = False
    #: Program units per round the per-round counts are divided by.
    unit = "round"

    def __init__(self, quick: bool = False) -> None:
        self.quick = quick

    def recorder(self, state, speedometer: Speedometer, tracer=None) -> Recorder:
        return Recorder(self.tolerance, speedometer, streams=self.streams,
                        tracer=tracer, kernels=state.fhe.context.kernels)

    def setup(self, seed: int, speedometer: Speedometer):
        """Context, keys, rotation keys and one warm-up round."""
        state = self.build(seed)
        self.round(state, _rng(seed, 0), self.recorder(state, speedometer), None)
        return state

    def build(self, seed: int):
        raise NotImplementedError

    def round(self, state, rng: np.random.Generator, rec: Recorder,
              budget: Optional[float]) -> None:
        raise NotImplementedError


# ----------------------------------------------------------------------
# Isolated operations
# ----------------------------------------------------------------------
class _Ops(Workload):
    """One isolated facade call of each op per round, from fresh inputs."""

    #: Overrides of the P28 shape (prime widths, dnum).
    shape: dict = {}

    def parameters(self) -> CkksParameters:
        if self.quick:
            return CkksParameters(**{**dict(ring_degree=64, level_count=4, dnum=2,
                                            secret_hamming_weight=8), **self.shape})
        return CkksParameters(**{**dict(ring_degree=4096, level_count=8, dnum=4),
                                 **self.shape})

    def build(self, seed: int):
        fhe = TensorFheContext(self.parameters(), seed=seed, rotation_steps=(1,),
                               backend=BACKEND)
        return SimpleNamespace(fhe=fhe, rounds=0)

    def round(self, state, rng, rec, budget) -> None:
        fhe, count = state.fhe, self.streams
        xs = rng.uniform(-1.0, 1.0, (count, fhe.slot_count))
        ys = rng.uniform(-1.0, 1.0, (count, fhe.slot_count))
        partner = np.roll(np.arange(count), -1)
        if count == 1:      # the singular facade methods, as a B=1 user calls them
            add = lambda a, b: [fhe.add(a[0], b[0])]
            cmult = lambda a, v: [fhe.multiply_plain(a[0], v[0])]
            hmult = lambda a, b: [fhe.multiply(a[0], b[0])]
            rotate = lambda a, steps: [fhe.rotate(a[0], steps)]
        else:
            add, cmult = fhe.add_many, fhe.multiply_plain_many
            hmult, rotate = fhe.multiply_many, fhe.rotate_many
        cts = rec.call("encrypt", lambda: [fhe.encrypt(x) for x in xs])
        others = [cts[i] for i in partner]
        # HADD is a hundredth of the round: four calls make one sample.
        sums = rec.call("hadd", add, cts, others, repeat=4)
        scaled = rec.call("cmult", cmult, cts, ys)
        products = rec.call("hmult", hmult, cts, others)
        rotated = rec.call("hrotate", rotate, cts, 1)
        opened = rec.call("decrypt", lambda: [fhe.decrypt(ct) for ct in products])
        # Verification, untimed.  The timed decrypt covers every HMULT
        # stream (and with it every encryption), and those are the outputs
        # booked for precision; the other three ops are opened on one
        # stream per round, a different one each round.
        for i in range(count):
            rec.check(opened[i].real, xs[i] * xs[partner[i]])
        i = state.rounds % count
        rec.check(fhe.decrypt(sums[i]).real, xs[i] + xs[partner[i]], book=False)
        rec.check(fhe.decrypt(scaled[i]).real, xs[i] * ys[i], book=False)
        rec.check(fhe.decrypt(rotated[i]).real, np.roll(xs[i], -1), book=False)
        state.rounds += 1
        rec.end_round()


class OpsP28B8(_Ops):
    name = "ops_p28_b8"
    why = ("Paper Table VI/VIII shape on the default engine: 8 streams through the "
           "*_many facade at 28-bit primes (hi/lo-split float reduction, dnum=4 key switch)")
    streams = 8


class OpsP28B1(_Ops):
    name = "ops_p28_b1"
    why = ("Same context, one stream through the singular facade methods: per-op latency "
           "where Python/facade overhead dominates and B-axis fusion can do nothing")
    streams = 1


class OpsP20B8(_Ops):
    name = "ops_p20_b8"
    why = ("Same shape at 20-bit primes: the single-pass float Barrett path with 2^53 "
           "headroom, so a narrow-prime-only change must not move the P28 rows and vice versa")
    streams = 8
    # The special primes stay at 23 bits (the widest the four-step stage
    # bound n1*(q-1)^2 < 2^53 allows at N=4096, so still single-pass): with
    # 20-bit special primes the key-switch noise swamps a 20-bit scale and
    # a rotated ciphertext decrypts to noise (error 0.3 to 1.0).  As it is
    # the error is that of a fresh encryption, about 0.05 at its largest.
    shape = dict(scale_bits=20, prime_bits=20, special_prime_bits=23)
    # The error's tail is long at a 20-bit scale: its root-mean-square is
    # 0.007, one slot in 10^6 reaches 0.1 (seen once in 40 runs).  Operands
    # are uniform in [-1, 1], so a wrong output is still off by about 1.
    tolerance = 0.25


# ----------------------------------------------------------------------
# A chained program
# ----------------------------------------------------------------------
class LrChainB8(Workload):
    """The HELR inference step of examples/encrypted_logistic_regression.py."""

    name = "lr_chain_b8"
    why = ("Chained HELR inference step over 8 streams and four levels: outputs feed inputs, "
           "so redundant NTT round-trips, copies and encodes show here, not in the isolated ops")
    streams = 8
    tolerance = 5e-2
    features = 16

    def build(self, seed: int):
        if self.quick:
            parameters = CkksParameters(ring_degree=64, level_count=6, dnum=3,
                                        secret_hamming_weight=8)
        else:
            parameters = CkksParameters(ring_degree=4096, level_count=8, dnum=4)
        shifts = [1 << i for i in range(self.features.bit_length() - 1)]
        fhe = TensorFheContext(parameters, seed=seed, rotation_steps=shifts,
                               backend=BACKEND)
        weights = _rng(seed, 1).uniform(-0.5, 0.5, self.features)
        return SimpleNamespace(fhe=fhe, weights=weights, shifts=shifts)

    def round(self, state, rng, rec, budget) -> None:
        fhe, count, slots = state.fhe, self.streams, state.fhe.slot_count
        inputs = rng.uniform(-1.0, 1.0, (count, self.features))
        mask = np.zeros(slots)
        mask[0] = 1.0

        def constant(value):
            return [np.full(slots, value)] * count

        cts = rec.call("encrypt", lambda: [fhe.encrypt(x) for x in inputs])
        logits = rec.call("cmult", fhe.multiply_plain_many, cts, [state.weights] * count)
        for shift in state.shifts:
            rotated = rec.call("hrotate", fhe.rotate_many, logits, shift)
            logits = rec.call("hadd", fhe.add_many, logits, rotated)
        logits = rec.call("cmult", fhe.multiply_plain_many, logits, [mask] * count)
        squares = rec.call("hmult", fhe.multiply_many, logits, logits)
        cubic_scaled = rec.call("cmult", fhe.multiply_plain_many, logits, constant(-0.004))
        cubics = rec.call("hmult", fhe.multiply_many, squares, cubic_scaled)
        linears = rec.call("cmult", fhe.multiply_plain_many, logits, constant(0.197))
        # Successive rescales by slightly different primes leave the two
        # terms at marginally different scales; absorb the < 0.1 %
        # difference before adding, as the example does.
        pairs = rec.call("align", lambda: [fhe.evaluator.align(a, b)
                                           for a, b in zip(linears, cubics)])
        linears = [a for a, _ in pairs]
        cubics = [Ciphertext(b.c0, b.c1, a.scale, b.level) for a, b in pairs]
        scores = rec.call("hadd", fhe.add_many, linears, cubics)
        scores = rec.call("add_plain", lambda: [fhe.add_plain(ct, np.full(slots, 0.5))
                                                for ct in scores])
        opened = rec.call("decrypt", lambda: [fhe.decrypt(ct) for ct in scores])
        # Every slot is checked: slot 0 holds the score, the masked rest 0.5.
        logit = np.zeros((count, slots))
        logit[:, 0] = inputs @ state.weights
        expected = 0.5 + 0.197 * logit - 0.004 * logit ** 3
        for i in range(count):
            rec.check(opened[i].real, expected[i])
        rec.end_round()


# ----------------------------------------------------------------------
# Bootstrapping
# ----------------------------------------------------------------------
class BootstrapB4(Workload):
    """Refresh exhausted ciphertexts, then keep computing on them."""

    name = "bootstrap_b4"
    why = ("Paper Table VII: batched bootstrap of 4 exhausted ciphertexts then the refreshed "
           "level is spent; BSGS rotations, ~10^5 small launches, and the precision canary")
    streams = 4
    tolerance = 2e-2

    def __init__(self, quick: bool = False) -> None:
        super().__init__(quick)
        #: Every op but the bootstrap is timed ``samples`` times per pass, a
        #: sample being ``batch`` calls back to back: at this ring size one
        #: call is 0.4 to 4 ms, too short to time alone.
        self.samples, self.batch = 8, 5
        if quick:
            self.streams, self.samples, self.batch = 2, 1, 1

    def build(self, seed: int):
        # N=128 is the largest ring whose pass (about 2 s) leaves room for
        # three set-ups and five passes in one run; N=256 is 6 s a pass and
        # N=1024 decrypts to the wrong message (README, seed-state findings).
        degree, weight = (64, 8) if self.quick else (128, 16)
        parameters = CkksParameters(ring_degree=degree, level_count=14, dnum=3,
                                    secret_hamming_weight=weight)
        fhe = TensorFheContext(
            parameters, seed=seed, backend=BACKEND,
            bootstrap_config=BootstrapConfig(taylor_degree=7,
                                             double_angle_iterations=5))
        fhe.ensure_rotation_keys(fhe.bootstrapper.required_rotation_steps() + [1])
        return SimpleNamespace(fhe=fhe)

    def round(self, state, rng, rec, budget) -> None:
        fhe, count = state.fhe, self.streams
        xs = rng.uniform(-0.05, 0.05, (count, fhe.slot_count))
        ws = rng.uniform(-1.0, 1.0, (count, fhe.slot_count))
        batch = self.batch
        for _ in range(self.samples):
            cts = rec.call("encrypt", lambda: [fhe.encrypt(x) for x in xs], repeat=batch)
        exhausted = [fhe.evaluator.drop_to_level(ct, 0) for ct in cts]
        fresh = rec.call("bootstrap", fhe.bootstrap_many, exhausted)
        for _ in range(self.samples):
            rotated = rec.call("hrotate", fhe.rotate_many, fresh, 1, repeat=batch)
            # Four HADDs at N=128 are 0.3 ms: a sample of them is 4 x batch calls.
            sums = rec.call("hadd", fhe.add_many, fresh, rotated, repeat=4 * batch)
            squares = rec.call("hmult", fhe.multiply_many, sums, sums, repeat=batch)
            scaled = rec.call("cmult", fhe.multiply_plain_many, sums, ws, repeat=batch)
            opened = rec.call("decrypt", lambda: [fhe.decrypt(ct) for ct in squares],
                              repeat=batch)
        for i in range(count):
            plain = xs[i] + np.roll(xs[i], -1)
            rec.check(fhe.decrypt(fresh[i]).real, xs[i])     # the precision canary
            rec.check(opened[i].real, plain * plain, book=False)
            rec.check(fhe.decrypt(scaled[i]).real, plain * ws[i], book=False)
        rec.end_round()


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------
class _Serving(Workload):
    """Mean/variance sessions (workloads/serving_statistics.py) on a ServingEngine.

    A session is one client's pipeline: encrypt, two 64-slot inner sums
    (12 x (HROTATE + HADD)), one HMULT, two CMULTs, two decrypts — 27
    engine requests.  Per-unit counts are per session.
    """

    tolerance = 5e-2
    unit = "session"
    tenants = 8
    #: Slots the session's inner sum covers (the client's vector length).
    inner = 64
    #: Longest a client goes without taking a yardstick mark (3 ms each).
    mark_every = 0.05

    def build(self, seed: int):
        if self.quick:
            parameters = CkksParameters(ring_degree=64, level_count=4, dnum=2,
                                        secret_hamming_weight=8)
        else:
            # N=1024: a lone session is 0.14 s (0.30 s at N=4096), so one
            # run holds enough sessions for their median to be steady,
            # and 27 requests' worth of engine overhead is a third of it.
            parameters = CkksParameters(ring_degree=1024, level_count=4, dnum=2)
        fhe = TensorFheContext(parameters, seed=seed, backend=BACKEND)
        registry = KeyRegistry(fhe.context, keygen=fhe._keygen)
        names = ["tenant-%02d" % index for index in range(self.tenants)]
        owner = registry.register(names[0])
        for name in names[1:]:
            registry.alias(name, owner)
        return SimpleNamespace(fhe=fhe, registry=registry, tenants=names,
                               count=min(self.inner, fhe.slot_count))

    def setup(self, seed: int, speedometer: Speedometer):
        state = self.build(seed)
        # One session warms every op and generates the rotation keys the
        # engine creates lazily on a tenant's first rotation by each step.
        rec = self.recorder(state, speedometer)
        values = self.dataset(_rng(seed, 0), state, 1)[0]
        self._serve(state, rec, lambda engine: self._session(
            engine, rec, state.tenants[0], values, None))
        return state

    @staticmethod
    def dataset(rng, state, sessions: int) -> np.ndarray:
        return rng.normal(22.0, 3.0, (sessions, state.count)) / 32.0

    @staticmethod
    def windowed_sum(padded: np.ndarray, count: int) -> np.ndarray:
        """What the rotate-and-add inner sum leaves in *every* slot."""
        total, shift = padded, 1
        while shift < count:
            total = total + np.roll(total, -shift)
            shift *= 2
        return total

    async def _session(self, engine: ServingEngine, rec: Recorder, tenant: str,
                       values: np.ndarray, due: Optional[float]) -> None:
        """One client's pipeline, timed from ``due`` (or from its start)."""
        meter = rec.speedometer
        meter.mark()
        start = perf_counter()
        if due is not None:
            rec.generator_late.append(start - due)
        try:
            keys = engine.registry.get(tenant)
            count = len(values)
            inverse = np.full(count, 1.0 / count)

            async def request(kind, awaitable):
                result = await rec.acall(kind, awaitable)
                meter.mark(self.mark_every)
                return result

            async def inner_sum(ct, level=""):
                shift = 1
                while shift < count:
                    rotated = await request("hrotate" + level,
                                            engine.rotate(tenant, ct, shift))
                    ct = await request("hadd" + level, engine.add(tenant, ct, rotated))
                    shift *= 2
                return ct

            # The square's inner sum and CMULT run one level down and are
            # faster; kept under their own kinds they do not make the
            # HROTATE/HADD/CMULT latencies two-peaked (every one is a request).
            ct = rec.call("encrypt", keys.encryptor.encrypt, values)
            ct_mean = await request("cmult", engine.multiply_plain(
                tenant, await inner_sum(ct), inverse))
            ct_square = await request("hmult", engine.multiply(tenant, ct, ct))
            ct_square_mean = await request("cmult_low", engine.multiply_plain(
                tenant, await inner_sum(ct_square, "_low"), inverse))
            mean = rec.call("decrypt", keys.decryptor.decrypt_real, ct_mean)
            square_mean = rec.call("decrypt", keys.decryptor.decrypt_real, ct_square_mean)
        except Exception:       # refused or failed: already counted; never on time
            traceback.print_exc(file=sys.stderr)
            rec.serving["sessions_failed"] += 1
            return
        end = perf_counter()
        meter.mark()
        # Verified in every slot, not only slot 0 where the client reads its
        # answer: slot j < count holds the statistics of the window starting
        # at j, the slots beyond the 1/count plaintext hold zero.
        padded, weight = np.zeros(len(mean)), np.zeros(len(mean))
        padded[:count], weight[:count] = values, 1.0 / count
        want_mean = self.windowed_sum(padded, count) * weight
        want_square = self.windowed_sum(padded * padded, count) * weight
        failed_before = rec.failed
        rec.check(mean, want_mean)
        rec.check(square_mean - mean ** 2, want_square - want_mean ** 2)
        if rec.failed > failed_before:
            rec.serving["sessions_failed"] += 1
            return
        rec.units += 1
        rec.sessions.append((start if due is None else due, end))

    def _serve(self, state, rec: Recorder, drive) -> Tuple[float, float]:
        """Run ``drive(engine)`` on a fresh engine under one root span.

        Engines are cheap (the key registry is shared) and cannot be
        restarted, so every pass gets its own.  Returns the pass's interval.
        """
        async def run():
            engine = ServingEngine(state.fhe, registry=state.registry)
            async with engine:
                await drive(engine)
                return engine.diagnostics()

        if rec.tracer is not None:
            rec.tracer.track_launches = True
        rec.speedometer.mark()
        with rec.root(self.name):
            start = perf_counter()
            diagnostics = asyncio.run(run())
            end = perf_counter()
        rec.speedometer.mark()
        requests = diagnostics["requests"]
        rec.serving["batches"] += diagnostics["batches"]["executed"]
        rec.serving["completed"] += requests["completed"]
        rec.serving["rejected"] += (requests["rejected"] + requests["request_errors"]
                                    + requests["executor_failures"])
        rec.serving["flush_target"] = diagnostics["flush_target"]
        return start, end


class ServingOpen(_Serving):
    name = "serving_open"
    why = ("Open loop: independent users start mean/variance sessions at Poisson times, so "
           "almost nothing coalesces; shows queueing, per-request overhead and loop freezes")
    open_loop = True
    #: Sessions per second; a lone session is 0.14 s, so 25 % utilisation.
    #: A session is slowed when another arrives within 0.14 s of it.  At
    #: 2.5 /s that is 30 to 55 % of them depending on how the seed orders
    #: the gaps, so the median session was a lone one on some seeds and a
    #: slowed one on others (0.128 to 0.157 s over ten seeds, 0.126 to
    #: 0.132 s on one); at 1.8 /s it is a lone one on every seed and the
    #: collisions show in the quartile, the p95 and ``serving.late_share``.
    rate = 1.8
    #: The schedule stops this long before the budget so the queue can drain.
    drain = 1.0

    def schedule(self, rng, budget: Optional[float]) -> np.ndarray:
        """Arrival offsets in seconds, fixed by the seed before the first one.

        The gaps are the n quantile midpoints of the exponential
        distribution, in an order the seed picks: exponential gaps at the
        stated rate, but every seed gets the same number of sessions and
        the same load, which plain sampling of 20 gaps does not give.
        """
        rate, span = (40.0, 0.1) if self.quick else (self.rate, max(budget - self.drain, 1.0))
        count = max(int(round(rate * span)), 2)
        gaps = -np.log1p(-(np.arange(count - 1) + 0.5) / (count - 1)) / rate
        return np.concatenate([[0.0], np.cumsum(rng.permutation(gaps))])

    def round(self, state, rng, rec, budget) -> None:
        arrivals = self.schedule(rng, budget)
        values = self.dataset(rng, state, len(arrivals))

        async def generator(engine):
            origin = perf_counter()
            tasks = []
            for index, offset in enumerate(arrivals):
                due = origin + float(offset)
                delay = due - perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                # Started when due however busy the loop is, and timed
                # from the moment it was due, not from when it got to run.
                tasks.append(asyncio.ensure_future(self._session(
                    engine, rec, state.tenants[index % self.tenants],
                    values[index], due)))
            await asyncio.gather(*tasks)

        seen = len(rec.sessions)
        rec.serving["due"] += len(arrivals)
        self._serve(state, rec, generator)
        # The program unit of the open loop is the session, from its due time.
        rec.program.extend([session] for session in rec.sessions[seen:])


class ServingBurst(_Serving):
    name = "serving_burst"
    why = ("Closed loop: 8 clients start a session together and move in lockstep, so every "
           "request coalesces (mean batch 8); a linger or batch-size change that helps one "
           "serving workload and costs the other shows")
    #: Back-to-back sessions per client in one pass.
    depth = 2

    def round(self, state, rng, rec, budget) -> None:
        depth = 1 if self.quick else self.depth
        values = self.dataset(rng, state, self.tenants * depth)

        async def client(engine, index):
            for lap in range(depth):
                await self._session(engine, rec, state.tenants[index],
                                    values[index * depth + lap], None)

        async def clients(engine):
            await asyncio.gather(*[client(engine, i) for i in range(self.tenants)])

        rec.serving["due"] += self.tenants * depth
        # The program unit of the closed loop is the pass over all clients.
        rec.program.append([self._serve(state, rec, clients)])


WORKLOADS: Dict[str, Type[Workload]] = {
    cls.name: cls for cls in (OpsP28B8, OpsP28B1, OpsP20B8, LrChainB8,
                              BootstrapB4, ServingOpen, ServingBurst)
}

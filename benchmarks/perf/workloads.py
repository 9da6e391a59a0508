"""The benchmark's workloads: fixed shapes, inputs drawn from ``--seed``.

Each workload has three parts:

* ``setup(seed)`` builds the inputs and the system that serves them (the
  ``setup_s`` metric times it) and returns a session;
* the session's ``step()`` is one timed unit of work — one serve of one
  request stream, one train step, or one decode batch — and its
  ``prepare()`` / ``record()`` do the untimed work around a unit.  Units
  with the same ``key`` (the serve workloads' stream) repeat the same work;
* the modelled outputs the run produced (simulated statistics, losses,
  decoded tokens), compared with the golden record and checked against
  invariants that hold for every seed.

The program receives only the generated inputs; the seed never reaches it.
"""

from __future__ import annotations

import base64
import gc
import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.pregated_model import PreGatedSwitchTransformer
from repro.data.tasks import make_task, train_eval_split
from repro.data.tokenizer import default_vocabulary
from repro.moe.configs import get_config
from repro.serving.scheduler import ContinuousBatchingScheduler
from repro.system import get_system
from repro.training.trainer import Trainer, TrainingConfig
from repro.workloads.arrivals import PoissonArrivals, TimedRequest
from repro.workloads.traces import TraceGenerator

#: A run sets up at least SETUP_REPS times and for at least SETUP_SHARE of
#: its measured seconds; ``setup_s`` is the median.  Cheap set-ups thus get
#: many samples, expensive ones (serve_b1_decode's 1000 traces) a few, and
#: the samples span seconds, so a burst of host noise moves few of them.
SETUP_REPS = 3
SETUP_SHARE = 1 / 5

#: Greedy decode stops at no token: no token id is negative.
NO_EOS = -1

#: Golden tolerances: the simulator's replay drift bar, and the loss bar.
SIM_REL_TOL = 1e-7
LOSS_REL_TOL = 1e-6
TOKEN_MATCH_FLOOR = 0.99

#: Units of the modelled outputs reported by the traced run.  Every
#: workload reports every name; a statistic its engine does not produce
#: reads 0.
MODELLED_UNITS: Dict[str, str] = {
    "sim.makespan_s": "sim_s",
    "sim.ttft_p50_ms": "sim_ms",
    "sim.ttft_p99_ms": "sim_ms",
    "sim.tbt_p50_ms": "sim_ms",
    "sim.tbt_p99_ms": "sim_ms",
    "sim.timeline_ops": "count",
    "sim.replay_ops": "count",
    "sim.expert_gb_moved": "GB",
    "sim.peak_gpu_gb": "GB",
    "sim.cache_hit_rate": "frac",
    "sim.cache_evictions": "count",
    "sim.stage_hit_rate": "frac",
    "sim.alltoall_gb": "GB",
    "train.loss_final": "nats",
}


def _split_seed(seed: int, parts: int) -> List[int]:
    """Independent child seeds, so no two input streams share RNG bits."""
    return [int(s.generate_state(1)[0])
            for s in np.random.SeedSequence(seed).spawn(parts)]


class _Workload:
    """A named shape whose golden record is its scalar outputs."""

    #: Relative tolerance of the golden comparison.
    rel_tol = 0.0

    def __init__(self, name: str, shape) -> None:
        self.name = name
        self.shape = shape

    def prepare_run(self, seed: int) -> None:
        """Untimed work done once per run, before the timed set-ups."""

    def compare(self, outputs: Dict[str, object],
                golden: Dict[str, object]) -> List[str]:
        problems = []
        for key, want in golden.items():
            got = float(outputs.get(key, math.nan))
            if not (got == want
                    or abs(got - want) <= self.rel_tol * max(abs(got), abs(want))):
                problems.append(f"{key}: {got!r} != golden {want!r}")
        return problems

    def golden_record(self, outputs: Dict[str, object]) -> Dict[str, object]:
        return dict(outputs)


# ----------------------------------------------------------------------
# Serve workloads (the discrete-event simulator)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServeShape:
    config: str
    #: Distinct request streams, each of ``requests`` requests.  A run cycles
    #: through them, so it serves ``streams * requests`` distinct requests
    #: and still times every stream several times.
    streams: int
    requests: int
    input_length: int
    output_length: int
    skew: float
    rate: float
    max_batch_size: int
    system: str = "paper"
    placement: Tuple[Tuple[str, object], ...] = ()


def serve_outputs(result) -> Dict[str, float]:
    """The simulated statistics of one serve (modelled, not host time)."""
    ttft, tbt, cache = result.ttft_stats, result.tbt_stats, result.cache_stats
    return {
        "sim.makespan_s": result.makespan,
        "sim.ttft_p50_ms": ttft.p50 * 1e3,
        "sim.ttft_p99_ms": ttft.p99 * 1e3,
        "sim.tbt_p50_ms": tbt.p50 * 1e3,
        "sim.tbt_p99_ms": tbt.p99 * 1e3,
        "sim.timeline_ops": result.timeline_total_ops,
        "sim.replay_ops": result.replay_ops,
        "sim.expert_gb_moved": result.expert_bytes_transferred / 1e9,
        "sim.peak_gpu_gb": result.peak_gpu_bytes / 1e9,
        "sim.cache_hit_rate": cache.hit_rate if cache is not None else 0.0,
        "sim.cache_evictions": cache.evictions if cache is not None else 0,
        "sim.stage_hit_rate": result.stage_hit_rate or 0.0,
        "sim.alltoall_gb": result.alltoall_bytes / 1e9,
    }


class ServeSession:
    """Serves the streams in turn, again and again, each on a fresh scheduler.

    A user pays the scheduler's memo fill on every run, so each serve starts
    from a new scheduler and the fill is inside the timed unit.  The unit's
    :attr:`key` is the stream it serves; a run ends on a whole :attr:`cycle`
    of units, so every stream is served equally often.
    """

    def __init__(self, workload: "ServeWorkload", streams, scheduler) -> None:
        self.workload = workload
        self.streams = streams
        self.scheduler = scheduler
        self.tokens = [sum(r.trace.output_length for r in requests)
                       for requests in streams]
        self.min_units = self.cycle = len(streams)
        self.key = -1
        self.first: List[Optional[Dict[str, float]]] = [None] * len(streams)
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def prepare(self) -> None:
        self.key = (self.key + 1) % len(self.streams)
        if self.scheduler is None:
            self.scheduler = self.workload.build()
        # The last serve's garbage is collected here, not inside the next one.
        gc.collect()

    def step(self):
        scheduler, self.scheduler = self.scheduler, None
        return scheduler, scheduler.serve(self.streams[self.key],
                                          offered_load=self.workload.shape.rate)

    def record(self, value) -> int:
        scheduler, result = value
        n = len(self.streams[self.key])
        self.attempted += n
        bad = n - len(result.requests)
        for req in result.requests:
            times = req.token_times
            if (len(times) != req.output_length
                    or any(b < a for a, b in zip(times, times[1:]))
                    or (times and times[0] < req.arrival_time)):
                bad += 1
        hbm = sum(shard.pool.capacity for shard in scheduler.placement.shards)
        if result.oom or result.peak_gpu_bytes > hbm:
            self.problems.append(
                f"peak GPU bytes {result.peak_gpu_bytes} over HBM {hbm}")
            bad = n
        outputs = serve_outputs(result)
        if self.first[self.key] is None:
            self.first[self.key] = outputs
        elif outputs != self.first[self.key]:
            self.problems.append(f"a repeated serve of stream {self.key} differed")
            bad = n
        if bad:
            self.problems.append(f"{bad} of {n} requests failed the invariants")
        self.failed += bad
        return self.tokens[self.key]

    def finish(self) -> None:
        pass

    def outputs(self) -> Dict[str, object]:
        """Stream 0's statistics by name; stream k's as ``stream<k>.<name>``."""
        out: Dict[str, object] = dict(self.first[0] or {})
        for k, first in enumerate(self.first[1:], start=1):
            out.update({f"stream{k}.{name}": value
                        for name, value in (first or {}).items()})
        return out


class ServeWorkload(_Workload):
    """A pregated model serving Poisson request streams through the scheduler."""

    kind = "serve"
    rel_tol = SIM_REL_TOL

    def build(self) -> ContinuousBatchingScheduler:
        shape = self.shape
        scheduler = ContinuousBatchingScheduler(
            "pregated", shape.config, system=get_system(shape.system),
            max_batch_size=shape.max_batch_size, **dict(shape.placement))
        scheduler.placement.load_model()
        return scheduler

    def setup(self, seed: int) -> ServeSession:
        shape = self.shape
        seeds = _split_seed(seed, 2 * shape.streams)
        streams = []
        for trace_seed, arrival_seed in zip(seeds[0::2], seeds[1::2]):
            traces = TraceGenerator(get_config(shape.config), skew=shape.skew,
                                    seed=trace_seed).workload(
                shape.requests, input_length=shape.input_length,
                output_length=shape.output_length)
            arrivals = PoissonArrivals(shape.rate, seed=arrival_seed).arrival_times(
                shape.requests)
            streams.append([TimedRequest(request_id=i, arrival_time=arrivals[i],
                                         trace=trace)
                            for i, trace in enumerate(traces)])
        return ServeSession(self, streams, self.build())


# ----------------------------------------------------------------------
# Tensor-engine workloads (fine-tune, decode)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TensorShape:
    config: str = "switch_mini_8"
    task: str = "squad_like"
    batch: int = 16
    learning_rate: float = 3e-3
    steps: int = 150
    checkpoints: Tuple[int, ...] = (1, 50, 100, 150)
    train_size: int = 256
    prompts: int = 2048
    max_new_tokens: int = 16


def _task_data(shape: TensorShape, seed: int):
    config = get_config(shape.config)
    tokenizer = default_vocabulary(num_content_words=config.vocab_size - 4)
    task = make_task(shape.task, tokenizer=tokenizer, seed=seed)
    train, held_out = train_eval_split(task, shape.train_size, shape.prompts,
                                       tokenizer=tokenizer)
    return config, tokenizer, train, held_out


def _pregated(config, seed: int) -> PreGatedSwitchTransformer:
    return PreGatedSwitchTransformer(config, activation_level=1, seed=seed)


class FinetuneSession:
    """Fine-tunes from a fresh model; after ``steps`` steps it starts over."""

    key = 0
    cycle = 1

    def __init__(self, workload: "FinetuneWorkload", seed: int, config, train,
                 trainer: Trainer) -> None:
        self.workload = workload
        self.shape = workload.shape
        self.min_units = self.shape.steps
        self.seed = seed
        self.config = config
        self.train = train
        self.trainer = trainer
        self.reps: List[List[float]] = []
        self.batch = None
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def _batches(self):
        # Trainer.fit's order: reshuffle every epoch from the run's seed.
        rng = np.random.default_rng(self.seed)
        while True:
            yield from self.train.batches(self.shape.batch, shuffle=True, rng=rng)

    def prepare(self) -> None:
        if not self.reps or len(self.reps[-1]) == self.shape.steps:
            if self.reps:
                self.trainer = self.workload.build(self.config, self.seed)
            self.reps.append([])
            self._batch_iter = self._batches()
        self.batch = next(self._batch_iter)

    def step(self) -> float:
        return self.trainer.train_step(self.batch)["loss"]

    def record(self, loss: float) -> int:
        self.attempted += 1
        if not math.isfinite(loss):
            self.failed += 1
            self.problems.append(f"non-finite loss at step {len(self.reps[-1]) + 1}")
        self.reps[-1].append(loss)
        return self.batch.encoder_ids.size + self.batch.decoder_input_ids.size

    def finish(self) -> None:
        first = self.reps[0]
        if not first[-1] < first[0]:
            self.problems.append(
                f"final loss {first[-1]:.6g} not below first {first[0]:.6g}")
            self.failed = self.attempted
        if any(rep != first[:len(rep)] for rep in self.reps[1:]):
            self.problems.append("a repeated fine-tune from the same seed differed")
            self.failed = self.attempted

    def outputs(self) -> Dict[str, object]:
        first = self.reps[0]
        out: Dict[str, object] = {f"train.loss_step{s}": first[s - 1]
                                  for s in self.shape.checkpoints}
        out["train.loss_final"] = first[-1]
        return out


class FinetuneWorkload(_Workload):
    """Table II's recipe on the tensor engine: fine-tune a pre-gated model."""

    kind = "tensor"
    rel_tol = LOSS_REL_TOL

    def build(self, config, seed: int) -> Trainer:
        return Trainer(_pregated(config, seed), TrainingConfig(
            steps=self.shape.steps, batch_size=self.shape.batch,
            learning_rate=self.shape.learning_rate, seed=seed))

    def setup(self, seed: int) -> FinetuneSession:
        config, _, train, _ = _task_data(self.shape, seed)
        return FinetuneSession(self, seed, config, train, self.build(config, seed))


class DecodeSession:
    """Greedy-decodes the held-out prompts batch by batch, cycling.

    Every row decodes exactly ``max_new_tokens`` tokens: the session passes
    no EOS id, so the work per batch is fixed.
    """

    key = 0
    cycle = 1

    def __init__(self, tokenizer, model, batches, max_new_tokens: int) -> None:
        self.tokenizer = tokenizer
        self.model = model
        self.batches = batches
        self.max_new_tokens = max_new_tokens
        self.min_units = len(batches)
        self.index = -1
        self.tokens: List[Optional[np.ndarray]] = [None] * len(batches)
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def prepare(self) -> None:
        self.index = (self.index + 1) % len(self.batches)

    def step(self) -> np.ndarray:
        batch = self.batches[self.index]
        generated, _ = self.model.greedy_decode(
            batch.encoder_ids, bos_id=self.tokenizer.bos_id, eos_id=NO_EOS,
            max_new_tokens=self.max_new_tokens,
            input_padding_mask=batch.encoder_padding_mask)
        return generated

    def record(self, generated: np.ndarray) -> int:
        self.attempted += 1
        rows = self.batches[self.index].encoder_ids.shape[0]
        shape = (rows, self.max_new_tokens + 1)
        ok = (generated.shape == shape
              and bool(np.all(generated[:, 0] == self.tokenizer.bos_id))
              and bool(np.all((generated >= 0)
                              & (generated < self.tokenizer.vocab_size))))
        tokens = generated.astype(np.uint8) if ok else np.zeros(shape, np.uint8)
        seen = self.tokens[self.index]
        if seen is None:
            self.tokens[self.index] = tokens
        elif not np.array_equal(seen, tokens):
            ok = False
            self.problems.append(f"batch {self.index} decoded differently on a repeat")
        if not ok:
            self.failed += 1
        return rows * self.max_new_tokens

    def finish(self) -> None:
        pass

    def outputs(self) -> Dict[str, object]:
        return {"decode.tokens": np.concatenate(self.tokens)}


class DecodeWorkload(_Workload):
    """Batched greedy decode of held-out prompts with the KV cache.

    The model is the ``finetune`` recipe's model after its ``steps`` steps:
    :meth:`prepare_run` fine-tunes it once per run, and each set-up builds a
    model and loads those weights, as serving a checkpoint would.  The
    fine-tuned model answers in a token or two, so a decode that stopped at
    EOS would do almost no work, and how much would depend on how far the
    fine-tune converged; every row therefore decodes all ``max_new_tokens``.
    """

    kind = "tensor"

    def __init__(self, name: str, shape) -> None:
        super().__init__(name, shape)
        self._weights: Dict[int, Dict[str, np.ndarray]] = {}

    def prepare_run(self, seed: int) -> None:
        if seed in self._weights:
            return
        finetune = FinetuneWorkload("finetune", self.shape).setup(seed)
        for _ in range(self.shape.steps):
            finetune.prepare()
            finetune.record(finetune.step())
        self._weights[seed] = finetune.trainer.model.state_dict()

    def setup(self, seed: int) -> DecodeSession:
        config, tokenizer, _, held_out = _task_data(self.shape, seed)
        model = _pregated(config, seed)
        model.load_state_dict(self._weights[seed])
        model.eval()
        return DecodeSession(tokenizer, model,
                             list(held_out.batches(self.shape.batch)),
                             self.shape.max_new_tokens)

    @staticmethod
    def token_match(outputs, reference) -> float:
        got, want = outputs["decode.tokens"], reference["decode.tokens"]
        if got.shape != want.shape:
            return 0.0
        return float(np.mean(got == want))

    def compare(self, outputs, golden) -> List[str]:
        match = self.token_match(outputs, self.from_golden(golden))
        if match < TOKEN_MATCH_FLOOR:
            return [f"decoded tokens match the golden at {match:.4f} "
                    f"< {TOKEN_MATCH_FLOOR}"]
        return []

    def golden_record(self, outputs) -> Dict[str, object]:
        tokens = outputs["decode.tokens"]
        return {"shape": list(tokens.shape),
                "tokens_b64": base64.b64encode(tokens.tobytes()).decode("ascii")}

    @staticmethod
    def from_golden(golden) -> Dict[str, object]:
        raw = base64.b64decode(golden["tokens_b64"])
        return {"decode.tokens": np.frombuffer(raw, dtype=np.uint8).reshape(
            golden["shape"])}


# ----------------------------------------------------------------------
# The workload table (README.md records why each one is here)
# ----------------------------------------------------------------------
_TIERED = (("num_gpus", 2), ("shard_policy", "round_robin"),
           ("cache_policy", "lru"), ("cache_capacity", 64),
           ("stage_policy", "lru"), ("stage_capacity", 256))
_B1 = ServeShape("switch_base_128", streams=5, requests=200, input_length=8,
                 output_length=96, skew=1.2, rate=0.9, max_batch_size=1)
_B8 = ServeShape("switch_base_128", streams=3, requests=200, input_length=16,
                 output_length=32, skew=1.2, rate=2.5, max_batch_size=8)
_B4 = ServeShape("switch_base_64", streams=5, requests=40, input_length=16,
                 output_length=32, skew=1.5, rate=1.2, max_batch_size=4,
                 system="ssd", placement=_TIERED)
_TENSOR = TensorShape()
_TENSOR_QUICK = TensorShape(steps=12, checkpoints=(1, 6, 12), prompts=48)

#: name -> (workload class, recorded shape, ``--quick`` smoke shape).  The
#: quick shapes exist for the harness test and never produce recorded numbers.
_TABLE = {
    "serve_b1_decode": (ServeWorkload, _B1,
                        replace(_B1, streams=2, requests=24, output_length=24)),
    "serve_b8_poisson": (ServeWorkload, _B8, replace(_B8, streams=2, requests=24)),
    "serve_b4_tiered": (ServeWorkload, _B4, replace(_B4, streams=2, requests=16)),
    "finetune": (FinetuneWorkload, _TENSOR, _TENSOR_QUICK),
    "decode": (DecodeWorkload, _TENSOR, _TENSOR_QUICK),
}
WORKLOAD_NAMES = tuple(_TABLE)


def get_workload(name: str, quick: bool = False):
    cls, shape, quick_shape = _TABLE[name]
    return cls(name, quick_shape if quick else shape)


def modelled_scalars(outputs: Dict[str, object]) -> Dict[str, float]:
    """Every :data:`MODELLED_UNITS` statistic (0 where not produced)."""
    return {key: float(outputs.get(key, 0.0)) for key in MODELLED_UNITS}


def outputs_equal(a: Dict[str, object], b: Dict[str, object]) -> bool:
    return a.keys() == b.keys() and all(
        np.array_equal(value, b[key]) if isinstance(value, np.ndarray)
        else value == b[key] for key, value in a.items())

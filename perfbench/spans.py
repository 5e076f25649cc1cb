"""In-memory span tracing of the ``shiftgibbs`` modules from outside.

``Tracer.install()`` replaces the public functions of each module (plus the
few private stages the benchmark names: the word automaton, the partition
DP and the CLI subcommands) with wrappers that record a span per call:
name, start, end, parent span and run id.  Every binding of the original
object in any ``shiftgibbs`` module is replaced, so by-name imports such as
``from .pressure import brute_partition`` in ``verify`` are traced too.
``uninstall()`` puts the originals back.

A span's self time is its duration minus the time its child spans cover;
``layer_metrics`` turns the spans and counters of one traced run into the
per-layer metric table.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

# module -> layer name used in span and metric names
LAYERS = {
    "shiftgibbs.cli": "cli",
    "shiftgibbs.fileio": "fileio",
    "shiftgibbs.shifts": "shifts",
    "shiftgibbs.potentials": "potentials",
    "shiftgibbs.pressure": "pressure",
    "shiftgibbs.measures": "measures",
    "shiftgibbs.verify": "verify",
    "shiftgibbs._kernels": "kernels",
}
# private stages traced besides the public functions
EXTRA_FUNCTIONS = {
    "shiftgibbs.pressure": ("_dp_log_partition",),
    "shiftgibbs.cli": ("_cmd_weakgibbs", "_cmd_lemma", "_cmd_pressure",
                       "_cmd_tangent"),
}
PRESENTATION_METHODS = ("word_matrix", "iter_word_blocks", "word_count")
ENUMERATION_SPANS = ("shifts.word_matrix", "shifts.iter_word_blocks",
                     "shifts.enumerate_words", "shifts.word_count")
CLI_COMMANDS = ("weakgibbs", "lemma", "pressure", "tangent")


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str


def _count_forward(counters, args, _result) -> None:
    words, trans, _start = args[:3]
    n, length = words.shape
    states = trans.shape[1]
    counters["kernels.forward_words"] += n
    # per word and letter: one vector-matrix product, the normalising sum
    # and the division
    counters["kernels.forward_flops"] += n * length * (2 * states * states + 2 * states)
    # the word batch and tables once, then per letter the state vector read
    # and the rescaled vector written
    counters["kernels.forward_bytes"] += (words.nbytes + trans.nbytes
                                          + n * length * states * 8 * 2)


def _count_energy(counters, args, _result) -> None:
    counters["kernels.energy_words"] += args[0].shape[0]


def _count_rows(counters, _args, words) -> None:
    counters["shifts.words"] += words.shape[0]


def _count_automaton(counters, _args, result) -> None:
    counters["shifts.automaton_states"] = max(
        counters["shifts.automaton_states"], int(result[0].shape[0]))


def _count_transfer(counters, _args, result) -> None:
    counters["pressure.cover_states"] = max(counters["pressure.cover_states"],
                                            result.n_states)


def _count_rungs(counters, _args, result) -> None:
    counters["pressure.ladder_rungs"] += len(result.finite_volume)


def _count_inequalities(counters, _args, result) -> None:
    counters["verify.inequalities"] += len(result.inequalities)


def _counter(key):
    def count(counters, _args, _result) -> None:
        counters[key] += 1
    return count


COUNTERS = {
    "kernels.batch_forward_logprob": _count_forward,
    "kernels.batch_energy": _count_energy,
    "shifts.word_matrix": _count_rows,
    "shifts.iter_word_blocks": _count_rows,
    "shifts.automaton": _count_automaton,
    "pressure.build_transfer": _count_transfer,
    "pressure.pressure_limit": _count_rungs,
    "verify.lemma_212_check": _count_inequalities,
    "verify.decoupling_1d_check": _count_inequalities,
    "potentials.energy": _counter("potentials.energy_calls"),
    "measures.cylinder_prob": _counter("measures.cylinder_prob_calls"),
}


class Tracer:
    """Records spans of wrapped calls; one instance per traced process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.run = "setup"
        self._stack: list[int] = []
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Drop recorded spans and counters (before a new traced run)."""
        self.spans = []
        self.counters = defaultdict(int)

    # -- recording ---------------------------------------------------------

    def begin(self) -> tuple[int, int | None, float]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def end(self, name: str, token: tuple[int, int | None, float]) -> None:
        end = time.perf_counter()
        span_id, parent, start = token
        self._stack.pop()
        self.spans.append(Span(span_id, name, start, end, parent, self.run))

    def wrap(self, fn, name: str):
        count = COUNTERS.get(name)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    token = self.begin()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self.end(name, token)
                    if count is not None:
                        count(self.counters, args, item)
                    yield item
            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = self.begin()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(name, token)
            if count is not None:
                count(self.counters, args, result)
            return result
        return traced

    # -- installation --------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the traced functions in every ``shiftgibbs`` module that
        binds them; the modules must already be imported."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        from shiftgibbs.shifts import SoficPresentation

        wrapped: dict[int, object] = {}
        for modname, layer in LAYERS.items():
            module = sys.modules[modname]
            names = [n for n, v in vars(module).items()
                     if not n.startswith("_") and inspect.isfunction(v)
                     and v.__module__ == modname]
            names += EXTRA_FUNCTIONS.get(modname, ())
            for n in names:
                fn = getattr(module, n)
                wrapped[id(fn)] = self.wrap(fn, f"{layer}.{n.lstrip('_')}")
        for modname, module in list(sys.modules.items()):
            if modname != "shiftgibbs" and not modname.startswith("shiftgibbs."):
                continue
            for n, v in list(vars(module).items()):
                if id(v) in wrapped:
                    self._set(module, n, wrapped[id(v)])

        for n in PRESENTATION_METHODS:
            self._set(SoficPresentation, n,
                      self.wrap(SoficPresentation.__dict__[n], f"shifts.{n}"))
        det = SoficPresentation.__dict__["_det"]
        traced_det = functools.cached_property(self.wrap(det.func, "shifts.automaton"))
        traced_det.__set_name__(SoficPresentation, "_det")
        self._set(SoficPresentation, "_det", traced_det)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


# ---------------------------------------------------------------------------
# self time and the per-layer table
# ---------------------------------------------------------------------------

def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        edge = s.start
        for c in sorted(children[s.id], key=lambda c: c.start):
            lo, hi = max(c.start, edge), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def _per_word_ns(seconds: float, words: int) -> float:
    return seconds / words * 1e9 if words else 0.0


def layer_metrics(spans: list[Span], setup_counters: dict[str, int],
                  counters: dict[str, int]) -> dict[str, float]:
    """The per-layer table of one traced run: set-up metrics from the spans
    of run ``setup`` and ``setup_counters``, everything else from the job
    spans and ``counters``.  Times are self times, except the set-up times,
    ``measures.equilibrium_s`` and ``cli.cmd_s.*``, which are inclusive.
    Counts are summed over the run; ``*_states`` are the largest seen."""
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    setup = [s for s in spans if s.run == "setup"]
    job = [s for s in spans if s.run != "setup"]

    def total(group, names, inclusive=False, outermost=False) -> float:
        picked = [s for s in group if s.name in names]
        if outermost:
            picked = [s for s in picked
                      if s.parent is None or by_id[s.parent].name not in names]
        return sum((s.end - s.start) if inclusive else own[s.id] for s in picked)

    def names_of(layer):
        return {s.name for s in spans if s.name.split(".")[0] == layer}

    m: dict[str, float] = {}
    m["fileio.load_s"] = total(setup, names_of("fileio"), inclusive=True,
                               outermost=True)
    m["shifts.automaton_s"] = total(setup, {"shifts.automaton"}, inclusive=True)
    m["shifts.automaton_states"] = setup_counters.get("shifts.automaton_states", 0)

    m["shifts.enumerate_s"] = total(job, ENUMERATION_SPANS)
    m["shifts.words"] = counters.get("shifts.words", 0)
    m["shifts.enumerate_ns_per_word"] = _per_word_ns(m["shifts.enumerate_s"],
                                                     m["shifts.words"])
    m["kernels.forward_s"] = total(job, {"kernels.batch_forward_logprob"})
    m["kernels.forward_ns_per_word"] = _per_word_ns(
        m["kernels.forward_s"], counters.get("kernels.forward_words", 0))
    m["kernels.forward_flops"] = counters.get("kernels.forward_flops", 0)
    m["kernels.forward_bytes"] = counters.get("kernels.forward_bytes", 0)
    m["kernels.energy_s"] = total(job, {"kernels.batch_energy"})
    m["kernels.energy_ns_per_word"] = _per_word_ns(
        m["kernels.energy_s"], counters.get("kernels.energy_words", 0))
    m["potentials.energy_calls"] = counters.get("potentials.energy_calls", 0)
    m["pressure.transfer_s"] = total(job, {"pressure.build_transfer"})
    m["pressure.cover_states"] = counters.get("pressure.cover_states", 0)
    m["pressure.perron_s"] = total(job, {"pressure.perron"})
    m["pressure.partition_dp_s"] = total(job, {"pressure.dp_log_partition"})
    m["pressure.ladder_rungs"] = counters.get("pressure.ladder_rungs", 0)
    m["pressure.brute_partition_s"] = total(job, {"pressure.brute_partition"})
    m["measures.equilibrium_s"] = total(job, {"measures.equilibrium_measure"},
                                        inclusive=True)
    m["measures.cylinder_log_probs_s"] = total(job, {"measures.cylinder_log_probs"})
    m["measures.cylinder_prob_calls"] = counters.get("measures.cylinder_prob_calls", 0)
    m["verify.scan_self_s"] = total(job, {"verify.weak_gibbs_scan"})
    m["verify.lemma212_self_s"] = total(job, {"verify.lemma_212_check"})
    m["verify.lemma1d_self_s"] = total(job, {"verify.decoupling_1d_check"})
    m["verify.tangent_self_s"] = total(job, {"verify.tangent_derivative_check"})
    m["verify.inequalities"] = counters.get("verify.inequalities", 0)
    for cmd in CLI_COMMANDS:
        m[f"cli.cmd_s.{cmd}"] = total(job, {f"cli.cmd_{cmd}"}, inclusive=True)
    for layer in LAYERS.values():
        m[f"{layer}.self_s"] = total(job, names_of(layer))
    roots = [s for s in job if s.parent is None]
    m["trace.job_s"] = sum(s.end - s.start for s in roots)
    m["trace.unattributed_s"] = sum(own[s.id] for s in roots
                                    if s.name.split(".")[0] not in LAYERS.values())
    m["trace.spans"] = len(job)
    return m


def _unit(name: str) -> str:
    if name.endswith("_s") or name.startswith("cli.cmd_s."):
        return "s"
    if name.endswith("_ns_per_word"):
        return "ns"
    return {"kernels.forward_flops": "flop", "kernels.forward_bytes": "B"}.get(
        name, "count")


# the per-layer metrics a traced run reports, with their units
METRICS = {name: _unit(name) for name in (
    "fileio.load_s", "shifts.automaton_s", "shifts.automaton_states",
    "shifts.enumerate_s", "shifts.words", "shifts.enumerate_ns_per_word",
    "kernels.forward_s", "kernels.forward_ns_per_word", "kernels.forward_flops",
    "kernels.forward_bytes", "kernels.energy_s", "kernels.energy_ns_per_word",
    "potentials.energy_calls",
    "pressure.transfer_s", "pressure.cover_states", "pressure.perron_s",
    "pressure.partition_dp_s", "pressure.ladder_rungs",
    "pressure.brute_partition_s",
    "measures.equilibrium_s", "measures.cylinder_log_probs_s",
    "measures.cylinder_prob_calls",
    "verify.scan_self_s", "verify.lemma212_self_s", "verify.lemma1d_self_s",
    "verify.tangent_self_s", "verify.inequalities",
    *(f"cli.cmd_s.{cmd}" for cmd in CLI_COMMANDS),
    *(f"{layer}.self_s" for layer in LAYERS.values()),
    "trace.job_s", "trace.unattributed_s", "trace.spans", "trace_overhead_s",
    "cli.digest_changes",
)}

"""Per-layer tracing of gsmon from outside the program.

The tracer wraps the public functions of each layer where they are defined,
every binding made by ``from .x import name``, the methods of every
``MonadInstance`` subclass, and the edge, solver and sampler callables of
each ``Square`` that ``build_square`` returns (including the closure cells
the solver and sampler call them through).  Each wrapped call records a
span (name, parent, start, end) in flat arrays; self time is the span's
duration minus the time covered by its child spans.  Spans belong to one
CLI invocation and are folded into totals after it ends.

Generator functions get one span per resumption, and closing a started or
unstarted generator counts as one more, which is how cProfile counts them;
``compare_with_cprofile`` relies on that to show a missed binding.
"""

from __future__ import annotations

import array
import inspect
import operator
import pstats
import random
import sys
import time
from collections import Counter, defaultdict

# (metric name, module, attribute)
FUNCTIONS = (
    ("finset.product", "finset", "product"),
    ("monoid.assoc_square_is_pullback", "monoid", "assoc_square_is_pullback"),
    ("monads.check_monad_laws", "monads", "check_monad_laws"),
    ("monads.classify", "monads", "classify"),
    ("kernels.compose", "kernels", "compose"),
    ("kernels.tensor", "kernels", "tensor"),
    ("kernels.equivalent", "kernels", "equivalent"),
    ("squares.build_square", "squares", "build_square"),
    ("squares.check_pullback", "squares", "check_pullback"),
    ("squares.check_commutes", "squares", "check_commutes"),
    ("independence.check_ci", "independence", "check_ci"),
    ("independence.check_ci.equivalence", "independence", "_ci_equivalence"),
    ("independence.check_ci.rank1", "independence", "_ci_rank1"),
    ("independence.check_ci.exhaustive", "independence", "_ci_exhaustive"),
    ("independence.marginal", "independence", "marginal"),
    ("independence.product_of_factors", "independence", "product_of_factors"),
    ("independence.check_local_independence", "independence", "check_local_independence"),
    ("jsonio.kernel_from_json", "jsonio", "kernel_from_json"),
    ("jsonio.dump_json", "jsonio", "dump_json"),
    ("cli.main", "cli", "main"),
)
# (metric name, module, class, method)
METHODS = (
    ("monoid.FiniteMonoid.index", "monoid", "FiniteMonoid", "index"),
    ("kernels.Kernel.__init__", "kernels", "Kernel", "__init__"),
    ("report.CheckReport.to_json", "report", "CheckReport", "to_json"),
)
# Wrapped on MonadInstance and every subclass that defines them.
MONAD_METHODS = ("make", "validate", "lax_c", "extend", "map", "sample", "enumerate_values")
SQUARE_CALLABLES = ("top", "left", "right", "bottom", "solver", "cone_sampler")

LAYERS = (
    [name for name, *_ in FUNCTIONS]
    + [name for name, *_ in METHODS]
    + [f"monads.{m}" for m in MONAD_METHODS]
    + [f"squares.Square.{a}" for a in SQUARE_CALLABLES]
)


def code_key(code) -> tuple:
    """The key cProfile files a code object under."""
    return (code.co_filename, code.co_firstlineno, code.co_name)


class _TracedGenerator:
    """Iterator over a wrapped generator: one span per resumption."""

    __slots__ = ("_open", "_close", "_gen")

    def __init__(self, open_span, close_span, gen):
        self._open = open_span
        self._close = close_span
        self._gen = gen

    def __iter__(self):
        return self

    def __next__(self):
        i = self._open()
        try:
            return next(self._gen)
        finally:
            self._close(i)

    def close(self):
        gen = self._gen
        if inspect.getgeneratorstate(gen) != inspect.GEN_CLOSED:
            i = self._open()
            try:
                gen.close()
            finally:
                self._close(i)

    def __del__(self):
        self.close()


class Tracer:
    def __init__(self):
        self.names = array.array("i")
        self.parents = array.array("i")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.stack = [-1]
        self.raised = []  # spans that ended by an exception
        self.pullback_exhaustive = {}  # check_pullback span -> exhaustive mode
        self.sample_base = {}  # sample span -> size of the base set
        self.draws = defaultdict(int)  # span -> random.Random.randint calls inside it

        self.metric_index = {name: k for k, name in enumerate(LAYERS)}
        self.id_of = {}  # (metric, code key) -> span name id
        self.id_metric = []  # id -> metric index
        self.id_code = []  # id -> code key
        self.distribution_sample = None  # id of D's sampler, which retries without a call
        self.code_keys = set()  # every code object wrapped, for the cProfile check
        self._installed = []  # (owner, attribute, original)

        self.calls = [0] * len(LAYERS)
        self.self_s = [0.0] * len(LAYERS)
        self.code_calls = defaultdict(int)
        self.counts = defaultdict(int)

    # -- spans --------------------------------------------------------------

    def _id(self, metric, code) -> int:
        key = (metric, code_key(code))
        nid = self.id_of.get(key)
        if nid is None:
            nid = self.id_of[key] = len(self.id_metric)
            self.id_metric.append(self.metric_index[metric])
            self.id_code.append(key[1])
            self.code_keys.add(key[1])
        return nid

    def _span_fns(self, nid):
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self.stack)
        clock = time.perf_counter

        def open_span():
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            return i

        def close_span(i):
            ends[i] = clock()
            stack.pop()

        return open_span, close_span

    def wrap(self, fn, metric, hook=None, code=None):
        """A stand-in for `fn` that records one span per call.

        `hook(span, args, kwargs)` records extra facts about a call; `code`
        names the code object the span counts against when `fn` is itself
        a stand-in."""
        nid = self._id(metric, code or fn.__code__)
        raised = self.raised

        if inspect.isgeneratorfunction(fn):
            open_span, close_span = self._span_fns(nid)

            def traced(*args, **kwargs):
                return _TracedGenerator(open_span, close_span, fn(*args, **kwargs))
        else:
            names, parents, starts, ends, stack = (
                self.names, self.parents, self.starts, self.ends, self.stack)
            clock = time.perf_counter

            def traced(*args, **kwargs):
                # open_span and close_span, inlined: this runs millions of
                # times in a pass and the calls would double the overhead.
                i = len(names)
                names.append(nid)
                parents.append(stack[-1])
                ends.append(0.0)
                stack.append(i)
                if hook is not None:
                    hook(i, args, kwargs)
                starts.append(clock())
                try:
                    return fn(*args, **kwargs)
                except BaseException:
                    raised.append(i)
                    raise
                finally:
                    ends[i] = clock()
                    stack.pop()
        traced.__wrapped__ = fn
        return traced

    # -- installation -------------------------------------------------------

    def _replace(self, owner, attr, new):
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _record_mode(self, i, args, kwargs):
        mode = kwargs.get("mode", args[1] if len(args) > 1 else "exhaustive")
        self.pullback_exhaustive[i] = mode == "exhaustive"

    def _record_base(self, i, args, kwargs):
        self.sample_base[i] = len(args[1])

    def wrap_square(self, square):
        originals = {}
        for attr in SQUARE_CALLABLES:
            fn = getattr(square, attr)
            if fn is not None:
                traced = self.wrap(fn, f"squares.Square.{attr}")
                setattr(square, attr, traced)
                originals[id(fn)] = traced
        # The solver and sampler also call the edges through closure cells.
        for traced in originals.values():
            for cell in traced.__wrapped__.__closure__ or ():
                try:
                    content = cell.cell_contents
                except ValueError:  # empty cell
                    continue
                if id(content) in originals:
                    cell.cell_contents = originals[id(content)]
        return square

    def install(self):
        modules = {
            name: mod for name, mod in sys.modules.items()
            if name == "gsmon" or name.startswith("gsmon.")
        }
        hooks = {"squares.check_pullback": self._record_mode}
        for metric, mod, attr in FUNCTIONS:
            fn = getattr(modules[f"gsmon.{mod}"], attr)
            if metric == "squares.build_square":
                def build_square(*args, _build=fn, **kwargs):
                    return self.wrap_square(_build(*args, **kwargs))
                traced = self.wrap(build_square, metric, code=fn.__code__)
            else:
                traced = self.wrap(fn, metric, hooks.get(metric))
            for module in modules.values():
                for name, value in list(vars(module).items()):
                    if value is fn:
                        self._replace(module, name, traced)
        for metric, mod, cls_name, attr in METHODS:
            cls = getattr(modules[f"gsmon.{mod}"], cls_name)
            self._replace(cls, attr, self.wrap(cls.__dict__[attr], metric))
        monads = modules["gsmon.monads"]
        self.distribution_sample = self._id(
            "monads.sample", monads.DistributionMonad.__dict__["sample"].__code__)
        classes = [monads.MonadInstance]
        for cls in classes:
            classes.extend(cls.__subclasses__())
            for attr in MONAD_METHODS:
                if attr in cls.__dict__:
                    hook = self._record_base if attr == "sample" else None
                    self._replace(cls, attr, self.wrap(cls.__dict__[attr], f"monads.{attr}", hook))
        # The D sampler retries without a call boundary; count its draws.
        randint = random.Random.randint
        draws, stack = self.draws, self.stack

        def counted_randint(rng, a, b):
            draws[stack[-1]] += 1
            return randint(rng, a, b)

        self._replace(random.Random, "randint", counted_randint)

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- folding spans into totals -------------------------------------------

    def flush(self):
        """Fold the spans of one finished CLI invocation into the totals."""
        n = len(self.names)
        if n:
            self._fold(n)
        del self.names[:], self.parents[:], self.starts[:], self.ends[:]
        self.raised.clear()
        self.pullback_exhaustive.clear()
        self.sample_base.clear()
        self.draws.clear()

    def _fold(self, n):
        names, parents = self.names, self.parents
        durations = array.array("d", map(operator.sub, self.ends, self.starts))
        covered = array.array("d", bytes(8 * n))
        for i, p in enumerate(parents):
            if p >= 0:
                covered[p] += durations[i]
        id_metric = self.id_metric
        for nid, count in Counter(names).items():
            self.calls[id_metric[nid]] += count
            self.code_calls[self.id_code[nid]] += count
        self_s = self.self_s
        for nid, d, c in zip(names, durations, covered):
            self_s[id_metric[nid]] += d - c
        self.counts["spans"] += n
        metric = [id_metric[nid] for nid in names]
        self._fold_cone_loop(metric)
        self._fold_samplers(metric)
        self._fold_local_independence(metric)

    def _fold_cone_loop(self, metric):
        loops = {i for i, exhaustive in self.pullback_exhaustive.items() if exhaustive}
        if not loops:
            return
        index = self.metric_index
        bottom = index["squares.Square.bottom"]
        top = index["squares.Square.top"]
        left = index["squares.Square.left"]
        pairs = cones = apex = 0
        previous = None  # (metric, parent) of the loop's previous direct call
        for i, p in enumerate(self.parents):
            if p not in loops:
                continue
            m = metric[i]
            if m == bottom:
                pairs += 1
            elif m == top or m == left:
                apex += 1
                # A compatible pair is a bottom-edge call followed by the apex scan.
                if m == top and previous == (bottom, p):
                    cones += 1
            previous = (m, p)
        self.counts["pairs_scanned"] += pairs
        self.counts["cones"] += cones
        self.counts["apex_evals"] += apex

    def _fold_samplers(self, metric):
        sample = self.metric_index["monads.sample"]
        parents = self.parents
        # A sampler call not made by another sampler call.
        outer = {i for i, m in enumerate(metric)
                 if m == sample and (parents[i] < 0 or metric[parents[i]] != sample)}
        if not outer:
            return
        self.counts["sample_outer_calls"] += len(outer)
        # M* and P* retry when a call made directly by the sampler raises.
        self.counts["sample_rejects"] += sum(parents[i] in outer for i in self.raised)
        for span, base in self.sample_base.items():
            if self.names[span] == self.distribution_sample and base:
                # Each D attempt draws a numerator and a denominator per element.
                self.counts["sample_rejects"] += self.draws[span] // (2 * base) - 1

    def _fold_local_independence(self, metric):
        li = self.metric_index["independence.check_local_independence"]
        ci = self.metric_index["independence.check_ci"]
        queries = {i for i, m in enumerate(metric) if m == li}
        if not queries:
            return
        parents = self.parents
        per_query = Counter(parents[i] for i, m in enumerate(metric)
                            if m == ci and parents[i] in queries)
        # Two CI calls: a premise failed and the conclusion was never asked.
        self.counts["vacuous"] += sum(count == 2 for count in per_query.values())

    # -- results -------------------------------------------------------------

    def compare_with_cprofile(self, profile) -> list:
        """Code objects whose traced call count differs from cProfile's."""
        stats = pstats.Stats(profile).stats
        mismatches = []
        for key in sorted(self.code_keys):
            profiled = stats[key][1] if key in stats else 0
            traced = self.code_calls.get(key, 0)
            if profiled != traced:
                mismatches.append((key, traced, profiled))
        return mismatches

    def metrics(self) -> dict:
        out = {}
        for k, layer in enumerate(LAYERS):
            out[f"{layer}.calls"] = self.calls[k]
            out[f"{layer}.self_s"] = self.self_s[k]
        c = self.counts
        out["squares.pairs_scanned"] = c["pairs_scanned"]
        out["squares.cones"] = c["cones"]
        out["squares.cone_yield"] = _ratio(c["cones"], c["pairs_scanned"])
        out["squares.apex_evals"] = c["apex_evals"]
        out["squares.apex_evals_per_cone"] = _ratio(c["apex_evals"], c["cones"])
        out["monads.sample_outer_calls"] = c["sample_outer_calls"]
        out["monads.sample_rejects"] = c["sample_rejects"]
        out["monads.sample_reject_frac"] = _ratio(c["sample_rejects"], c["sample_outer_calls"])
        li_calls = self.calls[self.metric_index["independence.check_local_independence"]]
        out["independence.vacuous"] = c["vacuous"]
        out["independence.vacuous_frac"] = _ratio(c["vacuous"], li_calls)
        out["trace.spans"] = c["spans"]
        return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0

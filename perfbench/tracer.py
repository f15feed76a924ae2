"""Span tracer for the traced benchmark run.

Wraps the public functions of every ``fqg`` module from outside, rebinding
each wrapped object under every name that refers to it in any ``fqg``
module namespace (``from .linalg import rank_of_vectors`` creates a second
binding in the consumer module, which must be rebound too).  Spans are kept
in memory as ``(span_id, parent_id, name, start_ns, end_ns)`` tuples and
written out once, at the end of the run; self times are computed from them
afterwards as span time minus the time of direct child spans.

The traced passes also sample the scalar operands the program multiplies
(:class:`OperandSample`), for the scalar microbenchmark of ``run.py``.

The tracer is installed only for the traced passes of a ``--trace 1`` run;
timed passes never see a wrapper.
"""

from __future__ import annotations

import functools
import heapq
import inspect
import json
import math
import os
import random
import sys
import time
import types
from collections import Counter, defaultdict

# Kernels called millions of times per pass: a span around each would cost
# more than the work it measures.  Their time lands in the caller's self time.
HOT_KERNELS = frozenset({
    "linalg.vec_add_into", "linalg.vec_scale", "linalg.vec_sub", "linalg.vec_conj",
    "linalg.vec_is_zero", "linalg.vec_eq", "linalg.vec_from_dense",
    "algebra.tensor_vec",
})
# Modules whose functions are not spanned: the scalar layer is measured by a
# microbenchmark instead, and report only builds result records.
UNSPANNED_MODULES = frozenset({"scalar", "report"})

# Methods traced by name; everything else on classes stays untouched.
METHOD_SPANS = (("linalg", "LinearMap", "inverse"),)
METHOD_COUNTS = (("algebra", "StarAlgebra", "multiply_vec"),)
# Where scalar operands are sampled: the sparse-vector products (the bulk of
# the multiplies on hopf-ladder), linear maps applied to vectors, and the
# Bareiss elimination behind rank_of_vectors, whose matrix holds the Gaussian
# integers it grew.
OPERAND_SITES = ("algebra.tensor_mult", "algebra.StarAlgebra.multiply_vec",
                 "linalg.LinearMap.apply", "linalg._rank_bareiss")


def fqg_modules(package):
    """The package and its submodules, as loaded."""
    prefix = package.__name__ + "."
    mods = [package]
    mods += [m for name, m in sorted(sys.modules.items())
             if name.startswith(prefix) and isinstance(m, types.ModuleType)]
    return mods


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def lru_of(fn):
    """The functools LRU object behind an lru_cache or backend_cached function."""
    if hasattr(fn, "cache_info"):
        return fn
    clear = getattr(fn, "cache_clear", None)
    owner = getattr(clear, "__self__", None)
    return owner if hasattr(owner, "cache_info") else None


def _memoises_per_object(fn) -> bool:
    """True for functions that keep results in an object's ``_cache`` dict
    (or in a private LRU, as ``enumerate_automorphisms`` does)."""
    try:
        return "_cache" in inspect.getsource(fn)
    except (OSError, TypeError):
        return False


def _pick(rng, vec):
    """A random coefficient of a sparse vector."""
    return vec[rng.choice(list(vec))]


def _vector_pair(rng, u, v):
    return _pick(rng, u), _pick(rng, v)


def _matrix_pair(rng, m):
    return rng.choice(rng.choice(m)), rng.choice(rng.choice(m))


def _apply_pair(rng, cols, vec):
    j = rng.choice([j for j in vec if cols[j]])
    return vec[j], _pick(rng, cols[j])


class OperandSample:
    """A weighted reservoir of scalar operand pairs (A-ExpJ of Efraimidis and
    Spirakis): each call offers one pair with a weight that estimates the
    multiplies it makes, so the sample follows the multiply traffic.  The
    pair is drawn only when the reservoir takes it, which keeps the cost of
    the 10^6 calls a pass makes to ``multiply_vec`` at a subtraction each."""

    def __init__(self, seed, size=2048):
        self.rng = random.Random(seed)
        self.size = size
        self.heap = []  # (key, serial, pair); smallest key first
        self._serial = 0
        self._skip = 0.0

    def offer(self, weight, draw, *args):
        if weight <= 0:
            return
        rng = self.rng
        if len(self.heap) < self.size:
            key = (1.0 - rng.random()) ** (1.0 / weight)
        else:
            self._skip -= weight
            if self._skip > 0:
                return
            low = self.heap[0][0] ** weight
            key = rng.uniform(low, 1.0) ** (1.0 / weight)
        pair = draw(rng, *args)
        self._serial += 1
        if len(self.heap) < self.size:
            heapq.heappush(self.heap, (key, self._serial, pair))
        else:
            heapq.heapreplace(self.heap, (key, self._serial, pair))
        if len(self.heap) == self.size:
            self._skip = math.log(1.0 - rng.random()) / math.log(self.heap[0][0])

    def pairs(self):
        """The sampled pairs, in the order they were taken."""
        return [pair for _key, _serial, pair in sorted(self.heap, key=lambda e: e[1])]


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self, package, seed=0):
        self.package = package
        self.spans = []
        self.counts = Counter()
        self.operands = OperandSample(seed)
        self._stack = [0]
        self._next_id = 0
        self._seen = defaultdict(dict)
        self._restore = []

    # -- installation ----------------------------------------------------

    def _targets(self):
        """Map id(original) -> (qualified name, original) for every public
        function defined in an fqg module."""
        found = {}
        for mod in fqg_modules(self.package):
            short = _short(mod.__name__)
            if mod is self.package or short in UNSPANNED_MODULES:
                continue
            for name, obj in vars(mod).items():
                if name.startswith("_") or isinstance(obj, type):
                    continue
                if not callable(obj) or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                qual = "%s.%s" % (short, name)
                if qual in HOT_KERNELS:
                    continue
                found[id(obj)] = (qual, obj)
        return found

    def install(self):
        targets = self._targets()
        wrappers = {key: self._wrap(qual, fn) for key, (qual, fn) in targets.items()}
        for mod in fqg_modules(self.package):
            for name, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, wrapper)
        mods = {_short(m.__name__): m for m in fqg_modules(self.package)}
        for modname, cls, meth in METHOD_SPANS + METHOD_COUNTS:
            klass = getattr(mods[modname], cls)
            orig = klass.__dict__[meth]
            qual = "%s.%s.%s" % (modname, cls, meth)
            if (modname, cls, meth) in METHOD_SPANS:
                wrapper = self._wrap(qual, orig)
            else:
                wrapper = self._counter(qual, orig)
            self._restore.append((klass, meth, orig))
            setattr(klass, meth, wrapper)
        linalg = mods["linalg"]
        for owner, name, make in ((linalg, "_rank_bareiss", self._bareiss_sampler),
                                  (linalg.LinearMap, "apply", self._apply_sampler)):
            orig = vars(owner)[name]
            self._restore.append((owner, name, orig))
            setattr(owner, name, make(orig))

    def uninstall(self):
        for owner, name, orig in reversed(self._restore):
            setattr(owner, name, orig)
        self._restore.clear()

    # -- wrappers --------------------------------------------------------

    def _counter(self, qual, fn):
        counts = self.counts
        key = qual + ".calls"
        offer = self.operands.offer
        sampled = qual in OPERAND_SITES

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            if sampled:  # multiply_vec(self, u, v)
                u, v = args[1], args[2]
                offer(len(u) * len(v), _vector_pair, u, v)
            return fn(*args, **kwargs)

        return wrapper

    def _bareiss_sampler(self, fn):
        """Samples the eliminated matrix after each exact rank computation;
        weight rows x cols x rank, the order of its multiplies."""
        offer = self.operands.offer

        @functools.wraps(fn)
        def wrapper(m, ncols):
            rank = fn(m, ncols)
            offer(len(m) * ncols * max(rank, 1), _matrix_pair, m)
            return rank

        return wrapper

    def _apply_sampler(self, fn):
        """Samples (coefficient, column entry) products of LinearMap.apply;
        weight len(vec) x the length of one column it scales."""
        offer = self.operands.offer

        @functools.wraps(fn)
        def wrapper(lmap, vec):
            if vec:
                cols = lmap.cols
                col = cols[next(iter(vec))]
                if col:  # then _apply_pair has a non-empty column to pick
                    offer(len(vec) * len(col), _apply_pair, cols, vec)
            return fn(lmap, vec)

        return wrapper

    def _wrap(self, qual, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns
        calls_key = qual + ".calls"
        account = self._accounting(qual, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._next_id += 1
            sid = self._next_id
            parent = stack[-1]
            counts[calls_key] += 1
            if account is not None:
                args, after = account(args, kwargs)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, qual, start, end))
            if account is not None and after is not None:
                after(result)
            return result

        return wrapper

    def _accounting(self, qual, fn):
        """Extra counters for the functions that carry layer metrics."""
        counts = self.counts
        if qual == "linalg.rank_of_vectors":
            def account(args, kwargs):
                vectors = list(args[0])
                dim = args[1]
                counts["linalg.rank.cells"] += len(vectors) * dim

                def after(rank):
                    if rank == min(len(vectors), dim):
                        counts["linalg.rank.full"] += 1
                return (vectors,) + tuple(args[1:]), after
            return account
        if qual in OPERAND_SITES:  # tensor_mult(a, b, u, v)
            offer = self.operands.offer

            def account(args, kwargs):
                u, v = args[2], args[3]
                offer(len(u) * len(v), _vector_pair, u, v)
                return args, None
            return account
        if qual == "serialize.load_json_file":
            def account(args, kwargs):
                try:
                    counts["serialize.bytes_in"] += os.path.getsize(args[0])
                except OSError:
                    pass
                return args, None
            return account
        if qual == "serialize.canonical_json":
            def account(args, kwargs):
                def after(text):
                    counts["serialize.bytes_out"] += len(text.encode("utf-8"))
                return args, after
            return account
        lru = lru_of(fn)
        if lru is not None:
            def account(args, kwargs):
                before = lru.cache_info().hits
                counts["cache.calls"] += 1

                def after(_result):
                    counts["cache.hits"] += lru.cache_info().hits - before
                return args, after
            return account
        if _memoises_per_object(fn):
            seen = self._seen[qual]

            def account(args, kwargs):
                counts["cache.calls"] += 1
                if args:
                    extra = tuple(a for a in args[1:] if isinstance(a, (str, int, bool)))
                    key = (id(args[0]),) + extra + tuple(sorted(kwargs.items()))
                    if key in seen:
                        counts["cache.hits"] += 1
                    else:
                        # keep the object alive so its id is not reused
                        seen[key] = args[0]
                return args, None
            return account
        return None

    # -- results ---------------------------------------------------------

    def reset_pass(self):
        """Forget objects seen in the previous pass (their caches are gone)."""
        for seen in self._seen.values():
            seen.clear()

    def self_times(self, since: int = 0):
        """Self seconds per span name over spans[since:]."""
        spans = self.spans[since:]
        child = defaultdict(int)
        for _sid, parent, _name, start, end in spans:
            child[parent] += end - start
        out = defaultdict(float)
        for sid, _parent, name, start, end in spans:
            out[name] += (end - start - child.get(sid, 0)) / 1e9
        return out

    def write(self, path: str):
        """Write every recorded span as one JSON line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start_ns": start, "end_ns": end}) + "\n")

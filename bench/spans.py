"""Span recorder for the traced run.

While installed, it replaces public functions of the program's modules by
wrappers that record one span per call: name, start, end, parent span and
op id.  Every module attribute bound to a wrapped function is replaced,
so calls between modules (hilbert's `parse_formula`, generator's
`semantics.evaluate`) are recorded as well.  Spans stay in memory, in
flat arrays, until `write` saves them when the run ends.
"""

import gzip
from array import array
from time import perf_counter_ns

# layer -> public functions whose calls are spans of that layer
LAYERS = {
    "syntax": ("parse_formula", "print_formula"),
    "game": ("load_game",),
    "semantics": (
        "evaluate",
        "blame_witness",
        "extension",
        "is_valid",
        "semantic_entailment",
    ),
    "hilbert": (
        "parse_proof",
        "check_proof",
        "is_tautology_instance",
        "match_schema",
        "deduction_transform",
        "format_proof",
        "build_axiom",
    ),
    "generator": ("soundness_sweep", "find_countermodel", "gen_game", "gen_formula"),
}

OP = "op"  # the benchmark's own span around each operation


class Recorder:
    def __init__(self):
        self.names = [OP]
        self.name_of = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op_of = array("i")
        self.stack = []
        self.op_id = -1
        self.counters = {}
        self._patched = []

    def open(self, name_id):
        idx = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op_of.append(self.op_id)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx):
        self.end[idx] = perf_counter_ns()
        self.stack.pop()

    def count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def _wrapper(self, fn, name, after):
        name_id = len(self.names)
        self.names.append(name)
        open_, close = self.open, self.close

        def wrapper(*args, **kwargs):
            idx = open_(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if after is not None:
                after(self, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, modules, after=None):
        """Wrap every LAYERS function wherever `modules` bind it."""
        after = after or {}
        home = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        for layer, functions in LAYERS.items():
            for fn_name in functions:
                original = getattr(home[layer], fn_name)
                wrapper = self._wrapper(
                    original, f"{layer}.{fn_name}", after.get(fn_name)
                )
                for module in modules:
                    for attr, value in vars(module).items():
                        if value is original:
                            self._patched.append((module, attr, value))
                            setattr(module, attr, wrapper)

    def restore(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def self_times(self):
        """name -> (self time in ms, calls); self = duration minus children."""
        total = [0] * len(self.names)
        calls = [0] * len(self.names)
        name_of, parent = self.name_of, self.parent
        for i in range(len(self.start)):
            duration = self.end[i] - self.start[i]
            total[name_of[i]] += duration
            calls[name_of[i]] += 1
            if parent[i] >= 0:
                total[name_of[parent[i]]] -= duration
        return {
            name: (total[k] / 1e6, calls[k]) for k, name in enumerate(self.names)
        }

    def write(self, path):
        """Save spans as gzipped TSV: id, name, start_ns, end_ns, parent, op."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tname\tstart_ns\tend_ns\tparent\top\n")
            for i in range(len(self.start)):
                out.write(
                    f"{i}\t{self.names[self.name_of[i]]}\t{self.start[i]}\t"
                    f"{self.end[i]}\t{self.parent[i]}\t{self.op_of[i]}\n"
                )

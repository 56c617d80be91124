"""Outside-in tracing of the qrsums layers.

Spans are recorded from the benchmark's side only: each public function a
layer exposes is wrapped at the module attribute its callers look it up by
(``qrsums.verify.residue_profile``, ``qrsums.analytic.t_float``, ...), so
nothing under ``src/`` is touched and calls inside one layer stay unwrapped.
The wrappers are installed only around traced passes; untraced passes run
the original functions.

A span is ``[name, layer, start_ns, end_ns, parent, pass_id, p, size]``
where ``parent`` is the index of the enclosing span (-1 at the top), ``p``
the prime the call was about when its first argument is an ``OddPrime``, and
``size`` the length of a list result or the value of an integer result
(the prime count of a sieve call, the class number of a form enumeration).
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from math import isqrt
from statistics import median
from typing import Callable, Iterator

# (module, attribute, layer); the module is the caller's namespace.
WRAP_TARGETS: tuple[tuple[str, str, str], ...] = (
    ("qrsums.verify", "primes_in_range", "arith"),
    ("qrsums.scan", "primes_in_range", "arith"),
    ("qrsums.analytic", "legendre", "arith"),
    ("qrsums.verify", "residue_profile", "residues"),
    ("qrsums.scan", "residue_profile", "residues"),
    ("qrsums.analytic", "residue_profile", "residues"),
    ("qrsums.sums", "residue_profile", "residues"),
    ("qrsums.classnum", "residue_profile", "residues"),
    ("qrsums.verify", "sum_record", "sums"),
    ("qrsums.verify", "t_exact", "sums"),
    ("qrsums.verify", "t_from_m", "sums"),
    ("qrsums.scan", "sum_record", "sums"),
    ("qrsums.analytic", "t_exact", "sums"),
    ("qrsums.analytic", "c_exact", "sums"),
    ("qrsums.verify", "h_from_forms", "classnum"),
    ("qrsums.verify", "h_from_residues", "classnum"),
    ("qrsums.scan", "h_from_forms", "classnum"),
    ("qrsums.analytic", "h_from_forms", "classnum"),
    ("qrsums.analytic", "t_float", "analytic"),
    ("qrsums.analytic", "c_float", "analytic"),
    ("qrsums.analytic", "whiteman_sum", "analytic"),
    ("qrsums.analytic", "lebesgue_float", "analytic"),
    ("qrsums.analytic", "berndt_m_float", "analytic"),
    ("qrsums.analytic", "bound_harmonic", "analytic"),
    ("qrsums.analytic", "bound_pv", "analytic"),
    ("qrsums.analytic", "gauss_sum_checks", "analytic"),
    ("qrsums.verify", "run_verify", "verify"),
    ("qrsums.scan", "compute_row", "scan"),
)

LAYERS = ("arith", "residues", "sums", "classnum", "analytic", "verify", "scan", "cli")

# trig evaluations per call, as a function of p (one tan per term)
TRIG_TERMS: dict[str, Callable[[int], int]] = {
    "t_float": lambda p: (p - 1) // 2,
    "c_float": lambda p: (p - 1) // 2,
    "whiteman_sum": lambda p: p - 1,
    "lebesgue_float": lambda p: p - 1,
    "berndt_m_float": lambda p: p - 1,
}
BOUNDS = ("bound_harmonic", "bound_pv")

NAME, LAYER, START, END, PARENT, PASS, PRIME, SIZE = range(8)


def b_tried(p: int) -> int:
    """Odd middle coefficients b in [-a, a] that form enumeration tries for
    discriminant -p: every a up to isqrt(p // 3) plus the guard a above it."""
    total = 0
    for a in range(1, isqrt(p // 3) + 2):
        total += a + 1 if a % 2 else a
    return total


def gauss_terms(p: int) -> int:
    """Terms summed by gauss_sum_checks: p terms for each k in [1, p-1]."""
    return p * (p - 1)


class Tracer:
    """Records spans in memory while installed, one list per traced pass."""

    def __init__(self) -> None:
        self.passes: list[list[list]] = []
        self._stack: list[int] = []

    def begin_pass(self) -> None:
        """Start a new pass; later spans go into (and index within) its list."""
        self.passes.append([])

    def span(self, name: str, layer: str, fn: Callable) -> Callable:
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = self.passes[-1]
            p = getattr(args[0], "value", None) if args else None
            rec = [name, layer, 0, 0, stack[-1] if stack else -1, len(self.passes) - 1, p, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter_ns()
                stack.pop()
            if isinstance(result, list):
                rec[SIZE] = len(result)
            elif isinstance(result, int):
                rec[SIZE] = result
            return result

        return wrapper

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Swap every WRAP_TARGETS attribute for its span wrapper, then restore."""
        saved = []
        try:
            for mod_name, attr, layer in WRAP_TARGETS:
                mod = importlib.import_module(mod_name)
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, self.span(attr, layer, original))
            yield
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def write(self, path) -> None:
        """One JSON object per span; ``parent`` indexes within its pass."""
        keys = ("name", "layer", "start_ns", "end_ns", "parent", "pass", "p", "size")
        with open(path, "w", encoding="utf-8") as fh:
            for spans in self.passes:
                for rec in spans:
                    fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the durations of its direct children.

    Spans nest strictly (one thread), so the children's intervals are
    disjoint and lie inside the parent's: their sum is the covered part.
    """
    own = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            own[rec[PARENT]] -= rec[END] - rec[START]
    return own


def pass_metrics(spans: list[list], band: set[int]) -> dict[str, float]:
    """Per-layer figures of one traced pass.

    ``spans`` holds the pass's spans, with the benchmark's own ``main`` span
    (layer ``cli``) at the top; ``band`` is the set of primes = 3 (mod 4)
    whose full work the pass does, the base of every ``calls_per_prime``.
    """
    own = self_times(spans)
    layer_s = dict.fromkeys(LAYERS, 0.0)
    trig_s = gauss_s = bounds_s = 0.0
    trig_evals = terms = table = b = forms = primes = 0
    residue_calls = sums_calls = form_calls = 0
    for rec, ns in zip(spans, own):
        name, layer, p = rec[NAME], rec[LAYER], rec[PRIME]
        sec = ns / 1e9
        layer_s[layer] += sec
        in_band = p in band
        if name in TRIG_TERMS:
            trig_s += sec
            trig_evals += TRIG_TERMS[name](p)
        elif name in BOUNDS:
            bounds_s += sec
        elif name == "gauss_sum_checks":
            gauss_s += sec
            terms += gauss_terms(p)
        elif name == "residue_profile":
            table += p
            residue_calls += in_band
        elif name == "h_from_forms":
            b += b_tried(p)
            forms += rec[SIZE]
            form_calls += in_band
        elif layer == "sums":
            sums_calls += in_band
        elif name == "primes_in_range":
            primes += rec[SIZE]
    n = max(len(band), 1)

    def per(num: float, den: float) -> float:
        return num / den if den else 0.0

    return {
        "arith.self_s": layer_s["arith"],
        "arith.primes": primes,
        "residues.self_s": layer_s["residues"],
        "residues.calls_per_prime": residue_calls / n,
        "residues.table_bytes": table,
        "residues.ns_per_entry": per(layer_s["residues"] * 1e9, table),
        "sums.self_s": layer_s["sums"],
        "sums.calls_per_prime": sums_calls / n,
        "classnum.self_s": layer_s["classnum"],
        "classnum.calls_per_prime": form_calls / n,
        "classnum.b_tried": b,
        "classnum.forms_found": forms,
        "classnum.hit_ratio": per(forms, b),
        "analytic.trig_s": trig_s,
        "analytic.trig_evals": trig_evals,
        "analytic.ns_per_trig": per(trig_s * 1e9, trig_evals),
        "analytic.gauss_s": gauss_s,
        "analytic.gauss_terms": terms,
        "analytic.ns_per_gauss_term": per(gauss_s * 1e9, terms),
        "analytic.bounds_s": bounds_s,
        "verify.self_s": layer_s["verify"],
        "scan.self_s": layer_s["scan"],
        "cli.self_s": layer_s["cli"],
    }


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {key: median(m[key] for m in per_pass) for key in per_pass[0]}

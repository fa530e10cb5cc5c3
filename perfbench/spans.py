"""In-memory span tracer for the benchmark's traced pass.

`Tracer.install` wraps the public functions of the measured bnslab layers
at every module that binds them (the package imports by name, so patching
only the defining module would miss most calls), `SpectralField.physical`
on its class, and the n-dimensional transforms of scipy.fft and
numpy.fft.  Each call made while a root span is open records one span:
name, start, end, the id of the enclosing span, and for a few layers a
small info dict.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import hashlib
import math
import sys
import time
import types
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

PACKAGE = "bnslab"
LAYERS = ("field", "littlewood_paley", "spacetime", "solver", "expansion",
          "profiles")
# complex-to-complex transforms cost 5 n log2 n flops each; the real-data
# pair is counted at half that, so a switch to the half spectrum shows
FFT_FUNCS = {"fftn": 5.0, "ifftn": 5.0, "rfftn": 2.5, "irfftn": 2.5}


@dataclass
class Span:
    sid: int
    parent: int  # -1 for a root span
    name: str
    start: float
    end: float
    info: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _fft_info(flops_per_point, args, kwargs, result):
    x = args[0]
    axes = kwargs.get("axes", args[2] if len(args) > 2 else None)
    axes = range(x.ndim) if axes is None else axes
    n = math.prod(x.shape[a] for a in axes)
    return {"points": int(x.size), "bytes": int(x.nbytes + result.nbytes),
            "flops": flops_per_point * x.size * math.log2(n) if n > 1 else 0.0}


def _matrix_key(args, kwargs, result):
    # distinct (trajectory, p) pairs, keyed by a strided sample of the
    # coefficients so that equal data in two objects counts once
    traj = args[0]
    p = kwargs.get("p", args[1] if len(args) > 1 else None)
    flat = traj.coeffs.reshape(-1)
    sample = flat[:: max(1, flat.size // 4096)].tobytes()
    return {"key": f"{hashlib.blake2b(sample).hexdigest()}:{traj.coeffs.shape}:{p}"}


RESULT_INFO = {
    "spacetime.block_norm_matrix": _matrix_key,
    "solver.picard_solve":
        lambda a, k, r: {"iterations": len(r[1].picard_residuals)},
    "profiles.extract_profiles": lambda a, k, r: {"n_profiles": r.n_profiles()},
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(sid, parent, name, time.perf_counter(), math.nan))
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> Span:
        span = self.spans[sid]
        span.end = time.perf_counter()
        self._stack.pop()
        return span

    @contextmanager
    def root(self, name: str = "op"):
        """Record spans for the calls made inside this block."""
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def wrap(self, name: str, fn, info=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            sid = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = tracer._close(sid)
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return traced

    # -- patching ----------------------------------------------------------
    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every public function of LAYERS where any bnslab module binds it."""
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and isinstance(obj, types.FunctionType)
                        and obj.__module__ == mod.__name__):
                    name = f"{layer}.{attr}"
                    wrappers[obj] = self.wrap(name, obj, RESULT_INFO.get(name))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        cls = sys.modules[f"{PACKAGE}.field"].SpectralField
        self._patch(cls, "physical", self.wrap("field.physical", cls.physical))
        import numpy.fft
        import scipy.fft
        for lib_name, lib in (("scipy", scipy.fft), ("numpy", numpy.fft)):
            for fname, per_point in FFT_FUNCS.items():
                self._patch(lib, fname, self.wrap(
                    f"fft.{lib_name}.{fname}", getattr(lib, fname),
                    functools.partial(_fft_info, per_point)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# -- analysis ------------------------------------------------------------------

def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration of each span minus the part of it covered by its children."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, lo, hi = 0.0, None, None
        for c_lo, c_hi in sorted(children.get(s.sid, ())):
            c_lo, c_hi = max(c_lo, s.start), min(c_hi, s.end)
            if c_hi <= c_lo:
                continue
            if hi is None or c_lo > hi:
                covered += 0.0 if hi is None else hi - lo
                lo, hi = c_lo, c_hi
            else:
                hi = max(hi, c_hi)
        if hi is not None:
            covered += hi - lo
        out[s.sid] = s.duration - covered
    return out


def _has_ancestor(span: Span, name: str, by_id: dict[int, Span]) -> bool:
    sid = span.parent
    while sid >= 0:
        anc = by_id[sid]
        if anc.name == name:
            return True
        sid = anc.parent
    return False


def layer_metrics(spans: list[Span], n_ops: int) -> dict[str, float]:
    """Per-op counts and times of each measured layer, from the recorded spans."""
    own = self_times(spans)
    by_id = {s.sid: s for s in spans}
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def calls(name):
        return len(by_name[name]) / n_ops

    def self_s(name):
        return sum(own[s.sid] for s in by_name[name]) / n_ops

    def incl_s(name):  # outermost spans only, so recursion counts once
        return sum(s.duration for s in by_name[name]
                   if not _has_ancestor(s, name, by_id)) / n_ops

    ffts = [s for s in spans if s.name.startswith("fft.")]
    keys = {s.info["key"] for s in by_name["spacetime.block_norm_matrix"]}
    inversions = len(by_name["expansion.invert_K"])
    b_in_inversion = sum(_has_ancestor(s, "expansion.invert_K", by_id)
                         for s in by_name["solver.bilinear_B"])
    return {
        "fft.calls": len(ffts) / n_ops,
        "fft.self_s": sum(own[s.sid] for s in ffts) / n_ops,
        "fft.points": sum(s.info["points"] for s in ffts) / n_ops,
        "fft.bytes_computed": sum(s.info["bytes"] for s in ffts) / n_ops,
        "fft.gflop_computed": sum(s.info["flops"] for s in ffts) / n_ops / 1e9,
        "fft.numpy_calls": sum(s.name.startswith("fft.numpy.") for s in ffts) / n_ops,
        "spacetime.block_norm_matrix.calls": calls("spacetime.block_norm_matrix"),
        "spacetime.block_norm_matrix.self_s": self_s("spacetime.block_norm_matrix"),
        "spacetime.block_norm_matrix.incl_s": incl_s("spacetime.block_norm_matrix"),
        "spacetime.block_norm_matrix.recompute_ratio":
            len(by_name["spacetime.block_norm_matrix"]) / len(keys) if keys else 0.0,
        "spacetime.script_norm.calls": calls("spacetime.script_norm"),
        "solver.nonlinear_term.calls": calls("solver.nonlinear_term"),
        "solver.nonlinear_term.self_s": self_s("solver.nonlinear_term"),
        "solver.nonlinear_term.incl_s": incl_s("solver.nonlinear_term"),
        "solver.duhamel_integral.calls": calls("solver.duhamel_integral"),
        "solver.duhamel_integral.self_s": self_s("solver.duhamel_integral"),
        "solver.bilinear_B.calls": calls("solver.bilinear_B"),
        "solver.picard_iters": sum(s.info["iterations"]
                                   for s in by_name["solver.picard_solve"]) / n_ops,
        "expansion.invert_K.calls": calls("expansion.invert_K"),
        "expansion.invert_K.self_s": self_s("expansion.invert_K"),
        "expansion.invert_K.incl_s": incl_s("expansion.invert_K"),
        "expansion.B_per_inversion": b_in_inversion / inversions if inversions else 0.0,
        "profiles.extract_profiles.self_s": self_s("profiles.extract_profiles"),
        "profiles.scale_op.calls": calls("profiles.scale_op"),
        "profiles.translate.calls": calls("profiles.translate"),
        "profiles.translate.self_s": self_s("profiles.translate"),
        "profiles.n_extracted": sum(s.info["n_profiles"]
                                    for s in by_name["profiles.extract_profiles"]) / n_ops,
        "field.dyadic_shift.calls": calls("field.dyadic_shift"),
        "field.dyadic_shift.self_s": self_s("field.dyadic_shift"),
        "field.physical.calls": calls("field.physical"),
        "field.leray_project.calls": calls("field.leray_project"),
        "littlewood_paley.besov_norm.calls": calls("littlewood_paley.besov_norm"),
        "littlewood_paley.besov_norm.self_s": self_s("littlewood_paley.besov_norm"),
        "littlewood_paley.besov_norm.incl_s": incl_s("littlewood_paley.besov_norm"),
    }

"""Per-layer call counts and self times, recorded from outside the library.

The library's modules import each other's functions by name
(``from .linalg import solve``), so a wrapper installed only on
``gpcodes.linalg.solve`` would never see the calls made from ``gpc``,
``epc`` or ``oracle``.  :class:`LayerTracer` therefore rebinds every
module-level name in ``gpcodes.*`` that refers to a traced function,
patches traced methods on their classes, and puts all of it back on
:meth:`LayerTracer.uninstall`.

Spanned functions get a call count and a self time (their duration
minus the time of traced calls made inside them).  The ``GF``
arithmetic methods run millions of times per pass, so they get a
counter only; their time stays in the self time of the enclosing span.
"""

from __future__ import annotations

import contextlib
import sys
from time import perf_counter

# metric prefix -> (module, attribute path); methods are "Class.method".
SPANNED = {
    "linalg.solve": ("gpcodes.linalg", "solve"),
    "linalg.row_reduce": ("gpcodes.linalg", "row_reduce"),
    "linalg.rank": ("gpcodes.linalg", "rank"),
    "linalg.kron": ("gpcodes.linalg", "kron"),
    "linalg.vandermonde": ("gpcodes.linalg", "vandermonde"),
    "gpc.encode": ("gpcodes.gpc", "encode"),
    "gpc.decode_rows": ("gpcodes.gpc", "decode_rows"),
    "gpc.decode_iterative": ("gpcodes.gpc", "decode_iterative"),
    "gpc.full_parity_matrix": ("gpcodes.gpc", "full_parity_matrix"),
    "epc.lc_encode": ("gpcodes.epc", "lc_encode"),
    "epc.lc_erasure_decode": ("gpcodes.epc", "lc_erasure_decode"),
    "epc.LinearCode.parity_positions": ("gpcodes.epc",
                                        "LinearCode.parity_positions"),
    "epc.build_h2": ("gpcodes.epc", "build_h2"),
    "oracle.brute_min_distance": ("gpcodes.oracle", "brute_min_distance"),
    "oracle.correctable": ("gpcodes.oracle", "correctable"),
    "files.load_code_spec": ("gpcodes.files", "load_code_spec"),
    "files.read_symbols": ("gpcodes.files", "read_symbols"),
    "files.parse_array_text": ("gpcodes.files", "parse_array_text"),
    "files.array_to_text": ("gpcodes.files", "array_to_text"),
}

COUNTED = {
    "fields.GF.mul": ("gpcodes.fields", "GF.mul"),
    "fields.GF.pow": ("gpcodes.fields", "GF.pow"),
    "fields.GF.inv": ("gpcodes.fields", "GF.inv"),
}

# Spans whose individual durations are kept, for percentiles.
KEEP_DURATIONS = ("gpc.decode_iterative",)


def _resolve(module_name: str, path: str):
    owner = sys.modules[module_name]
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


class LayerTracer:
    """Wraps the traced functions of ``gpcodes`` while installed.

    Recording is on from :meth:`install` until :meth:`uninstall`,
    except inside :meth:`paused`, which the workloads use around input
    generation and correctness checks so that only the calls a workload
    times are counted.
    """

    def __init__(self):
        self.enabled = False
        self.calls = {name: 0 for name in (*SPANNED, *COUNTED)}
        self.self_s = {name: 0.0 for name in SPANNED}
        self.raised = {name: 0 for name in SPANNED}
        self.durations = {name: [] for name in KEEP_DURATIONS}
        self.subsets_examined = 0
        self._child_time: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------

    def install(self) -> "LayerTracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        sites = [mod for mod_name, mod in list(sys.modules.items())
                 if mod_name == "gpcodes" or mod_name.startswith("gpcodes.")]
        try:
            for table, wrap in ((SPANNED, self._span), (COUNTED, self._count)):
                for name, (module, path) in table.items():
                    owner, attr, original = _resolve(module, path)
                    wrapper = wrap(name, original)
                    if "." in path:
                        # a method: the class attribute is its only binding
                        self._patch(owner, attr, original, wrapper)
                        continue
                    for mod in sites:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._patch(mod, key, original, wrapper)
        except BaseException:
            self.uninstall()
            raise
        self.enabled = True
        return self

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        self.enabled = False
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    @contextlib.contextmanager
    def paused(self):
        was = self.enabled
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = was

    # -- wrappers ---------------------------------------------------

    def _span(self, name: str, fn):
        calls, self_s, raised = self.calls, self.self_s, self.raised
        child_time = self._child_time
        durations = self.durations.get(name)
        is_oracle = name == "oracle.brute_min_distance"
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            child_time.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                raised[name] += 1
                raise
            finally:
                elapsed = perf_counter() - start
                self_s[name] += elapsed - child_time.pop()
                calls[name] += 1
                if child_time:
                    child_time[-1] += elapsed
                if durations is not None:
                    durations.append(elapsed)
            if is_oracle:
                tracer.subsets_examined += result.subsets_examined
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name: str, fn):
        calls = self.calls
        tracer = self

        def wrapper(*args):
            if tracer.enabled:
                calls[name] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

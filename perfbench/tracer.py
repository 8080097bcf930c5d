"""Per-layer spans and counts, recorded from outside qarith.

``Tracer.install`` wraps the public functions of each qarith module, the ring
payload operations and the ``RingElement`` operators, and ``uninstall`` puts
the originals back, so an untraced pass runs the library untouched.

Coarse calls get a span: its self time is its duration minus the time of the
spans it contains.  Ring operations are counted only where the call enters
``rings`` from outside (a polynomial op's inner base-ring ops are not), and
only the big ones get a span; for the rest a timer would cost more than the
operation.  There is one thread and no I/O, so nothing waits and no wait time
is recorded.
"""

from __future__ import annotations

import time
import weakref
from collections import Counter, defaultdict

# span name -> the public functions, as (module, name), whose calls it times
SPANS = {
    "cli.main": [("cli", "main")],
    "cli.parse": [("cli", "parse_ring"), ("cli", "parse_element")],
    "cli.run_identity": [("cli", "run_identity")],
    "qnum.q_binomial": [("qnum", "q_binomial")],
    "qnum.q_factorial": [("qnum", "q_factorial")],
    "qnum.q_state": [("qnum", "q_state")],
    "qnum.q_characteristic": [("qnum", "q_characteristic")],
    "qnum.certify_flatness": [("qnum", "certify_flatness")],
    "cyclotomic.cyclotomic_poly": [("cyclotomic", "cyclotomic_poly")],
    "cyclotomic.evaluate_factors": [("cyclotomic", "evaluate_factors")],
    "qrational.q_state_rational": [("qrational", "q_state_rational")],
    "qrational.build_root_system": [("qrational", "build_root_system")],
    "twisted.twisted_power": [("twisted", "twisted_power")],
    "twisted.expand": [("twisted", "expand_in_twisted_basis")],
}

# ring kind -> class name in qarith.rings (TwistedAlgebra lives in qarith.twisted)
KINDS = {
    "zn": "ModularRing",
    "zt": "PolynomialRing",
    "laurent": "LaurentRing",
    "qt": "RationalFunctionField",
    "cyclo": "CyclotomicRing",
    "quot": "QuotientRing",
    "mpoly": "TwistedAlgebra",
}
OPS = {"add": "_add", "mul": "_mul", "invert": "_invert"}
TIMED_RING_OPS = {"zt.mul", "cyclo.mul", "qt.add", "qt.mul", "quot.mul", "quot.invert"}
ELEM_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__neg__", "__pow__", "__truediv__", "__rtruediv__",
)
REUSE = {"q_state": "state", "q_factorial": "factorial", "q_binomial": "binomial"}


class Tracer:
    def __init__(self):
        self.counts = Counter()
        self.self_s = defaultdict(float)
        self._stack = []
        self._ring_depth = 0
        self._enum_depth = 0
        self._reach = weakref.WeakKeyDictionary()
        self._undo = []

    # --- recording ---

    def _timed(self, name, fn, args, kwargs):
        frame = [0.0]
        stack = self._stack
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            stack.pop()
            self.self_s[name] += dt - frame[0]
            if stack:
                stack[-1][0] += dt

    def _span(self, name, fn):
        def span(*args, **kwargs):
            return self._timed(name, fn, args, kwargs)

        return span

    def _reuse(self, which, fn):
        """Count q_state/q_factorial/q_binomial calls whose index an earlier
        call of the same kind on the same context already reached."""

        def reuse(ctx, index, *args, **kwargs):
            key = which if index >= 0 else which + "-"
            reached = self._reach.setdefault(ctx, {})
            self.counts["qnum.reuse.calls"] += 1
            if reached.get(key, -1) >= abs(index):
                self.counts["qnum.reuse.hits"] += 1
            else:
                reached[key] = abs(index)
            return fn(ctx, index, *args, **kwargs)

        return reuse

    def _ring_op(self, key, fn):
        timed = key in TIMED_RING_OPS
        name = f"rings.{key}"
        calls = f"rings.{key}.calls"
        is_invert = key.endswith(".invert")

        def op(ring, *args):
            if self._ring_depth:
                return fn(ring, *args)
            self._ring_depth = 1
            self.counts[calls] += 1
            try:
                out = self._timed(name, fn, (ring,) + args, {}) if timed else fn(ring, *args)
            finally:
                self._ring_depth = 0
            if is_invert:
                self.counts["rings.invert.attempts"] += 1
                self.counts["rings.invert.units"] += out is not None
            return out

        return op

    def _payloads(self, fn):
        """Count elements yielded by an enumeration entered from outside rings."""

        def payloads(ring):
            top = self._enum_depth == 0
            it = iter(fn(ring))
            while True:
                self._enum_depth += 1
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._enum_depth -= 1
                if top:
                    self.counts["rings.enumerated"] += 1
                yield item

        return payloads

    def _counted(self, key, fn):
        def counted(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # --- patching ---

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace_function(self, modules, fn, wrapper):
        """Rebind every module-level name bound to fn, across all qarith modules."""
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._set(mod, attr, wrapper)

    def install(self, qarith):
        modules = [qarith] + [getattr(qarith, m) for m in
                              ("cli", "qnum", "qrational", "cyclotomic", "twisted", "rings")]
        for name, targets in SPANS.items():
            for mod_name, fn_name in targets:
                fn = getattr(getattr(qarith, mod_name), fn_name)
                wrapper = self._span(name, fn)
                if fn_name in REUSE:
                    wrapper = self._reuse(REUSE[fn_name], wrapper)
                self._replace_function(modules, fn, wrapper)
        twisted = qarith.twisted.TwistedAlgebra
        self._set(twisted, "sigma", self._span("twisted.sigma", twisted.__dict__["sigma"]))
        qcontext = qarith.qnum.QContext
        self._set(qcontext, "__init__", self._counted("qnum.contexts", qcontext.__dict__["__init__"]))
        for kind, cls_name in KINDS.items():
            cls = getattr(qarith.rings, cls_name, None) or getattr(qarith.twisted, cls_name)
            for op, meth in OPS.items():
                self._set(cls, meth, self._ring_op(f"{kind}.{op}", cls.__dict__[meth]))
            if "payloads" in cls.__dict__:
                self._set(cls, "payloads", self._payloads(cls.__dict__["payloads"]))
        elem = qarith.rings.RingElement
        for meth in ELEM_OPS:
            self._set(elem, meth, self._counted("rings.elem_ops.calls", elem.__dict__[meth]))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # --- reading ---

    def snapshot(self):
        return Counter(self.counts), dict(self.self_s)


def layer_metrics(counts: Counter, self_s: dict) -> dict:
    """Per-layer metric values for one pass, from its count and self-time deltas."""
    out = {}
    for kind in KINDS:
        for op in OPS:
            out[f"rings.{kind}.{op}.calls"] = counts.get(f"rings.{kind}.{op}.calls", 0)
    for key in ("rings.elem_ops.calls", "rings.enumerated", "qnum.contexts"):
        out[key] = counts.get(key, 0)
    attempts = counts.get("rings.invert.attempts", 0)
    out["rings.invert.unit_ratio"] = counts.get("rings.invert.units", 0) / attempts if attempts else 0.0
    calls = counts.get("qnum.reuse.calls", 0)
    out["qnum.reuse_ratio"] = counts.get("qnum.reuse.hits", 0) / calls if calls else 0.0
    ms = lambda key: 1000.0 * self_s.get(key, 0.0)
    out["cli.main.self_ms"] = ms("cli.main")
    out["cli.parse.ms"] = ms("cli.parse")
    out["cli.run_identity.self_ms"] = ms("cli.run_identity")
    for name in SPANS:
        if not name.startswith("cli."):
            out[f"{name}.ms"] = ms(name)
    out["twisted.sigma.ms"] = ms("twisted.sigma")
    for key in sorted(TIMED_RING_OPS):
        out[f"rings.{key}.ms"] = ms(f"rings.{key}")
    return out


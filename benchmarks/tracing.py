"""Span tracer for the benchmark's traced runs.

The tracer replaces public names of `sigfuse` where their callers look
them up (a module attribute or a class attribute) with wrappers that
record one span per call: name, start, end, parent span and a byte
count. Spans stay in memory until `take()` hands them to the caller;
`aggregate()` turns them into per-layer calls, self time and bytes.

Nothing here changes what the wrapped functions compute. A name that the
program no longer has is skipped, so its metrics read as absent (zero).
"""

from __future__ import annotations

import functools
import json
import threading
import time

# span fields
NAME, START, END, PARENT, NBYTES, KEY = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, nbytes=None, key=None, event=None):
        """Traced version of `fn`.

        `name` is a string or a function of the call's arguments; `nbytes`
        maps (result, *args) to a byte count; `key` maps the arguments to a
        value that pairs spans of one request; `event` maps the arguments
        to the name of a zero-length span recorded inside this one.
        """
        spans = self.spans
        stack_of = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            span = [name(*args) if callable(name) else name, 0, 0,
                    stack[-1] if stack else None, 0,
                    key(*args) if key else None]
            stack.append(span)
            span[START] = time.perf_counter_ns()
            try:
                if event is not None:
                    now = time.perf_counter_ns()
                    spans.append([event(*args), now, now, span, 0, None])
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter_ns()
                stack.pop()
                spans.append(span)
            if nbytes is not None:
                span[NBYTES] = nbytes(result, *args)
            return result

        return traced

    # -- installing --------------------------------------------------------

    def patch(self, owner, attr: str, name, **kw) -> bool:
        """Replace `owner.attr` by a traced wrapper until `uninstall()`."""
        if isinstance(owner, type):
            # look through base classes; the wrapper goes on `owner` itself
            found = [k.__dict__[attr] for k in owner.__mro__ if attr in k.__dict__]
            original = found[0] if found else None
        else:
            original = getattr(owner, attr, None)
        if original is None:
            return False
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(original.__func__, name, **kw))
        else:
            replacement = self.wrap(original, name, **kw)
        own = not isinstance(owner, type) or attr in owner.__dict__
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original if own else None))
        return True

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a new window."""
        taken = self.spans[:]
        del self.spans[:len(taken)]
        return taken

    def dump(self, path):
        """Write the spans as JSON, parents as indices into the list."""
        spans = self.take()
        index = {id(s): i for i, s in enumerate(spans)}
        rows = [[s[NAME], s[START], s[END],
                 index.get(id(s[PARENT])) if s[PARENT] is not None else None,
                 s[NBYTES], s[KEY]] for s in spans]
        with open(path, "w") as fh:
            json.dump(rows, fh)


def load_spans(path) -> list[list]:
    with open(path) as fh:
        rows = json.load(fh)
    for row in rows:
        if row[PARENT] is not None:
            row[PARENT] = rows[row[PARENT]]
    return rows


def aggregate(spans) -> dict[str, list[int]]:
    """name -> [calls, self time in ns, bytes].

    Self time is a span's duration minus the time its child spans cover;
    children run on the parent's thread, nested inside it.
    """
    covered: dict[int, int] = {}
    for s in spans:
        if s[PARENT] is not None:
            covered[id(s[PARENT])] = covered.get(id(s[PARENT]), 0) + s[END] - s[START]
    out: dict[str, list[int]] = {}
    for s in spans:
        row = out.setdefault(s[NAME], [0, 0, 0])
        row[0] += 1
        row[1] += s[END] - s[START] - covered.get(id(s), 0)
        row[2] += s[NBYTES]
    return out


# ---------------------------------------------------------------------------
# what the traced runs wrap
# ---------------------------------------------------------------------------

def _params_nbytes(net) -> int:
    return sum(layer.weights.nbytes + layer.bias.nbytes
               for group in net.group_ids() for layer in net.group_layers(group))


def dense_namer(op: str, role):
    """Span name for a dense layer call, by the layer's role in the net."""
    def name(x, layer, *rest):
        return f"nn.{op}.{role(layer.in_dim, layer.out_dim)}"
    return name


def install_program(tracer: Tracer, sf, role):
    """Wrap the calls between sigfuse's in-process layers.

    `sf` is the imported `sigfuse` package; `role(in_dim, out_dim)` names a
    dense layer's place in the net.
    """
    data, model, nn, training, evaluate = sf.data, sf.model, sf.nn, sf.training, sf.evaluate
    p = tracer.patch
    p(training, "net_backward", "model.net_backward")
    for mod in (training, evaluate):
        p(mod, "net_forward", "model.net_forward")
        p(mod, "scores_to_aps", "evaluate.scores_to_aps")
    p(model, "dense_forward", dense_namer("dense_forward", role))
    p(model, "dense_backward", dense_namer("dense_backward", role))
    p(nn.LayerGrad, "zeros_like", "nn.LayerGrad.zeros_like",
      nbytes=lambda g, cls, layer: g.d_weights.nbytes + g.d_bias.nbytes)
    p(training, "sgd_step", "nn.sgd_step")
    p(model.HybridNet, "copy", "model.HybridNet.copy",
      nbytes=lambda net, self: _params_nbytes(net))
    p(training, "run_stage", "training.run_stage")
    p(training, "validation_map", "training.validation_map")
    p(data.Dataset, "arrays", "data.Dataset.arrays",
      nbytes=lambda r, *a: sum(x.nbytes for x in r[1].values()) + r[2].nbytes)
    p(data, "bank_to_bytes", "data.bank_to_bytes", nbytes=lambda r, bank: len(r))
    p(data, "bank_from_bytes", "data.bank_from_bytes", nbytes=lambda r, raw: len(raw))
    p(data, "lbp_extract", "data.lbp_extract")
    p(data, "synth_generate", "data.synth_generate")
    p(model, "model_to_bytes", "model.model_to_bytes", nbytes=lambda r, net: len(r))
    p(model, "model_from_bytes", "model.model_from_bytes", nbytes=lambda r, raw: len(raw))
    p(evaluate, "combination_sweep", "evaluate.combination_sweep")


def install_server(tracer: Tracer, sf, role):
    """Wrap the server side of the signature protocol.

    `process_request` runs on the accepting thread and `finish_request` on
    the handler thread, so the gap between their starts for one socket is
    the wait between accept and handler start.
    """
    protocol = sf.protocol
    p = tracer.patch
    p(protocol.SignatureServer, "process_request", "protocol.server.process_request",
      key=lambda self, request, addr: id(request))
    p(protocol.SignatureServer, "finish_request", "protocol.server.finish_request",
      key=lambda self, request, addr: id(request))
    p(protocol, "decode_request", "protocol.server.decode_request")
    p(protocol, "score_signature", "protocol.server.score_signature")
    p(protocol, "encode_response", "protocol.server.encode_response",
      event=lambda status, *rest: f"protocol.server.status.{status}")
    p(sf.model, "dense_forward", dense_namer("dense_forward", role))


def dispatch_waits_ms(spans) -> list[float]:
    """Accept-to-handler-start wait of every connection, in ms."""
    pending: dict[int, int] = {}
    waits = []
    for s in sorted(spans, key=lambda s: s[START]):
        if s[NAME] == "protocol.server.process_request":
            pending[s[KEY]] = s[START]
        elif s[NAME] == "protocol.server.finish_request" and s[KEY] in pending:
            waits.append((s[START] - pending.pop(s[KEY])) / 1e6)
    return waits
